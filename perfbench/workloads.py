"""Seeded request generators for the benchmark workloads.

Every workload is a stream of blocks. A block has a fixed composition of
request kinds (mode, dimension, single delta or delta grid, extreme or
invalid input) in a seed-shuffled order, and the seed draws every
continuous parameter. A run always ends on a block boundary, so runs with
different seeds measure the same mix of work.

Each request is a dict ``{"config": ..., "expect": ...}``. The program
receives only ``config``; ``expect`` names the error class a rejected
input must raise (``None`` for a valid input). Why each workload was
chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

WORKLOADS = ("vortex_sweep", "norms_mix", "cli_cold")

DIMS = (3, 4, 5)
VORTEX_MODES = ("thm31", "thm41", "forced")
EXAMPLES_DIR = Path("docs") / "examples"


def _default_delta_grid() -> tuple[float, ...]:
    from nslifespan.constants import default_delta_grid

    return default_delta_grid()


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _vortex_force(rng: random.Random, d: int, delta: float) -> dict:
    """A force block whose exponents match the K0 and K0' weights.

    The matching lambdas, d/(2 theta) - 3/2, do not depend on delta.
    theta1 in (d/(1+delta), d) keeps the un-halved kernel decay below 1 for
    every delta at or above the given one; theta2 in (d/2, d) keeps the K0'
    Beta argument positive. Both lambdas come from the package's helpers.
    """
    from nslifespan.extensions import matching_lambda_k0, matching_lambda_k0_prime

    lo1 = d / (1.0 + delta)
    theta1 = lo1 + rng.uniform(0.1, 0.9) * (d - lo1)
    theta2 = d / 2.0 + rng.uniform(0.1, 0.9) * (d / 2.0)
    return {
        "k0": {"theta": theta1, "lambda": matching_lambda_k0(d, delta, theta1),
               "value": _log_uniform(rng, 1e-10, 1e-7)},
        "k0_prime": {"theta": theta2, "lambda": matching_lambda_k0_prime(d, theta2),
                     "value": _log_uniform(rng, 1e-10, 1e-7)},
    }


# ---------------------------------------------------------------------------
# vortex_sweep
# ---------------------------------------------------------------------------

# per block and mode: two single-delta requests for each d, two requests with
# a three-point delta grid and one extreme-but-valid input
VORTEX_BLOCK_SIZE = len(VORTEX_MODES) * (2 * len(DIMS) + 3)
_LOG_INVARIANT = (math.log(1e-3), math.log(1.0))


def _stratum(rng: random.Random, values: list, k: int, n: int):
    return rng.choice(values[k * len(values) // n:(k + 1) * len(values) // n])


def _vortex_config(rng: random.Random, mode: str, d: int, sigma: float, invariant: float,
                   deltas: list[float]) -> dict:
    # amplitude * sigma^2 is the Navier-Stokes scale invariant of the family
    config = {
        "d": d,
        "mode": mode,
        "data": {"family": "vortex_gaussian", "sigma": sigma, "amplitude": invariant / sigma**2},
    }
    if len(deltas) > 1:
        config["delta_grid"] = deltas
    else:
        config["delta"] = deltas[0]
    if mode == "forced":
        config["force"] = _vortex_force(rng, d, min(deltas))
    return {"config": config, "expect": None}


def vortex_block(rng: random.Random) -> list[dict]:
    """One block in a seed-shuffled order.

    The six single-delta requests of a mode form a Latin hypercube: each
    sixth of the delta grid and each sixth of the log range of the scale
    invariant is used once. A grid request takes one delta from each third
    of the grid. Stratifying keeps the work of a block nearly the same for
    every seed.
    """
    grid = list(_default_delta_grid())
    lo, hi = _LOG_INVARIANT
    out = []
    for mode in VORTEX_MODES:
        singles = zip([d for d in DIMS for _ in range(2)], rng.sample(range(6), 6), rng.sample(range(6), 6))
        for d, k_delta, k_inv in singles:
            invariant = math.exp(lo + (k_inv + rng.random()) * (hi - lo) / 6)
            out.append(_vortex_config(rng, mode, d, _log_uniform(rng, 0.05, 5.0), invariant,
                                      [_stratum(rng, grid, k_delta, 6)]))
        for _ in range(2):
            deltas = [_stratum(rng, grid, k, 3) for k in rng.sample(range(3), 3)]
            out.append(_vortex_config(rng, mode, rng.choice(DIMS), _log_uniform(rng, 0.05, 5.0),
                                      _log_uniform(rng, 1e-3, 1.0), deltas))
        # tiny sigma, amplitude up to 1e5, delta at either end of the grid
        out.append(_vortex_config(rng, mode, rng.choice(DIMS), _log_uniform(rng, 0.005, 0.02),
                                  _log_uniform(rng, 1.0, 10.0), [rng.choice(grid[:2] + grid[-2:])]))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# norms_mix
# ---------------------------------------------------------------------------

NORMS_MODES = ("thm31", "thm41", "thm41_explicit", "global_test", "forced", "mixed_norms",
               "abstract_parabolic")
NORMS_GRID_MODES = ("thm31", "thm41", "forced", "mixed_norms")
NORMS_INVALID = ("bad_dimension", "bad_delta", "unknown_key", "negative_norm",
                 "missing_block", "infeasible_force", "no_k0_bound")

NORMS_BLOCK = (
    [(mode, "single") for mode in NORMS_MODES for _ in range(4)]
    + [(mode, "grid") for mode in NORMS_GRID_MODES]
    + [("invalid", kind) for kind in NORMS_INVALID]
)


def _bundle(rng: random.Random, d: int, need_a_d: bool) -> dict:
    norms: dict = {"lp_norms": {}}
    shape = rng.choice(("full", "full", "no_a_d", "no_theta", "no_grad"))
    if need_a_d and shape == "no_a_d":
        shape = "full"
    if shape != "no_a_d":
        norms["lp_norms"][repr(float(d))] = _log_uniform(rng, 1e-6, 1e-2)
    if shape != "no_grad":
        norms["grad_d_norm"] = _log_uniform(rng, 1e-5, 1.0)
    if shape != "no_theta":
        norms["theta"] = rng.uniform(0.2, 1.0)
        norms["norm_d_plus_theta"] = _log_uniform(rng, 1e-6, 1e-2)
    return {"norms": norms}


def _explicit_theta_term_underflows(d: int, delta: float, norms: dict) -> bool:
    """Whether the thm41_explicit theta term (threshold/denominator)^(2d/(theta delta)) is subnormal.

    There the program's relative shrink of t0 is lost to rounding and the
    certificate fails its own replay, a known defect of the explicit route
    that these draws avoid (the threshold c2/d^2 does not depend on delta).
    """
    if "theta" not in norms:
        return False
    from nslifespan import constants

    threshold = constants._composite.__wrapped__(d, constants.DELTA0).threshold
    denom = 2.0 ** (d + norms["theta"]) * norms["norm_d_plus_theta"]
    log_term = 2.0 * d / (norms["theta"] * delta) * (math.log(threshold) - math.log(denom))
    return log_term < 0 and 0.0 < math.exp(log_term) < sys.float_info.min


def _norms_valid(rng: random.Random, mode: str, grid: bool) -> dict:
    d = rng.choice(DIMS)
    if mode == "abstract_parabolic":
        return {
            "d": d,
            "mode": mode,
            "abstract_parabolic": {
                "gamma": rng.uniform(0.1, 0.9),
                "c_gamma": _log_uniform(rng, 0.1, 10.0),
                "alpha": _log_uniform(rng, 0.1, 10.0),
                "k1": _log_uniform(rng, 0.1, 10.0),
                "k2": _log_uniform(rng, 0.1, 10.0),
                "t1": _log_uniform(rng, 0.1, 100.0),
                "t2": _log_uniform(rng, 0.1, 100.0),
            },
        }
    config: dict = {"d": d, "mode": mode}
    if mode == "mixed_norms":
        # q below d/delta and 1.5 d keeps every (q, delta) exponent admissible
        deltas = sorted(rng.uniform(0.2, 0.8) for _ in range(3 if grid else 1))
        q_max = min(d / deltas[-1], 1.5 * d) - 0.05
        config["q_grid"] = sorted(rng.uniform(d + 0.05, q_max) for _ in range(3))
    else:
        deltas = [rng.uniform(0.02, 0.95) for _ in range(3 if grid else 1)]
    if grid:
        config["delta_grid"] = deltas
    else:
        config["delta"] = deltas[0]
    if mode == "thm41_explicit":
        bundle = _bundle(rng, d, need_a_d=False)
        if "theta" not in bundle["norms"] and "grad_d_norm" not in bundle["norms"]:
            bundle["norms"]["grad_d_norm"] = _log_uniform(rng, 1e-5, 1.0)
        while _explicit_theta_term_underflows(d, config["delta"], bundle["norms"]):
            config["delta"] = rng.uniform(0.02, 0.95)
        config["data"] = bundle
        return config
    config["data"] = _bundle(rng, d, need_a_d=mode in ("global_test", "mixed_norms"))
    norms = config["data"]["norms"]
    if mode in ("thm31", "thm41", "forced"):
        # keep one K0 and one K0' bound available
        if repr(float(d)) not in norms["lp_norms"]:
            norms.setdefault("grad_d_norm", _log_uniform(rng, 1e-5, 1.0))
            if "theta" not in norms:
                norms["theta"] = rng.uniform(0.2, 1.0)
                norms["norm_d_plus_theta"] = _log_uniform(rng, 1e-6, 1e-2)
    if mode == "forced":
        config["force"] = _vortex_force(rng, d, min(deltas))
    return config


def _norms_invalid(rng: random.Random, kind: str) -> dict:
    """A rejected input and the error class the CLI maps to its exit code."""
    config = _norms_valid(rng, "thm41", grid=False)
    d = config["d"]
    norms = config["data"]["norms"]
    if kind == "bad_dimension":
        config["d"] = 2
        return {"config": config, "expect": "ConfigError"}
    if kind == "bad_delta":
        config["delta"] = rng.uniform(1.0, 2.0)
        return {"config": config, "expect": "ConfigError"}
    if kind == "unknown_key":
        config["sigma"] = rng.uniform(0.1, 1.0)
        return {"config": config, "expect": "ConfigError"}
    if kind == "negative_norm":
        norms["lp_norms"][repr(float(d))] = -_log_uniform(rng, 1e-6, 1e-2)
        return {"config": config, "expect": "ConfigError"}
    if kind == "missing_block":
        config["mode"] = rng.choice(("forced", "mixed_norms"))
        return {"config": config, "expect": "ConfigError"}
    if kind == "infeasible_force":
        # theta1 below d/(1+delta) pushes the kernel decay to 1 or more
        config["mode"] = "forced"
        force = _vortex_force(rng, d, config["delta"])
        force["k0"]["theta"] = rng.uniform(d / 3.0 + 0.05, d / (1.0 + config["delta"]) - 0.05)
        config["force"] = force
        return {"config": config, "expect": "InfeasibleExponentError"}
    if kind == "no_k0_bound":
        config["data"] = {"norms": {"lp_norms": {}, "grad_d_norm": _log_uniform(rng, 1e-5, 1.0)}}
        return {"config": config, "expect": "UnavailableBoundError"}
    raise ValueError(kind)


def norms_block(rng: random.Random) -> list[dict]:
    kinds = list(NORMS_BLOCK)
    rng.shuffle(kinds)
    out = []
    for mode, kind in kinds:
        if mode == "invalid":
            out.append(_norms_invalid(rng, kind))
        else:
            out.append({"config": _norms_valid(rng, mode, kind == "grid"), "expect": None})
    return out


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def example_files(root: Path) -> list[Path]:
    files = sorted((root / EXAMPLES_DIR).glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no example configs under {root / EXAMPLES_DIR}")
    return files


def cli_block(rng: random.Random, root: Path) -> list[Path]:
    """One pass over the example corpus in a seed-permuted order."""
    files = example_files(root)
    rng.shuffle(files)
    return files


# ---------------------------------------------------------------------------


def blocks(workload: str, seed: int, root: Path):
    """Stream of request blocks for a workload, fixed by the seed.

    Every stream is endless; a cli_cold block is one seed-permuted pass
    over the committed examples.
    """
    rng = random.Random(f"{workload}:{seed}")
    make = {"vortex_sweep": vortex_block, "norms_mix": norms_block,
            "cli_cold": lambda rng: cli_block(rng, root)}[workload]
    while True:
        yield make(rng)


def warm_up(workload: str) -> None:
    """The one-time lazy work a workload triggers before its first request.

    vortex_sweep: the gradient quadrature for each dimension and the
    constants of every (d, delta) on the default grid. norms_mix draws
    delta continuously and cli_cold runs in fresh processes, so neither has
    lazy work to do beyond the import.
    """
    import nslifespan.cli  # noqa: F401

    if workload != "vortex_sweep":
        return
    from nslifespan.constants import composite_constants
    from nslifespan.initial_data import VortexGaussian, grad_norm

    for d in DIMS:
        grad_norm(VortexGaussian(d, 1.0, 1.0))
        for delta in _default_delta_grid():
            composite_constants(d, delta)
