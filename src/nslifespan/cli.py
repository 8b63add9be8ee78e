"""Batch certification front end.

Reads a JSON problem description, runs the requested certification, writes a
deterministic JSON certificate report, and prints a short human-readable
summary. Exit codes: 0 = certified (result feasible and every replayed
inequality passed), 2 = infeasible or hypothesis failure (diagnostics in the
report), 1 = input error (malformed config, schema violation, missing
norms, bad command-line arguments). The report bytes are stable across runs
for identical input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Mapping, NoReturn

from . import __version__
from .constants import DELTA0, composite_constants
from .errors import DomainError, InfeasibleExponentError, UnavailableBoundError
from .extensions import (
    AbstractParabolicProblem,
    ForceNorm,
    abstract_parabolic_lifespan,
    forced_lifespan,
)
from .initial_data import NormBundle, VortexGaussian, lp_norm, norm_bundle_from_vortex
from .jsonio import canonical_dumps, fingerprint
from .lifespan import (
    LifespanCertificate,
    global_certificate,
    optimize_delta,
    replay_certificate,
    state_from_norms,
    state_from_vortex,
    theorem31_bound,
    theorem41_bound,
    theorem41_explicit,
)
from .mixed_norms import SolutionNormInputs, ThetaExponents, grand_lebesgue_norm, nu_bound, psi_bound, psi_min
from .validation import NAN_MESSAGE, CompiledSchema

SCHEMA: dict = json.loads(Path(__file__).with_name("schema.json").read_text(encoding="utf-8"))
_COMPILED_SCHEMA = CompiledSchema(SCHEMA)


class ConfigError(ValueError):
    """Input-side failure: maps to exit code 1."""


def load_config(path: Path) -> dict:
    """Parse and schema-validate a problem configuration."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text, parse_constant=_reject_nan)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    validate_config(config)
    return config


def _reject_nan(name: str) -> float:
    # json accepts the non-standard literals NaN and +-Infinity; a NaN would
    # pass every bound of the schema, so it is rejected here
    if name == "NaN":
        raise ConfigError(NAN_MESSAGE)
    return float(name)


def validate_config(config: Mapping) -> None:
    # best_error picks the error jsonschema.validate would raise, and its message
    error = _COMPILED_SCHEMA.best_error(config)
    if error is not None:
        path, message = error
        field = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config field '{field}': {message}")
    mode = config["mode"]
    if mode == "abstract_parabolic":
        if "abstract_parabolic" not in config:
            raise ConfigError("mode abstract_parabolic requires the 'abstract_parabolic' block")
        return
    if "data" not in config:
        raise ConfigError(f"mode {mode} requires the 'data' block")
    if mode == "forced" and "force" not in config:
        raise ConfigError("mode forced requires the 'force' block")
    if mode == "mixed_norms" and "q_grid" not in config:
        raise ConfigError("mode mixed_norms requires 'q_grid'")


def _resolve_deltas(config: Mapping) -> tuple[float, ...]:
    if "delta_grid" in config:
        return tuple(float(x) for x in config["delta_grid"])
    return (float(config.get("delta", DELTA0)),)


def _initial_data(config: Mapping) -> VortexGaussian | NormBundle:
    data = config["data"]
    if "family" in data:
        return VortexGaussian(int(config["d"]), float(data["sigma"]), float(data["amplitude"]))
    return NormBundle.from_dict(data["norms"])


def _a_d_norm(data: VortexGaussian | NormBundle, d: int) -> float:
    if isinstance(data, VortexGaussian):
        return lp_norm(data, float(d))
    value = data.lp_norms.get(float(d))
    if value is None:
        raise ConfigError(f"norm bundle must contain |a|_d for d={d}")
    return value


def _certifier(config: Mapping) -> Callable[[float], LifespanCertificate]:
    """The per-delta certifier of the config's mode.

    The force and data blocks are parsed here, once per request. The force
    block goes first, so a request with errors in both reports the force's.
    """
    mode = config["mode"]
    d = int(config["d"])
    if mode == "forced":
        force = config["force"]
        f1, f2 = (
            ForceNorm(float(force[key]["theta"]), float(force[key]["lambda"]), float(force[key]["value"]))
            for key in ("k0", "k0_prime")
        )
    data = _initial_data(config)
    if mode == "global_test":
        a_d = _a_d_norm(data, d)
        return lambda delta: global_certificate(a_d, d, delta)
    if mode == "thm41_explicit":
        if isinstance(data, VortexGaussian):
            return _explicit_from_vortex(data)
        return lambda delta: theorem41_explicit(data, d, delta)
    if isinstance(data, VortexGaussian):
        state_at = functools.partial(state_from_vortex, data)
    else:
        state_at = functools.partial(state_from_norms, data, d)
    if mode == "thm31":
        return lambda delta: theorem31_bound(state_at(delta))
    if mode == "thm41":
        return lambda delta: theorem41_bound(state_at(delta))
    if mode == "forced":
        return lambda delta: forced_lifespan(state_at(delta), f1, f2)
    raise ConfigError(f"unsupported certificate mode {mode}")


def _explicit_from_vortex(data: VortexGaussian) -> Callable[[float], LifespanCertificate]:
    """The thm41_explicit certifier of vortex data, which checks (d, delta) before it builds the bundle.

    The bundle's gradient norm costs a quadrature in d, which is wasted
    where the constants reject (d, delta), as they do for every delta from
    d = 1024 on. The bundle is built once, at the first delta.
    """
    bundle = None

    def certify(delta: float) -> LifespanCertificate:
        nonlocal bundle
        if bundle is None:
            composite_constants(data.d, delta)  # raises the constants' error before the quadrature
            bundle = norm_bundle_from_vortex(data, theta=0.5)
        return theorem41_explicit(bundle, data.d, delta)

    return certify


def _certificate_result(config: Mapping, deltas: tuple[float, ...]) -> tuple[dict, bool, list]:
    certify = _certifier(config)
    result: dict[str, Any] = {}
    if len(deltas) == 1:
        cert = certify(deltas[0])
    else:
        sweep = optimize_delta(certify, deltas)
        cert = sweep.best
        result["delta_profile"] = [[dlt, t0, feas] for dlt, t0, feas in sweep.profile]

    result["certificate"] = cert.to_dict()
    replay_rows = [
        {"name": name, "passed": passed, "detail": detail}
        for name, passed, detail in replay_certificate(cert).results
    ]
    return result, cert.feasible, replay_rows


def _mixed_norms_result(config: Mapping, deltas: tuple[float, ...]) -> tuple[dict, bool, list]:
    d = int(config["d"])
    delta = deltas[0]
    q_grid = [float(q) for q in config["q_grid"]]
    bound = composite_constants(d, delta).iterate_bound
    inputs = SolutionNormInputs(k_sup=bound, k_prime_sup=bound, a_d_norm=_a_d_norm(_initial_data(config), d))
    psi_profile: list[list[float]] = []
    psi_errors: list[list] = []
    nu_profile: list[list[float]] = []
    nu_errors: list[list] = []
    identity_residual = 0.0
    for q in q_grid:
        try:
            th = ThetaExponents.create(d, q, delta)
            identity_residual = max(
                identity_residual, max(abs(r) for r in th.identity_residuals().values())
            )
            psi_profile.append([q, psi_bound(d, q, delta, inputs)])
        except (DomainError, InfeasibleExponentError) as exc:
            psi_errors.append([q, str(exc)])
        try:
            nu_profile.append([q, nu_bound(d, q, delta, inputs)])
        except (DomainError, InfeasibleExponentError) as exc:
            nu_errors.append([q, str(exc)])

    result: dict[str, Any] = {
        "delta": delta,
        "inputs": {
            "k_sup": inputs.k_sup,
            "k_prime_sup": inputs.k_prime_sup,
            "a_d_norm": inputs.a_d_norm,
        },
        "psi_profile": psi_profile,
        "psi_errors": psi_errors,
        "nu_profile": nu_profile,
        "nu_errors": nu_errors,
    }
    replay_rows: list[dict] = []
    feasible = bool(psi_profile) and bool(nu_profile)
    if psi_profile:
        diag = grand_lebesgue_norm(psi_profile, psi_profile)
        result["grand_lebesgue_self"] = diag
        replay_rows.append(
            {"name": "grand_lebesgue_diagonal", "passed": diag == 1.0, "detail": f"value={diag}"}
        )
    replay_rows.append(
        {
            "name": "theta_identities",
            "passed": identity_residual <= 1e-12,
            "detail": f"max residual {identity_residual:.3e}",
        }
    )
    if len(deltas) > 1:
        min_rows = []
        for q in q_grid:
            try:
                pm = psi_min(d, q, inputs, deltas)
                min_rows.append([q, pm.value, pm.delta])
            except DomainError as exc:
                min_rows.append([q, None, str(exc)])
        result["psi_min"] = min_rows
    return result, feasible, replay_rows


def _abstract_parabolic_result(block: Mapping) -> tuple[dict, bool, list]:
    # the block's keys are the problem's field names
    problem = AbstractParabolicProblem(**{name: float(block[name]) for name in AbstractParabolicProblem.__slots__})
    res = abstract_parabolic_lifespan(problem)
    result = {"lifespan": res.t, "breakdown": res.breakdown()}
    replay_rows = [
        {
            "name": "duhamel_inside_half_ball",
            "passed": res.ball_fraction < 1.0,
            "detail": f"fraction={res.ball_fraction:.6g}",
        },
        {
            "name": "contraction_at_most_half",
            "passed": res.contraction_factor <= 0.5,
            "detail": f"factor={res.contraction_factor:.6g}",
        },
    ]
    if not res.t > 0.0:  # T3 or T4 underflowed: a zero horizon certifies nothing
        replay_rows.insert(0, {"name": "lifespan_positive", "passed": False, "detail": f"lifespan={res.t:.6g}"})
    return result, True, replay_rows


# the ConstantSet scalars that each route reads, by the certificate's theorem
# (forced certifies as thm41) or by mode mixed_norms; a report's constants
# table holds these, and --print-constants prints every constant
_REPORTED_CONSTANTS = {
    "thm31": ("j1", "j2"),
    "thm41": ("j_bar", "c2"),
    "thm41-explicit": ("j_bar", "c2"),
    "global": ("s1", "s2", "j_bar", "c2"),
    "mixed_norms": ("j_bar", "c3"),
}


def build_report(config: Mapping) -> tuple[dict, bool]:
    """Run the configured certification and assemble the full report.

    Returns (report, certified); `certified` means the result is feasible
    and every replay row passed. Each result builder returns (result,
    feasible, replay rows).
    """
    mode = config["mode"]
    d = int(config["d"])
    deltas = _resolve_deltas(config)

    if mode == "mixed_norms":
        result, feasible, replay_rows = _mixed_norms_result(config, deltas)
    elif mode == "abstract_parabolic":
        result, feasible, replay_rows = _abstract_parabolic_result(config["abstract_parabolic"])
    else:
        result, feasible, replay_rows = _certificate_result(config, deltas)
    all_passed = all(row["passed"] for row in replay_rows)

    constants_block: dict[str, Any] = {}
    if mode != "abstract_parabolic":
        # after a grid sweep the table reflects the winning delta
        delta_for_table = deltas[0]
        route = mode
        if "certificate" in result:
            delta_for_table = float(result["certificate"]["delta_used"])
            route = result["certificate"]["theorem"]
        cs = composite_constants(d, delta_for_table)
        table = [
            {"name": name, "value": getattr(cs, name), "formula": cs.provenance[name]}
            for name in _REPORTED_CONSTANTS[route]
        ]
        constants_block = {"d": d, "delta": delta_for_table, "table": table}

    report = {
        "schema_version": "2",
        "package_version": __version__,
        "config": dict(config),
        "constants": constants_block,
        "result": result,
        "verification": {
            "all_passed": all_passed,
            "replay": replay_rows,
        },
    }
    report["fingerprint"] = fingerprint(report)
    return report, feasible and all_passed


def run(config_path: Path, output_path: Path, verbose: bool = False) -> int:
    """Execute one certification run; returns the process exit code."""
    try:
        report, certified = build_report(load_config(config_path))
    except ConfigError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleExponentError as exc:
        # checked before DomainError: infeasible exponents are a property of
        # the mathematical configuration, not of the input format
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (DomainError, UnavailableBoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1

    text = canonical_dumps(report)
    output_path.write_text(text, encoding="utf-8")
    summary = _summarize(report)
    print(summary)
    if verbose:
        for row in report["verification"]["replay"]:
            status = "pass" if row["passed"] else "FAIL"
            print(f"  [{status}] {row['name']}: {row['detail']}")
    return 0 if certified else 2


def _summarize(report: Mapping) -> str:
    result = report["result"]
    mode = report["config"]["mode"]
    if "certificate" in result:
        cert = result["certificate"]
        t0 = cert["t0"]
        t0_str = "infinity" if isinstance(t0, float) and math.isinf(t0) else f"{t0:.6g}"
        return (
            f"mode={mode} theorem={cert['theorem']} t0={t0_str} "
            f"feasible={cert['feasible']} verified={report['verification']['all_passed']}"
        )
    if mode == "mixed_norms":
        n_psi = len(result.get("psi_profile", []))
        n_nu = len(result.get("nu_profile", []))
        return f"mode=mixed_norms psi_points={n_psi} nu_points={n_nu} verified={report['verification']['all_passed']}"
    return f"mode={mode} lifespan={result.get('lifespan'):.6g} verified={report['verification']['all_passed']}"


def print_constants(d: int, delta: float) -> int:
    """Print the full constant table for (d, delta); returns the exit code."""
    try:
        rows = composite_constants(d, delta).table
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    print(f"constants for d={d}, delta={delta!r}")
    for name, value, formula in rows:
        print(f"  {name:<14s} = {value:<24.17g} {formula}")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with argument errors as input errors: exit 1, since 2 means infeasible here."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"input error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="nslifespan",
        description="Certified lifespan lower bounds from norms of the initial data.",
        add_help=True,
    )
    parser.add_argument("--config", type=Path, help="path to the JSON problem description")
    parser.add_argument("--out", type=Path, help="path for the JSON certificate report")
    parser.add_argument(
        "--print-constants",
        nargs=2,
        metavar=("D", "DELTA"),
        help="print the constant table for (d, delta) and exit",
    )
    parser.add_argument("--verbose", action="store_true", help="print the replay table")
    args = parser.parse_args(argv)

    if args.print_constants is not None:
        try:
            d = int(args.print_constants[0])
            delta = float(args.print_constants[1])
        except ValueError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 1
        return print_constants(d, delta)

    if args.config is None or args.out is None:
        print("input error: --config and --out are required (or use --print-constants)", file=sys.stderr)
        return 1
    return run(args.config, args.out, verbose=args.verbose)


if __name__ == "__main__":
    raise SystemExit(main())
