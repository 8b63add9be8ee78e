import copy
import hashlib
import importlib.util
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from nslifespan import cli
from nslifespan import initial_data as idmod
from nslifespan.cli import SCHEMA, ConfigError, build_report, load_config, main, validate_config
from nslifespan.constants import DELTA0, composite_constants
from nslifespan.errors import DomainError, InfeasibleExponentError, UnavailableBoundError
from nslifespan.jsonio import canonical_dumps, decode_infinities
from nslifespan.validation import ANNOTATIONS, KEYWORDS, best_error

from oracle_utils import canonical_dumps_recursive

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "nslifespan.cli", *args],
        capture_output=True,
        text=True,
    )


def write_config(tmp_path: Path, config: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


THM41_CONFIG = {
    "d": 3,
    "mode": "thm41",
    "data": {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 0.001},
}
NORMS_DATA = {"norms": {"lp_norms": {"3.0": 0.1}, "grad_d_norm": 0.2}}

SCHEMA_VIOLATIONS = {
    "d_below_3": {**THM41_CONFIG, "d": 2},
    "d_not_integer": {**THM41_CONFIG, "d": 3.5},
    "d_string": {**THM41_CONFIG, "d": "3"},
    "d_missing": {"mode": "thm41", "data": THM41_CONFIG["data"]},
    "delta_one": {**THM41_CONFIG, "delta": 1.0},
    "delta_zero": {**THM41_CONFIG, "delta": 0.0},
    "delta_grid_entry_outside": {**THM41_CONFIG, "delta_grid": [0.3, 1.5]},
    "unknown_key": {**THM41_CONFIG, "surprise": 1},
    "unknown_mode": {**THM41_CONFIG, "mode": "thm99"},
    "negative_lp_norm": {**THM41_CONFIG, "data": {"norms": {"lp_norms": {"3.0": -1.0}}}},
    "lp_norm_exponent_not_numeric": {**THM41_CONFIG, "data": {"norms": {"lp_norms": {"abc": 1e-4}}}},
    "negative_grad_norm": {**THM41_CONFIG, "data": {"norms": {**NORMS_DATA["norms"], "grad_d_norm": -0.2}}},
    "data_neither_branch": {**THM41_CONFIG, "data": {"family": "vortex_gaussian", "sigma": 1.0}},
    "data_both_branches": {**THM41_CONFIG, "data": {**THM41_CONFIG["data"], **NORMS_DATA}},
    "sigma_string": {**THM41_CONFIG, "data": {**THM41_CONFIG["data"], "sigma": "1.0"}},
    "delta_grid_not_array": {**THM41_CONFIG, "delta_grid": 0.5},
    # options that were removed are unknown fields
    "force_halved_kernel_decay": {
        **THM41_CONFIG,
        "mode": "forced",
        "force": {
            "k0": {"theta": 2.7, "lambda": -0.5, "value": 0.0},
            "k0_prime": {"theta": 2.0, "lambda": -0.6, "value": 0.0},
            "halved_kernel_decay": True,
        },
    },
    "solution_norms_block": {
        **THM41_CONFIG,
        "mode": "mixed_norms",
        "q_grid": [3.0],
        "solution_norms": {"k_sup": 1e-3, "k_prime_sup": 1e-3},
    },
    "top_level_theta": {**THM41_CONFIG, "mode": "thm41_explicit", "theta": 0.5},
    "config_not_object": [THM41_CONFIG],
    "tolerances_block": {**THM41_CONFIG, "mode": "thm31", "tolerances": {"rel_tol": 1e-16}},
}


class TestConfigValidation:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 3,,}', encoding="utf-8")
        result = run_cli("--config", str(path), "--out", str(tmp_path / "out.json"))
        assert result.returncode == 1
        assert "line" in result.stderr

    def test_missing_d(self, tmp_path):
        path = write_config(tmp_path, {"mode": "thm41", "data": THM41_CONFIG["data"]})
        result = run_cli("--config", str(path), "--out", str(tmp_path / "out.json"))
        assert result.returncode == 1
        assert "'d'" in result.stderr or "d" in result.stderr

    def test_unknown_field_rejected(self, tmp_path):
        cfg = dict(THM41_CONFIG)
        cfg["surprise"] = 1
        with pytest.raises(Exception):
            validate_config(cfg)

    def test_mode_specific_requirements(self):
        with pytest.raises(Exception):
            validate_config({"d": 3, "mode": "mixed_norms", "data": THM41_CONFIG["data"]})
        with pytest.raises(Exception):
            validate_config({"d": 3, "mode": "forced", "data": THM41_CONFIG["data"]})
        with pytest.raises(Exception):
            validate_config({"d": 3, "mode": "abstract_parabolic"})

    def test_missing_cli_arguments(self):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv",
        [["--mode", "thm31"], ["--print-constants", "3"], ["--surprise"]],
        ids=["removed_mode_flag", "missing_value", "unknown_flag"],
    )
    def test_argument_error_exits_1(self, capsys, argv):
        # argparse exits 2, which this CLI reserves for infeasible results
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 1
        assert "input error: " in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        assert "--print-constants" in capsys.readouterr().out

    def test_validation_never_loads_jsonschema(self):
        code = (
            "import sys; from nslifespan.cli import ConfigError, validate_config; "
            f"validate_config({THM41_CONFIG!r})\n"
            f"try: validate_config({SCHEMA_VIOLATIONS['d_below_3']!r})\n"
            "except ConfigError: pass\n"
            "else: raise AssertionError('d = 2 accepted')\n"
            "assert 'jsonschema' not in sys.modules"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("name", sorted(SCHEMA_VIOLATIONS))
    def test_schema_error_message(self, name):
        config = SCHEMA_VIOLATIONS[name]
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(config, SCHEMA)
        field = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
        with pytest.raises(ConfigError) as raised:
            validate_config(config)
        assert str(raised.value) == f"config field '{field}': {expected.value.message}"

    def test_schema_matches_metaschema(self):
        jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)

    def test_interpreter_covers_schema_keywords(self):
        # a keyword the interpreter lacks would be ignored, not enforced
        unknown = []

        def walk(schema, where):
            assert isinstance(schema, dict), where
            for keyword, value in schema.items():
                if keyword not in KEYWORDS and keyword not in ANNOTATIONS:
                    unknown.append(f"{where}/{keyword}")
                if keyword == "properties":
                    for name, subschema in value.items():
                        walk(subschema, f"{where}/properties/{name}")
                elif keyword == "oneOf":
                    for index, subschema in enumerate(value):
                        walk(subschema, f"{where}/oneOf/{index}")
                elif keyword in ("items", "propertyNames") or (
                    keyword == "additionalProperties" and not isinstance(value, bool)
                ):
                    walk(value, f"{where}/{keyword}")
                elif keyword in ("const", "enum"):
                    # the interpreter compares them with ==, jsonschema's equality for strings
                    assert all(isinstance(v, str) for v in (value if keyword == "enum" else [value])), where

        walk(SCHEMA, "#")
        assert not unknown, f"schema keywords the interpreter does not implement: {unknown}"

    def test_matches_jsonschema_on_mutants(self):
        # seeded mutations of the golden corpus and of SCHEMA_VIOLATIONS: the
        # interpreter rejects exactly what jsonschema rejects, with its best_match
        validator = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
        rng = random.Random(11)
        counts = {"accepted": 0, "rejected": 0}
        for base in [*_golden_corpus(), *SCHEMA_VIOLATIONS.values()]:
            for config in [base, *(_mutant(base, rng) for _ in range(8))]:
                expected = jsonschema.exceptions.best_match(validator.iter_errors(config))
                try:
                    validate_config(config)
                    got = None
                except ConfigError as exc:
                    got = str(exc)
                if expected is None:
                    # only the mode requirements, checked after the schema, may reject it
                    assert got is None or not got.startswith("config field"), (config, got)
                    counts["accepted"] += 1
                else:
                    field = "/".join(str(p) for p in expected.absolute_path) or "<root>"
                    assert got == f"config field '{field}': {expected.message}", config
                    counts["rejected"] += 1
        assert counts["accepted"] > 200 and counts["rejected"] > 1000, counts

    # Cases SCHEMA does not reach: its keys are sorted, and the branches of
    # its one oneOf exclude each other and both need an object
    UNREACHED_CASES = {
        "schema_order_breaks_ties": ({"type": "object", "required": ["x"], "additionalProperties": False}, {"y": 1}),
        "oneOf_loses_to_other_keywords": ({"oneOf": [{"type": "array"}, {"type": "array"}], "type": "object"}, 5),
        "branch_of_matching_type_wins": ({"oneOf": [{"required": ["y"]}, {"type": "object", "required": ["x"]}]}, {}),
        "two_valid_branches": ({"oneOf": [{"type": "object"}, {"required": []}]}, {}),
    }

    @pytest.mark.parametrize("name", sorted(UNREACHED_CASES))
    def test_unreached_cases_match_jsonschema(self, name):
        schema, instance = self.UNREACHED_CASES[name]
        expected = jsonschema.exceptions.best_match(jsonschema.Draft7Validator(schema).iter_errors(instance))
        assert best_error(instance, schema) == (tuple(expected.absolute_path), expected.message)

    NAN_CONFIGS = {
        "mixed_norms_q_grid": {"d": 3, "mode": "mixed_norms", "q_grid": [math.nan], "data": THM41_CONFIG["data"]},
        "forced_k0_lambda": {
            **THM41_CONFIG,
            "mode": "forced",
            "force": {
                "k0": {"theta": 2.7, "lambda": math.nan, "value": 0.0},
                "k0_prime": {"theta": 2.0, "lambda": -0.6, "value": 0.0},
            },
        },
    }

    @pytest.mark.parametrize("name", sorted(NAN_CONFIGS))
    def test_nan_literal_is_input_error(self, tmp_path, name):
        path = write_config(tmp_path, self.NAN_CONFIGS[name])
        assert "NaN" in path.read_text(encoding="utf-8")
        result = run_cli("--config", str(path), "--out", str(tmp_path / "out.json"))
        assert result.returncode == 1
        assert "input error" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("name", sorted(NAN_CONFIGS))
    def test_nan_is_input_error_in_process(self, name):
        # validate_config is all an in-process caller runs before build_report
        field = {"mixed_norms_q_grid": "q_grid/0", "forced_k0_lambda": "force/k0/lambda"}[name]
        with pytest.raises(ConfigError, match=f"^config field '{field}': NaN is not a valid number in a config$"):
            validate_config(self.NAN_CONFIGS[name])

    def test_search_block_is_input_error(self, tmp_path, capsys):
        # the thm31 search range is fixed; a search block is an unknown field
        config = {**THM41_CONFIG, "mode": "thm31", "search": {"t_min": 1e-6, "t_max": 1e6}}
        assert main(["--config", str(write_config(tmp_path, config)), "--out", str(tmp_path / "out.json")]) == 1
        assert "Additional properties are not allowed ('search' was unexpected)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, key",
        [
            ("force_halved_kernel_decay", "halved_kernel_decay"),
            ("solution_norms_block", "solution_norms"),
            ("top_level_theta", "theta"),
        ],
    )
    def test_removed_option_is_input_error(self, tmp_path, capsys, name, key):
        path = write_config(tmp_path, SCHEMA_VIOLATIONS[name])
        assert main(["--config", str(path), "--out", str(tmp_path / "out.json")]) == 1
        assert f"Additional properties are not allowed ('{key}' was unexpected)" in capsys.readouterr().err

    @pytest.mark.parametrize("module", ["scipy", "numpy", "jsonschema"])
    def test_import_leaves_out(self, module):
        code = f"import nslifespan.cli, sys; assert {module!r} not in sys.modules"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestRuns:
    def test_thm41_run_certified(self, tmp_path):
        path = write_config(tmp_path, THM41_CONFIG)
        out = tmp_path / "report.json"
        result = run_cli("--config", str(path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text(encoding="utf-8"))
        cert = report["result"]["certificate"]
        assert cert["theorem"] == "thm41"
        assert abs(cert["intermediate"]["threshold"] - 0.00036967) <= 1e-8
        assert report["verification"]["all_passed"] is True
        assert report["fingerprint"].startswith("sha256:")

    def test_fingerprint_integrity(self, tmp_path):
        from nslifespan.jsonio import decode_infinities, fingerprint

        path = write_config(tmp_path, THM41_CONFIG)
        out = tmp_path / "report.json"
        run_cli("--config", str(path), "--out", str(out))
        report = decode_infinities(json.loads(out.read_text(encoding="utf-8")))
        stored = report.pop("fingerprint")
        assert fingerprint(report) == stored

    def test_byte_stability(self, tmp_path):
        path = write_config(tmp_path, THM41_CONFIG)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli("--config", str(path), "--out", str(out1)).returncode == 0
        assert run_cli("--config", str(path), "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_reproduces_certificate(self, tmp_path):
        path = write_config(tmp_path, THM41_CONFIG)
        out1 = tmp_path / "r1.json"
        run_cli("--config", str(path), "--out", str(out1))
        report = json.loads(out1.read_text(encoding="utf-8"))
        extracted = report["config"]
        path2 = write_config(tmp_path, extracted, "extracted.json")
        out2 = tmp_path / "r2.json"
        run_cli("--config", str(path2), "--out", str(out2))
        report2 = json.loads(out2.read_text(encoding="utf-8"))
        assert canonical_dumps(report["result"]) == canonical_dumps(report2["result"])

    def test_global_test_infinity_encoding(self, tmp_path):
        cfg = {
            "d": 3,
            "mode": "global_test",
            "data": {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 1e-6},
        }
        out = tmp_path / "report.json"
        result = run_cli("--config", str(write_config(tmp_path, cfg)), "--out", str(out))
        assert result.returncode == 0
        raw = out.read_text(encoding="utf-8")
        assert '"t0": "infinity"' in raw
        report = decode_infinities(json.loads(raw))
        assert report["result"]["certificate"]["t0"] == math.inf

    def test_global_test_infeasible_exit_2(self, tmp_path):
        cfg = {
            "d": 3,
            "mode": "global_test",
            "data": {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 10.0},
        }
        out = tmp_path / "report.json"
        result = run_cli("--config", str(write_config(tmp_path, cfg)), "--out", str(out))
        assert result.returncode == 2
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["result"]["certificate"]["feasible"] is False

    def test_thm31_with_delta_grid(self, tmp_path):
        cfg = {
            "d": 3,
            "mode": "thm31",
            "delta_grid": [0.2, DELTA0, 0.4],
            "data": {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 0.05},
        }
        out = tmp_path / "report.json"
        result = run_cli("--config", str(write_config(tmp_path, cfg)), "--out", str(out))
        assert result.returncode == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert len(report["result"]["delta_profile"]) == 3
        best_t0 = report["result"]["certificate"]["t0"]
        assert best_t0 == max(row[1] for row in report["result"]["delta_profile"])

    def test_norm_bundle_data(self, tmp_path):
        cfg = {
            "d": 3,
            "mode": "thm41",
            "data": {"norms": {"lp_norms": {"3.0": 1.2e-4}, "grad_d_norm": 0.2}},
        }
        out = tmp_path / "report.json"
        result = run_cli("--config", str(write_config(tmp_path, cfg)), "--out", str(out))
        assert result.returncode == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["result"]["certificate"]["t0"] > 0

    def test_thm41_explicit_from_family(self, tmp_path):
        cfg = {
            "d": 3,
            "mode": "thm41_explicit",
            "data": {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 0.01},
        }
        out = tmp_path / "report.json"
        result = run_cli("--config", str(write_config(tmp_path, cfg)), "--out", str(out))
        assert result.returncode == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["result"]["certificate"]["theorem"] == "thm41-explicit"

    def test_mixed_norms_mode(self, tmp_path):
        cfg = {
            "d": 3,
            "mode": "mixed_norms",
            "q_grid": [3.0, 4.0, 5.0],
            "data": {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 1.0},
        }
        out = tmp_path / "report.json"
        result = run_cli("--config", str(write_config(tmp_path, cfg)), "--out", str(out))
        assert result.returncode == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["result"]["grand_lebesgue_self"] == 1.0
        assert len(report["result"]["psi_profile"]) == 3

    def test_forced_mode(self, tmp_path):
        from nslifespan.extensions import matching_lambda_k0, matching_lambda_k0_prime

        cfg = {
            "d": 3,
            "mode": "forced",
            "data": {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 1e-6},
            "force": {
                "k0": {"theta": 2.7, "lambda": matching_lambda_k0(3, DELTA0, 2.7), "value": 1e-7},
                "k0_prime": {"theta": 2.0, "lambda": matching_lambda_k0_prime(3, 2.0), "value": 1e-7},
            },
        }
        out = tmp_path / "report.json"
        result = run_cli("--config", str(write_config(tmp_path, cfg)), "--out", str(out))
        assert result.returncode == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["result"]["certificate"]["t0"] == "infinity"

    def test_forced_mode_infeasible_exit_2(self, tmp_path):
        cfg = {
            "d": 3,
            "mode": "forced",
            "data": {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 1e-6},
            "force": {
                "k0": {"theta": 2.7, "lambda": -0.5, "value": 1e-7},  # mismatched lambda
                "k0_prime": {"theta": 2.0, "lambda": -0.75, "value": 1e-7},
            },
        }
        out = tmp_path / "report.json"
        result = run_cli("--config", str(write_config(tmp_path, cfg)), "--out", str(out))
        assert result.returncode == 2
        assert "infeasible" in result.stderr

    def test_mixed_norms_with_delta_grid(self, tmp_path):
        cfg = {
            "d": 3,
            "mode": "mixed_norms",
            "delta_grid": [0.2, DELTA0, 0.5],
            "q_grid": [3.0, 4.0],
            "data": {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 1.0},
        }
        out = tmp_path / "report.json"
        result = run_cli("--config", str(write_config(tmp_path, cfg)), "--out", str(out))
        assert result.returncode == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert len(report["result"]["psi_min"]) == 2
        for _q, value, argmin in report["result"]["psi_min"]:
            assert value > 0 and argmin in cfg["delta_grid"]

    @pytest.mark.parametrize("mode", ["thm31", "thm41", "thm41_explicit", "forced"])
    def test_theta_out_of_range_is_input_error(self, tmp_path, mode):
        # theta = 2.5 lies outside (0, 1]
        from nslifespan.extensions import matching_lambda_k0, matching_lambda_k0_prime

        cfg = {
            "d": 3,
            "mode": mode,
            "delta": 0.5,
            "data": {"norms": {"lp_norms": {}, "theta": 2.5, "norm_d_plus_theta": 1e-4, "grad_d_norm": 1e-3}},
            "force": {
                "k0": {"theta": 2.7, "lambda": matching_lambda_k0(3, 0.5, 2.7), "value": 1e-7},
                "k0_prime": {"theta": 2.0, "lambda": matching_lambda_k0_prime(3, 2.0), "value": 1e-7},
            },
        }
        path = write_config(tmp_path, cfg)
        assert main(["--config", str(path), "--out", str(tmp_path / "report.json")]) == 1

    @pytest.mark.parametrize("keys", [("3", "3.0"), ("3.0", "3")])
    def test_repeated_lp_norm_exponent_is_input_error(self, tmp_path, capsys, keys):
        # '3' and '3.0' name one exponent; in either order neither value may silently win
        cfg = {"d": 3, "mode": "global_test", "data": {"norms": {"lp_norms": dict(zip(keys, (1e-6, 0.01)))}}}
        path = write_config(tmp_path, cfg)
        assert main(["--config", str(path), "--out", str(tmp_path / "report.json")]) == 1
        assert "exponent 3.0 twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, d, delta",
        [
            ({**THM41_CONFIG, "delta": 1e-300}, 3, 1e-300),
            ({"d": 1100, "mode": "thm41", "data": {"norms": {"lp_norms": {"1100.0": 1e-3}}}}, 1100, DELTA0),
        ],
        ids=["delta_squared_underflows", "two_to_the_d_overflows"],
    )
    def test_constants_out_of_double_range_are_input_error(self, tmp_path, capsys, cfg, d, delta):
        path = write_config(tmp_path, cfg)
        assert main(["--config", str(path), "--out", str(tmp_path / "report.json")]) == 1
        message = f"input error: the constants for d={d}, delta={delta} leave the range of the doubles"
        assert message in capsys.readouterr().err

    def test_abstract_parabolic_mode(self, tmp_path):
        cfg = {
            "d": 3,
            "mode": "abstract_parabolic",
            "abstract_parabolic": {
                "gamma": 0.5, "c_gamma": 1.0, "alpha": 1.0,
                "k1": 0.2, "k2": 0.3, "t1": 10.0, "t2": 5.0,
            },
        }
        out = tmp_path / "report.json"
        result = run_cli("--config", str(write_config(tmp_path, cfg)), "--out", str(out))
        assert result.returncode == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["result"]["lifespan"] > 0
        assert report["verification"]["all_passed"] is True

    def test_abstract_parabolic_overflowing_closed_forms(self, tmp_path):
        cfg = {
            "d": 3,
            "mode": "abstract_parabolic",
            "abstract_parabolic": {
                "gamma": 0.999, "c_gamma": 1.0, "alpha": 1.0,
                "k1": 1e-6, "k2": 1e-6, "t1": 1.0, "t2": 1.0,
            },
        }
        out = tmp_path / "report.json"
        assert main(["--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        report = decode_infinities(json.loads(out.read_text(encoding="utf-8")))
        assert report["result"]["lifespan"] == 1.0
        assert report["result"]["breakdown"]["t3"] == math.inf
        assert report["result"]["breakdown"]["t4"] == math.inf


    def test_abstract_parabolic_zero_horizon_is_infeasible(self, tmp_path):
        # T3 = (4.95e-10)^1000 and T4 underflow to 0; a zero horizon
        # certifies nothing, so the run exits 2
        cfg = {
            "d": 3,
            "mode": "abstract_parabolic",
            "abstract_parabolic": {
                "gamma": 0.999, "c_gamma": 1.0, "alpha": 1.0,
                "k1": 1e6, "k2": 1e6, "t1": 1.0, "t2": 1.0,
            },
        }
        out = tmp_path / "report.json"
        assert main(["--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["result"]["lifespan"] == 0.0
        assert report["verification"]["all_passed"] is False

    @pytest.mark.parametrize(
        "data, delta",
        [
            ({"norms": {"lp_norms": {"3.0": 1e160}, "grad_d_norm": 1.0}}, 0.3),
            ({"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 1e152}, 0.05),
        ],
        ids=["bundle", "vortex"],
    )
    def test_thm31_overflowing_quadratic_is_infeasible(self, tmp_path, data, delta):
        # (det1 + 1)^2 overflows the doubles at the search's first probes
        cfg = {"d": 3, "mode": "thm31", "delta": delta, "data": data}
        out = tmp_path / "report.json"
        assert main(["--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        cert = json.loads(out.read_text(encoding="utf-8"))["result"]["certificate"]
        assert cert["theorem"] == "thm31" and cert["feasible"] is False and cert["t0"] == 0.0

    EXTREME_INPUTS = {
        "vortex_sigma_squared_underflows": (
            {"d": 3, "mode": "global_test", "data": {"family": "vortex_gaussian", "sigma": 1e-200, "amplitude": 1.0}},
            "sigma^2 leaves the range of the doubles for sigma=1e-200",
        ),
        "vortex_sigma_squared_overflows": (
            {"d": 3, "mode": "thm41", "data": {"family": "vortex_gaussian", "sigma": 1e200, "amplitude": 1e-300}},
            "sigma^2 leaves the range of the doubles for sigma=1e+200",
        ),
        "bundle_power_underflows": (
            {
                "d": 3,
                "mode": "thm41_explicit",
                "delta": 1e-100,
                "data": {"norms": {"lp_norms": {}, "theta": 1e-300, "norm_d_plus_theta": 1e-3}},
            },
            "the power theta*delta/(2d) underflows to 0 for d=3, delta=1e-100, theta=1e-300",
        ),
        "bundle_coefficient_overflows": (
            {"d": 1023, "mode": "thm41", "data": {"norms": {"lp_norms": {}, "theta": 1.0, "norm_d_plus_theta": 1e-3}}},
            "2^(d+theta) leaves the range of the doubles for d=1023, theta=1.0",
        ),
        "vortex_peak_time_underflows": (
            {"d": 3, "mode": "thm41", "data": {"family": "vortex_gaussian", "sigma": 2.3e-162, "amplitude": 1.0}},
            "the peak time of the weighted norm leaves the range of the doubles for sigma^2=5e-324",
        ),
        "vortex_thm31_scaled_sigma_squared_underflows": (
            {
                "d": 3,
                "mode": "thm31",
                "delta": 0.5,
                "data": {"family": "vortex_gaussian", "sigma": 2.3e-162, "amplitude": 1.0},
            },
            "the peak time of the weighted norm leaves the range of the doubles for sigma^2=5e-324",
        ),
        "vortex_thm31_k0_peak_time_underflows": (
            # the peak time of K0 underflows while that of K0' does not; K0 is positive at every T > 0
            {
                "d": 3,
                "mode": "thm31",
                "delta": 0.97,
                "data": {"family": "vortex_gaussian", "sigma": 1e-161, "amplitude": 1.0},
            },
            "the peak time of the weighted norm leaves the range of the doubles for sigma^2=1e-322",
        ),
        "vortex_tiny_delta_scaled_sigma_squared_underflows": (
            {"d": 3, "mode": "thm41", "delta": 1e-140, "data": {"family": "vortex_gaussian", "sigma": 1e-154, "amplitude": 1.0}},
            "2 sigma^2/p leaves the range of the doubles for sigma=1e-154, p=3e+140",
        ),
    }

    @pytest.mark.parametrize("name", sorted(EXTREME_INPUTS))
    def test_extreme_input_is_input_error(self, tmp_path, capsys, name):
        config, message = self.EXTREME_INPUTS[name]
        validate_config(config)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build_report(config)
        assert main(["--config", str(write_config(tmp_path, config)), "--out", str(tmp_path / "r.json")]) == 1
        assert f"input error: {message}" in capsys.readouterr().err

    def test_infeasible_force_is_reported_before_the_vortex_norm(self, tmp_path, capsys):
        # |a|_{d/delta} of this field leaves the doubles (the thm41 entry above); the force
        # exponents are checked between the Kato profiles' build and their first probe
        config = copy.deepcopy(self.EXTREME_INPUTS["vortex_tiny_delta_scaled_sigma_squared_underflows"][0])
        config["mode"] = "forced"
        config["force"] = load_config(REPO_ROOT / "docs" / "examples" / "forced_small.json")["force"]
        validate_config(config)
        with pytest.raises(InfeasibleExponentError, match="^force contribution to k0 infeasible: "):
            build_report(config)
        assert main(["--config", str(write_config(tmp_path, config)), "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("sigma", [1e-200, 1e200])
    def test_zero_vortex_with_extreme_sigma_certifies(self, sigma):
        config = {"d": 3, "mode": "thm41", "data": {"family": "vortex_gaussian", "sigma": sigma, "amplitude": 0.0}}
        report, certified = build_report(config)
        assert certified and report["result"]["certificate"]["t0"] == math.inf

    @pytest.mark.parametrize(
        "d, delta, sigma, amplitude, dropped",
        [(3, DELTA0, 1.0, 1e308, {"d2"}), (3, DELTA0, 1e100, 1e300, {"s1", "s2", "d1", "d2"})],
        ids=["gradient_norm_infinite", "both_norms_infinite"],
    )
    def test_thm31_nan_quantities_leave_the_report(self, d, delta, sigma, amplitude, dropped):
        # inf - inf in the coupled quadratics is NaN, which fails d1 > 0 or
        # d2 > 0 and has no report encoding; amplitude * sigma * |grad a|_d
        # overflows at 1e308 while K0 stays finite, so only d2 is NaN
        data = {"family": "vortex_gaussian", "sigma": sigma, "amplitude": amplitude}
        report, certified = build_report({"d": d, "mode": "thm31", "delta": delta, "data": data})
        cert = report["result"]["certificate"]
        assert not certified and cert["feasible"] is False and cert["t0"] == 0.0
        assert not dropped & set(cert["intermediate"])
        assert {"s1", "s2", "d1", "d2"} - dropped <= set(cert["intermediate"])

    @pytest.mark.parametrize(
        "d, mode, code",
        [(877, "thm41", 0), (878, "thm41", 0), (3828, "thm41_explicit", 1)],
    )
    def test_large_dimension_vortex_finishes(self, tmp_path, d, mode, code):
        # the gradient rule's first Gauss node once stayed unconverged at these d: a
        # ZeroDivisionError (877), a hang (878), and from 3828 on with 64 axial nodes;
        # thm41_explicit rejects the (d, delta) constants, which leave the doubles,
        # before it builds the gradient constant
        config = {"d": d, "mode": mode, "data": {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 1e-3}}
        result = subprocess.run(
            [sys.executable, "-m", "nslifespan.cli", "--config", str(write_config(tmp_path, config)),
             "--out", str(tmp_path / "r.json")],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == code, result.stderr
        if code:
            assert result.stderr.startswith("input error: ") and "Traceback" not in result.stderr
        else:
            assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["result"]["certificate"]["feasible"]

    def test_explicit_route_rejects_the_constants_before_the_gradient_constant(self, monkeypatch):
        built = []
        original = idmod._grad_unit_constant
        monkeypatch.setattr(idmod, "_grad_unit_constant", lambda d: built.append(d) or original(d))
        data = {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 1e-3}
        message = f"the constants for d=3828, delta={DELTA0} leave the range of the doubles"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build_report({"d": 3828, "mode": "thm41_explicit", "data": data})
        assert built == []

    def test_explicit_route_builds_the_vortex_bundle_once_per_request(self, monkeypatch):
        bundles = []
        original = cli.norm_bundle_from_vortex
        monkeypatch.setattr(cli, "norm_bundle_from_vortex", lambda *a, **k: bundles.append(a) or original(*a, **k))
        data = {"family": "vortex_gaussian", "sigma": 1.0, "amplitude": 1e-3}
        config = {"d": 3, "mode": "thm41_explicit", "delta_grid": [0.2, 0.4, 0.6], "data": data}
        report, certified = build_report(config)
        assert certified and len(report["result"]["delta_profile"]) == 3
        assert len(bundles) == 1

    @pytest.mark.parametrize("mode", ["thm31", "thm41", "forced"])
    def test_vortex_norms_are_read_once_per_delta(self, monkeypatch, mode):
        # each delta builds its two Kato profiles once; every probe and root reuses their norm0
        calls = {name: 0 for name in ("lp_norm", "grad_norm", "k0_exact", "k0_prime_exact")}
        for name in calls:
            original = getattr(idmod, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(idmod, name, counted)
        from nslifespan.extensions import matching_lambda_k0, matching_lambda_k0_prime

        rand = random.Random(25)
        for _ in range(6):
            data = {
                "family": "vortex_gaussian",
                "sigma": 10.0 ** rand.uniform(-1.0, 1.0),
                "amplitude": 10.0 ** rand.uniform(-7.0, 0.0),
            }
            deltas = sorted(rand.uniform(0.1, 0.9) for _ in range(3))
            d = rand.randint(3, 6)
            # exponents that match the weights at every delta of the grid (perfbench/workloads.py)
            theta1, theta2 = d * (1.0 + 0.5 * deltas[0]) / (1.0 + deltas[0]), 0.75 * d
            force = {
                "k0": {"theta": theta1, "lambda": matching_lambda_k0(d, deltas[0], theta1), "value": 1e-9},
                "k0_prime": {"theta": theta2, "lambda": matching_lambda_k0_prime(d, theta2), "value": 1e-9},
            }
            for grid in ({"delta": deltas[0]}, {"delta_grid": deltas}):
                config = {"d": d, "mode": mode, "data": data, **grid}
                if mode == "forced":
                    config["force"] = force
                for name in calls:
                    calls[name] = 0
                build_report(config)
                certified = len(grid.get("delta_grid", [None]))
                assert calls == dict.fromkeys(calls, certified), config

    def test_force_dominated_forced_run_is_infeasible(self, tmp_path):
        # forced_small with a k0 force of 1.0: its coefficient 35.55 exceeds
        # the threshold 3.7e-4 at every horizon, so no positive double passes
        cfg = load_config(REPO_ROOT / "docs" / "examples" / "forced_small.json")
        cfg["force"]["k0"]["value"] = 1.0
        report, certified = build_report(cfg)
        cert = report["result"]["certificate"]
        assert not certified
        assert cert["t0"] == 0.0 and cert["feasible"] is False
        assert cert["intermediate"]["force_k0_coefficient"] == pytest.approx(35.55, rel=1e-3)
        assert cert["intermediate"]["threshold"] == pytest.approx(3.7e-4, rel=1e-2)
        assert not any("floor" in note for note in cert["notes"])
        assert main(["--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "r.json")]) == 2


class TestStartUp:
    def test_norm_bundle_run_leaves_numpy_out(self, tmp_path):
        config = REPO_ROOT / "docs" / "examples" / "explicit_from_norms.json"
        code = (
            "import sys; from nslifespan.cli import main; "
            f"code = main(['--config', {str(config)!r}, '--out', {str(tmp_path / 'out.json')!r}]); "
            "assert code == 0, code; assert 'numpy' not in sys.modules"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    # the gradient constants of the Gauss rule with 150 axial nodes, before the axial rule was cut to 64
    GRADIENT_CONSTANT_BITS = {
        3: "0x1.001f011fa0f00p+1",
        4: "0x1.b6d9cf635f7cfp+0",
        5: "0x1.86b709afbe45ep+0",
        6: "0x1.6438590410b94p+0",
        7: "0x1.49f7037737a23p+0",
        8: "0x1.3517785b5e2bcp+0",
        20: "0x1.8e124e5fba235p-1",
        50: "0x1.fd43fd0410df9p-2",
        100: "0x1.6989d8faf8f4ep-2",
    }

    def test_gradient_constant_same_in_a_fresh_process(self):
        # the golden report digests rely on every process computing the gradient constant bit for bit
        from nslifespan.initial_data import _grad_unit_constant

        dims = tuple(self.GRADIENT_CONSTANT_BITS)
        code = (
            "from nslifespan.initial_data import _grad_unit_constant; "
            f"print(' '.join(_grad_unit_constant(d).hex() for d in {dims!r}))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == list(self.GRADIENT_CONSTANT_BITS.values())
        assert [_grad_unit_constant(d).hex() for d in dims] == list(self.GRADIENT_CONSTANT_BITS.values())

    @pytest.mark.parametrize("example", sorted(p.name for p in (REPO_ROOT / "docs" / "examples").glob("*.json")))
    def test_run_loads_only_the_standard_library(self, tmp_path, example):
        # modules the interpreter loaded at start-up (__main__, site hooks) are not the CLI's
        config = REPO_ROOT / "docs" / "examples" / example
        code = (
            "import sys; start = set(sys.modules); from nslifespan.cli import main; "
            f"main(['--config', {str(config)!r}, '--out', {str(tmp_path / 'out.json')!r}]); "
            "print(*sorted(set(sys.modules) - start), file=sys.stderr)"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        loaded = result.stderr.splitlines()[-1].split()
        assert "nslifespan.cli" in loaded
        outside = [
            name for name in loaded
            if name.partition(".")[0] not in sys.stdlib_module_names and name.partition(".")[0] != "nslifespan"
        ]
        assert outside == []
        # importing these (with ast, dis and tokenize) and building records with them cost a cold start about 30 ms
        assert not {"dataclasses", "inspect"} & set(loaded)

    @pytest.mark.parametrize("argv, code, loads_hashlib", [
        (["--config", str(REPO_ROOT / "docs" / "examples" / "invalid_missing_d.json"), "--out", "OUT"], 1, False),
        (["--print-constants", "3", "0.5"], 0, False),
        (["--config", str(REPO_ROOT / "docs" / "examples" / "thm41_vortex.json"), "--out", "OUT"], 0, True),
    ])
    def test_only_a_report_writing_run_loads_hashlib(self, tmp_path, argv, code, loads_hashlib):
        # hashlib loads OpenSSL's _hashlib, about 3 ms; only the fingerprint needs it
        argv = [str(tmp_path / "out.json") if arg == "OUT" else arg for arg in argv]
        program = (
            "import sys; from nslifespan.cli import main; "
            f"code = main({argv!r}); print(code, '_hashlib' in sys.modules, file=sys.stderr)"
        )
        result = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines()[-1] == f"{code} {loads_hashlib}"

    def test_package_source_has_no_dataclass_or_gauss_rule(self):
        # the records are plain classes, and the gradient constants are shipped data
        for path in sorted((REPO_ROOT / "src" / "nslifespan").glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert "@dataclass" not in text and "_gauss_laguerre" not in text, path.name


class TestExampleCorpus:
    EXPECTED_EXIT = {
        "thm41_vortex.json": 0,
        "thm31_delta_grid.json": 0,
        "global_small_data.json": 0,
        "global_large_data.json": 2,
        "explicit_from_norms.json": 0,
        "mixed_norms_demo.json": 0,
        "forced_small.json": 0,
        "abstract_parabolic.json": 0,
        "invalid_missing_d.json": 1,
    }

    def test_exit_code_contract(self, tmp_path):
        corpus = sorted((REPO_ROOT / "docs" / "examples").glob("*.json"))
        assert {p.name for p in corpus} == set(self.EXPECTED_EXIT)
        for path in corpus:
            out = tmp_path / (path.stem + ".out.json")
            result = run_cli("--config", str(path), "--out", str(out))
            assert result.returncode == self.EXPECTED_EXIT[path.name], (
                path.name, result.returncode, result.stderr
            )


class TestGoldenReports:
    """sha256 of canonical_dumps(build_report(example)) for each valid example.

    Reports must stay byte-identical while the mathematics is unchanged; a
    change that alters a report says why and records the new digest here.
    invalid_missing_d writes no report; TestExampleCorpus pins its exit code.
    """

    DIGESTS = {
        "abstract_parabolic": "85101753fcaaa1da6f5eeb34a8a3d67a7b640514fd6af32e22fdedc5b4efd629",
        "explicit_from_norms": "0d997bae56512dbf635630b877a2e3643048c47e7d40d0f5f960cb6e29af1c07",
        "forced_small": "f2a8cc3210668a930223c2d5df07c46145cc1a63b570722b511c8d94ea232382",
        "global_large_data": "c36d9b58fe07b75c9b323d4115ad5184da7acaffac93d91bca647d14bba26fb5",
        "global_small_data": "f910b96a25ca861b534eca83d87706d9b848fe1a2538e62d9c2b856a8b185039",
        "mixed_norms_demo": "6a80920ee8c6f876f76bbdc9997554e0613ff50393d02fd9ec7a0ce409747dee",
        "thm31_delta_grid": "21ae25b8eae384b2cba020a3fe52b8b1a88b295bcf164eab07e4e9880433d79b",
        "thm41_vortex": "606de80a84406ebad6b430968850d164faed71aa3f61b15b75362f8e8a58c9ac",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_report_digest(self, name):
        config = load_config(REPO_ROOT / "docs" / "examples" / f"{name}.json")
        report, _ = build_report(config)
        assert hashlib.sha256(canonical_dumps(report).encode("utf-8")).hexdigest() == self.DIGESTS[name]


class TestGoldenBundleReports:
    """sha256 of canonical_dumps(build_report(config)) for thm31, thm41 and forced on norm bundles.

    The example corpus has no such report. The bundles carry |a|_d, theta
    and the gradient norm; theta and the gradient norm with an lp norm other
    than |a|_d; and |a|_d alone.
    """

    BUNDLES = {
        "full": {"lp_norms": {"3.0": 0.01}, "theta": 0.5, "norm_d_plus_theta": 0.0001, "grad_d_norm": 0.05},
        "no_a_d": {"lp_norms": {"6.0": 0.01}, "theta": 0.5, "norm_d_plus_theta": 0.0001, "grad_d_norm": 0.05},
        "a_d_only": {"lp_norms": {"3.0": 0.0001}},
    }
    FORCE = {
        "k0": {"theta": 2.7, "lambda": -0.9444444444444446, "value": 1e-07},
        "k0_prime": {"theta": 2.0, "lambda": -0.7499999999999999, "value": 1e-07},
    }
    DIGESTS = {
        ("thm31", "full"): "07fb430cd187b8a521318681912b0a32a26a8e1623804c560b48d5182b386e5e",
        ("thm31", "no_a_d"): "ed54ab8b4cd29d22f1420a24e2af2cafc6c2734643560086b60d59209562401e",
        ("thm31", "a_d_only"): "c7d52795d94d79679aa427470f58be57eb3b22516e39ec567b4571d14d751ee8",
        ("thm41", "full"): "32e6242fbf5d56999e32183b8ec3a733ed84e954e277d4aa88046a425baf7317",
        ("thm41", "no_a_d"): "a3ce1b14fa5e6f8beae94ff138d5789f44da9163ef09604371e54e899c4eaad1",
        ("thm41", "a_d_only"): "6fba51d3bf32e83f612c75729d27b8041c89a93b6fa535bc763c676ee07775d0",
        ("forced", "full"): "7040af174d702ab2d995b664dbb52ff8d9821e9fc2af5e9f5da2e53dfdeef73e",
        ("forced", "no_a_d"): "687528fb834dc1b4869010bfb87c8cb82bcbdb47c662bb9b17b004fc96ea769b",
        ("forced", "a_d_only"): "29c6f16595b21ddca7939795a652c6a2b130d277a844f99cb48a090027cbd13b",
    }

    @pytest.mark.parametrize("mode, bundle", sorted(DIGESTS))
    def test_report_digest(self, mode, bundle):
        config = {"d": 3, "mode": mode, "delta": 0.28257742392949414, "data": {"norms": self.BUNDLES[bundle]}}
        if mode == "forced":
            config["force"] = self.FORCE
        validate_config(config)
        report, _ = build_report(config)
        assert hashlib.sha256(canonical_dumps(report).encode("utf-8")).hexdigest() == self.DIGESTS[mode, bundle]


_MUTANT_VALUES = [
    None, True, False, 0, 1, -1, 2, 3, 3.0, 3.5, 0.0, 0.5, 1.0, 1.5, -0.5, 1e300, "x", "3", "3.0", "thm41",
    "vortex_gaussian", [], [0.5], [0.3, 1.5], [True], ["a"], {}, {"a": 1}, {"3.0": 0.1}, {"abc": -1},
]
_MUTANT_KEYS = [
    "d", "mode", "data", "family", "sigma", "amplitude", "norms", "lp_norms", "grad_d_norm", "theta",
    "norm_d_plus_theta", "delta", "delta_grid", "q_grid", "force", "k0", "k0_prime", "lambda", "value",
    "halved_kernel_decay", "search", "t_min", "t_max", "abstract_parabolic", "gamma", "x", "3", "1e5", "2.",
]


def _mutant(config, rng: random.Random):
    """config after one to three random edits: a value replaced, a key or item dropped or added."""
    config = copy.deepcopy(config)
    for _ in range(rng.randint(1, 3)):
        nodes, stack = [], [config]
        while stack:
            node = stack.pop()
            if isinstance(node, (dict, list)):
                nodes.append(node)
                stack.extend(node.values() if isinstance(node, dict) else node)
        if not nodes:
            return copy.deepcopy(rng.choice(_MUTANT_VALUES))
        node, op, value = rng.choice(nodes), rng.random(), copy.deepcopy(rng.choice(_MUTANT_VALUES))
        if isinstance(node, dict):
            keys = list(node)
            if keys and op < 0.5:
                node[rng.choice(keys)] = value
            elif keys and op < 0.7:
                del node[rng.choice(keys)]
            else:
                node[rng.choice(_MUTANT_KEYS)] = value
        elif node and op < 0.6:
            node[rng.randrange(len(node))] = value
        elif node and op < 0.8:
            node.pop(rng.randrange(len(node)))
        else:
            node.append(value)
    return config


def _golden_corpus() -> list:
    """About 200 seeded configs: every mode, d 3-5, vortex and bundle data, grids and invalid inputs."""
    rng = random.Random(2013)

    def log_uniform(lo: float, hi: float) -> float:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    def vortex() -> dict:
        return {"family": "vortex_gaussian", "sigma": log_uniform(0.1, 10.0), "amplitude": log_uniform(1e-8, 10.0)}

    def bundle(d: int, with_a_d: bool) -> dict:
        norms: dict = {"lp_norms": {repr(float(d)): log_uniform(1e-7, 1e-1)} if with_a_d else {}}
        if rng.random() < 0.3:
            norms["lp_norms"][repr(float(d + 2))] = log_uniform(1e-7, 1e-1)
        if not with_a_d or rng.random() < 0.8:
            norms["grad_d_norm"] = log_uniform(1e-6, 1.0)
        if not with_a_d or rng.random() < 0.7:
            norms["theta"] = rng.uniform(0.1, 1.0)
            norms["norm_d_plus_theta"] = log_uniform(1e-7, 1e-1)
        return {"norms": norms}

    def force(d: int, delta: float) -> dict:
        # theta1 above d/(1+delta) keeps the kernel decay below 1; both lambdas match the Kato weights
        theta1 = d / (1.0 + delta) + rng.uniform(0.1, 0.9) * (d - d / (1.0 + delta))
        theta2 = d / 2.0 + rng.uniform(0.1, 0.9) * d / 2.0
        block = {
            "k0": {"theta": theta1, "lambda": d / (2.0 * theta1) - 1.5, "value": log_uniform(1e-12, 1e-6)},
            "k0_prime": {"theta": theta2, "lambda": d / (2.0 * theta2) - 1.5, "value": log_uniform(1e-12, 1e-6)},
        }
        rng.random()  # a draw that no field uses, kept so that the later entries stay as recorded
        return block

    configs: list = []
    for d in (3, 4, 5):
        for mode in ("thm31", "thm41", "forced", "global_test", "thm41_explicit", "mixed_norms"):
            for data in ("vortex", "bundle"):
                for shape in ("single", "grid", "default", "single", "grid"):
                    config: dict = {"d": d, "mode": mode}
                    deltas = sorted(rng.uniform(0.05, 0.9) for _ in range(3 if shape == "grid" else 1))
                    if shape == "grid":
                        config["delta_grid"] = deltas
                    elif shape == "single":
                        config["delta"] = deltas[0]
                    else:
                        deltas = [DELTA0]
                    needs_a_d = mode in ("global_test", "mixed_norms") or rng.random() < 0.5
                    config["data"] = vortex() if data == "vortex" else bundle(d, needs_a_d)
                    if mode == "forced":
                        config["force"] = force(d, deltas[0])
                    if mode == "mixed_norms":
                        q_max = min(d / deltas[-1], 1.5 * d)
                        config["q_grid"] = sorted(rng.uniform(d, q_max + 1.0) for _ in range(3))
                    # draws that no field uses, kept so that the later entries stay as recorded
                    if mode == "thm41_explicit" and data == "vortex" and rng.random() < 0.5:
                        rng.uniform(0.1, 1.0)
                    if mode == "thm31" and rng.random() < 0.3:
                        log_uniform(1e-14, 1e-8), log_uniform(1e2, 1e8), rng.random(), rng.random()
                    configs.append(config)
    for _ in range(8):
        block = {key: log_uniform(0.05, 20.0) for key in ("c_gamma", "alpha", "k1", "k2", "t1", "t2")}
        block["gamma"] = rng.uniform(0.05, 0.999)
        configs.append({"d": rng.choice((3, 4, 5)), "mode": "abstract_parabolic", "abstract_parabolic": block})

    valid = configs[0]
    bundle_thm41 = {"d": 4, "mode": "thm41", "data": bundle(4, True)}
    configs += [
        {**valid, "d": 2},
        {**valid, "delta": 1.5},
        {**valid, "delta_grid": []},
        {**valid, "extra": 1},
        {**valid, "mode": "forced"},
        {**valid, "mode": "mixed_norms"},
        {"d": 3, "mode": "abstract_parabolic"},
        {"d": 3, "mode": "thm41"},
        {**bundle_thm41, "data": {"norms": {"lp_norms": {"4.0": -1.0}}}},
        {**bundle_thm41, "data": {"norms": {"lp_norms": {"0.5": 1.0}}}},
        {**bundle_thm41, "data": {"norms": {"lp_norms": {}, "grad_d_norm": 0.1}}},
        {**bundle_thm41, "data": {"norms": {"lp_norms": {}, "theta": 0.5, "norm_d_plus_theta": 0.1}}},
        {**bundle_thm41, "data": {"norms": {"lp_norms": {"4.0": 0.1}, "theta": 0.5}}},
        {**bundle_thm41, "data": {"norms": {"lp_norms": {}, "theta": 1.5, "norm_d_plus_theta": 0.1}}},
        {**bundle_thm41, "mode": "global_test", "data": {"norms": {"lp_norms": {"5.0": 0.1}}}},
        {**bundle_thm41, "mode": "thm41_explicit", "data": {"norms": {"lp_norms": {"4.0": 0.1}}}},
        {**bundle_thm41, "mode": "forced", "force": {
            "k0": {"theta": 1.5, "lambda": -0.2, "value": 1e-8},
            "k0_prime": {"theta": 3.0, "lambda": -0.8333333333333334, "value": 1e-8},
        }},
        {**bundle_thm41, "mode": "thm31", "search": {"t_min": 10.0, "t_max": 1.0}},
        {"d": 3, "mode": "thm41_explicit", "theta": 2.5, "data": vortex()},
        {"d": 3, "mode": "mixed_norms", "q_grid": [2.0, 12.0], "data": vortex()},
    ]
    return configs


class TestGoldenCorpus:
    """One sha256 over the outcomes of the seeded corpus of ``_golden_corpus``.

    An outcome is canonical_dumps(build_report(config)) with the certified
    flag, or the class and message of the error the config raises. The
    digest stays fixed while the mathematics and the error messages are
    unchanged; a change that alters it says why and records the new digest
    and entry prefixes. A mismatch names the entries whose outcome changed.
    """

    DIGEST = "6d497ffd75ede65ff0e04226b1a1bc3428370cf3ee0f6810c8ae08ebccfa80e0"
    # the first 8 hex digits of each entry's outcome sha256, in corpus order
    ENTRY_PREFIXES = """
        181d9f0e 17357b3c c23d9996 2576455b 1f1ac7c9 a6f1e886 c830970f 72217cfc 37c6710b 88619b78
        bdf438a6 afa72cbd ae2db0df 99536d6a 34e319d6 80ee9272 7b573386 7ee5f7a8 6aebc20c 653908eb
        04c89979 7b0a1c1e c32196a1 1a9d82bf 639c123d 3af143b6 eacf8f8c ec1c6b01 ee278ad9 7cd19137
        6ebc1468 a9d28a23 0d0db689 5ce79e79 0b3fc477 12843772 81e4fa2f a1e9c651 40d913f1 23a08784
        1a9185b4 20a06664 66b27bf4 92f04c46 e131ffb1 e957825f 1252e661 042dc404 24c97756 de2b1fed
        bd16a497 10aed622 dbac0537 0c4d0aec de146a30 a4f7db30 10f64d90 da52efbd 17c97559 bb99030c
        e9362a52 ebe08eff e0ccbb9c 86554dc1 2b95d92e 879840e0 42d77347 6eed9101 9b831924 f3ab01cf
        427bebe0 d49eaf55 45355a31 7f677f1c 364dda05 3a6800f9 c5dc1354 6bd94c95 ba7253f2 9ba90082
        579eb47b 1da378a3 9a253eef 25b0fce1 43ca45ae 7feb4749 6a81491d 84208814 48f07898 17309015
        18f92576 88ff8889 ab4f7383 5542a8ff 231a0b7b 2484fecd dfa62e49 4e270680 1f48bc07 aad4ba28
        cd450655 a6aa56d4 da0b132b a5ea5a20 a29d7439 04d43a9c 02c199a0 0b2f2240 a6c8c00f 4b021577
        13fed525 dc07f26e ec243ccd 544372ee 2c531e87 93624b5a 55262d53 9cdafbc3 eb1415c8 cfaeb05f
        ff97b234 6f2ed712 f54ae132 1685e22c e1948c65 83fc7492 70224b63 2468470f c6ca5c41 ae9110bf
        a30a6118 8a9bb260 b8733b54 58009ebc ed59f446 3ca53ad6 4e6ba4cd b146892c 632d1e06 847f3b74
        a4b8f498 dbfa7545 180c482a 85c80b3a 6e4e24b6 55cb09e4 34d212e1 e3f09498 60212d45 bf6e5d0c
        fbe02d58 f241be83 77ae6c5f 48e06961 bbaf367a 06e1130b 0d8d51be 6e947f00 6284882f dbc5b641
        70bbc9bd a08ff74f fb739830 55ddee41 b9572a62 aad438a2 d0b0a77b 2a4c60c2 50d94148 3e379918
        6655b934 b383ab5b dc110fc7 d8570631 402cedd6 e4b43c9e 2f24e677 4814a106 62f66b74 c2c3b015
        f787771e cf7b8c14 e7d4d56d d9f24b5d ee92ea45 432f1464 c735dada a93a6282 3d991b0c b9a63653
        28f4ba8a bffad326 a2764166 bcdfa1db 3f72c501 4d567754 d78709b4 93b7d915 e5005423 3819f15e
        8ae662f5 985362eb 88fe97fa 9bbe3893 25c019eb 627fd7ea 8fd98443 d1d75c04
    """.split()

    @staticmethod
    def outcome(config: dict) -> str:
        try:
            validate_config(config)
            report, certified = build_report(config)
        except Exception as exc:  # the error class and message are part of the outcome
            return f"{type(exc).__name__}: {exc}"
        return f"{certified} {canonical_dumps(report)}"

    def test_corpus_digest(self):
        corpus = _golden_corpus()
        assert len(corpus) == len(self.ENTRY_PREFIXES) == 208
        outcomes = [self.outcome(config).encode("utf-8") for config in corpus]
        changed = [
            f"#{i} ({config['mode']})"
            for i, (config, outcome, prefix) in enumerate(zip(corpus, outcomes, self.ENTRY_PREFIXES))
            if hashlib.sha256(outcome).hexdigest()[:8] != prefix
        ]
        assert not changed, f"outcomes changed for corpus entries {', '.join(changed)}"
        assert hashlib.sha256(b"".join(o + b"\n" for o in outcomes)).hexdigest() == self.DIGEST


class TestReportedConstants:
    """A report's constants table holds exactly the scalars its route reads.

    Each row's value is the ConstantSet's at the report's (d, delta), and
    where the certificate stores the same constant the two agree.
    """

    # the intermediates that restate a constant of the table; thm31's s1 and
    # s2 are quantities of the reduced system, not the envelopes s1 and s2
    STORED = {"thm31": ("j1", "j2"), "thm41": ("j_bar",), "thm41-explicit": (), "global": ("s1", "s2")}

    def check(self, config: dict, compared: set) -> bool:
        """Check one config's report; add the (route, name) of each constant the certificate stores too."""
        report, _ = build_report(config)
        block = report["constants"]
        if config["mode"] == "abstract_parabolic":
            assert block == {}
            return False
        assert set(block) == {"d", "delta", "table"} and block["d"] == config["d"]
        assert all(set(row) == {"name", "value", "formula"} for row in block["table"])
        cert = report["result"].get("certificate")
        route = config["mode"] if cert is None else cert["theorem"]
        assert tuple(row["name"] for row in block["table"]) == cli._REPORTED_CONSTANTS[route]
        assert block["delta"] == (report["result"]["delta"] if cert is None else cert["delta_used"])
        cs = composite_constants(config["d"], block["delta"])
        values = {row["name"]: row["value"] for row in block["table"]}
        assert values == {name: getattr(cs, name) for name in values}
        assert all(row["formula"] == cs.provenance[row["name"]] for row in block["table"])
        if cert is not None:
            for name in self.STORED[route]:
                if name in cert["intermediate"]:
                    assert cert["intermediate"][name] == values[name]
                    compared.add((route, name))
        return True

    def test_examples(self):
        paths = sorted((REPO_ROOT / "docs" / "examples").glob("*.json"))
        configs = [load_config(path) for path in paths if path.name != "invalid_missing_d.json"]
        compared: set = set()
        assert sum(self.check(config, compared) for config in configs) == 7
        assert compared == {(route, name) for route, names in self.STORED.items() for name in names}

    def test_golden_corpus(self):
        checked = 0
        compared: set = set()
        for config in _golden_corpus():
            try:
                validate_config(config)
                checked += self.check(config, compared)
            except (ConfigError, DomainError, UnavailableBoundError, InfeasibleExponentError):
                continue
        assert checked == 181
        assert compared == {(route, name) for route, names in self.STORED.items() for name in names}


def _workload_block(workload: str, seed: int) -> list[dict]:
    # the first request block of a benchmark workload's stream
    spec = importlib.util.spec_from_file_location("workloads", REPO_ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return next(workloads.blocks(workload, seed, REPO_ROOT))


class TestByteIdentity:
    """Every report encodes to exactly the recursive reference encoder's text.

    Each report is encoded as build_report returns it, then as a deep copy,
    then as plain lists and dicts after a JSON round trip.
    """

    @staticmethod
    def check(config: dict) -> bool:
        try:
            validate_config(config)
            report, _ = build_report(config)
        except Exception:  # rejected inputs have no report
            return False
        expected = canonical_dumps_recursive(report)
        assert canonical_dumps(report) == expected, config
        assert canonical_dumps(copy.deepcopy(report)) == expected, config
        assert canonical_dumps(json.loads(json.dumps(report))) == expected, config
        return True

    def test_golden_corpus(self):
        assert sum(self.check(config) for config in _golden_corpus()) == 189

    @pytest.mark.parametrize("workload", ["vortex_sweep", "norms_mix"])
    def test_workload_block(self, workload):
        block = _workload_block(workload, seed=3)
        reports = sum(self.check(request["config"]) for request in block)
        assert reports == sum(request["expect"] is None for request in block) > 20


class TestPrintConstants:
    def test_table_values(self):
        result = run_cli("--print-constants", "3", "0.5")
        assert result.returncode == 0
        assert "K_R(3)" in result.stdout
        assert "1.7320508075688774" in result.stdout
        assert "162" in result.stdout  # j_up1 at (3, 0.5)
        # --print-constants is the one place the full table is shown
        names = [name for name, _, _ in composite_constants(3, 0.5).table]
        assert all(f"  {name} " in result.stdout for name in names)

    def test_domain_error(self):
        result = run_cli("--print-constants", "3", "1.5")
        assert result.returncode == 1
        assert "domain error" in result.stderr

    def test_unparseable_arguments(self):
        result = run_cli("--print-constants", "three", "0.5")
        assert result.returncode == 1

    @pytest.mark.parametrize("d, delta", [("3", "1e-300"), ("1024", "0.5")])
    def test_constants_out_of_double_range(self, capsys, d, delta):
        # delta^2 underflows in j_up1, and 2^d overflows in M(d, 1)
        assert main(["--print-constants", d, delta]) == 1
        message = f"domain error: the constants for d={d}, delta={float(delta)} leave the range of the doubles"
        assert message in capsys.readouterr().err


class TestLibraryEntryPoints:
    def test_build_report_matches_cli(self, tmp_path):
        path = write_config(tmp_path, THM41_CONFIG)
        config = load_config(path)
        report, certified = build_report(config)
        assert certified
        out = tmp_path / "report.json"
        run_cli("--config", str(path), "--out", str(out))
        assert canonical_dumps(report) == out.read_text(encoding="utf-8")
