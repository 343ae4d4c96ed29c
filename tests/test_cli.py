"""Command-line interface: schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from cli_rows import read_rows
from fpsq.cli import (
    CSV_COLUMNS,
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_PASS,
    EXIT_RESOURCE,
    config_hash,
    main,
    parse_grid,
)


def run(argv):
    return main(argv)


def big_config(tmp_path) -> str:
    """A config whose model "big" has K - 1 = e^484 - 1 at its top atom."""
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"models": {
        "big": {"model": "gam", "lambda": 22.0, "prior": {"kind": "rademacher_mean", "n": 4}},
    }}))
    return str(cfg)


class TestGridParsing:
    def test_comma_list(self):
        assert parse_grid("2,5,10") == [2.0, 5.0, 10.0]

    def test_linear_range(self):
        assert parse_grid("lin:0:1:5") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_log_range(self):
        grid = parse_grid("log:1:100:3")
        assert grid == pytest.approx([1.0, 10.0, 100.0])

    def test_single_value(self):
        assert parse_grid("7") == [7.0]

    def test_none_passthrough(self):
        assert parse_grid(None) is None


class TestConfigHash:
    def test_stable_under_key_order(self):
        a = config_hash({"b": 1, "a": [1, 2]})
        b = config_hash({"a": [1, 2], "b": 1})
        assert a == b

    def test_sensitive_to_semantic_change(self):
        base = {"model": "mslr-desk", "q": [10.0], "m": [3], "seed": 0}
        changed = dict(base, q=[11.0])
        assert config_hash(base) != config_hash(changed)

    def test_insensitive_to_output_choices(self, tmp_path):
        # same semantics, different --format/--out: identical hash
        argv = ["criterion", "--model", "mslr-desk", "--criterion", "chi2", "--m", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.json"
        run(argv + ["--out", str(a)])
        run(argv + ["--format", "json", "--out", str(b)])
        hash_a = a.read_text().splitlines()[0].split("config-hash=")[1].split()[0]
        hash_b = json.loads(b.read_text())["metadata"]["config_hash"]
        assert hash_a == hash_b


class TestCriterionCommand:
    def test_csv_schema_and_rows(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = run([
            "criterion", "--model", "mslr-desk", "--criterion", "chi2,sq",
            "--q", "5,10", "--m", "2,4", "--out", str(out),
        ])
        assert code == EXIT_PASS
        rows = read_rows(str(out))
        assert len(rows) == 2 * 2 * 2  # criteria x q-grid x m-grid
        assert list(rows[0].keys()) == CSV_COLUMNS
        header = out.read_text().splitlines()
        assert header[0].startswith("# fpsq-version=")

    def test_round_trip_values_bit_identical(self, tmp_path):
        out = tmp_path / "rows.csv"
        run(["criterion", "--model", "gam-rademacher", "--criterion", "gfp,fp",
             "--q", "3,7", "--m", "2", "--out", str(out)])
        for row in read_rows(str(out)):
            parsed = float(row["value"])
            assert repr(parsed) == row["value"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--model", "mslr-desk", "--criterion", "fp,rho_fp,chi2",
                "--q", "log:4:64:3", "--m", "1,3", "--seed", "11"]
        run(argv + ["--out", str(a)])
        run(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        code = run(["criterion", "--model", "mslr-desk", "--criterion", "chi2",
                    "--m", "3", "--format", "json", "--out", str(out)])
        assert code == EXIT_PASS
        payload = json.loads(out.read_text())
        assert "metadata" in payload and "rows" in payload
        assert payload["metadata"]["config_hash"]

    def test_overflow_rows_tagged(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # two-point prior whose diagonal kernel power overflows the
        # linear scale at large m
        cfg.write_text(json.dumps({
            "models": {
                "hot": {
                    "model": "synthetic",
                    "values": [0.0, 1.0],
                    "probs": [0.999, 0.001],
                    "kernel_values": [1.0, 1e300],
                }
            }
        }))
        out = tmp_path / "rows.csv"
        code = run(["criterion", "--config", str(cfg), "--model", "hot",
                    "--criterion", "fp", "--q", "40", "--m", "4", "--out", str(out)])
        assert code == EXIT_PASS
        (row,) = read_rows(str(out))
        assert "overflow-log" in row["method"]
        assert float(row["value"]) == pytest.approx(4 * math.log(1e300) + math.log(0.001), rel=1e-9)

    def test_unknown_model_exits_config_error(self, capsys):
        assert run(["criterion", "--model", "nope", "--m", "1"]) == EXIT_CONFIG
        assert "unknown model" in capsys.readouterr().err

    def test_unsupported_criterion_combination(self, capsys):
        code = run(["criterion", "--model", "dirac-desk", "--criterion", "fp",
                    "--q", "5", "--m", "1"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("d", ["2.5", "-1"])
    def test_ld_refuses_a_degree_that_is_not_a_nonnegative_integer(self, d, capsys):
        code = run(["criterion", "--model", "si-sign-sparse", "--criterion", "ld", "--m", "3",
                    "--d", d, "--k-deg", "2"])
        assert code == EXIT_CONFIG
        assert "nonnegative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_usq_refuses_m_below_one(self, m, capsys):
        code = run(["criterion", "--model", "mslr-desk", "--criterion", "usq", "--m", m])
        assert code == EXIT_CONFIG
        assert "m must be a positive integer" in capsys.readouterr().err

    def test_usq_past_the_float_range_refuses_without_a_warning(self, tmp_path, capsys):
        # (K - 1)^2 overflows at the top atom: a refusal, with no numpy
        # RuntimeWarning raised on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["criterion", "--config", big_config(tmp_path), "--model", "big",
                        "--criterion", "usq", "--m", "2"])
        assert code == EXIT_CONFIG
        assert "non-finite" in capsys.readouterr().err

    def test_config_file_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "mslr-desk", "criteria": ["chi2"], "m": [2]}))
        out = tmp_path / "rows.csv"
        run(["criterion", "--config", str(cfg), "--m", "5", "--out", str(out)])
        (row,) = read_rows(str(out))
        assert row["m"] == "5"


class TestKernelCommand:
    def test_counterexample_table_passes(self, tmp_path):
        out = tmp_path / "table.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {
            "ce": {"model": "counterexample", "n": 8, "r": 0.3, "alpha_c": 0.2, "rho_p": 0.3},
        }}))
        code = run(["kernel", "--config", str(cfg), "--model", "ce", "--out", str(out)])
        assert code == EXIT_PASS
        lines = out.read_text().splitlines()
        assert lines[0] == "statistic,kernel_value,oracle_value,abs_diff,bound"
        assert len(lines) >= 11

    def test_resource_error_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {
            "big": {"model": "counterexample", "n": 16, "r": 0.1, "alpha_c": 0.2, "rho_p": 0.3},
        }}))
        assert run(["kernel", "--config", str(cfg), "--model", "big"]) == EXIT_RESOURCE


class TestReproduceCommand:
    def test_unknown_scenario_lists_names(self, capsys):
        assert run(["reproduce", "not-a-scenario"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "available" in err and "dirac" in err

    def test_dirac_scenario_passes(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        assert run(["reproduce", "dirac", "--out", str(out)]) == EXIT_PASS
        text = out.read_text()
        assert "scenario dirac: PASS" in text
        assert "[PASS]" in text


class TestCheckCommand:
    def test_randomized_suite_passes(self, capsys):
        assert run(["check", "--seeds", "8"]) == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        assert payload["randomized_equivalence_suite"]["violations"] == 0

    def test_injected_broken_kernel_reports_witness(self, capsys):
        code = run(["check", "--seeds", "2", "--inject-broken"])
        assert code == EXIT_ASSERTION
        payload = json.loads(capsys.readouterr().out)
        rep = payload["injected_broken_kernel"]
        assert rep["passed"] is False
        assert rep["witness"] is not None

    def test_assumption_with_powers_past_the_float_range(self, tmp_path, capsys):
        # (K - 1)^k beyond the float range is +inf, which is nonnegative
        assert run(["check", "--config", big_config(tmp_path), "--model", "big",
                    "--k-max", "4"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["assumption"]["passed"] is True

    def test_single_model_assumption(self, capsys):
        assert run(["check", "--model", "gam-sphere", "--k-max", "4"]) == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        assert payload["assumption"]["passed"] is True


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # startup cost guard: the engine imports only numpy, so neither the
    # import nor any criterion on a sphere-law or slab model loads scipy
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    code = ("import os, sys, fpsq.cli; "
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "print(scipy()); "
            "codes = [fpsq.cli.main(['criterion', '--model', name, '--criterion', "
            "'fp,rho_fp,gfp,sq,usq,chi2,ld', '--q', '20', '--m', '3', '--out', os.devnull]) "
            "for name in ('gam-sphere', 'si-sign-sphere', 'slab-desk')]; "
            "print(codes, scipy())")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]", "[0, 0, 0] []"]
