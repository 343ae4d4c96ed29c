"""Command-line interface: schemas, determinism, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_rows import read_rows
from fpsq import cli
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
from fpsq.criteria import gfp_value
from fpsq.kernels import build_model
from fpsq.laws import MAX_EQUALITY_N
from fpsq.scenarios import BUILTIN_MODEL_DESCRIPTORS


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

    @pytest.mark.parametrize("grid", ["lin:1:2", "log:1:x:3"])
    def test_malformed_range_is_a_config_error(self, grid, capsys):
        code = run(["criterion", "--model", "gam-rademacher", "--criterion", "fp", "--q", grid, "--m", "1"])
        assert code == EXIT_CONFIG
        assert f"malformed grid '{grid}': expected {grid[:3]}:lo:hi:n" in capsys.readouterr().err


class TestConfigHash:
    def test_stable_under_key_order(self):
        a = config_hash({"b": 1, "a": [1, 2]})
        b = config_hash({"a": [1, 2], "b": 1})
        assert a == b

    def test_sensitive_to_semantic_change(self):
        base = {"model": "mslr-desk", "q": [10.0], "m": [3]}
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
                "--q", "log:4:64:3", "--m", "1,3"]
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

    def test_a_greedy_gfp_row_bounds_its_value_by_the_brackets(self, tmp_path):
        # beyond 64 orbits GFP is the greedy cover, whose value_brackets were
        # (0.999666, 1.000316) under an error_bound of 0.0
        out = tmp_path / "rows.csv"
        assert run(["sweep", "--model", "slab-desk", "--criterion", "gfp", "--q", "20", "--m", "4",
                    "--out", str(out)]) == EXIT_PASS
        (row,) = read_rows(str(out))
        rep = gfp_value(build_model(BUILTIN_MODEL_DESCRIPTORS["slab-desk"]), 20.0, 4)
        lower, upper = rep.detail["value_brackets"]
        assert row["method"] == "exact-sum(greedy-bracket)" and float(row["value"]) == upper
        assert float(row["error_bound"]) == pytest.approx(upper - lower, rel=1e-10)
        assert 6e-4 < upper - lower < 7e-4

    @pytest.mark.parametrize("argv, message", [
        (["--criterion", "fp,bogus", "--q", "4"],
         "unknown criterion 'bogus'; known: fp, rho_fp, gfp, sq, usq, chi2, ld"),
        (["--criterion", "chi2,gfp"], "criterion 'gfp' requires a q grid"),
        (["--criterion", "ld", "--d", "abc"], "--d must be a nonnegative integer or 'inf', got 'abc'"),
    ])
    def test_argument_errors_refuse_before_the_model_is_built(self, argv, message, monkeypatch, capsys):
        # --criterion fp,bogus evaluated every fp cell before it refused bogus,
        # and --d abc said only "could not convert string to float: 'abc'"
        monkeypatch.setattr(cli, "build_model", lambda desc: pytest.fail("the model was built"))
        for command in ("criterion", "sweep"):
            assert run([command, "--model", "gam-rademacher", "--m", "1", *argv]) == EXIT_CONFIG
            assert capsys.readouterr() == ("", f"config error: {message}\n")

    @pytest.mark.parametrize("grid, message", [
        (["--q", "3,20", "--m", "1,4,2.5"], "m must be a whole number, got 2.5"),
        (["--q", "3,nan", "--m", "1,4"], "'q' must be a finite real, got nan"),
    ])
    def test_a_malformed_grid_point_refuses_before_the_model_is_built(self, grid, message, monkeypatch, capsys):
        # a bad point late in a grid was refused only after the model was built
        # and every earlier cell evaluated
        monkeypatch.setattr(cli, "build_model", lambda desc: pytest.fail("the model was built"))
        assert run(["sweep", "--model", "slab-desk", "--criterion", "gfp", *grid]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_unknown_model_exits_config_error(self, capsys):
        assert run(["criterion", "--model", "nope", "--m", "1"]) == EXIT_CONFIG
        assert "unknown model" in capsys.readouterr().err

    def test_unsupported_criterion_combination(self, capsys):
        code = run(["criterion", "--model", "dirac-desk", "--criterion", "fp",
                    "--q", "5", "--m", "1"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("d", ["2.5", "-1", "41"])
    def test_ld_refuses_a_degree_that_is_not_a_nonnegative_integer(self, d, capsys):
        # nor one past the preset's max_degree of 40, where its series stops
        code = run(["criterion", "--model", "si-sign-sparse", "--criterion", "ld", "--m", "3",
                    "--d", d, "--k-deg", "2"])
        assert code == EXIT_CONFIG
        assert ("max_degree 40" if d == "41" else "nonnegative integer") in capsys.readouterr().err

    @pytest.mark.parametrize("argv, t", [
        # C(1100, t) passed the float range: an OverflowError traceback, exit 1
        (["--model", "gam-sphere", "--m", "1100", "--k-deg", "1100"], 292),
        # C(m, 3) E[(K - 1)^3] passed it: value inf under exact-sum+overflow-log, exit 0
        (["--model", "big", "--m", "1e102", "--k-deg", "3"], 3),
    ])
    def test_ld_past_the_float_range_is_one_config_error(self, argv, t, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {"big": {"model": "gam", "lambda": 3.0, "prior": {
            "kind": "rademacher_mean", "n": 4}}}}))
        assert run(["criterion", "--config", str(cfg), "--criterion", "ld", *argv]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"config error: LD passes the float range at its t = {t} term")

    def test_ld_past_the_degree_budget_exits_at_once(self, capsys):
        # gam builds its series to the d asked, up to MAX_DEGREE
        start = time.process_time()
        assert run(["criterion", "--model", "gam-sphere", "--criterion", "ld", "--m", "2",
                    "--d", "1000001"]) == EXIT_RESOURCE
        assert time.process_time() - start < 0.1
        err = capsys.readouterr().err
        assert err.startswith("resource error: the degree d=1000001 is above") and err.count("\n") == 1

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_usq_refuses_m_below_one(self, m, capsys):
        code = run(["criterion", "--model", "mslr-desk", "--criterion", "usq", "--m", m])
        assert code == EXIT_CONFIG
        assert "m must be a positive integer" in capsys.readouterr().err
        # SQ's verdict reads 1/m: it refuses the same m
        code = run(["criterion", "--model", "gam-rademacher", "--criterion", "sq", "--q", "4", "--m", m])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: m must be a positive integer, got {m}\n"

    def test_log_grid_m_rounds_to_its_whole_numbers(self, tmp_path):
        # the grid's points 2^k come out of exp(log) a few ulps off
        out = tmp_path / "rows.csv"
        assert run(["criterion", "--model", "mslr-desk", "--criterion", "chi2",
                    "--m", "log:1:1024:11", "--out", str(out)]) == EXIT_PASS
        assert [row["m"] for row in read_rows(str(out))] == [str(2**k) for k in range(11)]

    @pytest.mark.parametrize("m", ["2.5", "3.000001", "inf"])
    def test_fractional_m_is_refused(self, m, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        for command in ("criterion", "sweep"):
            assert run([command, "--model", "mslr-desk", "--criterion", "chi2", "--m", m,
                        "--out", str(out)]) == EXIT_CONFIG
            assert "m must be a whole number" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--q", "nan", "'q' must be a finite real, got nan"),
        ("--q", "inf", "'q' must be a finite real, got inf"),
        ("--q", "lin:1:nan:3", "'q' must be a finite real, got nan"),
        ("--m", "nan", "m must be a whole number, got nan"),
        ("--m", "-inf", "m must be a whole number, got -inf"),
    ])
    def test_a_non_finite_grid_point_is_one_config_error(self, flag, value, message, capsys):
        # chi2 reads no q: --q nan printed a row with q = nan and exit 0
        point = {"--q": "4", "--m": "1"} | {flag: value}
        for command in ("criterion", "sweep"):
            assert run([command, "--model", "gam-rademacher", "--criterion", "chi2",
                        *(f"{key}={grid}" for key, grid in point.items())]) == EXIT_CONFIG
            assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_usq_past_the_float_range_refuses_without_a_warning(self, tmp_path, capsys):
        # (K - 1)^2 overflows at the top atom: a refusal, with no numpy
        # RuntimeWarning raised on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["criterion", "--config", big_config(tmp_path), "--model", "big",
                        "--criterion", "usq", "--m", "2"])
        assert code == EXIT_CONFIG
        # the atom is a Python float, not a numpy scalar
        assert capsys.readouterr().err == "config error: non-finite integrand value inf at atom 1.0\n"

    def test_a_law_past_the_atom_budget_exits_at_once(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {
            "huge": {"model": "gam", "lambda": 0.8, "prior": {"kind": "rademacher_mean", "n": 10**7}},
        }}))
        start = time.process_time()
        assert run(["criterion", "--config", str(cfg), "--model", "huge", "--criterion", "chi2",
                    "--m", "1"]) == EXIT_RESOURCE
        assert time.process_time() - start < 0.2
        assert "10000001 atoms" in capsys.readouterr().err

    def test_a_signed_sparse_law_past_the_work_budget_exits_at_once(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {
            "huge": {"model": "ngca", "mu": {"kind": "atoms", "values": [-1.0, 1.0], "probs": [0.5, 0.5]},
                     "prior": {"kind": "signed_sparse", "n": 10**9, "k": 10**5}},
        }}))
        start = time.process_time()
        assert run(["criterion", "--config", str(cfg), "--model", "huge", "--criterion", "fp",
                    "--q", "20", "--m", "1"]) == EXIT_RESOURCE
        assert time.process_time() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("resource error: the signed_sparse law at n=1000000000, k=100000") and err.count("\n") == 1

    @pytest.mark.parametrize("n", [MAX_EQUALITY_N + 10, 10**15])
    def test_an_equality_law_past_its_budget_exits_at_once(self, n, tmp_path, capsys):
        # math.comb(n, 9n/10) ran unpriced: 0.9 s at n = 10^6, 3.6 s at 2 10^6, and longer with n
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {"huge": {"model": "dirac", "n": n}}}))
        start = time.process_time()
        assert run(["criterion", "--config", str(cfg), "--model", "huge", "--criterion", "chi2",
                    "--m", "1"]) == EXIT_RESOURCE
        assert time.process_time() - start < 0.1
        err = capsys.readouterr().err
        assert err.startswith(f"resource error: the equality law at n={n}") and err.count("\n") == 1

    def test_a_max_degree_past_its_budget_exits_at_once(self, tmp_path, capsys):
        # the series constructors are linear in max_degree: about 0.6 s per
        # 10^6 degrees for the sign link's lambda_i
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {"huge": {"model": "si", "link": {"kind": "sign"}, "prior": SPHERE,
                                                        "max_degree": 10**9}}}))
        start = time.process_time()
        assert run(["criterion", "--config", str(cfg), "--model", "huge", "--criterion", "chi2",
                    "--m", "1"]) == EXIT_RESOURCE
        assert time.process_time() - start < 0.1
        err = capsys.readouterr().err
        assert err.startswith("resource error: max_degree 1000000000 is above") and err.count("\n") == 1

    @pytest.mark.parametrize("prior, field", [
        ({"kind": "signed_sparse", "n": 40.9, "k": 6.5}, "n"),
        ({"kind": "signed_sparse", "n": 40, "k": True}, "k"),
    ])
    def test_a_fractional_size_is_a_config_error(self, prior, field, tmp_path, capsys):
        # int() would read n = 40.9, k = 6.5 as (40, 6) and print an FP row
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {
            "frac": {"model": "ngca", "mu": {"kind": "atoms", "values": [-1.0, 1.0], "probs": [0.5, 0.5]},
                     "prior": prior, "max_degree": 40},
        }}))
        assert run(["criterion", "--config", str(cfg), "--model", "frac", "--criterion", "fp",
                    "--q", "20", "--m", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {field!r} must be a whole number, got {prior[field]!r}\n"

    def test_config_file_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "mslr-desk", "criteria": ["chi2"], "m": [2]}))
        out = tmp_path / "rows.csv"
        run(["criterion", "--config", str(cfg), "--m", "5", "--out", str(out)])
        (row,) = read_rows(str(out))
        assert row["m"] == "5"


class TestOutputPath:
    @pytest.mark.parametrize("argv", [
        ["criterion", "--model", "gam-rademacher", "--criterion", "chi2", "--m", "1"],
        ["kernel", "--model", "gam-rademacher"],
        ["reproduce", "dirac"],
        ["check", "--model", "gam-rademacher"],
    ])
    def test_unwritable_out_is_a_config_error(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "out.txt"
        assert run(argv + ["--out", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {path}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["kernel", "--model", "slab-desk"],
    ["criterion", "--model", "slab-desk", "--criterion", "fp,rho_fp,gfp,sq,usq,chi2,ld",
     "--q", "10", "--m", "2"],
    ["check", "--model", "si-sign-sphere", "--q", "10", "--m", "4"],
    # these read a law's masses and the assumption's witness atom
    ["reproduce", "dense-clique"],
    ["reproduce", "dirac"],
    ["reproduce", "counterexample"],
    ["check", "--seeds", "2", "--inject-broken"],  # the broken kernel fails its check
])
def test_no_field_prints_a_numpy_scalar_repr(argv, capsys):
    # the kernels hand back Python floats for a single statistic value, and
    # values read from a law's arrays leave the engine as Python floats
    assert run(argv) == (EXIT_ASSERTION if "--inject-broken" in argv else EXIT_PASS)
    assert "np.float64(" not in capsys.readouterr().out


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

    @pytest.mark.parametrize("preset", ["mslr-desk", "mslr-oracle"])
    def test_mslr_tables_pass_with_or_without_a_config_seed(self, preset, tmp_path, capsys):
        # the Monte Carlo oracle failed mslr-desk (|diff| 0.206 > bound 0.0944
        # at ell = 4); the exact one reads no seed
        outs = []
        for cfg in ({}, {"seed": 5}):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            assert run(["kernel", "--config", str(path), "--model", preset]) == EXIT_PASS
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1] and outs[0].err == ""
        header, *rows = list(csv.reader(io.StringIO(outs[0].out)))
        k = BUILTIN_MODEL_DESCRIPTORS[preset]["k"]
        assert [int(row[0]) for row in rows] == list(range(k + 1))
        for _, kernel_value, oracle_value, diff, bound in rows:
            assert float(diff) == abs(float(kernel_value) - float(oracle_value))
            assert float(diff) <= float(bound) == 1e-12 * float(oracle_value)

    @pytest.mark.parametrize("argv", [
        ["kernel", "--model", "mslr-oracle", "--samples", "10"],
        ["kernel", "--model", "mslr-oracle", "--seed", "1"],
        ["kernel", "--model", "mslr-oracle", "--format", "json"],
        ["check", "--model", "gam-sphere", "--format", "csv"],
        ["criterion", "--model", "gam-rademacher", "--criterion", "chi2", "--seed", "11"],
        ["sweep", "--model", "gam-rademacher", "--criterion", "chi2", "--m", "1,2", "--seed", "11"],
    ])
    def test_a_flag_the_command_does_not_read_is_refused(self, argv, capsys):
        # --samples and --seed fed the Monte Carlo oracle; kernel printed CSV
        # under --format json and check printed JSON under --format csv;
        # criterion and sweep, in which nothing is random, wrote their seed
        # only into the metadata line and the config hash
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sample_count_below_one_is_refused(self, samples, capsys):
        # the exact oracle takes no sample count, so argparse refuses any
        with pytest.raises(SystemExit) as exc:
            run(["kernel", "--model", "mslr-oracle", "--samples", samples])
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"unrecognized arguments: --samples {samples}" in captured.err
        assert captured.out == ""

    def test_resource_error_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {
            "big": {"model": "counterexample", "n": 16, "r": 0.1, "alpha_c": 0.2, "rho_p": 0.3},
        }}))
        assert run(["kernel", "--config", str(cfg), "--model", "big"]) == EXIT_RESOURCE

    def test_every_preset_prints_its_recorded_table(self):
        # tests/kernel_rows.py: the CSV of the covered presets and the exit
        # code and message of the refused ones
        from kernel_rows import DATA_PATH, kernel_outputs

        with open(DATA_PATH) as fh:
            assert kernel_outputs() == json.load(fh)

    @pytest.mark.parametrize("n, code, err", [
        (30, EXIT_PASS, ""),
        (1100, EXIT_CONFIG, "config error: the dirac kernel 2^1100 is past the float range\n"),
    ])
    def test_dirac_beyond_n_20(self, n, code, err, tmp_path, capsys):
        # an absolute bound of 0 failed n = 30 on K = 1073741823.999999 against
        # 2^30, and 2.0 ** 1100 raised an OverflowError traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {"d": {"model": "dirac", "n": n}}}))
        assert run(["kernel", "--config", str(cfg), "--model", "d"]) == code
        assert capsys.readouterr().err == err


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


@pytest.mark.parametrize("config, argv, message", [
    ({"format": "xml"}, ["criterion", "--model", "gam-rademacher", "--criterion", "chi2", "--m", "1"],
     "'format' must be 'csv' or 'json', got 'xml'"),
    ({"format": "xml"}, ["sweep", "--model", "gam-rademacher", "--criterion", "chi2", "--m", "1"],
     "'format' must be 'csv' or 'json', got 'xml'"),
    (None, ["check", "--model", "gam-rademacher", "--seed", "5"],
     "--seed and --seeds drive the randomized suite, which --model replaces"),
    (None, ["check", "--model", "gam-rademacher", "--seeds", "5"],
     "--seed and --seeds drive the randomized suite, which --model replaces"),
])
def test_a_setting_the_command_would_ignore_is_refused(config, argv, message, tmp_path, capsys):
    # a config "format" of xml printed CSV, and check --model printed the
    # same JSON with or without a seed; both exited 0
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert run(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n" and captured.out == ""


class TestCheckCommand:
    def test_randomized_suite_passes(self, capsys):
        assert run(["check", "--seeds", "8"]) == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        assert payload["randomized_equivalence_suite"]["violations"] == 0

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_model_count_below_one_is_refused(self, seeds, capsys):
        assert run(["check", "--seeds", seeds]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--seeds must be a positive integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("half", [["--q", "10"], ["--m", "4"]])
    def test_half_a_q_m_point_is_refused(self, half, capsys):
        # the equivalence battery runs at one (q, m) point: half of one is
        # refused, not dropped
        assert run(["check", "--model", "gam-rademacher"] + half) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--q and --m" in captured.err and captured.out == ""

    @pytest.mark.parametrize("name", ["gam-rademacher", "slab-desk", "mslr-desk",
                                      "ngca-rademacher-sparse", "si-sign-sparse"])
    def test_gfp_check_needs_an_exact_rho_g_tail(self, name, capsys):
        # at q = 10 the strict event {rho_G < r(q)} of these discrete laws
        # holds less than 1 - q^-2 of the mass, so it is no GFP-feasible
        # event and GFP <= rho_G-FP has no premise there
        assert run(["check", "--model", name, "--q", "10", "--m", "4"]) == EXIT_PASS
        checks = json.loads(capsys.readouterr().out)["equivalence"]
        assert checks["gfp_le_rho_fp"] == {"status": "premise-failed", "passed": True}

    def test_injected_broken_kernel_reports_witness(self, capsys):
        code = run(["check", "--seeds", "1", "--inject-broken"])
        assert code == EXIT_ASSERTION
        out = capsys.readouterr().out
        rep = json.loads(out)["injected_broken_kernel"]
        assert rep["passed"] is False
        # the k = 1 check certifies every k, so the witness is a bare point
        assert '"witness": 0.5' in out and rep["min_value"] == -0.5

    def test_assumption_with_powers_past_the_float_range(self, tmp_path, capsys):
        # (K - 1)^k at k >= 2 is beyond the float range at the top atom; the
        # k = 1 check, which covers every k, reads the finite e^484 - 1 there
        # and its least value, 0, at t = 0
        assert run(["check", "--config", big_config(tmp_path), "--model", "big"]) == EXIT_PASS
        rep = json.loads(capsys.readouterr().out)["assumption"]
        assert rep == {"passed": True, "min_value": 0.0, "witness": None}

    def test_single_model_assumption(self, capsys):
        assert run(["check", "--model", "gam-sphere"]) == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        assert payload["assumption"]["passed"] is True

    def test_out_holds_the_json(self, tmp_path, capsys):
        # --out was accepted and ignored: the JSON went to stdout
        out = tmp_path / "check.json"
        assert run(["check", "--model", "gam-rademacher", "--q", "20", "--m", "4", "--out", str(out)]) == EXIT_PASS
        assert capsys.readouterr().out == ""
        assert run(["check", "--model", "gam-rademacher", "--q", "20", "--m", "4"]) == EXIT_PASS
        text = out.read_text()
        assert text == capsys.readouterr().out and json.loads(text)["assumption"]["passed"] is True

    def test_k_max_is_no_longer_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["check", "--model", "gam-sphere", "--k-max", "4"])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: fpsq ") and err.endswith("fpsq: error: unrecognized arguments: --k-max 4\n")

    @pytest.mark.parametrize("command", [
        ["criterion", "--criterion", "fp,chi2", "--q", "4", "--m", "2"],
        ["check"],
    ])
    @pytest.mark.parametrize("desc", [
        {"model": "gam", "lambda": math.inf, "prior": {"kind": "rademacher_mean", "n": 10}},
        {"model": "gam", "lambda": 1e200, "prior": {"kind": "rademacher_mean", "n": 10}},
        {"model": "synthetic", "values": [0.0, 0.5], "probs": [0.5, 0.5], "kernel_values": [1.0, math.nan]},
        {"model": "ngca", "mu": {"kind": "gaussian", "mean": 0.0, "var": math.inf},
         "prior": {"kind": "sphere", "n": 50}, "max_degree": 20},
        # these three printed inf or a unit-kernel chi2 of 0.0 with exit 0
        {"model": "synthetic", "values": [0.0, 0.5], "probs": [0.5, 0.5], "kernel_values": [1.0, math.inf]},
        {"model": "ngca", "mu": {"kind": "atoms", "values": [-1.0, math.nan], "probs": [0.5, 0.5]},
         "prior": {"kind": "sphere", "n": 50}},
        {"model": "ngca", "mu": {"kind": "atoms", "values": [-1.0, 1.0], "probs": [math.nan, 0.5]},
         "prior": {"kind": "sphere", "n": 50}},
    ])
    def test_a_non_finite_kernel_parameter_is_a_config_error(self, command, desc, tmp_path, capsys):
        # these printed a nan row with exit 0, or a nan "violation" with exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {"bad": desc}}))  # inf and nan as Infinity and NaN
        assert run(command + ["--config", str(cfg), "--model", "bad"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert captured.out == ""


def run_config(cfg: dict, argv=("--criterion", "chi2", "--m", "1"), command="criterion") -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of an in-process `fpsq <command> --config`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)  # inf and nan as Infinity and NaN
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", path, *argv])
    return code, out.getvalue(), err.getvalue()


def assert_one_config_error(code: int, out: str, err: str) -> None:
    assert code == EXIT_CONFIG, (code, err)
    assert err.startswith("config error: ") and err.count("\n") == 1 and out == ""


SPHERE = {"kind": "sphere", "n": 50}
RADEMACHER = {"kind": "rademacher_mean", "n": 10}


class TestDescriptorSchema:
    @pytest.mark.parametrize("desc, message", [
        # each ended in a KeyError or AttributeError traceback, exit 1
        ({"model": "gam", "prior": RADEMACHER}, "'lambda' must be a finite real, got None"),
        ({"model": "gam", "lambda": 1.0}, "'prior' must be an object, got None"),
        ({"model": "si", "link": "identity", "prior": SPHERE}, "'link' must be an object, got 'identity'"),
        ({"model": "ngca", "mu": {"kind": "gaussian", "var": 1.5}, "prior": SPHERE},
         "'mean' must be a finite real, got None"),
        ({"model": "gam", "lambda": 1.0, "prior": {"kind": "two_point", "rho_p": 0.5}},
         "'values' must be a list of finite reals, got None"),
        ({"model": "mslr", "n": 40, "k": 4}, "'sigma2' must be a finite real, got None"),
        ({"model": "synthetic", "values": [0.0, 0.5], "probs": [0.5, 0.5]},
         "'kernel_values' must be a list of finite reals, got None"),
        ({"model": "si", "link": {"kind": "gaussian_noise"}, "prior": SPHERE},
         "'tau2' must be a finite real, got None"),
        # each built a model and printed a row, exit 0
        ({"model": "gam", "lambda": "1", "prior": RADEMACHER}, "'lambda' must be a finite real, got '1'"),
        ({"model": "gam", "lambda": True, "prior": RADEMACHER}, "'lambda' must be a finite real, got True"),
        ({"model": "gam", "lambda": 2.0, "lamda": 2.0, "prior": RADEMACHER},
         "unknown field 'lamda' for model 'gam'"),
        # zip cut the means short and chi2 printed 0.0
        ({"model": "ngca", "mu": {"kind": "gaussian_mixture", "weights": [0.5, 0.5], "means": [0.0],
                                  "vars": [1.0, 1.0]}, "prior": SPHERE}, "mixture weights, means and vars"),
        # an int past the float range is no finite real, and float() raised OverflowError
        ({"model": "gam", "lambda": 10**400, "prior": RADEMACHER}, "'lambda' must be a finite real, got 1000"),
        ({"model": "nope"}, "'model' must be one of 'gam', "),
        ({"model": "gam", "lambda": 1.0, "prior": {"kind": "nope"}}, "'kind' must be one of 'hypergeometric', "),
        # gam builds its series to the degree LD asks and stores none
        ({"model": "gam", "lambda": 1.0, "prior": RADEMACHER, "max_degree": 64},
         "unknown field 'max_degree' for model 'gam'"),
    ])
    def test_a_malformed_descriptor_is_one_config_error(self, desc, message):
        code, out, err = run_config({"models": {"bad": desc}, "model": "bad"})
        assert_one_config_error(code, out, err)
        assert err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("cfg, argv, message", [  # argv: the command, then its flags
        # check's randomized suite is the one reader of a config seed
        ({"seed": [1]}, ("check", "--seeds", "1"), "'seed' must be a whole number, got [1]"),
        ({"seed": 1.5}, ("check", "--seeds", "1"), "'seed' must be a whole number, got 1.5"),
        ({"epsilon": "0.1"}, ("criterion", "--criterion", "chi2"), "'epsilon' must be a finite real, got '0.1'"),
        ({"criteria": 5}, ("criterion",), "'criteria' must be a comma list or a list of names, got 5"),
        ({"criteria": ["chi2", 5]}, ("criterion",), "'criteria' must be a comma list or a list of names"),
        ({"models": [1]}, ("criterion", "--criterion", "chi2"), "'models' must be an object, got [1]"),
        ({"models": {"a": 5}, "model": "a"}, ("criterion", "--criterion", "chi2"), "a descriptor must be an object"),
    ])
    def test_a_malformed_config_field_is_one_config_error(self, cfg, argv, message):
        # each ended in a TypeError traceback, exit 1, or ran with the field ignored
        code, out, err = run_config({"model": "gam-rademacher", **cfg}, argv[1:], command=argv[0])
        assert_one_config_error(code, out, err)
        assert err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_non_finite_epsilon_is_one_config_error_as_flag_and_field(self, value):
        # --epsilon nan printed verdict not-hard with exit 0
        want = f"config error: 'epsilon' must be a finite real, got {float(value)!r}\n"
        argv = ("--criterion", "fp", "--q", "4", "--m", "2")
        for cfg, extra in (({}, (f"--epsilon={value}",)), ({"epsilon": float(value)}, ())):
            code, out, err = run_config({"model": "gam-rademacher", **cfg}, argv + extra)
            assert_one_config_error(code, out, err)
            assert err == want

    @pytest.mark.parametrize("key", ["q", "m"])
    @pytest.mark.parametrize("grid", [[[1]], [2.0, "3"], [True], [math.nan], 5])
    def test_a_config_grid_of_non_numbers_is_one_config_error(self, key, grid):
        # [[1]] ended in a TypeError traceback from float(), exit 1
        code, out, err = run_config({"model": "gam-rademacher", "q": [3], "m": [2], key: grid},
                                    ("--criterion", "fp"))
        assert_one_config_error(code, out, err)
        assert err.startswith(f"config error: {key!r} must be a list of finite reals, got ")

    def test_an_integer_config_grid_keeps_its_integers_in_the_config_hash(self):
        outs = [run_config({"model": "gam-rademacher", "q": q, "m": [2]}, ("--criterion", "fp")) for q in ([3], [3.0])]
        assert [code for code, _, _ in outs] == [EXIT_PASS, EXIT_PASS]
        (head_int, *rows_int), (head_float, *rows_float) = (out.splitlines() for _, out, _ in outs)
        assert rows_int == rows_float and head_int != head_float

    @pytest.mark.parametrize("desc, code", [
        ({"model": "gam", "lambda": 1.0, "prior": {"kind": "sphere", "n": 10**400}}, EXIT_CONFIG),
        ({"model": "mslr", "n": 40, "k": 10**400, "sigma2": 1.0}, EXIT_CONFIG),
        ({"model": "mslr", "n": 10**400, "k": 4, "sigma2": 1.0}, EXIT_CONFIG),
        ({"model": "dirac", "n": 10**400}, EXIT_CONFIG),
        ({"model": "counterexample", "n": 10**400, "r": 0.3, "alpha_c": 0.2, "rho_p": 0.3}, EXIT_CONFIG),
        ({"model": "dense_clique", "n": 10**400, "k": 4, "p": 0.5}, EXIT_CONFIG),
        ({"model": "slab", "alpha": 0.1, "d": 10**400}, EXIT_RESOURCE),
        ({"model": "gam", "lambda": 1.0, "prior": {"kind": "rademacher_mean", "n": 10**400}}, EXIT_RESOURCE),
    ])
    def test_a_size_past_the_float_range_is_refused(self, desc, code):
        # the sphere, mslr k, dirac and counterexample sizes ended in an
        # OverflowError or TypeError traceback, exit 1
        got, out, err = run_config({"model": desc})
        assert (got, out, err.count("\n")) == (code, "", 1)
        assert err.startswith("config error: " if code == EXIT_CONFIG else "resource error: ")

    def test_fpsq_kernel_reads_the_descriptor_before_the_oracle(self, tmp_path, capsys):
        # kernel_table read desc["model"] and desc["lambda"] first: KeyError, exit 1
        cfg = tmp_path / "cfg.json"
        for model in ({"lambda": 1.0, "prior": SPHERE}, {"model": "gam", "prior": SPHERE}):
            cfg.write_text(json.dumps({"model": model}))
            assert run(["kernel", "--config", str(cfg)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: '") and err.count("\n") == 1


def _paths(desc: dict, prefix: tuple = ()):
    """The path of every field of a descriptor and of its nested descriptors."""
    for key, value in desc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


_RETYPED = {"string": "1", "bool": True, "list": [1], "object": {}, "none": None}
_MUTATIONS = ("drop", "unknown", "inf", "nan", *_RETYPED)


def _mutated(desc: dict, path: tuple, how: str) -> dict:
    """desc with the field at path dropped, retyped or made non-finite (a
    list's first entry), or with an unknown field beside it."""
    out = json.loads(json.dumps(desc))
    *parents, key = path
    level = out
    for name in parents:
        level = level[name]
    if how == "drop":
        del level[key]
    elif how == "unknown":
        level["no_such_field"] = 1.0
    elif how in ("inf", "nan"):
        value = level[key]
        level[key] = [float(how), *value[1:]] if isinstance(value, list) else float(how)
    else:
        level[key] = _RETYPED[how]
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_MODEL_DESCRIPTORS)), st.sampled_from(_MUTATIONS), st.data())
def test_a_mutated_preset_is_one_config_error_or_a_model(preset, how, data):
    # no mutation of a field of a preset, at any level, ends in a traceback
    # or exit 1: either the schema or a constructor refuses it with one line,
    # or it is still a valid model (a dropped group, a list of atom values)
    desc = BUILTIN_MODEL_DESCRIPTORS[preset]
    path = data.draw(st.sampled_from(list(_paths(desc))))
    code, out, err = run_config({"models": {"bad": _mutated(desc, path, how)}, "model": "bad"})
    if code == EXIT_PASS:
        assert err == "" and out.count("\n") == 3
    else:
        assert_one_config_error(code, out, err)


def test_cli_import_leaves_heavy_scipy_modules_unloaded(tmp_path):
    # startup cost guard: the engine imports only numpy and stores its Gauss
    # rules, so neither the import nor any criterion on a sphere-law or slab
    # model loads scipy or numpy.polynomial (the sphere law at n = 400 takes
    # its tails by Gauss-Laguerre)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": {
        "gam-sphere-400": {"model": "gam", "lambda": 1.0, "prior": {"kind": "sphere", "n": 400}}}}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    code = ("import os, sys, fpsq.cli; "
            "heavy = lambda: sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')); "
            "print(heavy()); "
            "codes = [fpsq.cli.main(['criterion', '--config', sys.argv[1], '--model', name, '--criterion', "
            "'fp,rho_fp,gfp,sq,usq,chi2,ld', '--q', '20', '--m', '3', '--out', os.devnull]) "
            "for name in ('gam-sphere', 'si-sign-sphere', 'slab-desk', 'gam-sphere-400')]; "
            "print(codes, heavy())")
    out = subprocess.run([sys.executable, "-c", code, str(cfg)], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]", "[0, 0, 0, 0] []"]
