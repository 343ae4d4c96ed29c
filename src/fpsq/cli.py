"""Command-line front end.

Subcommands:

- kernel     closed-form kernel vs independent oracle on a model grid
- criterion  evaluate hardness criteria at (q, m) points
- sweep      same engine over (q, m) grids, rows in grid order
- reproduce  run a named desk-scale scenario and its assertions
- check      assumption certification + cross-criterion inequality suite

Configuration is a JSON file (``--config``); command-line flags override
file fields, which override defaults.  Models are referenced by name:
names resolve first in the config file's "models" table, then among the
built-in presets.  Output is CSV (default) or JSON; CSV rows follow the
fixed schema

    model,criterion,q,m,epsilon,threshold,achieved_mass,value,verdict,method,error_bound

and the first line is a ``#`` metadata comment carrying the config hash,
tool version, and seed (never a timestamp, so identical configs produce
byte-identical files).  Criterion values whose natural log exceeds 700
are emitted as the log value with an ``overflow-log`` marker appended to
the method field.

Exit codes: 0 pass, 1 assertion failure, 2 config error, 3 resource
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from typing import Sequence

from fpsq import __version__
from fpsq.criteria import (
    CriterionReport,
    UnsupportedCriterionError,
    assumption_holds,
    check_equivalence_bounds,
    chi_squared,
    fp_value,
    gfp_value,
    ld_samplewise,
    log_moment,
    rho_fp_value,
    sq_value,
    usq_hard,
)
from fpsq.kernels import ModelSpec, build_model
from fpsq.laws import NAME, OBJECT, QUAD_REL_TOL, REAL, REALS, WHOLE, ResourceLimitError, read_field
from fpsq.scenarios import (
    BUILTIN_MODEL_DESCRIPTORS,
    SCENARIOS,
    equivalence_suite,
    kernel_table,
    run_scenario,
)

CSV_COLUMNS = [
    "model", "criterion", "q", "m", "epsilon", "threshold", "achieved_mass",
    "value", "verdict", "method", "error_bound",
]

EXIT_PASS = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def load_config(args: argparse.Namespace) -> dict:
    """The --config file's JSON object ({} without one)."""
    path, cfg = args.config, {}
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def parse_grid(text: str | None) -> list[float] | None:
    """Grid syntax: 'a,b,c' | 'lin:lo:hi:n' | 'log:lo:hi:n' | scalar."""
    if text is None:
        return None
    text = str(text).strip()
    if text.startswith(("lin:", "log:")):
        try:
            kind, lo_s, hi_s, n_s = text.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError:
            raise ConfigError(f"malformed grid {text!r}: expected {text[:3]}:lo:hi:n "
                              "with numbers lo, hi and an integer n") from None
        if n < 1:
            raise ConfigError(f"grid size must be positive in {text!r}")
        if n == 1:
            return [lo]
        if kind == "lin":
            step = (hi - lo) / (n - 1)
            return [lo + i * step for i in range(n)]
        if lo <= 0 or hi <= 0:
            raise ConfigError(f"log grid endpoints must be positive in {text!r}")
        la, lb = math.log(lo), math.log(hi)
        return [math.exp(la + i * (lb - la) / (n - 1)) for i in range(n)]
    return [float(v) for v in text.split(",") if v != ""]


def config_grid(cfg: dict, key: str) -> list | None:
    """The config's grid as written (integers stay integers in the config hash), if a list of finite reals."""
    read_field(cfg, key, REALS, None)
    return cfg.get(key)


def config_hash(semantic: dict) -> str:
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def resolve_descriptor(name_or_desc, cfg: dict) -> tuple[str, dict]:
    """(name, descriptor) of a model: an inline descriptor, else a name
    from the config's "models" table, else a built-in preset."""
    if name_or_desc is None:
        raise ConfigError("no model given (use --model or a 'model' config field)")
    if isinstance(name_or_desc, dict):
        return name_or_desc.get("model", "inline"), name_or_desc
    name = str(name_or_desc)
    table = read_field(cfg, "models", OBJECT, {})
    if name in table:
        return name, table[name]
    if name in BUILTIN_MODEL_DESCRIPTORS:
        return name, BUILTIN_MODEL_DESCRIPTORS[name]
    known = sorted(set(table) | set(BUILTIN_MODEL_DESCRIPTORS))
    raise ConfigError(f"unknown model name {name!r}; known models: {', '.join(known)}")


def resolve_model(name_or_desc, cfg: dict) -> tuple[str, ModelSpec]:
    name, desc = resolve_descriptor(name_or_desc, cfg)
    return name, build_model(desc)


# ---------------------------------------------------------------------------
# Row emission
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def report_row(model_name: str, report: CriterionReport, rel_error: float) -> dict:
    """The CSV row of a report; error_bound is rel_error times max(1, |the
    emitted value|), which is the log value on overflow-log rows."""
    value = report.value
    method = report.method
    if report.overflowed or (math.isinf(value) and report.log_value is not None):
        value = report.log_value
        method = f"{method}+overflow-log"
    thr = report.threshold
    return {
        "model": model_name,
        "criterion": report.criterion,
        "q": report.inputs.get("q"),
        "m": report.inputs.get("m"),
        "epsilon": report.inputs.get("epsilon"),
        "threshold": None if thr is None else thr.threshold,
        "achieved_mass": None if thr is None else thr.achieved_mass,
        "value": value,
        "verdict": report.verdict or "",
        "method": method,
        "error_bound": rel_error * max(1.0, abs(value)) if rel_error else 0.0,
    }


def write_rows(rows: list[dict], metadata: dict, fmt: str, out) -> None:
    if fmt == "json":
        payload = {"metadata": metadata, "rows": rows}
        out.write(json.dumps(payload, sort_keys=True, indent=2, default=_fmt))
        out.write("\n")
        return
    out.write(
        f"# fpsq-version={metadata['version']} config-hash={metadata['config_hash']} "
        f"seed={metadata['seed']}\n"
    )
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])


# ---------------------------------------------------------------------------
# criterion / sweep
# ---------------------------------------------------------------------------


def _whole(m) -> int:
    """m as an integer: a grid point within 1e-9 relative of one (a log
    grid's 2^k, say) rounds to it, and any other m is refused."""
    m = float(m)
    if not (math.isfinite(m) and abs(m - round(m)) <= 1e-9 * abs(round(m))):
        raise ConfigError(f"m must be a whole number, got {m!r}")
    return round(m)


def _eval_cell(model_name: str, model: ModelSpec, crit: str, q, m, epsilon: float,
               t: int, d, k_deg: int) -> dict:
    if crit in ("fp", "rho_fp", "gfp", "sq") and q is None:
        raise ConfigError(f"criterion {crit!r} requires a q grid")
    if crit != "sq" and m is None:
        raise ConfigError(f"criterion {crit!r} requires an m grid")
    q = None if q is None else read_field({"q": q}, "q", REAL)
    m = None if m is None else _whole(m)
    if crit == "fp":
        rep = fp_value(model, q, m, epsilon)
    elif crit == "rho_fp":
        rep = rho_fp_value(model, q, m, epsilon)
    elif crit == "gfp":
        rep = gfp_value(model, q, m, epsilon)
    elif crit == "sq":
        rep = sq_value(model, q, m)
    elif crit == "usq":
        rep = usq_hard(model, m, t)
        rep = CriterionReport(f"USQ[t={t}]", {"q": q, "m": m, "epsilon": epsilon},
                              None, rep.value, rep.log_value, rep.verdict, rep.method)
    elif crit == "chi2":
        value = chi_squared(model, m)
        verdict = None if epsilon <= 0.0 else ("hard" if value <= epsilon else "not-hard")
        # log E[K^m] stays finite where the linear value overflows
        lv = log_moment(model, m) if math.isinf(value) else (
            math.log1p(value) if value > -1.0 else None)
        rep = CriterionReport("CHI2", {"q": q, "m": m, "epsilon": epsilon}, None,
                              value, lv, verdict,
                              "exact-sum" if model.is_discrete else "quadrature")
    elif crit == "ld":
        value = ld_samplewise(model, m, d, k_deg)
        d_tag = "inf" if d == math.inf else int(d)
        rep = CriterionReport(f"LD[d={d_tag},k={k_deg}]",
                              {"q": q, "m": m, "epsilon": epsilon}, None, value,
                              math.log(value) if value > 0 else None,
                              "hard" if value <= 1.0 + epsilon else "not-hard",
                              "exact-sum" if model.is_discrete else "quadrature")
    else:
        raise ConfigError(f"unknown criterion {crit!r}; known: fp, rho_fp, gfp, sq, usq, chi2, ld")
    return report_row(model_name, rep, 0.0 if rep.method.startswith("exact-sum") else QUAD_REL_TOL)


def cmd_criterion(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    seed = args.seed if args.seed is not None else read_field(cfg, "seed", WHOLE, 0)
    fmt = args.format or read_field(cfg, "format", NAME, "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"'format' must be 'csv' or 'json', got {fmt!r}")
    epsilon = read_field(cfg if args.epsilon is None else {"epsilon": args.epsilon}, "epsilon", REAL, 0.0)
    criteria = (args.criterion or cfg.get("criteria") or "chi2")
    if isinstance(criteria, str):
        criteria = [c.strip() for c in criteria.split(",") if c.strip()]
    if not (isinstance(criteria, list) and all(isinstance(c, str) for c in criteria)):
        raise ConfigError(f"'criteria' must be a comma list or a list of names, got {criteria!r}")
    qs = parse_grid(args.q) or config_grid(cfg, "q") or [None]
    ms = parse_grid(args.m) or config_grid(cfg, "m") or [1]
    if not isinstance(qs, list) or not isinstance(ms, list) or not qs or not ms:
        raise ConfigError("q and m grids must be nonempty lists")
    model_ref = args.model or cfg.get("model")
    model_name, model = resolve_model(model_ref, cfg)

    semantic = {
        "command": "criterion", "model": model_ref, "criteria": criteria,
        "q": qs, "m": ms, "epsilon": epsilon, "seed": seed,
        "t": args.t, "d": args.d, "k_deg": args.k_deg,
    }
    metadata = {"version": __version__, "config_hash": config_hash(semantic), "seed": seed}
    d = math.inf if args.d in (None, "inf") else float(args.d)
    rows = []
    for crit in criteria:
        for q in qs:
            for m in ms:
                rows.append(_eval_cell(model_name, model, crit, q, m, epsilon,
                                       args.t, d, args.k_deg))
    _emit(args.out, lambda out: write_rows(rows, metadata, fmt, out))
    return EXIT_PASS


def _emit(path: str | None, write) -> None:
    """write(file) on path (stdout without one); ConfigError if path is unwritable."""
    if not path:
        write(sys.stdout)
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    with fh:
        write(fh)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.q is None and args.m is None and args.config is None:
        raise ConfigError("sweep requires q and/or m grids (flags or config)")
    return cmd_criterion(args)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def cmd_kernel(args: argparse.Namespace) -> int:
    cfg = load_config(args)
    model_name, desc = resolve_descriptor(args.model or cfg.get("model"), cfg)
    rows = kernel_table(desc)
    table = [["statistic", "kernel_value", "oracle_value", "abs_diff", "bound"]] + [
        [_fmt(v) for v in (r.statistic, r.kernel_value, r.oracle_value, r.diff, r.bound)] for r in rows]
    _emit(args.out, lambda out: csv.writer(out, lineterminator="\n").writerows(table))
    failed = [r for r in rows if not r.passed]
    for r in failed:
        print(f"FAIL {model_name} at {r.statistic}: |diff| {r.diff:g} > bound {r.bound:g}",
              file=sys.stderr)
    return EXIT_ASSERTION if failed else EXIT_PASS


# ---------------------------------------------------------------------------
# reproduce / check
# ---------------------------------------------------------------------------


def cmd_reproduce(args: argparse.Namespace) -> int:
    result = run_scenario(args.scenario)
    lines = [f"scenario {result.scenario}: {'PASS' if result.passed else 'FAIL'}"]
    for key, val in sorted(result.params.items(), key=lambda kv: kv[0]):
        lines.append(f"  param {key} = {val}")
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"  [{status}] {c.name}: {c.value!r} {c.comparison} {c.bound!r}  ({c.note})")
    text = "\n".join(lines) + "\n"
    if args.out:
        _emit(args.out, lambda out: out.write(text))
    sys.stdout.write(text)
    return EXIT_PASS if result.passed else EXIT_ASSERTION


def cmd_check(args: argparse.Namespace) -> int:
    if (args.q is None) != (args.m is None):
        raise ConfigError("--q and --m name one (q, m) point of the equivalence battery; give both")
    if args.model and (args.seed is not None or args.seeds is not None):
        raise ConfigError("--seed and --seeds drive the randomized suite, which --model replaces")
    cfg = load_config(args)
    seed = args.seed if args.seed is not None else read_field(cfg, "seed", WHOLE, 0)
    results = {}
    ok = True

    if args.inject_broken:
        broken = build_model({
            "model": "synthetic",
            "values": [0.0, 0.5, 1.0],
            "probs": [0.5, 0.3, 0.2],
            "kernel_values": [1.0, 0.5, 2.0],  # K(0.5) < 1 violates the condition
        })
        rep = assumption_holds(broken)
        results["injected_broken_kernel"] = {
            "passed": rep.passed,
            "min_value": rep.min_value,
            "witness": rep.witness,
        }
        ok = ok and rep.passed

    if args.model:
        _, model = resolve_model(args.model, cfg)
        rep = assumption_holds(model)
        results["assumption"] = {"passed": rep.passed, "min_value": rep.min_value,
                                 "witness": rep.witness}
        ok = ok and rep.passed
        if args.q is not None and args.m is not None:
            eq = check_equivalence_bounds(model, float(args.q), int(args.m))
            results["equivalence"] = eq.checks
            ok = ok and eq.passed
    else:
        seeds = 100 if args.seeds is None else args.seeds
        if seeds < 1:
            raise ConfigError(f"--seeds must be a positive integer, got {seeds}")
        suite = equivalence_suite(num_models=seeds, base_seed=seed)
        results["randomized_equivalence_suite"] = suite
        ok = ok and suite["violations"] == 0

    text = json.dumps(results, indent=2, sort_keys=True, default=str) + "\n"
    _emit(args.out, lambda out: out.write(text))
    return EXIT_PASS if ok else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fpsq", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"fpsq {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True, fmt=True):
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--model", help="model name (config 'models' table or built-in preset)")
        if seed:
            sp.add_argument("--seed", type=int, default=None)
        if fmt:
            sp.add_argument("--format", choices=["csv", "json"], default=None)
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("kernel", help="kernel-vs-oracle validation table")
    common(sp, seed=False, fmt=False)
    sp.set_defaults(func=cmd_kernel)

    for name, factory in (("criterion", cmd_criterion), ("sweep", cmd_sweep)):
        sp = sub.add_parser(name, help=f"{name} evaluation")
        common(sp)
        sp.add_argument("--criterion", help="comma list: fp,rho_fp,gfp,sq,usq,chi2,ld")
        sp.add_argument("--q", help="grid: 'a,b,c' | 'lin:lo:hi:n' | 'log:lo:hi:n'")
        sp.add_argument("--m", help="grid, same syntax as --q")
        sp.add_argument("--epsilon", type=float, default=None)
        sp.add_argument("--t", type=int, default=2, help="USQ moment order (even)")
        sp.add_argument("--d", default=None,
                        help="samplewise per-sample degree (nonnegative int or 'inf')")
        sp.add_argument("--k-deg", dest="k_deg", type=int, default=1,
                        help="samplewise sample-degree bound")
        sp.set_defaults(func=factory)

    sp = sub.add_parser("reproduce", help="run a named desk-scale scenario")
    sp.add_argument("scenario", help=f"one of: {', '.join(sorted(SCENARIOS))}")
    sp.add_argument("--out", help="also write the report to this path")
    sp.set_defaults(func=cmd_reproduce)

    sp = sub.add_parser("check", help="assumption + equivalence property suite")
    common(sp, fmt=False)
    sp.add_argument("--seeds", type=int, default=None,
                    help="number of randomized models in the default suite (100)")
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--inject-broken", action="store_true",
                    help="also run a deliberately broken kernel (expects a violation report)")
    sp.set_defaults(func=cmd_check)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (UnsupportedCriterionError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
