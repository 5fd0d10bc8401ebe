"""Batch experiment driver.

Every subcommand reads a merged configuration (flat key=value config
file, command-line flags override) over the option keys it declares in
_COMMANDS, runs one pipeline, and writes JSON
reports (plus CSV side tables with --format csv) into --out-dir. Runs
are reproducible: all randomness flows from --seed through Philox, no
report contains a timestamp, and identical configurations produce
byte-identical files.

Exit codes: 0 success, 2 contract/configuration violation, 3 resource
ceiling or an allocation the machine refuses. Violations also emit a
machine-readable JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import run_all
from .adversary import corrupt, stages_from_blocks, verify_similarity
from .bits import read_packed_bits, read_text_bits, to_text, write_packed_bits
from .budgets import parse_budget
from .cube import harper_min_neighborhood
from .errors import ConfigError, DomainError, HamextError, ResourceError
from .extractor import BlockSchedule, extract, make_schedule, psi_deviation
from .keylemma import verify_key_lemma
from .rng import bit_stream
from .stats import (apply_selection, berry_esseen_bound, binomial_cdf_gap,
                    majority_refinement, select_all, select_even_parity_prefix,
                    select_evens, small_ball_bound, small_ball_probability,
                    sparse_subsequence, weber_series)

_RULES = {
    "all": select_all,
    "evens": select_evens,
    "parity": select_even_parity_prefix,
}


def _jsonable(x):
    if isinstance(x, Fraction):
        den = x.denominator
        if den & (den - 1) == 0:
            return {"num": x.numerator, "den_pow2": den.bit_length() - 1}
        return {"num": x.numerator, "den": den}
    if isinstance(x, float) and math.isinf(x):
        return None
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    return x


def load_config(path: str | None) -> dict:
    """Flat key=value file; '#' starts a comment."""
    cfg: dict[str, str] = {}
    if path:
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"config line without '=': {raw!r}")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _option(cfg: dict, key: str, read, default=None):
    """cfg[key] (or default) read from its text by `read`, e.g. int; a
    value it cannot read is a ConfigError, not a traceback."""
    raw = cfg.get(key, default)
    try:
        return read(str(raw))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{key}: cannot read {raw!r}") from None


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _write_report(out_dir: Path, name: str, payload: dict, cfg: dict) -> Path:
    payload = {"artifact_version": __version__,
               "config": _jsonable({k: str(v) for k, v in sorted(cfg.items())}),
               **payload}
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=1) + "\n")
    return path


def _write_csv(out_dir: Path, name: str, header: list[str], rows) -> Path:
    path = out_dir / f"{name}.csv"
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def _load_bits(path: str) -> np.ndarray:
    """Sniff text vs packed: text files contain only 0/1 and newlines."""
    with open(path, "rb") as fh:
        head = fh.read(64)
    if head and all(b in (0x30, 0x31, 0x0A, 0x0D) for b in head):
        strings = read_text_bits(path)
        if len(strings) != 1:
            raise ConfigError(f"{path}: expected exactly one bit string, got {len(strings)}")
        return strings[0]
    return read_packed_bits(path)


def _input_bits(cfg, default_length: int = 1 << 16) -> np.ndarray:
    if cfg.get("input"):
        return _load_bits(cfg["input"])
    length = _option(cfg, "length", int, default_length)
    return bit_stream(_option(cfg, "seed", int, 0), length)


def _schedule(cfg) -> BlockSchedule:
    if cfg.get("schedule-file"):
        return BlockSchedule.from_text(Path(cfg["schedule-file"]).read_text())
    g = parse_budget(cfg.get("gen-budget", "power:1/3"))
    return make_schedule(g, _option(cfg, "blocks", int, 4))


def cmd_extract(cfg: dict, out: Path) -> int:
    sched = _schedule(cfg)
    x = _input_bits(cfg, max(1 << 16, sched.total_length))
    budget = parse_budget(cfg["budget"]) if cfg.get("budget") else None
    trace = extract(x, sched, budget)
    payload = {"outputs": to_text(trace.outputs),
               "margins": trace.margins.tolist(),
               "robust": None if trace.robust_flags is None else trace.robust_flags.tolist(),
               "schedule": sched.to_text()}
    _write_report(out, "extract", payload, cfg)
    if cfg["format"] == "csv":
        _write_csv(out, "extract", ["block", "margin", "output"],
                   [(k, int(trace.margins[k]), int(trace.outputs[k]))
                    for k in range(len(sched))])
    print(f"extracted {len(sched)} output bits: {to_text(trace.outputs)}")
    return 0


def cmd_corrupt(cfg: dict, out: Path) -> int:
    sched = _schedule(cfg)
    # corrupt takes no length: a generated stream is exactly as long as the schedule
    x = _input_bits(cfg, sched.total_length)
    p = parse_budget(cfg.get("budget", "power:2/3"))
    targets = None
    if cfg.get("targets"):
        targets = tuple(_option(cfg, "targets", _int_list))
    adv = stages_from_blocks(sched, p, targets)
    report = corrupt(x, sched, adv)
    re_outputs = extract(report.Y, sched).outputs
    out.mkdir(parents=True, exist_ok=True)
    y_file = out / "y.bits"
    write_packed_bits(y_file, report.Y)
    payload = report.to_json_dict(y_file=y_file.name)
    payload["targets_rezero"] = [int(re_outputs[t]) == 0 for t in adv.targets]
    payload["similarity_verified"] = verify_similarity(report, x, p, adv.stage_bounds)
    payload["stage_bounds"] = list(adv.stage_bounds)
    payload["schedule"] = sched.to_text()
    _write_report(out, "corrupt", payload, cfg)
    forced = sum(1 for r in report.per_stage if r.forced)
    print(f"corrupted {forced}/{len(report.per_stage)} stages, "
          f"budget_ok={report.budget_ok}, y -> {y_file}")
    return 0


def cmd_harper(cfg: dict, out: Path) -> int:
    n = _option(cfg, "n", int, 3)
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    rows = []
    equal = True
    for size in range((1 << n) + 1):
        for d in range(n + 1):
            mn, sphere = harper_min_neighborhood(n, size, d)
            rows.append((n, size, d, mn, sphere))
            equal &= mn == sphere
    _write_report(out, "harper", {"n": n, "all_equal": equal,
                                  "rows": [{"size": s, "d": d, "min": m, "sphere": sp}
                                           for _, s, d, m, sp in rows]}, cfg)
    if cfg["format"] == "csv":
        _write_csv(out, "harper", ["n", "size", "d", "exhaustive_min", "sphere_value"], rows)
    print(f"harper n={n}: {len(rows)} cases, minima all equal canonical spheres: {equal}")
    return 0


def cmd_clt_check(cfg: dict, out: Path) -> int:
    ns = _option(cfg, "n-list", _int_list, "10,100,1000,10000")
    rows = []
    ok = True
    for n in ns:
        gap, bound = binomial_cdf_gap(n), berry_esseen_bound(n)
        rows.append((n, repr(gap), repr(bound), gap <= bound))
        ok &= gap <= bound
    _write_report(out, "clt_check", {"within_bound": ok,
                                     "rows": [{"n": n, "gap": g, "bound": b, "ok": o}
                                              for n, g, b, o in rows]}, cfg)
    if cfg["format"] == "csv":
        _write_csv(out, "clt_check", ["n", "gap", "bound", "ok"], rows)
    print(f"clt-check: {len(rows)} sizes, all within 0.71/sqrt(n): {ok}")
    return 0


def cmd_smallball(cfg: dict, out: Path) -> int:
    ns = _option(cfg, "n-list", _int_list, "16,64,256,1024,4096")
    g = parse_budget(cfg.get("budget", "power:1/3"))
    rows = []
    ok = True
    for n in ns:
        exact = small_ball_probability(n, g(n))
        bound = small_ball_bound(n, g(n))
        rows.append((n, g(n), exact.numerator, exact.denominator, repr(bound),
                     float(exact) <= bound))
        ok &= float(exact) <= bound
    _write_report(out, "smallball", {"budget": g.token, "within_bound": ok,
                                     "rows": [{"n": n, "g": gg, "exact_num": num,
                                               "exact_den": den, "bound": b, "ok": o}
                                              for n, gg, num, den, b, o in rows]}, cfg)
    if cfg["format"] == "csv":
        _write_csv(out, "smallball", ["n", "g", "exact_num", "exact_den", "bound", "ok"], rows)
    print(f"smallball: {len(rows)} sizes, exact within envelope: {ok}")
    return 0


def cmd_lil(cfg: dict, out: Path) -> int:
    x = _input_bits(cfg)
    eps = _option(cfg, "epsilon", float, 0.0)
    points = psi_deviation(x, np.zeros(x.size, dtype=np.uint8), epsilon=eps)
    _write_report(out, "lil", {"epsilon": eps, "length": int(x.size),
                               "series": [{"n": p.n, "statistic": p.statistic,
                                           "within_envelope": p.within_envelope}
                                          for p in points]}, cfg)
    _write_csv(out, "lil", ["n", "statistic"],
               [(p.n, repr(p.statistic)) for p in points])
    print(f"lil: {len(points)} checkpoints, max statistic "
          f"{max(p.statistic for p in points):.4f}")
    return 0


def cmd_weber(cfg: dict, out: Path) -> int:
    n_max = _option(cfg, "n", int, 20)
    if cfg.get("nu"):
        nu = _option(cfg, "nu", _int_list)
        series = weber_series(nu, n_max)
        payload = {"mode": "series", "nu": nu, "p_counts": series.p_counts}
        summary = f"weber series: p_{n_max} = {series.p_counts[-1]}"
    else:
        rate = cfg.get("rate", "lnln")
        if rate == "lnln":
            f = lambda k: math.log(math.log(max(k, 16)))
        else:
            budget = parse_budget(rate)
            f = lambda k: float(budget(k))
        nu, threshold = sparse_subsequence(f, n_max)
        series = weber_series(nu, n_max)
        payload = {"mode": "sparse", "rate": rate, "nu": nu,
                   "threshold": threshold, "p_counts": series.p_counts}
        summary = f"weber sparse: |nu| = {len(nu)}, threshold {threshold}"
    rates = [{"block": m, "k_low": (1 << (m - 1)) + 1,
              "log_rate": series.log_rate((1 << (m - 1)) + 1) if m >= 1 else None}
             for m in range(1, n_max + 1)]
    payload["log_rates"] = rates
    _write_report(out, "weber", payload, cfg)
    if cfg["format"] == "csv":
        _write_csv(out, "weber", ["n", "p_count"],
                   list(enumerate(series.p_counts, start=1)))
    print(summary)
    return 0


def cmd_keylemma(cfg: dict, out: Path) -> int:
    n = _option(cfg, "n", int, 8)
    trials = _option(cfg, "trials", int, 200)
    threshold = _option(cfg, "threshold", Fraction, "1/2")
    report = verify_key_lemma(n, trials, threshold, _option(cfg, "seed", int, 0))
    _write_report(out, "keylemma", report, cfg)
    print(f"keylemma n={n}: {len(report['families'])} families, "
          f"{report['violations']} violations")
    return 0 if report["violations"] == 0 else 2


def cmd_select(cfg: dict, out: Path) -> int:
    rule_name = cfg.get("rule", "all")
    if rule_name not in _RULES:
        raise ConfigError(f"unknown selection rule {rule_name!r}; have {sorted(_RULES)}")
    x = _input_bits(cfg)
    report = apply_selection(_RULES[rule_name](), x)
    _write_report(out, "select", {"rule": rule_name,
                                  "positions_examined": report.positions_examined,
                                  "ones_count": report.ones_count,
                                  "relative_frequency": report.relative_frequency,
                                  "deviation_from_half": report.deviation_from_half}, cfg)
    print(f"select[{rule_name}]: {report.ones_count}/{report.positions_examined} ones "
          f"(frequency {report.relative_frequency})")
    return 0


def cmd_trace_refine(cfg: dict, out: Path) -> int:
    if not cfg.get("input"):
        raise ConfigError("trace-refine needs an input file with one string per line")
    strings = read_text_bits(cfg["input"])
    positions, constants = majority_refinement(strings)
    _write_report(out, "trace_refine", {"count": len(strings),
                                        "positions": positions,
                                        "constants": constants}, cfg)
    print(f"trace-refine: {len(strings)} strings -> {len(positions)} surviving positions")
    return 0


def cmd_suite(cfg: dict, out: Path) -> int:
    results = run_all(printer=print)
    _write_report(out, "suite", {"all_passed": all(r.passed for r in results),
                                 "criteria": [{"number": r.number, "name": r.name,
                                               "passed": r.passed, "detail": r.detail}
                                              for r in results]}, cfg)
    return 0 if all(r.passed for r in results) else 2


# One row per subcommand: its handler, its help text and the option keys
# the handler reads. The subcommand offers a --<key> flag for exactly these
# keys plus --config and --out-dir, and a --config file may set these keys
# and no others.
_COMMANDS = {
    "extract": (cmd_extract, "run the majority extractor over a schedule",
                ("input", "length", "seed", "schedule-file", "blocks", "gen-budget", "budget",
                 "format")),
    "corrupt": (cmd_corrupt, "corrupt a stream against the extractor within a budget",
                ("input", "seed", "schedule-file", "blocks", "gen-budget", "budget", "targets")),
    "harper": (cmd_harper, "exhaustive isoperimetric sweep vs canonical spheres",
               ("n", "format")),
    "clt-check": (cmd_clt_check, "exact binomial CDF gap vs the explicit constant",
                  ("n-list", "format")),
    "smallball": (cmd_smallball, "exact small-ball probabilities vs their envelope",
                  ("n-list", "budget", "format")),
    "lil": (cmd_lil, "normalized prefix-deviation series of a stream",
            ("input", "length", "seed", "epsilon")),
    "weber": (cmd_weber, "dyadic block-hit series / sparse construction",
              ("n", "nu", "rate", "format")),
    "keylemma": (cmd_keylemma, "ball-containment bound verification",
                 ("n", "trials", "threshold", "seed")),
    "select": (cmd_select, "run a monotone selection rule and report frequencies",
               ("rule", "input", "length", "seed")),
    "trace-refine": (cmd_trace_refine, "iterated majority refinement of traced strings",
                     ("input",)),
    "suite": (cmd_suite, "run the full verification suite", ()),
}

_FLAG_HELP = {
    "format": "json, or csv to also write CSV side tables",
    "seed": "64-bit Philox seed",
    "budget": "budget token, e.g. power:2/3",
    "input": "bit-stream file (text or packed)",
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors (an undeclared flag, a flag
    without its value, no subcommand) raise ConfigError, so that they
    reach the same JSON error path as every other violation. Subparsers
    are built from the same class; --help still prints and exits 0."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hamext",
        description="majority-extraction, corruption, and bound-checking pipelines")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=desc, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--out-dir", default="out", help="report directory")
        for key in keys:
            p.add_argument(f"--{key}", dest=key, help=_FLAG_HELP.get(key))
    return parser


def _merged_config(args: argparse.Namespace) -> dict:
    """The config file's keys, overridden by the flags given, plus the
    subcommand's name and the format. Only the subcommand's declared keys
    may appear, and `command` and `format` as every report's config block
    carries them, so that a config file copied from a report replays it.
    out_dir names the write destination, not the experiment; keeping it
    out of the embedded config keeps replayed runs byte-identical."""
    keys = _COMMANDS[args.command][2]
    implied = {"command": args.command}
    if "format" not in keys:
        implied["format"] = "json"
    cfg = load_config(args.config)
    unknown = sorted(k for k, v in cfg.items() if k not in keys and implied.get(k) != v)
    if unknown:
        raise ConfigError(f"{args.command} does not read config key(s) {unknown}; "
                          f"it reads {sorted(keys)}")
    flags = vars(args)
    cfg.update((key, flags[key]) for key in keys if flags[key] is not None)
    cfg.update(implied)
    empty = sorted(k for k, v in cfg.items() if not v.strip())
    if empty:
        raise ConfigError(f"empty value for {empty}; leave a key out to take its default")
    cfg.setdefault("format", "json")
    if cfg["format"] not in ("json", "csv"):
        raise ConfigError(f"format: expected json or csv, got {cfg['format']!r}")
    return cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](_merged_config(args), Path(args.out_dir))
    except (ResourceError, MemoryError) as exc:  # numpy refuses a huge allocation at once
        print(json.dumps({"error": "resource", "message": str(exc)}), file=sys.stderr)
        return 3
    except HamextError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # an unreadable or non-text input file
        print(json.dumps({"error": ConfigError.__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
