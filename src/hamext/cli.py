"""Batch experiment driver.

Every subcommand reads a merged configuration (flat key=value config
file, command-line flags override) over the option keys it declares in
_COMMANDS, runs one pipeline and returns what it found as a Run; main
alone writes that into --out-dir (see _write). Runs are reproducible:
all randomness flows from --seed through Philox, no report contains a
timestamp, and identical configurations produce byte-identical files.

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
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .acceptance import ALL_CRITERIA
from .adversary import corrupt, stages_from_blocks, verify_similarity
from .bits import read_packed_bits, read_text_bits, to_text, write_packed_bits
from .budgets import lnln, parse_budget
from .cube import harper_min_neighborhood
from .errors import ConfigError, DomainError, HamextError, ResourceError
from .extractor import BlockSchedule, extract, make_schedule, psi_deviation
from .keylemma import verify_key_lemma
from .rng import bit_stream
from .stats import (SELECTION_RULES, apply_selection, berry_esseen_bound, binomial_cdf_gap,
                    majority_refinement, small_ball_bound, small_ball_probability,
                    sparse_subsequence, weber_series)


def _fraction(x) -> dict:
    """json.dumps's hook for a Fraction, the one payload type JSON lacks."""
    if not isinstance(x, Fraction):
        raise TypeError(f"{type(x).__name__} is not JSON serializable")
    den = x.denominator
    if den & (den - 1) == 0:
        return {"num": x.numerator, "den_pow2": den.bit_length() - 1}
    return {"num": x.numerator, "den": den}


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


# corrupt's corrupted stream, named relative to --out-dir
_Y_FILE = "y.bits"


class Run(NamedTuple):
    """What a subcommand found: the report body, the summary printed on
    stdout, an optional CSV side table (header, rows), the packed stream
    corrupt writes to _Y_FILE, and the exit code."""

    payload: dict
    summary: str
    table: Optional[tuple[list[str], list]] = None
    stream: Optional[np.ndarray] = None
    code: int = 0


def _write(out_dir: Path, cfg: dict, run: Run) -> None:
    """The CLI's one writer: _Y_FILE, then <command>.json, then
    <command>.csv with --format csv or for a subcommand without
    --format; the names take the subcommand's with '-' as '_'."""
    name = cfg["command"].replace("-", "_")
    out_dir.mkdir(parents=True, exist_ok=True)
    if run.stream is not None:
        write_packed_bits(out_dir / _Y_FILE, run.stream)
    payload = {"artifact_version": __version__, "config": cfg, **run.payload}
    (out_dir / f"{name}.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1, default=_fraction) + "\n")
    if run.table is not None and (cfg["format"] == "csv"
                                  or "format" not in _COMMANDS[cfg["command"]][2]):
        header, rows = run.table
        lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
        (out_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")


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


def cmd_extract(cfg: dict) -> Run:
    sched = _schedule(cfg)
    x = _input_bits(cfg, max(1 << 16, sched.total_length))
    budget = parse_budget(cfg["budget"]) if cfg.get("budget") else None
    trace = extract(x, sched, budget)
    payload = {"outputs": to_text(trace.outputs),
               "margins": trace.margins.tolist(),
               "robust": None if trace.robust_flags is None else trace.robust_flags.tolist(),
               "schedule": sched.to_text()}
    return Run(payload, f"extracted {len(sched)} output bits: {to_text(trace.outputs)}",
               (["block", "margin", "output"],
                [(k, int(trace.margins[k]), int(trace.outputs[k])) for k in range(len(sched))]))


def cmd_corrupt(cfg: dict) -> Run:
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
    payload = report.to_json_dict(y_file=_Y_FILE)
    payload["targets_rezero"] = [int(re_outputs[t]) == 0 for t in adv.targets]
    payload["similarity_verified"] = verify_similarity(report, x, p, adv.stage_bounds)
    payload["stage_bounds"] = list(adv.stage_bounds)
    payload["schedule"] = sched.to_text()
    forced = sum(1 for r in report.per_stage if r.forced)
    return Run(payload, f"corrupted {forced}/{len(report.per_stage)} stages, "
                        f"budget_ok={report.budget_ok}, y -> {_Y_FILE}", stream=report.Y)


def cmd_harper(cfg: dict) -> Run:
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
    return Run({"n": n, "all_equal": equal,
                "rows": [{"size": s, "d": d, "min": m, "sphere": sp}
                         for _, s, d, m, sp in rows]},
               f"harper n={n}: {len(rows)} cases, minima all equal canonical spheres: {equal}",
               (["n", "size", "d", "exhaustive_min", "sphere_value"], rows))


def cmd_clt_check(cfg: dict) -> Run:
    ns = _option(cfg, "n-list", _int_list, "10,100,1000,10000")
    rows = []
    ok = True
    for n in ns:
        gap, bound = binomial_cdf_gap(n), berry_esseen_bound(n)
        rows.append((n, repr(gap), repr(bound), gap <= bound))
        ok &= gap <= bound
    return Run({"within_bound": ok,
                "rows": [{"n": n, "gap": g, "bound": b, "ok": o} for n, g, b, o in rows]},
               f"clt-check: {len(rows)} sizes, all within 0.71/sqrt(n): {ok}",
               (["n", "gap", "bound", "ok"], rows))


def cmd_smallball(cfg: dict) -> Run:
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
    return Run({"budget": g.token, "within_bound": ok,
                "rows": [{"n": n, "g": gg, "exact_num": num, "exact_den": den,
                          "bound": b, "ok": o} for n, gg, num, den, b, o in rows]},
               f"smallball: {len(rows)} sizes, exact within envelope: {ok}",
               (["n", "g", "exact_num", "exact_den", "bound", "ok"], rows))


def cmd_lil(cfg: dict) -> Run:
    x = _input_bits(cfg)
    eps = _option(cfg, "epsilon", float, 0.0)
    points = psi_deviation(x, np.zeros(x.size, dtype=np.uint8), epsilon=eps)
    return Run({"epsilon": eps, "length": int(x.size),
                "series": [{"n": p.n, "statistic": p.statistic,
                            "within_envelope": p.within_envelope} for p in points]},
               f"lil: {len(points)} checkpoints, max statistic "
               f"{max(p.statistic for p in points):.4f}",
               (["n", "statistic"], [(p.n, repr(p.statistic)) for p in points]))


def cmd_weber(cfg: dict) -> Run:
    n_max = _option(cfg, "n", int, 20)
    if cfg.get("nu"):
        nu = _option(cfg, "nu", _int_list)
        series = weber_series(nu, n_max)
        payload = {"mode": "series", "nu": nu, "p_counts": series.p_counts}
        summary = f"weber series: p_{n_max} = {series.p_counts[-1]}"
    else:
        rate = cfg.get("rate", "lnln")
        nu, threshold = sparse_subsequence(lnln if rate == "lnln" else parse_budget(rate), n_max)
        series = weber_series(nu, n_max)
        payload = {"mode": "sparse", "rate": rate, "nu": nu,
                   "threshold": threshold, "p_counts": series.p_counts}
        summary = f"weber sparse: |nu| = {len(nu)}, threshold {threshold}"
    payload["log_rates"] = []
    for m in range(1, n_max + 1):
        k_low = (1 << (m - 1)) + 1
        rate = series.log_rate(k_low)  # JSON has no -inf: an unhit block's is null
        payload["log_rates"].append({"block": m, "k_low": k_low,
                                     "log_rate": None if rate == -math.inf else rate})
    return Run(payload, summary, (["n", "p_count"], list(enumerate(series.p_counts, start=1))))


def cmd_keylemma(cfg: dict) -> Run:
    n = _option(cfg, "n", int, 8)
    trials = _option(cfg, "trials", int, 200)
    threshold = _option(cfg, "threshold", Fraction, "1/2")
    report = verify_key_lemma(n, trials, threshold, _option(cfg, "seed", int, 0))
    return Run(report, f"keylemma n={n}: {len(report['families'])} families, "
                       f"{report['violations']} violations",
               code=0 if report["violations"] == 0 else 2)


def cmd_select(cfg: dict) -> Run:
    rule_name = cfg.get("rule", "all")
    if rule_name not in SELECTION_RULES:
        raise ConfigError(f"unknown selection rule {rule_name!r}; have {sorted(SELECTION_RULES)}")
    x = _input_bits(cfg)
    report = apply_selection(SELECTION_RULES[rule_name], x)
    return Run({"rule": rule_name,
                "positions_examined": report.positions_examined,
                "ones_count": report.ones_count,
                "relative_frequency": report.relative_frequency,
                "deviation_from_half": report.deviation_from_half},
               f"select[{rule_name}]: {report.ones_count}/{report.positions_examined} ones "
               f"(frequency {report.relative_frequency})")


def cmd_trace_refine(cfg: dict) -> Run:
    if not cfg.get("input"):
        raise ConfigError("trace-refine needs an input file with one string per line")
    strings = read_text_bits(cfg["input"])
    positions, constants = majority_refinement(strings)
    return Run({"count": len(strings), "positions": positions, "constants": constants},
               f"trace-refine: {len(strings)} strings -> {len(positions)} surviving positions")


def cmd_suite(cfg: dict) -> Run:
    results = [runner() for runner in ALL_CRITERIA]
    passed = all(r.passed for r in results)
    return Run({"all_passed": passed,
                "criteria": [{"number": r.number, "name": r.name,
                              "passed": r.passed, "detail": r.detail} for r in results]},
               "\n".join(f"[{'PASS' if r.passed else 'FAIL'}] criterion {r.number}: {r.name} "
                         f"({r.elapsed:.2f}s) - {r.detail}" for r in results),
               code=0 if passed else 2)


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
        cfg = _merged_config(args)
        run = _COMMANDS[args.command][0](cfg)
        _write(Path(args.out_dir), cfg, run)
        print(run.summary)
        return run.code
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
