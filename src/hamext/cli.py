"""Batch experiment driver.

Every subcommand reads a merged configuration (flat key=value config
file, command-line flags override) over the option keys it declares in
_COMMANDS, runs one pipeline and returns what it found as a Run; main
alone writes that into --out-dir (see _write). Runs are reproducible:
all randomness flows from --seed through Philox, no report contains a
timestamp, and identical configurations produce byte-identical files.

Exit codes: 0 success, 2 contract/configuration violation or a failed
claim (a run whose check fails still writes its report), 3 resource
ceiling or an allocation the machine refuses. Violations and refusals
also emit a machine-readable JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .acceptance import ALL_CRITERIA, clt_rows, harper_rows, non_tight_balls, small_ball_rows
from .adversary import corrupt, stages_from_blocks, verify_similarity
from .bits import read_packed_bits, read_text_bits, to_text, write_packed_bits
from .budgets import lnln, parse_budget
from .errors import ConfigError, HamextError, ResourceError
from .extractor import BlockSchedule, extract, make_schedule, psi_deviation
from .keylemma import verify_key_lemma
from .rng import bit_stream
from .stats import apply_selection, majority_refinement, sparse_subsequence, weber_series


def _fraction(x) -> dict:
    """json.dumps's hook for a Fraction, the one payload type JSON lacks."""
    if not isinstance(x, Fraction):
        raise TypeError(f"{type(x).__name__} is not JSON serializable")
    den = x.denominator
    if den & (den - 1) == 0:
        return {"num": x.numerator, "den_pow2": den.bit_length() - 1}
    return {"num": x.numerator, "den": den}


def _config_line(raw: str) -> tuple[str, str] | None:
    """One config line as (key, value), each stripped; None for a line
    that is blank once '#' and what follows it are cut."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    if "=" not in line:
        raise ConfigError(f"config line without '=': {raw!r}")
    return tuple(part.strip() for part in line.split("=", 1))


def load_config(path: str | None) -> dict:
    """Flat key=value file read by _config_line. A key set twice is a
    ConfigError, not its last value."""
    cfg: dict[str, str] = {}
    if path:
        for key, value in filter(None, map(_config_line, Path(path).read_text().splitlines())):
            if key in cfg:
                raise ConfigError(f"config key {key!r} set twice: {cfg[key]!r}, then {value!r}")
            cfg[key] = value
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
    corrupt writes to _Y_FILE, and whether every claim the run checked
    held; main writes the report either way and exits 2 on a failed one."""

    payload: dict
    summary: str
    table: Optional[tuple[list[str], list]] = None
    stream: Optional[np.ndarray] = None
    passed: bool = True


def _write(out_dir: Path, cfg: dict, run: Run) -> None:
    """The CLI's one writer: _Y_FILE, then <command>.json, then
    <command>.csv for a run with a side table; the names take the
    subcommand's with '-' as '_'."""
    name = cfg["command"].replace("-", "_")
    out_dir.mkdir(parents=True, exist_ok=True)
    if run.stream is not None:
        write_packed_bits(out_dir / _Y_FILE, run.stream)
    payload = {"artifact_version": __version__, "config": cfg, **run.payload}
    (out_dir / f"{name}.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1, default=_fraction) + "\n")
    if run.table is not None:
        header, rows = run.table
        lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
        (out_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")


def _load_bits(path: str) -> np.ndarray:
    """Sniff text vs packed: text files contain only 0/1, newlines and the
    spaces and tabs read_text_bits strips. A packed header's top byte is 0
    for any length below 2^56, so no packed file reads as text."""
    with open(path, "rb") as fh:
        head = fh.read(64)
    if head and all(b in b"01\n\r \t" for b in head):
        strings = read_text_bits(path)
        if len(strings) != 1:
            raise ConfigError(f"{path}: expected exactly one bit string, got {len(strings)}")
        return strings[0]
    return read_packed_bits(path)


def _input_bits(cfg, default_length: int = 1 << 16) -> np.ndarray:
    """The input file's bits, or the seeded stream's first `length` bits;
    extract and corrupt take no length and pass their schedule's."""
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
    x = _input_bits(cfg, sched.total_length)
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
    x = _input_bits(cfg, sched.total_length)
    p = parse_budget(cfg.get("budget", "power:2/3"))
    targets = None
    if cfg.get("targets"):
        targets = tuple(_option(cfg, "targets", _int_list))
    adv = stages_from_blocks(sched, p, targets)
    report = corrupt(x, sched, adv)
    re_outputs = extract(report.Y, sched).outputs
    payload = report.to_json_dict()
    payload["y_file"] = _Y_FILE
    payload["targets_rezero"] = [int(re_outputs[t]) == 0 for t in adv.targets]
    payload["similarity_verified"] = verify_similarity(report, x, p, adv.stage_bounds)
    payload["stage_bounds"] = list(adv.stage_bounds)
    payload["schedule"] = sched.to_text()
    forced = sum(1 for r in report.per_stage if r.forced)
    return Run(payload, f"corrupted {forced}/{len(report.per_stage)} stages, "
                        f"budget_ok={report.budget_ok}, y -> {_Y_FILE}", stream=report.Y)


def cmd_harper(cfg: dict) -> Run:
    n = _option(cfg, "n", int, 3)
    rows = harper_rows(n)
    equal = all(row[4] for row in rows)
    return Run({"n": n, "all_equal": equal,
                "rows": [{"size": s, "d": d, "min": m, "sphere": sp} for s, d, m, sp, _ in rows]},
               f"harper n={n}: {len(rows)} cases, minima all equal canonical spheres: {equal}",
               (["n", "size", "d", "exhaustive_min", "sphere_value"],
                [(n, *row[:4]) for row in rows]), passed=equal)


def cmd_clt_check(cfg: dict) -> Run:
    rows = [(n, repr(gap), repr(bound), ok) for n, gap, bound, ok
            in clt_rows(_option(cfg, "n-list", _int_list, "10,100,1000,10000"))]
    ok = all(row[3] for row in rows)
    return Run({"within_bound": ok,
                "rows": [{"n": n, "gap": g, "bound": b, "ok": o} for n, g, b, o in rows]},
               f"clt-check: {len(rows)} sizes, all within 0.71/sqrt(n): {ok}",
               (["n", "gap", "bound", "ok"], rows), passed=ok)


def cmd_smallball(cfg: dict) -> Run:
    ns = _option(cfg, "n-list", _int_list, "16,64,256,1024,4096")
    g = parse_budget(cfg.get("budget", "power:1/3"))
    rows = [(n, gn, exact.numerator, exact.denominator, repr(bound), ok)
            for n, gn, exact, bound, ok in small_ball_rows(ns, g)]
    ok = all(row[5] for row in rows)
    return Run({"budget": g.token, "within_bound": ok,
                "rows": [{"n": n, "g": gn, "exact_num": num, "exact_den": den,
                          "bound": b, "ok": o} for n, gn, num, den, b, o in rows]},
               f"smallball: {len(rows)} sizes, exact within envelope: {ok}",
               (["n", "g", "exact_num", "exact_den", "bound", "ok"], rows), passed=ok)


def cmd_lil(cfg: dict) -> Run:
    x = _input_bits(cfg)
    eps = _option(cfg, "epsilon", float, 0.0)
    points = psi_deviation(x, epsilon=eps)
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
        payload = {"mode": "series"}
    else:
        rate = cfg.get("rate", "lnln")
        nu, threshold = sparse_subsequence(lnln if rate == "lnln" else parse_budget(rate), n_max)
        payload = {"mode": "sparse", "rate": rate, "threshold": threshold}
    series = weber_series(nu, n_max)
    p_counts = series.p_counts
    payload.update(nu=nu, p_counts=p_counts, log_rates=[
        {"block": m, "k_low": k, "log_rate": None if r == -math.inf else r}  # JSON has no -inf
        for m, k, r in series.log_rates])
    summary = (f"weber series: p_{n_max} = {p_counts[-1]}" if payload["mode"] == "series"
               else f"weber sparse: |nu| = {len(nu)}, threshold {threshold}")
    return Run(payload, summary, (["n", "p_count"], list(enumerate(p_counts, start=1))))


def cmd_keylemma(cfg: dict) -> Run:
    n = _option(cfg, "n", int, 8)
    trials = _option(cfg, "trials", int, 200)
    threshold = _option(cfg, "threshold", Fraction, "1/2")
    report = verify_key_lemma(n, trials, threshold, _option(cfg, "seed", int, 0))
    loose = non_tight_balls(report)
    return Run(report, f"keylemma n={n}: {len(report['families'])} families, "
                       f"{report['violations']} violations, {len(loose)} non-tight ball families",
               passed=report["violations"] == 0 and not loose)


def cmd_select(cfg: dict) -> Run:
    rule_name = cfg.get("rule", "all")
    report = apply_selection(rule_name, _input_bits(cfg))
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
    results, lines = [], []
    for runner in ALL_CRITERIA:
        t0 = time.perf_counter()
        r = runner()
        results.append(r)
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] criterion {r.number}: {r.name} "
                     f"({time.perf_counter() - t0:.2f}s) - {r.detail}")
    passed = all(r.passed for r in results)
    return Run({"all_passed": passed,
                "criteria": [{"number": r.number, "name": r.name,
                              "passed": r.passed, "detail": r.detail} for r in results]},
               "\n".join(lines), passed=passed)


# One row per subcommand: its handler, its help text and the option keys
# the handler reads. The subcommand offers a --<key> flag for exactly these
# keys plus --config and --out-dir, and a --config file may set these keys
# and no others.
_COMMANDS = {
    "extract": (cmd_extract, "run the majority extractor over a schedule",
                ("input", "seed", "schedule-file", "blocks", "gen-budget", "budget")),
    "corrupt": (cmd_corrupt, "corrupt a stream against the extractor within a budget",
                ("input", "seed", "schedule-file", "blocks", "gen-budget", "budget", "targets")),
    "harper": (cmd_harper, "exhaustive isoperimetric sweep vs canonical spheres",
               ("n",)),
    "clt-check": (cmd_clt_check, "exact binomial CDF gap vs the explicit constant",
                  ("n-list",)),
    "smallball": (cmd_smallball, "exact small-ball probabilities vs their envelope",
                  ("n-list", "budget")),
    "lil": (cmd_lil, "normalized prefix-deviation series of a stream",
            ("input", "length", "seed", "epsilon")),
    "weber": (cmd_weber, "dyadic block-hit series / sparse construction",
              ("n", "nu", "rate")),
    "keylemma": (cmd_keylemma, "ball-containment bound verification",
                 ("n", "trials", "threshold", "seed")),
    "select": (cmd_select, "run a monotone selection rule and report frequencies",
               ("rule", "input", "length", "seed")),
    "trace-refine": (cmd_trace_refine, "iterated majority refinement of traced strings",
                     ("input",)),
    "suite": (cmd_suite, "run the full verification suite", ()),
}

# An option that replaces others: a run reads the key or those it replaces,
# so _merged_config refuses a run that sets both.
_REPLACES = {
    "input": ("seed", "length"),
    "schedule-file": ("blocks", "gen-budget"),
    "nu": ("rate",),
}

_FLAG_HELP = {
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


class _Once(argparse.Action):
    """argparse's store, except that a flag given twice is a ConfigError,
    as a config key set twice is, not its last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise ConfigError(f"flag {option_string} given twice: "
                              f"{getattr(namespace, self.dest)!r}, then {values!r}")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hamext",
        description="majority-extraction, corruption, and bound-checking pipelines")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=desc, allow_abbrev=False)
        p.add_argument("--config", action=_Once,
                       help="flat key=value config file; flags override it")
        p.add_argument("--out-dir", action=_Once, default="out", help="report directory")
        for key in keys:
            p.add_argument(f"--{key}", action=_Once, dest=key, help=_FLAG_HELP.get(key))
    return parser


def _merged_config(args: argparse.Namespace) -> dict:
    """The config file's keys, overridden by the flags given, plus the
    subcommand's name. Only the subcommand's declared keys may appear,
    and `command` with its own name as every report's config block
    carries it, so that a config file copied from a report replays it;
    a key and one it replaces (_REPLACES) may not both appear, and a
    flag value must read back unchanged from its config line.
    out_dir names the write destination, not the experiment; keeping it
    out of the embedded config keeps replayed runs byte-identical."""
    keys = _COMMANDS[args.command][2]
    cfg = load_config(args.config)
    unknown = sorted(k for k, v in cfg.items() if k not in keys
                     and (k, v) != ("command", args.command))
    if unknown:
        raise ConfigError(f"{args.command} does not read config key(s) {unknown}; "
                          f"it reads {sorted(keys)}")
    flags = {key: vars(args)[key] for key in keys if vars(args)[key] is not None}
    unread = sorted(key for key, value in flags.items()
                    if (line := f"{key} = {value}").splitlines() != [line]
                    or _config_line(line) != (key, value))
    if unread:
        raise ConfigError(f"{unread}: a report's config block cannot replay a value with "
                          f"'#', a line break or blanks at either end")
    cfg.update(flags)
    cfg["command"] = args.command
    empty = sorted(k for k, v in cfg.items() if not v)
    if empty:
        raise ConfigError(f"empty value for {empty}; leave a key out to take its default")
    for key, replaced in _REPLACES.items():
        both = [k for k in replaced if key in cfg and k in cfg]
        if both:
            raise ConfigError(f"{key} replaces {both}; set one or the other")
    return cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _merged_config(args)
        run = _COMMANDS[args.command][0](cfg)
        _write(Path(args.out_dir), cfg, run)
        print(run.summary)
        return 0 if run.passed else 2
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
