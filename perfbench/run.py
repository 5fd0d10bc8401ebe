#!/usr/bin/env python3
"""hamext benchmark: one seeded workload, closed loop, every result checked.

    python3 perfbench/run.py --workload corrupt_campaign --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process, one thread: each operation starts only after the previous
one returned and was checked. Operations come in fixed batches; whole
batches run until `--seconds` have passed and the workload's minimum
batch count is reached. Only the library calls of an operation are
timed; its independent check is not. Times are scaled to a nominal
machine speed measured by a reference timed before every operation
(see speed_factors).

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics of a traced run of
batch 0, alternated with untraced runs of the same batch to measure the
tracing overhead. Spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 1
#: Used only to confirm a claim after the work is done; never tune on it.
HELDOUT_SEED = 7919
SETUP_REPEATS = 7
#: The reference timed before every operation: an interpreter loop
#: (tracks the big-integer and numpy code) plus a pass over a list of
#: int objects larger than the caches (tracks the adversary's list work).
REF_LOOPS = 10_000
REF_INTS = list(range(1_000, 101_000))
#: Reference time at which scaled times are quoted: a round figure near
#: its median (2.0-2.3 ms) on the 2-vCPU VM of the README baseline.
REF_NOMINAL_S = 0.002
#: Reference samples on each side of an operation in its local median.
REF_WINDOW = 3
#: A layer-share prediction holds when the measured share is within
#: this many percentage points (as a fraction) of the predicted one.
SHARE_TOLERANCE = 0.10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span whose self time it reports
LAYER_TIMES = {
    "adversary.corrupt.s": "adversary.corrupt",
    "adversary.verify_similarity.s": "adversary.verify_similarity",
    "rng.bit_stream.s": "rng.bit_stream",
    "extractor.make_schedule.s": "extractor.make_schedule",
    "extractor.extract.s": "extractor.extract",
    "extractor.similar_p_N.s": "extractor.similar_p_N",
    "bits.write_packed.s": "bits.write_packed",
    "bits.read_packed.s": "bits.read_packed",
    "budgets.eval.s": "budgets.eval",
    "cube.binomial_tail.s": "cube.binomial_tail",
    "cube.make_sphere.s": "cube.make_sphere",
    "cube.gamma_size.s": "cube.gamma_size",
    "cube.harper.s": "cube.harper",
    "stats.small_ball.s": "stats.small_ball",
    "stats.cdf_gap.s": "stats.cdf_gap",
    "keylemma.verify.s": "keylemma.verify",
    "kernels.robustness.s": "kernels.robustness",
    "kernels.all_outputs.s": "kernels.all_outputs",
    **{f"acceptance.crit{i:02d}.s": f"acceptance.crit{i:02d}" for i in range(1, 11)},
}
# per-layer metric -> span whose call count it reports
LAYER_CALLS = {
    "adversary.corrupt.calls": "adversary.corrupt",
    "budgets.eval.calls": "budgets.eval",
    "cube.binomial_tail.calls": "cube.binomial_tail",
}
# per-layer metric -> unit of a counter the checks record
LAYER_COUNTS = {
    "adversary.flips": "count",
    "rng.bits": "bits",
    "extractor.extract.bits": "bits",
    "bits.bytes": "bytes",
    "cube.binomial_terms": "count",
    "stats.small_ball_terms": "count",
    "stats.cdf_gap_terms": "count",
    "keylemma.families": "count",
    "kernels.robustness.elements": "count",
    "kernels.all_outputs.elements": "count",
}
LAYER_DERIVED = {
    "adversary.forced_ratio": "ratio",
    "kernels.bytes_computed": "bytes",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    return {**{m: "s" for m in LAYER_TIMES}, **{m: "count" for m in LAYER_CALLS},
            **LAYER_COUNTS, **LAYER_DERIVED}


def reportable_percentiles(samples: int) -> list[float]:
    """The median, plus each of p90/p99/p99.9 that has at least ten
    samples beyond it; the last entry is the highest reportable one."""
    # p90 leaves samples/10 beyond it, p99 samples/100, p99.9 samples/1000
    return [50] + [q for q, share in ((90, 10), (99, 100), (99.9, 1000)) if samples >= 10 * share]


def percentile(values, q: float) -> float:
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


# ---------------------------------------------------------------------------
# environment

def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def environment(seed: int) -> dict:
    import numpy
    from hamext import kernels
    try:
        import numba
        numba_state = numba.__version__
    except ImportError:
        numba_state = "not importable"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "lane": kernels.BACKEND, "numba": numba_state, "nproc": nproc,
            "git": git_sha(), "seed": seed, "held_out_seed": HELDOUT_SEED}


def load_library():
    """Import hamext from this checkout's src/, and only from there."""
    sys.path.insert(0, str(SRC))
    try:
        import hamext
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hamext from {SRC}: {exc}")
    if not Path(hamext.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: hamext resolved to {hamext.__file__}, outside {SRC}")


# ---------------------------------------------------------------------------
# measurement

def reference_time() -> float:
    """Seconds taken by the fixed reference work. It allocates no
    containers, so garbage left by an operation cannot trigger a
    collection inside it."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    acc += sum(REF_INTS)
    return time.perf_counter() - start


def speed_factors(refs: list[float]) -> list[float]:
    """Per operation: REF_NOMINAL_S over the median reference time
    around it. Scaling a time by it quotes the time at the nominal
    machine speed; neighbours on a shared VM change that speed by up
    to half over minutes, and the program's code slows in proportion."""
    return [REF_NOMINAL_S / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i in range(len(refs))]


class Batch:
    def __init__(self, refs=(), latencies=(), problems=(), records=(), failed=0,
                 peak_rss_mb=0.0):
        self.refs: list[float] = list(refs)                   # reference time before each op
        self.latencies: list[float | None] = list(latencies)  # None where the op raised
        self.problems: list[str] = list(problems)
        self.records: list = list(records)
        self.failed = failed
        self.peak_rss_mb = peak_rss_mb                        # of the process that ran it
        self.factors: list[float] = []                        # set by scale()

    def to_json(self) -> dict:
        return {"refs": self.refs, "latencies": self.latencies, "problems": self.problems,
                "records": self.records, "failed": self.failed, "peak_rss_mb": self.peak_rss_mb}

    @property
    def attempted(self) -> int:
        return len(self.refs)

    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.latencies, self.factors) if t is not None]

    @property
    def seconds(self) -> float:
        return sum(self.scaled())

    @property
    def raw_seconds(self) -> float:
        return sum(t for t in self.latencies if t is not None)


def scale(batches: list[Batch]) -> None:
    """Set every op's speed factor from the reference times of the
    batches, given in the order they ran."""
    factors = iter(speed_factors([r for b in batches for r in b.refs]))
    for b in batches:
        b.factors = [next(factors) for _ in b.refs]


def run_batch(wl, specs, ctx, tr) -> Batch:
    out = Batch()
    for i, spec in enumerate(specs):
        out.refs.append(reference_time())
        out.latencies.append(None)
        try:
            t0 = time.perf_counter()
            with tr.span("op", op=i):
                res = wl.run(spec, ctx, tr)
            out.latencies[-1] = time.perf_counter() - t0
            with tr.span("check", op=i):
                problems, record = wl.check(spec, res, tr)
        except Exception as exc:  # a failing operation is counted; the run goes on
            traceback.print_exc(file=sys.stderr)
            problems, record = [f"{type(exc).__name__}: {exc}"], None
        out.records.append(record)
        if problems:
            out.failed += 1
            out.problems.extend(f"op {i} {spec!r:.80}: {p}" for p in problems)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def execute(wl, seed: int, b: int, ctx, tracing: bool) -> tuple[Batch, spans.Recorder]:
    """Run batch b here, or in a fresh process for a workload whose
    every batch must start with cold library caches."""
    if not wl.fresh_process:
        tr = spans.Recorder(tracing)
        return run_batch(wl, wl.batch(seed, b), ctx, tr), tr
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl.name, "--seed", str(seed),
           "--batch", str(b), "--trace", str(int(tracing))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: batch process failed:\n{proc.stderr}")
    data = json.loads(proc.stdout.splitlines()[-1])
    return Batch(**data["batch"]), spans.Recorder.load(data["trace"], tracing)


def batch_process(name: str, seed: int, b: int, tracing: bool) -> int:
    """Body of execute()'s fresh process: set up, run one batch, print it."""
    import workloads
    wl = workloads.WORKLOADS[name]
    ctx = workloads.Context(OUT)
    try:
        wl.warm(ctx)
        tr = spans.Recorder(tracing)
        batch = run_batch(wl, wl.batch(seed, b), ctx, tr)
    finally:
        ctx.packed.unlink(missing_ok=True)
    print(json.dumps({"batch": batch.to_json(), "trace": tr.dump()}))
    return 0


def measure_setup(name: str) -> tuple[float, float]:
    """Median over fresh processes of the set-up time (import hamext
    plus the first call of every public function the workload uses),
    scaled and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        seconds, ref = (float(x) for x in proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * REF_NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(raw)


def digest(batches: list[Batch]) -> tuple[str, int]:
    records = [r for b in batches for r in b.records]
    blob = json.dumps(records, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest(), len(records)


def untraced(wl, seed: int, seconds: float, ctx) -> tuple[list[Batch], dict]:
    batches: list[Batch] = []
    start = time.perf_counter()
    while len(batches) < wl.min_batches or time.perf_counter() - start < seconds:
        batches.append(execute(wl, seed, len(batches), ctx, False)[0])
    scale(batches)
    wall = statistics.median(b.seconds for b in batches)
    verified = sum(b.attempted - b.failed for b in batches)
    metrics = {
        "wall_s": wall,
        # per median batch, like wall_s: a total lets one slow stretch of a run through
        "ops_per_s": verified / len(batches) / wall,
        "peak_rss_mb": max(b.peak_rss_mb for b in batches),
    }
    return batches, metrics


def traced(wl, seed: int, seconds: float, ctx) -> tuple[list[Batch], list[Batch], list]:
    """Batch 0 again and again, alternately untraced and traced (the
    order flips every round), until `seconds` have passed."""
    ran, plain, traced_batches, recorders = [], [], [], []
    start = time.perf_counter()
    rounds = 0
    while not plain or time.perf_counter() - start < seconds:
        for tracing in ((False, True) if rounds % 2 == 0 else (True, False)):
            batch, tr = execute(wl, seed, 0, ctx, tracing)
            ran.append(batch)
            if tracing:
                traced_batches.append(batch)
                recorders.append(tr)
            else:
                plain.append(batch)
        rounds += 1
    scale(ran)
    return plain, traced_batches, recorders


def scaled_self_times(recorder, batch: Batch) -> dict[str, float]:
    """Self time per span name, each span scaled by its operation's factor."""
    own = spans.self_times(recorder.spans)
    out: dict[str, float] = {}
    for s in recorder.spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.sid] * batch.factors[s.op]
    return out


def layer_metrics(recorders, plain: list[Batch], traced_batches: list[Batch]) -> dict:
    own = [scaled_self_times(r, b) for r, b in zip(recorders, traced_batches)]
    out = {m: statistics.median(t.get(name, 0.0) for t in own) for m, name in LAYER_TIMES.items()}
    first = recorders[0]
    calls = {}
    for s in first.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    out.update({m: calls.get(name, 0) for m, name in LAYER_CALLS.items()})
    out.update({m: first.counts.get(m, 0) for m in LAYER_COUNTS})
    stages = first.counts.get("adversary.stages", 0)
    out["adversary.forced_ratio"] = first.counts.get("adversary.forced_stages", 0) / stages if stages else 0.0
    out["kernels.bytes_computed"] = 8 * (out["kernels.robustness.elements"]
                                         + out["kernels.all_outputs.elements"])
    out["trace.overhead"] = (statistics.median(b.seconds for b in traced_batches)
                             / statistics.median(b.seconds for b in plain))
    return out


def share_report(wl, recorders, traced_batches) -> list[str]:
    """Each span's share of traced time, then every prediction with its verdict."""
    totals: dict[str, float] = {}
    for r, b in zip(recorders, traced_batches):
        for name, t in scaled_self_times(r, b).items():
            totals[name] = totals.get(name, 0.0) + t
    whole = sum(totals.values())
    lines = ["layer shares of traced time (self time; op = benchmark glue, check = oracles):"]
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<32} {t / len(recorders):10.4f} s/batch  {100 * t / whole:6.2f}%")
    lines.append(f"predictions (hold within {100 * SHARE_TOLERANCE:.0f} percentage points):")
    for p in wl.predictions:
        share = sum(t for name, t in totals.items()
                    if any(name == k or name.startswith(k + ".") for k in p.keys)) / whole
        if p.kind == "about":
            holds, expect = abs(share - p.value) <= SHARE_TOLERANCE, f"~{100 * p.value:.0f}%"
        elif p.kind == "below":
            holds, expect = share < p.value, f"<{100 * p.value:.0f}%"
        else:
            holds, expect = share == 0.0, "no spans"
        lines.append(f"  {' + '.join(p.keys):<44} predicted {expect:>8}  measured "
                     f"{100 * share:6.2f}%  {'HOLDS' if holds else 'DOES NOT HOLD'}  ({p.source})")
    return lines


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}})


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    wl = workloads.WORKLOADS[name]
    env = environment(seed)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {name}: {wl.why}")
    ctx = workloads.Context(OUT)
    try:
        if trace:
            if not wl.fresh_process:
                wl.warm(ctx)
            plain, traced_batches, recorders = traced(wl, seed, seconds, ctx)
            batches = plain + traced_batches
            metrics = layer_metrics(recorders, plain, traced_batches)
            units = per_layer_units()
            trace_file = OUT / f"trace-{name}-seed{seed}.json"
            spans.write_json(trace_file, recorders, {"workload": name, **env})
            for line in share_report(wl, recorders, traced_batches):
                print(line)
            print(f"tracing overhead: traced/untraced batch time = {metrics['trace.overhead']:.4f} "
                  f"({len(traced_batches)} traced, {len(plain)} untraced batches); spans -> {trace_file}")
            dig, covered = digest(traced_batches[:1])
        else:
            setup, setup_raw = measure_setup(name)
            if not wl.fresh_process:
                wl.warm(ctx)
            batches, metrics = untraced(wl, seed, seconds, ctx)
            metrics["setup_s"] = setup
            units = END_TO_END
            lat = [t for b in batches for t in b.scaled()]
            for q in reportable_percentiles(len(lat)):
                print(f"op_p{q:g}_ms {1e3 * percentile(lat, q):.4f} ms (of {len(lat)} operations)")
            refs = [r for b in batches for r in b.refs]
            print(f"machine speed: reference median {1e3 * statistics.median(refs):.4f} ms "
                  f"(nominal {1e3 * REF_NOMINAL_S:g} ms); unscaled: setup_s {setup_raw:.6g} s, "
                  f"wall_s {statistics.median(b.raw_seconds for b in batches):.6g} s")
            dig, covered = digest(batches[:wl.min_batches])
    finally:
        ctx.packed.unlink(missing_ok=True)
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    problems = [p for b in batches for p in b.problems]
    for p in problems[:20]:
        print(f"FAILED {p}")
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} operations, "
          f"{len(batches)} batches)")
    if not trace:
        for k, unit in units.items():
            print(f"{k} {metrics[k]:.6g} {unit}")
    print(f"digest sha256:{dig} over the first {covered} operations")
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="corrupt_campaign | exact_tails | cube_sweeps | suite | all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--batch", type=int, help=argparse.SUPPRESS)  # see execute()
    args = ap.parse_args(argv)
    load_library()
    import workloads
    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
        return status
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    if args.batch is not None:
        return batch_process(args.workload, args.seed, args.batch, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
