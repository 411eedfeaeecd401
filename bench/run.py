"""Benchmark runner: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload maps-build --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's inputs are generated
from the seed; set-up is timed several times and reported as a median;
one warm-up pass runs untimed; then operations run back to back, each
timed alone, until the timed total reaches --seconds.  Results are
checked against the reference models after every round, outside the
timed region, and every operation that raises or fails its check counts
as failed.

With --trace 0 the end-to-end metrics are printed.  With --trace 1 the
run measures half its time untraced and half traced (spans around every
call into a layer, see layers.py), writes the spans to
.bench_out/<workload>.spans.jsonl.gz and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

from core import Inputs, Speed
from layers import ROOT, SRC

SETUP_REPEATS = 3  # set-up runs at least this often,
SETUP_MIN_S = 1.0  # and until it has taken this long in total
WARMUP_S = 2.0
# p99.9 is left out: it would rest on a dozen samples, which garbage
# collections and scheduler hiccups decide rather than the code
TAIL_LADDER = (99.0, 95.0, 90.0)
# End-to-end figures are medians over windows of whole rounds of at least
# this many operations, so that a few seconds of a slower machine move
# one window, not the run.
WINDOW_OPS = 300
LAYERS = ("ordinals", "homeo", "dynamics", "sieve", "cli")
SOLVERS = ("homeo.invariant_prefix", "homeo.invariant_point", "homeo.find_fixed_point_above")


def _workloads():
    import constructions
    import corpus
    import maps

    in_process = Speed(calibrate, CALIBRATION_REF_S, CALIBRATE_EVERY_S)
    # name -> (set-up, operations per round or None for all of them,
    #          speed reference, start-up probe)
    return {
        "maps-build": (maps.setup_build, None, in_process, None),
        "maps-query": (maps.setup_query, None, in_process, None),
        "constructions": (constructions.setup, None, in_process, None),
        "cli": (corpus.setup, corpus.ROUND, corpus.SPEED, corpus.probe),
    }


class Phase:
    """Outcome of one timed phase.  Latencies are scaled to the
    reference machine speed (see `calibrate`); busy_s is raw time."""

    def __init__(self):
        self.latencies: list[float] = []
        self.round_ends: list[int] = []  # len(latencies) after each round
        self.speeds: list[float] = []
        self.busy_s = 0.0
        self.failed: Counter = Counter()  # layer -> failed operations

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / sum(self.latencies)

    def windows(self) -> list[list[float]]:
        """Scaled latencies in windows of whole consecutive rounds with at
        least WINDOW_OPS operations each; a short run is one window."""
        out, begin = [], 0
        for end in self.round_ends:
            if end - begin >= WINDOW_OPS:
                out.append(self.latencies[begin:end])
                begin = end
        if begin < len(self.latencies):
            if out:
                out[-1] = out[-1] + self.latencies[begin:]
            else:
                out.append(self.latencies[begin:])
        return out


# A fixed pure-Python loop of the kind of work the library does
# (recursive comparisons of small slotted objects, allocations, dict
# updates) that never calls the library.  On a shared machine the speed
# of the CPU a run gets changes by up to 1.7x within seconds; timing this
# loop around operations and scaling each operation's time by
# CALIBRATION_REF_S / (loop time around it) removes most of that drift,
# and no change to the library can move the loop.  CALIBRATION_REF_S is
# the loop's time on a quiet 2-core Intel Xeon VM, so scaled times read as
# times there.
CALIBRATION_REF_S = 2.5e-4
CALIBRATE_EVERY_S = 0.05


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key, kids):
        self.key = key
        self.kids = kids


def _cmp(a: _Node, b: _Node) -> int:
    for x, y in zip(a.kids, b.kids):
        k = _cmp(x, y)
        if k:
            return k
    return (a.key > b.key) - (a.key < b.key)


_LEAVES = [_Node(i, ()) for i in range(8)]
_NODES = [_Node((i * 7) % 10, (_LEAVES[i % 8], _LEAVES[(i * 3) % 8])) for i in range(300)]


def calibrate() -> float:
    """Seconds the reference loop takes now: the best of three."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        counts: dict = {}
        for a, b in zip(_NODES, _NODES[1:]):
            n = _Node(_cmp(a, b), (a, b))
            counts[n.key] = counts.get(n.key, 0) + 1
        best = min(best, perf_counter() - t0)
    return best


def _passes(op, result, error) -> bool:
    if error is not None:
        return False
    try:
        return bool(op.check(result))
    except Exception:  # an oracle that cannot read the result rejects it
        return False


def run_phase(ops, L, seconds: float, round_ops: int | None, speed: Speed,
              tracer=None) -> Phase:
    """Run rounds of operations, cycling through `ops`, until their raw
    timed total reaches `seconds`.  A round is `round_ops` operations, or
    a full pass over `ops` when that is None, so that every phase runs
    the same mix.  Results are checked after each round."""
    phase = Phase()
    chunk_size = round_ops or len(ops)
    start = 0
    cal = [speed.measure()]
    cal_at = perf_counter()
    while True:
        chunk = [ops[(start + i) % len(ops)] for i in range(chunk_size)]
        start += chunk_size
        done = []
        for op in chunk:
            if perf_counter() - cal_at > speed.every_s:
                cal.append(speed.measure())
                cal_at = perf_counter()
            if tracer is not None:
                tracer.op_id += 1
            error = result = None
            t0 = perf_counter()
            try:
                result = op.run(L)
            except Exception as exc:  # counted as a failed operation
                error = exc
            t1 = perf_counter()
            if tracer is not None:
                tracer.spans.append((f"op.{op.kind}", t0, t1, tracer.op_id, None, error is not None))
            done.append((op, result, error, t1 - t0, len(cal) - 1))
        cal.append(speed.measure())
        cal_at = perf_counter()
        for op, result, error, dt, i in done:
            factor = speed.ref_s / ((cal[i] + cal[i + 1]) / 2)
            phase.busy_s += dt
            phase.latencies.append(dt * factor)
            phase.speeds.append(factor)
            if not _passes(op, result, error):
                phase.failed[op.layer] += 1
        phase.round_ends.append(len(phase.latencies))
        if phase.busy_s >= seconds:
            return phase



def percentile(latencies: list[float], p: float) -> float:
    xs = sorted(latencies)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


def tail_percentile(samples: int) -> float:
    """The highest percentile of the ladder with at least ten samples
    beyond it; the median when there is none."""
    for p in TAIL_LADDER:
        if samples - math.ceil(p / 100 * samples) >= 10:
            return p
    return 50.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _p50(values: list[float], scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans: list[tuple], phase: Phase) -> dict[str, tuple[float, str]]:
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def dur(*names, when=None):
        return [s[2] - s[1] for n in names for s in by_name.get(n, ()) if when is None or when(s)]

    def layer_spans(layer):
        return [s for n, ss in by_name.items() if n.split(".")[0] == layer for s in ss]

    def errors(layer):
        outside_ops = sum(1 for s in layer_spans(layer) if s[5] and s[3] == 0)
        return phase.failed[layer] + outside_ops

    def counts(name, key):
        return [s[4][key] for s in by_name.get(name, ()) if s[4]]

    def bucket(edges, labels):
        def pick(n):
            for edge, label in zip(edges, labels):
                if n < edge:
                    return label
            return labels[-1]
        return pick

    m: dict[str, tuple[float, str]] = {}
    ords = layer_spans("ordinals")
    m["ordinals.calls"] = (len(ords), "count")
    m["ordinals.busy_s"] = (sum(s[2] - s[1] for s in ords), "s")
    m["ordinals.parse_ordinal.us_p50"] = (_p50(dur("ordinals.parse_ordinal"), 1e6), "us")
    m["ordinals.format_ordinal.us_p50"] = (_p50(dur("ordinals.format_ordinal"), 1e6), "us")
    m["ordinals.arith.us_p50"] = (_p50(dur("ordinals.add", "ordinals.mul",
                                           "ordinals.left_subtract"), 1e6), "us")
    items = sum(counts("ordinals.sort", "items"))
    m["ordinals.sort.us_per_item"] = (sum(dur("ordinals.sort")) * 1e6 / items if items else 0.0, "us")
    m["ordinals.errors"] = (errors("ordinals"), "count")

    comp = by_name.get("homeo.compose", [])
    m["homeo.compose.calls"] = (len(comp), "count")
    m["homeo.compose.busy_s"] = (sum(dur("homeo.compose")), "s")
    m["homeo.compose.pieces_in"] = (statistics.fmean(counts("homeo.compose", "in") or [0]), "pieces")
    m["homeo.compose.pieces_out"] = (statistics.fmean(counts("homeo.compose", "out") or [0]), "pieces")
    size = bucket((32, 128), ("n16", "n64", "n256"))
    for label in ("n16", "n64", "n256"):
        m[f"homeo.compose.ms_p50.{label}"] = (_p50(dur(
            "homeo.compose", when=lambda s: s[4] and size(s[4]["n"]) == label), 1e3), "ms")
    size = bucket((128, 512), ("n64", "n256", "n1024"))
    for label in ("n64", "n256", "n1024"):
        m[f"homeo.apply.us_p50.{label}"] = (_p50(dur(
            "homeo.apply", when=lambda s: s[4] and size(s[4]["n"]) == label), 1e6), "us")
    m["homeo.sup_image.us_p50"] = (_p50(dur("homeo.sup_image"), 1e6), "us")
    for fn in ("inverse", "build", "parse_homeo", "format_homeo", "fixed_points"):
        m[f"homeo.{fn}.busy_s"] = (sum(dur(f"homeo.{fn}")), "s")
    m["homeo.common_fixed_points.ms_p50"] = (_p50(dur("homeo.common_fixed_points"), 1e3), "ms")
    m["homeo.solver.calls"] = (len(dur(*SOLVERS)), "count")
    m["homeo.solver.busy_s"] = (sum(dur(*SOLVERS)), "s")
    m["homeo.errors"] = (errors("homeo"), "count")

    for fn in ("make_transitive", "roelcke_decompose", "dense_approx", "baire_density_witness"):
        m[f"dynamics.{fn}.ms_p50"] = (_p50(dur(f"dynamics.{fn}"), 1e3), "ms")
    m["dynamics.busy_s"] = (sum(s[2] - s[1] for s in layer_spans("dynamics")), "s")
    m["dynamics.errors"] = (errors("dynamics"), "count")

    for n in (10, 50, 200):
        m[f"sieve.satisfiable.ms_p50.n{n}"] = (_p50(dur(
            "sieve.satisfiable", when=lambda s: s[4] and s[4]["n"] == n), 1e3), "ms")
    sat = counts("sieve.satisfiable", "sat")
    m["sieve.satisfiable.sat_ratio"] = (sum(sat) / len(sat) if sat else 0.0, "ratio")
    m["sieve.chain_limit.ms_p50"] = (_p50(dur("sieve.chain_limit"), 1e3), "ms")
    m["sieve.busy_s"] = (sum(s[2] - s[1] for s in layer_spans("sieve")), "s")
    m["sieve.errors"] = (errors("sieve"), "count")

    m["cli.interp_ms"] = (_p50(dur("cli.interp"), 1e3), "ms")
    m["cli.import_ms"] = (_p50(dur("cli.import_cli"), 1e3), "ms")
    m["cli.main_ms"] = (_p50(dur("cli.main"), 1e3), "ms")
    m["cli.errors"] = (errors("cli"), "count")

    # share of the traced phase's timed wall spent in each layer
    in_ops = [s for s in spans if s[3] > 0 and not s[0].startswith("op.")]

    def share(pred):
        return sum(s[2] - s[1] for s in in_ops if pred(s[0])) / phase.busy_s

    for layer in LAYERS:
        m[f"{layer}.run_share"] = (share(lambda n: n.split(".")[0] == layer), "ratio")
    m["homeo.compose.run_share"] = (share(lambda n: n == "homeo.compose"), "ratio")
    m["homeo.lookup.run_share"] = (share(lambda n: n in ("homeo.apply", "homeo.sup_image")), "ratio")
    return m


# ---------------------------------------------------------------------------


def emit(correct: bool, attempted: int, failed: int, metrics: dict, notes: dict) -> None:
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    missing = [p for p in (SRC / "ordhomeo" / "__init__.py", ROOT / "tests" / "golden" / "cases.txt")
               if not p.is_file()]
    if missing:
        print(f"not a checkout of the repository: missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers

    workloads = _workloads()
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    setup, round_ops, speed, probe = workloads[args.workload]
    L = layers.api()

    if args.trace:
        tracer = layers.Tracer()
        inputs = Inputs()
        ops = setup(layers.api(tracer), args.seed, inputs)
    else:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            inputs = Inputs()
            before = calibrate()
            t0 = perf_counter()
            ops = setup(L, args.seed, inputs)
            setup_times.append((perf_counter() - t0) * CALIBRATION_REF_S
                               / ((before + calibrate()) / 2))

    # The set-up heap (inputs, expected results, models) lives for the
    # whole run; frozen, it is not rescanned by every garbage collection
    # that the library's own allocations trigger.
    gc.collect()
    gc.freeze()
    warm = run_phase(ops, L, min(WARMUP_S, args.seconds / 5), round_ops, speed)
    if args.trace:
        plain = run_phase(ops, L, args.seconds / 2, round_ops, speed)
        phase = run_phase(ops, layers.api(tracer), args.seconds / 2, round_ops, speed, tracer)
        tracer.op_id = 0
        if probe:
            phase.failed["cli"] += probe(layers.api(tracer))
        tracer.write(ROOT / ".bench_out" / f"{args.workload}.spans.jsonl.gz")
        failed = sum(warm.failed.values()) + sum(plain.failed.values()) + sum(phase.failed.values())
        attempted = warm.attempted + plain.attempted + phase.attempted
        metrics = layer_metrics(tracer.spans, phase)
        metrics.update(inputs.metrics())
        metrics["trace.overhead_ratio"] = (phase.ops_per_s / plain.ops_per_s, "ratio")
        metrics["machine.speed"] = (statistics.median(phase.speeds), "x")
        metrics["failed_ops_ratio"] = (failed / attempted, "ratio")
        emit(failed == 0, attempted, failed, metrics, {})
        return 0

    phase = run_phase(ops, L, args.seconds, round_ops, speed)
    failed = sum(warm.failed.values()) + sum(phase.failed.values())
    attempted = warm.attempted + phase.attempted
    windows = phase.windows()
    pct = min(tail_percentile(len(w)) for w in windows)
    metrics = {
        "ops_per_s": (statistics.median(len(w) / sum(w) for w in windows), "ops/s"),
        "op_p50_ms": (statistics.median(statistics.median(w) for w in windows) * 1e3, "ms"),
        "op_tail_ms": (statistics.median(percentile(w, pct) for w in windows) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    notes = {
        "failed_ops_ratio": (failed / attempted, "ratio"),
        "op_tail_ms.percentile": (pct, "%"),
        "op_tail_ms.samples_beyond": (min(len(w) - math.ceil(pct / 100 * len(w)) for w in windows),
                                      "count"),
        "timed_samples": (phase.attempted, "count"),
        "windows": (len(windows), "count"),
        "machine.speed": (statistics.median(phase.speeds), "x"),
        "ops_per_s.unscaled": (phase.attempted / phase.busy_s, "ops/s"),
    }
    emit(failed == 0, attempted, failed, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
