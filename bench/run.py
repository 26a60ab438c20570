"""Benchmark of the tlpe engine, driven through its public API.

Usage, from the root of a checkout:

    python3 bench/run.py --workload closure|wfs|update|minpath \
        --seed N --seconds S --trace 0|1

One process, one thread, closed loop: the next operation starts when the
previous one has returned.  Every operation's answers are checked against
the naive references in ``bench/reference.py``.  The last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it repeats the figures for a reader.

``--trace 0`` reports the end-to-end metrics.  Every time is CPU time
of the benchmark's thread, so time in which the operating system runs
other processes is not counted.  The speed of the CPU itself still
changes by a fifth or more within seconds when other work shares the
machine's cores, so a calibration block of fixed Python work,
independent of the engine, is timed right before and right after every
timed operation and set-up, and each time is scaled to a machine on
which that block takes ``CALIBRATION_REF_S``, by the mean of the two
blocks around it.  The summary line prints the median block time.

``--trace 1`` runs the same first operations once untraced and twice
under ``spans.Tracer``, reports the per-layer metrics and the tracing
overhead, and fails the run if the two traced runs count different
work.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_SAMPLES = 25          # set-ups timed per run, spread over the run;
                            # setup_s is their median
CALIBRATION_REF_S = 1e-3    # timings are scaled to a machine on which one
                            # calibration block takes this long
TRACED_SHARE = 0.3          # share of --seconds the untraced pass may use
                            # in a traced run


class PassResult:
    """Everything one closed-loop pass over a schedule measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_s = []
        self.query_s = []
        self.requeried = 0
        self.unchanged = 0
        self.wall_s = 0.0
        self.setup_s = []
        self.calibration_s = []
        self.nodes = 0
        self.counters = {}
        self.simplifications = 0
        self.answers_stored = 0

    def add_engine(self, engine) -> None:
        """Fold in the statistics of an engine whose work is done."""
        st = engine.statistics()
        self.nodes += st["nodes"]
        for key, value in st["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.simplifications += st["simplifications"]
        self.answers_stored = sum(t["answers"] for t in st["tables"].values())


def run_pass(workload, seconds: float, max_ops=None,
             setup_samples: int = 0, calibrate: bool = False) -> PassResult:
    """Run the workload's schedule until ``seconds`` have passed or
    ``max_ops`` operations were attempted.  Engine set-up between
    passes of a schedule is not part of any operation's time.

    With ``setup_samples``, that many extra set-ups are timed at even
    intervals between operations, so that their median sees the same
    machine as the operations do, not only its state at the start.
    With ``calibrate``, the operation's times and each set-up are
    scaled to ``CALIBRATION_REF_S`` by the calibration blocks timed
    right before and right after them."""
    from workloads import NEW_ENGINE
    res = PassResult()
    engine = None
    start = perf_counter()
    next_setup = start
    for op in workload.schedule():
        if op is NEW_ENGINE:
            if engine is not None:
                res.add_engine(engine)
                engine = None
                gc.collect()
            engine = workload.setup()
            continue
        now = perf_counter()
        if res.attempted == max_ops or now - start >= seconds:
            break
        if setup_samples and now >= next_setup:
            gc.collect()
            _, took, scale = timed(workload.setup, res, calibrate)
            res.setup_s.append(took * scale)
            next_setup += seconds / setup_samples
        res.attempted += 1
        try:
            sample, _, scale = timed(lambda: workload.run(engine, op), res,
                                     calibrate)
        except Exception:           # counted, reported, and the run goes on
            res.failed += 1
            if res.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            continue
        if not sample.ok:
            res.failed += 1
        res.op_s.append(sample.op_s * scale)
        res.query_s.extend(q * scale for q in sample.query_s)
        res.requeried += sample.requeried
        res.unchanged += sample.unchanged
    res.wall_s = perf_counter() - start
    res.add_engine(engine)
    return res


def timed(work, res: PassResult, calibrate: bool):
    """Call ``work``; return what it returned, its CPU time, and the
    scale for its times: 1, or with ``calibrate`` ``CALIBRATION_REF_S``
    over the mean of the calibration blocks timed right before and right
    after it, both kept in ``res``."""
    before = time_calibration() if calibrate else 0.0
    start = thread_time()
    result = work()
    took = thread_time() - start
    if not calibrate:
        return result, took, 1.0
    after = time_calibration()
    res.calibration_s += (before, after)
    return result, took, 2 * CALIBRATION_REF_S / (before + after)


_CALIBRATION_EDGES = []


def time_calibration() -> float:
    """Time one calibration block: breadth-first search from five
    sources of a fixed 300-vertex digraph, with the benchmark's own
    reference code.  The block does the same kind of interpreter work as
    the engine (dicts, sets, lists, calls) but none of its code, so its
    time follows the speed of the machine and never the program."""
    from reference import bfs_reachable, random_digraph
    if not _CALIBRATION_EDGES:
        _CALIBRATION_EDGES.extend(random_digraph(random.Random(0), 300, 900))
    start = thread_time()
    for source in range(1, 6):
        bfs_reachable(_CALIBRATION_EDGES, source)
    return thread_time() - start


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by Python's exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(workload, seconds: float):
    res = run_pass(workload, seconds, setup_samples=SETUP_SAMPLES,
                   calibrate=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "query_ms_p50": (percentile(res.query_s, 50) * 1e3, "ms"),
        "query_ms_p90": (percentile(res.query_s, 90) * 1e3, "ms"),
        "ops_per_s": (len(res.op_s) / sum(res.op_s), "1/s"),
        "setup_s": (statistics.median(res.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"queries": len(res.query_s), "setups": len(res.setup_s),
             "calibration_ms": statistics.median(res.calibration_s) * 1e3,
             "fail_ratio": res.failed / res.attempted}
    if workload.name == "update":
        extra["update_ms_p50"] = percentile(res.op_s, 50) * 1e3
        extra["update_ms_p90"] = percentile(res.op_s, 90) * 1e3
        extra["update_rounds"] = len(res.op_s)
    return res, metrics, extra


# Counts that must repeat exactly between two runs of the same seed.
DETERMINISM_KEYS = ("engine.nodes", "tables.answer_calls",
                    "tables.subgoal_calls", "sccs.tarjan_calls",
                    "incremental.recomputed_tables")


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def traced_pass(workload, ops: int):
    from spans import Tracer
    gc.collect()
    with Tracer() as tracer:
        res = run_pass(workload, float("inf"), max_ops=ops)
    layers = tracer.layer_totals()
    counts = tracer.counts
    c = res.counters
    metrics = {
        "parser.parse_s": (layers["parser"]["self_s"], "s"),
        "program.load_s": (layers["program.load"]["self_s"], "s"),
        "program.lookup_s": (layers["program.lookup"]["self_s"], "s"),
        "program.lookups": (layers["program.lookup"]["calls"], "count"),
        "program.clauses_per_lookup": (
            _ratio(counts["clauses"], layers["program.lookup"]["calls"]),
            "ratio"),
        "tables.subgoal_s": (layers["tables.subgoal"]["self_s"], "s"),
        "tables.subgoal_calls": (layers["tables.subgoal"]["calls"], "count"),
        "tables.new_subgoal_ratio": (
            _ratio(counts["new_subgoals"], layers["tables.subgoal"]["calls"]),
            "ratio"),
        "tables.answer_s": (layers["tables.answer"]["self_s"], "s"),
        "tables.answer_calls": (layers["tables.answer"]["calls"], "count"),
        "tables.answer_added_ratio": (
            _ratio(counts["answers_added"], layers["tables.answer"]["calls"]),
            "ratio"),
        "tables.complete_s": (layers["tables.complete"]["self_s"], "s"),
        "tables.discard_s": (layers["tables.discard"]["self_s"], "s"),
        "tables.answers_stored": (res.answers_stored, "count"),
        "sccs.tarjan_s": (layers["sccs.tarjan"]["self_s"], "s"),
        "sccs.tarjan_calls": (layers["sccs.tarjan"]["calls"], "count"),
        "sccs.vertices_per_call": (
            _ratio(counts["vertices"], layers["sccs.tarjan"]["calls"]),
            "ratio"),
        "negation.delaying": (c.get("delaying", 0), "count"),
        "negation.negative_return": (c.get("negative_return", 0), "count"),
        "negation.simplifications": (res.simplifications, "count"),
        "subsumption.apply_s": (layers["subsumption.apply"]["self_s"], "s"),
        "subsumption.apply_calls": (layers["subsumption.apply"]["calls"],
                                    "count"),
        "subsumption.replaced_ratio": (
            _ratio(counts["replaced"], layers["subsumption.apply"]["calls"]),
            "ratio"),
        "incremental.invalidate_s": (
            layers["incremental.invalidate"]["self_s"], "s"),
        "incremental.tables_invalidated": (counts["tables_invalidated"],
                                           "count"),
        "incremental.recomputed_tables": (
            layers["incremental.reset"]["calls"], "count"),
        "incremental.unchanged_ratio": (
            _ratio(res.unchanged, res.requeried), "ratio"),
        "engine.query_s": (layers["engine.query"]["total_s"], "s"),
        "engine.self_s": (layers["engine.query"]["self_s"], "s"),
        "engine.nodes": (res.nodes, "count"),
        "engine.new_subgoal": (c.get("new_subgoal", 0), "count"),
        "engine.clause_resolution": (c.get("clause_resolution", 0), "count"),
        "engine.positive_return": (c.get("positive_return", 0), "count"),
    }
    return res, metrics


def per_layer(workload, seconds: float):
    """Untraced pass over the first operations, then two traced passes
    over exactly as many; the two traced passes must count the same."""
    ops = workload.trace_ops
    plain = run_pass(workload, seconds * TRACED_SHARE, max_ops=ops)
    first, metrics = traced_pass(workload, plain.attempted)
    second, again = traced_pass(workload, plain.attempted)
    mismatches = [key for key in DETERMINISM_KEYS
                  if metrics[key][0] != again[key][0]]
    if plain.nodes != first.nodes:
        mismatches.append("engine.nodes (untraced)")
    metrics["engine.us_per_node"] = (
        _ratio(sum(plain.op_s) * 1e6, plain.nodes), "us")
    metrics["trace.overhead_ratio"] = (
        statistics.median([first.wall_s, second.wall_s]) / plain.wall_s,
        "ratio")
    failed = plain.failed + first.failed + second.failed
    attempted = plain.attempted + first.attempted + second.attempted
    extra = {"operations": plain.attempted,
             "nondeterministic": mismatches}
    return attempted, failed, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("closure", "wfs", "update", "minpath"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "tlpe")):
        print(f"bench: no tlpe sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        attempted, failed, metrics, extra = per_layer(workload, args.seconds)
        correct = failed == 0 and not extra["nondeterministic"]
    else:
        res, metrics, extra = end_to_end(workload, args.seconds)
        attempted, failed = res.attempted, res.failed
        correct = failed == 0
    print(f"{args.workload} seed={args.seed} "
          + " ".join(f"{k}={v[0]:.6g}{v[1]}" for k, v in metrics.items())
          + " " + " ".join(f"{k}={v}" for k, v in extra.items()))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
