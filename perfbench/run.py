#!/usr/bin/env python3
"""LowFive benchmark: executed workflows, end to end and layer by layer.

    python3 perfbench/run.py --workload fig5-mem-ranks --seed 1 \\
        --seconds 20 --trace 0

Runs one workload (or ``--workload all``: the four in sequence, in one
process) on the simulator's own rank threads. Set-up (imports and
seeded input generation, repeated three times for a median) comes
first, then one warm-up workflow run, then timed runs until
``--seconds`` is used up (at least three). Every run's outputs are
checked against values the benchmark recomputes; a mismatch, a
``RankFailure`` or a ``DeadlockError`` counts as failed operations.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced runs with default telemetry and with ``NullObsContext``, then
makes one run with span-recording wrappers installed, prints the
per-layer metrics and writes the spans to ``.perfbench/``. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CPUS = os.sched_getaffinity(0)

#: (name, unit) of every end-to-end metric, reported by untraced runs.
END_TO_END = (
    ("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("sim_s", "virtual_s"), ("messages", "count"),
    ("wire_bytes", "B"),
)

#: (name, unit) of every per-layer metric, reported by the traced run.
PER_LAYER = (
    ("simmpi.send_calls", "count"), ("simmpi.recv_calls", "count"),
    ("simmpi.recv_wall_s", "s"), ("simmpi.collective_wall_s", "s"),
    ("simmpi.sleeps", "count"), ("simmpi.safety_bumps", "count"),
    ("simmpi.safe_checks", "count"), ("simmpi.safe_useful", "ratio"),
    ("simmpi.self_cpu_s", "s"), ("simmpi.host_us_per_msg", "us"),
    ("lowfive.polls", "count"), ("lowfive.poll_useful", "ratio"),
    ("lowfive.serve_wall_s", "s"), ("lowfive.rpc_calls", "count"),
    ("lowfive.rpc_wall_s", "s"), ("lowfive.read_wall_s", "s"),
    ("lowfive.close_wall_s", "s"), ("lowfive.self_cpu_s", "s"),
    ("h5.coords_calls", "count"), ("h5.coords_elems", "count"),
    ("h5.selection_self_cpu_s", "s"), ("h5.copy_bytes", "B"),
    ("h5.native_write_wall_s", "s"), ("h5.native_read_wall_s", "s"),
    ("h5.native_close_wall_s", "s"), ("h5.self_cpu_s", "s"),
    ("pfs.write_bytes", "B"), ("pfs.read_bytes", "B"),
    ("pfs.io_wall_s", "s"),
    ("stream.epochs", "count"), ("stream.publish_wall_s", "s"),
    ("stream.acquire_wall_s", "s"), ("stream.max_depth", "count"),
    ("diy.intersect_calls", "count"), ("diy.self_cpu_s", "s"),
    ("obs.overhead_s", "s"),
    ("critpath.compute_s", "s"), ("critpath.simmpi_s", "s"),
    ("critpath.lowfive_s", "s"), ("critpath.pfs_s", "s"),
    ("critpath.wait_s", "s"),
    ("trace.overhead", "ratio"),
)

MIN_ROUNDS = 3
MIN_PAIRS = 2
SETUP_REPEATS = 3
SPANS_DIR = ".perfbench"


class Bench:
    """Runs one workload and collects its samples and checks."""

    def __init__(self, spec, seed: int, import_s: float):
        from perfbench import workloads as W

        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.virtual: set = set()
        preps = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.inputs = W.prepare(spec, seed)
            preps.append(time.perf_counter() - t0)
        self.setup_s = import_s + statistics.median(preps)

    def execute(self, obs=None, conservation: bool = True):
        """One checked workflow run; returns ``(result, wall, cpu)``
        (``result`` is ``None`` when the run raised). Causal
        conservation is checked on runs with default telemetry."""
        from perfbench import workloads as W

        inp = self.inputs
        built = W.build(inp)
        gc.collect()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            res = W.run_once(built, obs=obs)
        except Exception:  # noqa: BLE001 - a failed run is counted
            res = None
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self.attempted += W.operations(inp)
        self.failed += W.failed_operations(
            inp, None if res is None else res.returns.get("consumer"))
        if res is not None:
            self.virtual.add((res.vtime, res.messages, res.bytes_sent))
            self.problems += W.property_problems(inp, built, res)
            if conservation and obs is None:
                self.problems += W.conservation_problems(res)
        return res, wall, cpu

    @staticmethod
    def timed(seconds: float, step, min_rounds: int) -> list:
        """Call ``step()`` in whole rounds until another round would
        exceed ``seconds`` (at least ``min_rounds``); returns results."""
        out = []
        t0 = time.perf_counter()
        while True:
            out.append(step())
            used = time.perf_counter() - t0
            if len(out) >= min_rounds and used * (1 + 1 / len(out)) > seconds:
                return out

    def finish(self) -> None:
        from perfbench import trace as T

        if len(self.virtual) > 1:
            self.problems.append(f"virtual results differ between runs: "
                                 f"{sorted(self.virtual)}")
        if not T.unwrapped():
            self.problems.append("layer functions still wrapped after "
                                 "the run")


def _virtual(bench: Bench) -> tuple:
    """The (sim_s, messages, wire_bytes) every successful run gave."""
    return min(bench.virtual) if bench.virtual else (0.0, 0, 0)


def end_to_end(bench: Bench, seconds: float) -> dict:
    from perfbench import trace as T

    def step():
        if not T.unwrapped():
            bench.problems.append("untraced run found a wrapped layer "
                                  "function")
        _, wall, cpu = bench.execute()  # results dropped: RSS stays flat
        return wall, cpu

    bench.execute()  # warm-up
    runs = bench.timed(seconds, step, MIN_ROUNDS)
    sim_s, messages, wire_bytes = _virtual(bench)
    return {
        "run_s": statistics.median(r[0] for r in runs),
        "cpu_s": statistics.median(r[1] for r in runs),
        "setup_s": bench.setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_s": sim_s,
        "messages": messages,
        "wire_bytes": wire_bytes,
    }


def per_layer(bench: Bench, seconds: float, name: str) -> dict:
    from repro.obs.noop import NullObsContext

    from perfbench import trace as T

    m = {}
    warm = bench.execute()[0]  # warm-up; its causal report is reused
    crit = (warm.causal_report().path.category_breakdown()
            if warm is not None else {})
    del warm
    for cat in ("compute", "simmpi", "lowfive", "pfs", "wait"):
        m[f"critpath.{cat}_s"] = float(crit.get(cat, 0.0))
    pairs = bench.timed(seconds / 2, lambda: (
        bench.execute(conservation=False)[1],
        bench.execute(obs=NullObsContext())[1]), MIN_PAIRS)
    default = statistics.median(p[0] for p in pairs)
    null = statistics.median(p[1] for p in pairs)

    tracer = T.Tracer()
    with tracer:
        res, traced_s, _ = bench.execute(conservation=False)
    spans = tracer.spans()
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{name}.npz")
    n = tracer.save(path, spans)
    print(f"{name}: wrote {n} spans to {path}", file=sys.stderr)
    m.update(T.span_metrics(spans))

    ledger = res.obs.stream if res is not None else None
    m["stream.epochs"] = float(len({
        e.epoch for e in ledger.events(kind="publish")})) if ledger else 0.0
    m["stream.max_depth"] = float(max(ledger.max_depth(), 0)) \
        if ledger else 0.0
    messages = _virtual(bench)[1]
    m["simmpi.host_us_per_msg"] = default * 1e6 / messages if messages \
        else 0.0
    m["obs.overhead_s"] = default - null
    m["trace.overhead"] = traced_s / default
    return m


def run_one(name: str, seed: int, seconds: float, trace: bool,
            import_s: float) -> dict:
    """Measure one workload; returns the result object to print."""
    from perfbench import workloads as W

    spec = W.WORKLOADS[name]
    # Rank threads inherit the affinity of the thread that starts them.
    os.sched_setaffinity(0, {min(CPUS)} if spec.one_cpu else CPUS)
    bench = Bench(spec, seed, import_s)
    if trace:
        values, table = per_layer(bench, seconds, name), PER_LAYER
    else:
        values, table = end_to_end(bench, seconds), END_TO_END
    bench.finish()
    for p in bench.problems:
        print(f"{name}: CHECK FAILED: {p}", file=sys.stderr)
    metrics = {k: {"value": values[k], "unit": u} for k, u in table}
    for k, u in table:
        print(f"{name:16s} {k:26s} {values[k]:>16.6g} {u}")
    print(f"{name:16s} operations: {bench.attempted} attempted, "
          f"{bench.failed} failed")
    return {"correct": not bench.problems, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="workload name, or 'all' for the four in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    for p in (ROOT, src):
        if p not in sys.path:
            sys.path.insert(0, p)
    from perfbench import trace as T  # noqa: F401 - imports every layer
    from perfbench import workloads as W

    import_s = time.perf_counter() - _T_START
    names = list(W.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    unknown = [n for n in names if n not in W.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; choose from "
                 f"{', '.join(W.WORKLOADS)} or all")
    results = {n: run_one(n, args.seed, args.seconds, bool(args.trace),
                          import_s) for n in names}
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}/{k}": v for n, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
