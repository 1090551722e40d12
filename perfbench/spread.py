#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics of one workload.

    python3 perfbench/spread.py --workload fig5-mem-ranks --runs 5

Makes two sets of ``--runs`` benchmark runs (``perfbench/run.py``, one
process each, a new seed per run), alternating between the sets and
which set goes first in each pair. For every end-to-end metric it
prints the median and quartiles of each set and of all runs, the
interquartile spread as a share of the median, the second set's
median change against the first, and the metric's bound from
``BENCHMARK.json``. A spread of all runs above a third of its bound,
or a median drift above the bound, is flagged (``setup_s`` spread is
shown only).
Exits 1 when any run fails, reports ``correct: false``, or the two
sets differ in their share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark process; returns its final JSON object."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed (exit {proc.returncode}): "
                         f"{' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def rel_spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5,
                    help="runs per set (default 5)")
    ap.add_argument("--seed", type=int, default=100,
                    help="first seed; each run uses the next one")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    sets: list[list[dict]] = [[], []]
    seed = args.seed
    for i in range(args.runs):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            out = run_once(args.workload, seed, seconds)
            sets[s].append(out)
            vals = " ".join(f"{k}={v['value']:.6g}"
                            for k, v in out["metrics"].items())
            print(f"set {'AB'[s]} seed {seed}: correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']} {vals}",
                  flush=True)
            seed += 1

    bad = 0
    print(f"\n{args.workload}: {args.runs} runs per set, "
          f"{seconds} s each")
    print(f"{'metric':12s} {'unit':9s} {'bound':>6s} "
          f"{'A median [q1,q3]':>32s} {'B median':>12s} "
          f"{'spread A/B/all':>20s} {'B-A':>8s}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [o["metrics"][name]["value"] for o in sets[0]]
        b = [o["metrics"][name]["value"] for o in sets[1]]
        qa, qb = quartiles(a), quartiles(b)
        sp = [rel_spread(a), rel_spread(b), rel_spread(a + b)]
        drift = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        if m["better"] == "higher":
            drift = -drift
        flags = []
        if name != "setup_s" and sp[2] > bound / 3:
            flags.append("SPREAD")
        if abs(drift) > bound:
            flags.append("DRIFT")
        bad += bool(flags)
        print(f"{name:12s} {m['unit']:9s} {bound:6.2f} "
              f"{qa[1]:12.6g} [{qa[0]:.6g},{qa[2]:.6g}] {qb[1]:12.6g} "
              f"{sp[0]:6.3f}/{sp[1]:6.3f}/{sp[2]:6.3f} {drift:+8.3f} "
              f"{' '.join(flags)}")
    shares = [sum(o["failed"] for o in s) / sum(o["attempted"] for o in s)
              for s in sets]
    print(f"failed share: A {shares[0]:.6f}  B {shares[1]:.6f}")
    ok = (all(o["correct"] for s in sets for o in s)
          and shares[0] == shares[1])
    print("verdict:", "steady" if ok and not bad else
          ("flagged" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
