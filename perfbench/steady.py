"""Check that the benchmark's end-to-end metrics repeat within their bounds.

    python3 perfbench/steady.py --workload cli --seeds 1-10 --out a.json
    python3 perfbench/steady.py --workload cli --seeds 11-20 --out b.json --against a.json

Runs perfbench/run.py once per seed, one run at a time, from the root of the
checkout. For each metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median. Every run must be correct,
and every seed must give the same operation and check counts per cycle.
--against also checks that this set's median is not worse than the saved
set's by more than the bound.

A spread above a third of the metric's bound in BENCHMARK.json is flagged;
for setup_s, a spread above the bound itself. setup_s is a few dozen
milliseconds of process start and import; its spread over ten runs ranged
from 5% to 15% on a 2-vCPU virtual machine whichever way it was measured
(NOTES.md), and what guards it is the --against median check, under the
largest bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(bench, workload, seeds, seconds) -> dict:
    runs = []
    for seed in seeds:
        argv = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result, {result['failed']} failed\n{proc.stderr}")
        shape = [meta["ops_per_cycle"], meta["checks_per_cycle"]]
        runs.append({"seed": seed, "shape": shape, **{k: v["value"] for k, v in result["metrics"].items()}})
        print(f"  seed {seed}: {result['attempted']} ops, 0 failed, {shape[0]} ops and {shape[1]} checks"
              " per cycle  " + "  ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
    return {"workload": workload, "seconds": seconds, "runs": runs}


def summarize(bench, data) -> bool:
    shapes = {tuple(r["shape"]) for r in data["runs"]}
    ok = len(shapes) == 1
    print(f"{data['workload']}: {len(data['runs'])} runs of {data['seconds']} s, none failed;"
          f" (ops, checks) per cycle {sorted(shapes)}" + ("" if ok else "  DIFFER BETWEEN SEEDS"))
    for m in bench["end_to_end"]:
        values = [r[m["name"]] for r in data["runs"]]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        limit = m["bound"] if m["name"] == "setup_s" else m["bound"] / 3
        flag = "" if spread <= limit else "  TOO WIDE"
        ok = ok and not flag
        print(f"  {m['name']:12s} median {med:10.5g} {m['unit']:4s} q1 {q1:10.5g} q3 {q3:10.5g}"
              f" spread {spread:6.3f} (bound {m['bound']}, limit {limit:.3f}){flag}")
    return ok


def compare(bench, first, second) -> bool:
    ok = True
    print(f"{second['workload']}: second set against first")
    for m in bench["end_to_end"]:
        a = statistics.median(r[m["name"]] for r in first["runs"])
        b = statistics.median(r[m["name"]] for r in second["runs"])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
        ok = ok and not flag
        print(f"  {m['name']:12s} {a:10.5g} -> {b:10.5g}  worse by {worse:+.3f} (bound {m['bound']}){flag}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()
    bench = load_bench()
    data = run_set(bench, args.workload, seed_list(args.seeds), args.seconds or bench["run_seconds"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
    ok = summarize(bench, data)
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            ok = compare(bench, json.load(fh), data) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
