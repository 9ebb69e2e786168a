"""Measure each campaign block's share of the Tier-1 acceptance run's time.

    PYTHONPATH=src python3 perfbench/shares.py

Runs the seven run_verify campaigns with the arguments of
tests/test_acceptance.py under a CPU-time sampler (SIGPROF every
millisecond). Each sample is charged to the campaign and the order ``n`` its
campaign loop is working on; maybee counts as one group, as its benchmark
block covers all of its orders. It then times every block of
workloads.CAMPAIGN_BLOCKS and prints, per block, the measured share, the
block's median time, the repeat count per cycle that gives the block that
share of a cycle of about CYCLE_BLOCKS blocks, and the share those repeats
realise. The repeat counts in CAMPAIGN_BLOCKS were set from this output.
"""

import signal
import statistics
import sys
import time
from collections import Counter

import workloads as w
from zmx import verify

# (theorem, n_lo, n_hi, trials, seed) as tests/test_acceptance.py runs them.
ACCEPTANCE = (
    ("det-formula", 2, 8, 1000, 42),
    ("cycle-matrix", 2, 7, 500, 7),
    ("bdsw-z", 2, 7, 300, 3),
    ("zclass-oracles", 1, 6, 500, 11),
    ("type-d", 3, 7, 500, 5),
    ("polyn", 3, 8, 300, 1),
    ("maybee", 2, 10, 200, 9),
)
CYCLE_BLOCKS = 150
BLOCK_TIMINGS = 5


def block_key(theorem, n):
    return (theorem, None) if theorem == "maybee" else (theorem, n)


def sample_acceptance():
    """Samples per (theorem, order) and wall seconds per campaign."""
    codes = {fn.__code__: name for name, fn in verify.CAMPAIGNS.items()}
    samples = Counter()

    def on_tick(signum, frame):
        while frame is not None:
            theorem = codes.get(frame.f_code)
            if theorem is not None:
                samples[block_key(theorem, frame.f_locals.get("n"))] += 1
                return
            frame = frame.f_back

    walls = {}
    signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)
    try:
        for theorem, lo, hi, trials, seed in ACCEPTANCE:
            t0 = time.perf_counter()
            summary = verify.run_verify(theorem, lo, hi, trials, seed)
            walls[theorem] = time.perf_counter() - t0
            assert not summary.failures, summary.failures[:3]
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
    return samples, walls


def block_seconds(block):
    theorem, lo, hi, trials = block[:4]
    times = []
    for k in range(BLOCK_TIMINGS):
        t0 = time.perf_counter()
        verify.run_verify(theorem, lo, hi, trials, 1000 + k)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    samples, walls = sample_acceptance()
    total = sum(samples.values())
    print("acceptance wall s: " + ", ".join(f"{t} {s:.2f}" for t, s in walls.items())
          + f"; total {sum(walls.values()):.2f}; {total} samples")
    rows = []
    for block in w.CAMPAIGN_BLOCKS:
        theorem, lo = block[0], block[1]
        share = samples[block_key(theorem, lo)] / total
        sec = block_seconds(block)
        rows.append((block, share, sec, max(1, round(share * CYCLE_BLOCKS * 0.03 / sec))))
    cycle_s = sum(reps * sec for _, _, sec, reps in rows)
    print(f"{'block':24s} {'share':>7s} {'block ms':>9s} {'repeats':>7s} {'realised':>8s}")
    for block, share, sec, reps in rows:
        label = f"{block[0]}:{block[1]}..{block[2]}x{block[3]}"
        print(f"{label:24s} {share:7.4f} {1000 * sec:9.2f} {reps:7d} {reps * sec / cycle_s:8.4f}")
    print(f"cycle: {sum(r[3] for r in rows)} blocks, {cycle_s:.2f} s")
    unmapped = set(samples) - {block_key(b[0], b[1]) for b in w.CAMPAIGN_BLOCKS}
    if unmapped:
        print("samples with no block: " + ", ".join(f"{k} {samples[k]}" for k in sorted(unmapped, key=str)),
              file=sys.stderr)


if __name__ == "__main__":
    main()
