"""Run one zmx benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaigns --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. One caller in one process drives the
library in a closed loop: each operation starts when the previous one has
returned and been checked, and checks run outside the timed call. The loop
runs whole cycles of the workload's schedule; the cycle in progress when
--seconds have passed runs to its end.

--trace 0 prints the end-to-end metrics: ops_per_s (operations over the
summed time of the timed calls), op_p50_ms, op_tail_ms (the highest
percentile with at least ten samples beyond it), setup_s (median over fresh
processes that import zmx and build the workload's inputs) and peak_rss_mb.
failed_ratio is printed too; the result line carries it as failed over
attempted. Times are scaled to a reference machine speed, see REF_CAL_S.

--trace 1 runs half the time untraced, then replays the same operations
with spans.py's wrappers installed, and prints the per-layer metrics. The
spans go to .perfbench_work/spans-<workload>.tsv.

The line before the last is the run metadata. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 15
SPAWN_PROBES = 5

# On a shared 2-vCPU virtual machine the speed drifts by up to a third
# between runs and by several percent within seconds, and zmx slows with
# it. So before an operation, at most every CAL_EVERY_S, the loop times a
# fixed kernel, and each latency is scaled by REF_CAL_S over the median of
# the CAL_WINDOW kernel timings on either side of it: times read as if the
# kernel took REF_CAL_S. The unscaled figures go into the run metadata.
CAL_EVERY_S = 0.02
CAL_WINDOW = 6
REF_CAL_S = 0.00024

# Per-layer groups: metric prefix -> the span names it sums.
LAYERS = {
    "matrix.Matrix": ("matrix.Matrix",),
    "matrix.mul": ("matrix.mul",),
    "matrix.det": ("matrix.det",),
    "matrix.inverse": ("matrix.inverse",),
    "matrix.principal_minor": ("matrix.principal_minor",),
    "cyclic.is_inverse_cyclic": ("cyclic.is_inverse_cyclic",),
    "cyclic.cyclic_inverse": ("cyclic.cyclic_inverse",),
    "cyclic.cyclic_det": ("cyclic.cyclic_det",),
    "cyclic.roundtrip_check": ("cyclic.roundtrip_check",),
    "cyclic.bdsw_sign_classify": ("cyclic.bdsw_sign_classify",),
    "zclass.classify": ("zclass.classify",),
    "zclass.predicates": ("zclass.is_m", "zclass.is_nonsingular_m", "zclass.is_n",
                          "zclass.is_n0", "zclass.is_f0", "zclass.l_index"),
    "zclass.perron_r": ("zclass.perron_r",),
    "digraph.maybee_entry": ("digraph.maybee_entry",),
    "digraph.enumerate_paths": ("digraph.enumerate_paths",),
    "digraph.is_unipathic": ("digraph.is_unipathic",),
    "digraph.is_irreducible": ("digraph.is_irreducible",),
    "construct.from_cyclic_params": ("construct.from_cyclic_params",),
    "construct.circulant_pz": ("construct.circulant_pz",),
    "construct.type_d_verify": ("construct.type_d_verify",),
    "construct.bdsw_matrix": ("construct.bdsw_matrix",),
    "sampling.draws": (),  # every sampling.random_* span, filled in at run time
    "verify.run_verify": ("verify.run_verify",),
    "cli.main": ("cli.main",),
    "cli.parse_matrix": ("cli.parse_matrix",),
    "cli.gather_info": ("cli.gather_info",),
    "cli.emit_report": ("cli.emit_report",),
}

# The matrix file for the "python -m zmx classify" reference figure.
SPAWN_MATRIX = "5\n4 4 8 4 4\n1 2 4 2 2\n1 1 4 2 2\n2 2 4 4 4\n2 2 4 2 4\n"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if os.path.isfile(os.path.join(git, name)):
            with open(os.path.join(git, name), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ZMX_ORDER_CAP", None)
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)


# A fixed 9x9 integer matrix with 40-bit entries (nonzero leading minors)
# for the kernel's fraction-free elimination half.
_rng = random.Random("perfbench-kernel")
_KERNEL_GRID = [[_rng.getrandbits(40) - (1 << 39) for _ in range(9)] for _ in range(9)]
del _rng


def calibrate() -> float:
    """Seconds for a fixed kernel, GC held off: Fraction and small-int
    arithmetic like the campaigns, then a big-integer Bareiss elimination
    like the large-order kernels."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        s, x = Fraction(0), 1
        for i in range(1, 80):
            s += Fraction(i % 7 + 1, i % 5 + 1)
            x = (x * 31 + i) % 1000003
        m = [row[:] for row in _KERNEL_GRID]
        prev = 1
        for k in range(8):
            pivot, row_k = m[k][k], m[k]
            for row_i in m[k + 1:]:
                factor = row_i[k]
                for j in range(k + 1, 9):
                    row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            prev = pivot
        return time.perf_counter() - t0
    finally:
        gc.enable()


def setup_prober(workload: str, seed: int):
    """Return a probe() that times one set-up in a fresh process, in
    seconds; a warm-up run first fills __pycache__."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), WORK]
    run_child(argv)
    return lambda: float(run_child(argv).stdout.split()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it.

    That is the 11th largest sample, at percentile 100 * (N - 10) / N. With
    fewer than 11 samples there is no such percentile and the maximum is
    returned with percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_op(op, rec=None):
    """Time op.call, then check its result untimed. Returns (ok, seconds, error)."""
    if rec is not None:
        rec.active = True
    result, error = None, None
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a raising call is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if rec is not None:
        rec.active = False
    if error is not None:
        return False, dt, error
    try:
        ok = bool(op.check(result))
    except Exception as exc:  # a check that cannot run counts the operation as failed
        return False, dt, f"check raised {type(exc).__name__}: {exc}"
    return ok, dt, None if ok else "wrong result"


class Tally:
    """Latencies, failures and kernel timings of one pass over operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.executed = []  # with keep: the operations of each cycle
        self.cycles = 0
        self.ops_per_cycle = 0
        self.setups: list[tuple[int, float]] = []  # (operations done before, seconds)
        self.cal_pos: list[int] = []  # operations done before each kernel timing
        self.cal_s: list[float] = []
        self._last_cal = float("-inf")

    def run(self, op, rec=None):
        if time.perf_counter() - self._last_cal >= CAL_EVERY_S:
            self.cal_pos.append(len(self.latencies))
            self.cal_s.append(calibrate())
            self._last_cal = time.perf_counter()
        ok, dt, err = run_op(op, rec)
        self.latencies.append(dt)
        if not ok:
            self.failures.append(f"{op.kind}: {err}")

    def factor(self, i: int) -> float:
        """REF_CAL_S over the median kernel timing around operation i."""
        j = bisect.bisect_right(self.cal_pos, i)
        return REF_CAL_S / statistics.median(self.cal_s[max(0, j - CAL_WINDOW):j + CAL_WINDOW])

    def scaled(self) -> list[float]:
        """Latencies scaled to the reference kernel speed around each one."""
        return [dt * self.factor(i) for i, dt in enumerate(self.latencies)]

    def scaled_setups(self) -> list[float]:
        """Set-up times scaled like the operation each one ran before."""
        return [sec * self.factor(i) for i, sec in self.setups]


def closed_loop(wl, seconds, keep=False, probe=None) -> Tally:
    """Run whole cycles until `seconds` of wall time have passed.

    The heap built before the loop (library, inputs, expected results) is
    frozen, and every cycle starts with a full collection, untimed. So a
    full collection inside an operation scans only what recent operations
    left behind, as in a fresh process; garbage that earlier cycles left is
    not charged to later operations.

    With probe, SETUP_PROBES set-up probes run spread evenly over the run,
    each between two operations and untimed, and the deadline moves out by
    the time they take. So the set-up median samples the machine's speed
    over the whole run, not over the few seconds before it, and each probe
    is scaled by the kernel timings around it, as the operations are.
    """
    gc.collect()
    gc.freeze()
    tally = Tally()
    probes = SETUP_PROBES if probe else 0
    start = time.perf_counter()
    paused = 0.0
    while time.perf_counter() < start + paused + seconds:
        ops = wl.cycle(tally.cycles)
        tally.ops_per_cycle = len(ops)
        gc.collect()
        for op in ops:
            now = time.perf_counter()
            if probes and now - start - paused >= (SETUP_PROBES - probes) * seconds / SETUP_PROBES:
                tally.setups.append((len(tally.latencies), probe()))
                probes -= 1
                paused += time.perf_counter() - now
            tally.run(op)
        if keep:
            tally.executed.append(ops)
        tally.cycles += 1
    for _ in range(probes):
        tally.setups.append((len(tally.latencies) - 1, probe()))
    return tally


def replay(cycles, rec) -> Tally:
    """Run the executed cycles again under the recorder, with the same
    untimed full collection before each cycle as closed_loop."""
    tally = Tally()
    rec.base = time.perf_counter()
    i = 0
    for ops in cycles:
        gc.collect()
        for op in ops:
            rec.op = i
            tally.run(op, rec)
            i += 1
    return tally


def spawn_figures() -> tuple[float, float]:
    """(cli.import_s, cli.spawn_p50_ms), from medians over SPAWN_PROBES runs."""
    path = os.path.join(WORK, "spawn.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SPAWN_MATRIX)
    py = sys.executable

    def wall(argv):
        t0 = time.perf_counter()
        run_child(argv)
        return time.perf_counter() - t0

    bare, cli, spawn = [], [], []
    wall([py, "-c", "import zmx.cli"])
    for _ in range(SPAWN_PROBES):
        bare.append(wall([py, "-c", "pass"]))
        cli.append(wall([py, "-c", "import zmx.cli"]))
        spawn.append(wall([py, "-m", "zmx", "classify", path]))
    return statistics.median(cli) - statistics.median(bare), 1000 * statistics.median(spawn)


def layer_metrics(rec, spanned, traced_s, overhead_ratio):
    groups = dict(LAYERS)
    groups["sampling.draws"] = tuple(n for n in spanned if n.startswith("sampling.random_"))
    metrics = {}
    grouped = set()
    for prefix, names in groups.items():
        grouped.update(names)
        metrics[f"{prefix}.calls"] = (sum(rec.by_name(rec.calls, n) for n in names), "count")
        metrics[f"{prefix}.self_s"] = (sum(rec.by_name(rec.self_s, n) for n in names), "s")
    spans_self = sum(rec.self_s.values())
    other = spans_self - sum(rec.by_name(rec.self_s, n) for n in grouped)

    ci = rec.by_name(rec.inclusive_s, "cyclic.cyclic_inverse")
    ci_mul = rec.pair(rec.child_of, "matrix.mul", "cyclic.cyclic_inverse")
    returned = sum(rec.by_name(rec.calls, s) for s in spans.REJECTION)
    attempts = sum(rec.pair(rec.child_calls, d, s) for s, draws in spans.REJECTION.items() for d in draws)
    import_s, spawn_ms = spawn_figures()
    metrics.update({
        "matrix.inverse.out_bits_max": (rec.inverse_bits_max, "bits"),
        "cyclic.cyclic_inverse.check_share": (ci_mul / ci if ci else 0.0, "ratio"),
        "zclass.minors_bound": (rec.minors_bound, "minors"),
        "digraph.paths_found": (rec.paths_found, "count"),
        "sampling.accept_ratio": (returned / attempts if attempts else 0.0, "ratio"),
        "cli.import_s": (import_s, "s"),
        "cli.spawn_p50_ms": (spawn_ms, "ms"),
        "other.self_s": (other, "s"),
        "bench.self_s": (traced_s - spans_self, "s"),
        "trace.wall_s": (traced_s, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    accounting = (
        f"traced wall {traced_s:.4f} s = layer self {spans_self - other:.4f} s"
        f" + other spans {other:.4f} s + benchmark remainder {traced_s - spans_self:.4f} s"
        f" ({rec.hook_s:.4f} s of it counter hooks); {len(rec.span_name)} spans kept,"
        f" {rec.dropped} over the cap"
    )
    return metrics, accounting


def end_to_end(lat, setups):
    """The five gated metrics from latencies and set-up times (seconds)."""
    tail_s, tail_pct = tail(lat)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, tail_pct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "zmx", "__init__.py")):
        print(f"error: no zmx sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("ZMX_ORDER_CAP", None)
    os.makedirs(WORK, exist_ok=True)

    meta = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if args.trace:
        wl = workloads.build(args.workload, args.seed, WORK)
        first = closed_loop(wl, args.seconds / 2, keep=True)
        rec = spans.Recorder()
        spanned = spans.install(rec)
        tally = replay(first.executed, rec)
        rec.write(os.path.join(WORK, f"spans-{args.workload}.tsv"))
        overhead = sum(tally.scaled()) / sum(first.scaled())
        metrics, accounting = layer_metrics(rec, spanned, sum(tally.latencies), overhead)
        per_cycle = first.ops_per_cycle
        attempted = len(first.latencies) + len(tally.latencies)
        failures = first.failures + tally.failures
        meta.update({
            "samples": {"per_layer": len(tally.latencies), "cli.import_s": SPAWN_PROBES,
                        "cli.spawn_p50_ms": SPAWN_PROBES},
            "cycles": first.cycles,
        })
        print(f"workload {args.workload}  seed {args.seed}  traced replay of {len(tally.latencies)}"
              f" operations")
        print(accounting)
    else:
        probe = setup_prober(args.workload, args.seed)
        wl = workloads.build(args.workload, args.seed, WORK)
        tally = closed_loop(wl, args.seconds, probe=probe)
        per_cycle = tally.ops_per_cycle
        attempted, failures = len(tally.latencies), tally.failures
        raw_setups = [sec for _, sec in tally.setups]
        setups = tally.scaled_setups()
        metrics, tail_pct = end_to_end(tally.scaled(), setups)
        unscaled, _ = end_to_end(tally.latencies, raw_setups)
        meta.update({
            "samples": {"ops_per_s": attempted, "op_p50_ms": attempted, "op_tail_ms": attempted,
                        "setup_s": len(setups), "peak_rss_mb": 1},
            "op_tail_percentile": tail_pct,
            "cycles": tally.cycles,
            "unscaled": {name: value for name, (value, _) in unscaled.items()},
            "setup_probes_s": raw_setups,
        })
        print(f"workload {args.workload}  seed {args.seed}  {tally.cycles} cycles of {per_cycle} operations")
        print(f"{'failed_ratio':40s} {len(failures) / attempted:.6g} ratio  ({len(failures)} of {attempted})")

    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{meta['op_tail_percentile']:.3f}: 11th largest of {attempted} samples)"
        elif name == "zclass.minors_bound":
            note = "  (upper bound: sweeps may stop early)"
        print(f"{name:40s} {value:.6g} {unit}{note}")
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)

    meta.update({
        "ops_per_cycle": per_cycle,
        "checks_per_cycle": getattr(wl, "checks_per_cycle", per_cycle),
        "kernel_s_median": statistics.median(tally.cal_s),
        "kernel_timings": len(tally.cal_s),
    })
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
