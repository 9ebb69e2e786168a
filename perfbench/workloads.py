"""The four zmx benchmark workloads: inputs, operations and their checks.

A workload is built from a seed and hands out its operations one cycle at a
time. Every operation is a zero-argument call into zmx plus a check on its
result. Calls look functions up on the zmx modules at call time, so the
traced run sees the wrappers that spans.py installs there.

Inputs come from this file's own generators (plain ``random.Random`` and
``Fraction``), not from ``zmx.sampling``, so a change to the library's
samplers cannot change what the benchmark feeds it. The exception is the
campaigns workload, whose inputs are the library's own seeded campaign
draws: that traffic is the point of the workload.

Each schedule below is a fixed list of operation kinds. The seed changes the
values, never the list, so two seeds give the same operation and check
counts per cycle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


class Op:
    """One timed call and the check run on its result outside the timing."""

    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def matrix_text(rows) -> str:
    """The matrix file format the CLI reads; also the key for recorded digests."""
    n = len(rows)
    return f"{n}\n" + "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ inputs


def small_rational(rng, lo, hi, *, nonzero=False):
    """Integer in [lo, hi], a quarter of the time halved."""
    while True:
        num = rng.randint(lo, hi)
        if num or not nonzero:
            return Fraction(num, 2) if rng.randrange(4) == 0 else Fraction(num)


def nonsingular(rows) -> bool:
    """det != 0, decided modulo a large prime after clearing row denominators.

    A nonzero residue proves the rational determinant is nonzero; the
    generators redraw on a zero residue, which at worst rejects a few
    nonsingular matrices. Independent of zmx on purpose.
    """
    p = (1 << 61) - 1
    m = []
    for row in rows:
        scale = 1
        for x in row:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
        m.append([(x.numerator * (scale // x.denominator)) % p for x in row])
    n = len(m)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return False
        m[k], m[piv] = m[piv], m[k]
        inv = pow(m[k][k], p - 2, p)
        for r in range(k + 1, n):
            f = m[r][k] * inv % p
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[k])]
    return True


def dense(rng, n, coprime):
    """Dense entries in [-9, 9]; with coprime, denominators from {1, 2, 3, 5, 7}."""
    while True:
        if coprime:
            rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7))) for _ in range(n)]
                    for _ in range(n)]
        else:
            rows = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        if nonsingular(rows):
            return rows


def dense_nonzero(rng, n):
    """Dense with every entry nonzero, so the digraph is complete."""
    while True:
        rows = [[Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))) for _ in range(n)]
                for _ in range(n)]
        if nonsingular(rows):
            return rows


def bdsw_rows(rng, n, *, z_signed=False):
    """bdsw pattern: diagonal, super-diagonal and (n,1) corner, zeros elsewhere."""
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = small_rational(rng, -3, 3, nonzero=True)
        for i in range(n - 1):
            rows[i][i + 1] = -small_rational(rng, 1, 3) if z_signed else small_rational(rng, -3, 3, nonzero=True)
        rows[n - 1][0] = -small_rational(rng, 1, 3) if z_signed else small_rational(rng, -3, 3, nonzero=True)
        if nonsingular(rows):
            return rows


def shifted_z(rng, n, *, dominant):
    """t*I - B with B >= 0. dominant puts t above every row sum (nonsingular M);
    otherwise t is uniform in [0, max row sum], which lands in any band."""
    b = [[small_rational(rng, 0, 3) for _ in range(n)] for _ in range(n)]
    top = max(sum(row) for row in b)
    t = top + 1 if dominant else Fraction(rng.randint(0, 4 * int(top)), 4)
    return [[(t if i == j else 0) - b[i][j] for j in range(n)] for i in range(n)]


def type_d_inverse(rng, n, pattern):
    """Inverse of the type-D matrix a_ij = a_min(i,j), in closed form.

    With d_1 = a_1 and d_k = a_k - a_(k-1) the inverse is tridiagonal:
    diagonal 1/d_k + 1/d_(k+1) (just 1/d_n at the end), off-diagonal
    -1/d_(k+1). The parameter patterns put it in N (all negative), N0 (top
    parameter zero) or F0 (second from top zero).
    """
    if pattern == "N":
        vals = sorted(rng.sample(range(-n - 7, 0), n))
    elif pattern == "N0":
        vals = sorted(rng.sample(range(-n - 7, 0), n - 1)) + [0]
    else:
        vals = sorted(rng.sample(range(-n - 7, 0), n - 2)) + [0, rng.randint(1, 4)]
    d = [Fraction(vals[0])] + [Fraction(vals[k] - vals[k - 1]) for k in range(1, n)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = 1 / d[k] + (1 / d[k + 1] if k + 1 < n else 0)
        if k + 1 < n:
            rows[k][k + 1] = rows[k + 1][k] = -1 / d[k + 1]
    return rows


def nonneg(rng, n):
    return [[Fraction(rng.randint(0, 3)) for _ in range(n)] for _ in range(n)]


def cyclic_params(rng, n):
    """Nonzero diagonal, super-diagonal and corner with d != c (nonsingular)."""
    while True:
        diag = [small_rational(rng, -4, 4, nonzero=True) for _ in range(n)]
        sup = [small_rational(rng, -4, 4, nonzero=True) for _ in range(n - 1)]
        corner = small_rational(rng, -3, 3, nonzero=True)
        d = c = Fraction(1)
        for x in diag:
            d *= x
        for x in sup:
            c *= x
        if d != c * corner:
            return diag, sup, corner


# --------------------------------------------------------------- campaigns

# (theorem, n_lo, n_hi, trials, checks per trial, repeats per cycle).
# Per-trial cost differs about 150x across (campaign, order) pairs, so each
# block's trial count brings its operation to some 15 to 60 ms at the commit
# that defined the benchmark, one cluster for the median. The repeat counts
# give each block about its share of the Tier-1 acceptance run's time
# (tests/test_acceptance.py), as perfbench/shares.py measured it; a cycle is
# 160 blocks, a scaled-down acceptance run of some 4.6 s. NOTES.md lists
# the shares. zclass-oracles keeps 16 trials from order 4 on, the period of
# its draw pattern. maybee is one block over the acceptance range 2..10:
# its 9 trials reach every bdsw order, and a block at one order above 5 has
# no dense order to draw.
CAMPAIGN_BLOCKS = (
    ("det-formula", 2, 2, 250, 1, 1),
    ("det-formula", 3, 3, 165, 1, 2),
    ("det-formula", 4, 4, 105, 1, 3),
    ("det-formula", 5, 5, 70, 1, 4),
    ("det-formula", 6, 6, 45, 1, 6),
    ("det-formula", 7, 7, 34, 1, 8),
    ("det-formula", 8, 8, 25, 1, 12),
    ("cycle-matrix", 2, 2, 68, 2, 2),
    ("cycle-matrix", 3, 3, 34, 2, 5),
    ("cycle-matrix", 4, 4, 21, 2, 8),
    ("cycle-matrix", 5, 5, 17, 2, 9),
    ("cycle-matrix", 6, 6, 10, 2, 14),
    ("cycle-matrix", 7, 7, 6, 2, 20),
    ("bdsw-z", 2, 2, 69, 3, 1),
    ("bdsw-z", 3, 3, 39, 3, 1),
    ("bdsw-z", 4, 4, 24, 3, 1),
    ("bdsw-z", 5, 5, 15, 3, 1),
    ("bdsw-z", 6, 6, 9, 3, 2),
    ("bdsw-z", 7, 7, 6, 3, 2),
    ("zclass-oracles", 1, 1, 240, 3, 1),
    ("zclass-oracles", 2, 2, 88, 4, 1),
    ("zclass-oracles", 3, 3, 40, 5, 1),
    ("zclass-oracles", 4, 4, 24, 5, 1),
    ("zclass-oracles", 5, 5, 16, 5, 1),
    ("zclass-oracles", 6, 6, 16, 5, 2),
    ("type-d", 3, 3, 175, 1, 1),
    ("type-d", 4, 4, 95, 1, 2),
    ("type-d", 5, 5, 50, 1, 3),
    ("type-d", 6, 6, 25, 1, 6),
    ("type-d", 7, 7, 15, 1, 12),
    ("polyn", 3, 3, 32, 4, 1),
    ("polyn", 4, 4, 16, 4, 1),
    ("polyn", 5, 5, 9, 4, 2),
    ("polyn", 6, 6, 5, 4, 3),
    ("polyn", 7, 7, 3, 4, 5),
    ("polyn", 8, 8, 2, 4, 8),
    ("maybee", 2, 10, 9, 2, 7),
)


class Campaigns:
    """The seven run_verify campaigns at their acceptance orders, in blocks.

    Each operation is one run_verify call on one order (maybee: its whole
    order range) with a block seed drawn from the workload seed, so every
    cycle replays fresh trials. A cycle runs each block its repeat count of
    times, the blocks interleaved round by round. Correct means no failures
    and the expected check count.
    """

    checks_per_cycle = sum(block[3] * block[4] * block[5] for block in CAMPAIGN_BLOCKS)

    def __init__(self, seed):
        import zmx.verify

        self.verify = zmx.verify
        self.seed = seed

    def cycle(self, k):
        rng = random.Random(f"campaigns|{self.seed}|{k}")
        rounds = max(block[5] for block in CAMPAIGN_BLOCKS)
        return [
            self._op(block, rng.getrandbits(40))
            for r in range(rounds)
            for block in CAMPAIGN_BLOCKS
            if r < block[5]
        ]

    def _op(self, block, block_seed):
        theorem, lo, hi, trials, per_trial, _ = block
        verify = self.verify

        def call():
            return verify.run_verify(theorem, lo, hi, trials, block_seed)

        def check(summary):
            return not summary.failures and summary.checks == trials * per_trial

        return Op(f"{theorem}:{lo}..{hi}", call, check)


# ------------------------------------------------------------- enumeration

POOL_VARIANTS = 24

# Matrix slots of one cycle: (band, order). Each slot gives seven operations
# on one matrix: classify, then the five class predicates and l_index. The
# bands cover M, N, N0 and F0 with full minor sweeps, plus "mixed" (shifted
# t*I - B with t anywhere, partial sweeps) and Z-signed bdsw (early exits).
# Order 10 holds about 40% of the operations, with about 35% below it, so
# the median falls inside the order-10 cluster rather than between the
# clusters of two orders.
ENUM_SLOTS = (
    ("M", 8),
    ("F0", 9), ("mixed", 9),
    ("M", 10), ("N", 10), ("N0", 10), ("F0", 10), ("mixed", 10), ("M", 10),
    ("F0", 11), ("mixed", 11), ("bdsw", 11),
    ("mixed", 12),
)
# Tail slots: all-entry maybee_entry on dense orders 6 and 7, and perron_r
# (order, r, tolerance 10**-digits) on small nonnegative matrices. maybee at
# 7 and perron at (7, 4) to 20 digits cost about the same and appear twice a
# cycle each, so a 20 s run holds well over ten of them and the tail falls
# inside their shared cluster.
ENUM_TAIL = (
    ("maybee", 7), ("perron", 7, 4, 20), ("maybee", 6), ("perron", 6, 4, 9),
    ("maybee", 7), ("perron", 7, 4, 20),
)


def enum_pool():
    """Every candidate input of the enumeration workload, fixed and seed-free.

    Returns {slot index: [rows of each variant]}. Slot indices run over
    ENUM_SLOTS then ENUM_TAIL. The recorded digests in expected.json are
    keyed by matrix text, so the pool must not depend on the run seed.
    """
    pool = {}
    for s, (band, n) in enumerate(ENUM_SLOTS):
        variants = []
        for v in range(POOL_VARIANTS):
            rng = random.Random(f"enumeration|{s}|{band}|{n}|{v}")
            if band == "M":
                rows = shifted_z(rng, n, dominant=True)
            elif band == "mixed":
                rows = shifted_z(rng, n, dominant=False)
            elif band == "bdsw":
                rows = bdsw_rows(rng, n, z_signed=True)
            else:
                rows = type_d_inverse(rng, n, band)
            variants.append(rows)
        pool[s] = variants
    for t, (what, n, *_) in enumerate(ENUM_TAIL):
        s = len(ENUM_SLOTS) + t
        variants = []
        for v in range(POOL_VARIANTS):
            rng = random.Random(f"enumeration|{s}|{what}|{n}|{v}")
            variants.append(dense_nonzero(rng, n) if what == "maybee" else nonneg(rng, n))
        pool[s] = variants
    return pool


def report_text(r) -> str:
    """Canonical text of a ClassReport, the thing the recorded digest covers."""
    flags = (r.is_z, r.is_nonsingular, r.irreducible, r.is_m, r.is_nonsingular_m,
             r.is_n, r.is_n0, r.is_f0)
    return f"{r.n}|{r.determinant}|{r.l_index}|" + "".join("1" if f else "0" for f in flags)


def perron_key(text, r, digits) -> str:
    return f"{digest(text)}|{r}|{digits}"


PREDICATES = ("is_m", "is_nonsingular_m", "is_n", "is_n0", "is_f0", "l_index")


class Enumeration:
    """Taxonomy sweeps on Z-matrices of orders 8 to 12, plus the path and
    Perron tails. The seed picks which pool variant fills each slot in each
    cycle, a fresh permutation per slot, so no input repeats within
    POOL_VARIANTS cycles.
    """

    def __init__(self, seed):
        import zmx.digraph
        import zmx.matrix
        import zmx.zclass

        self.zclass, self.digraph, self.matrix = zmx.zclass, zmx.digraph, zmx.matrix
        expected = load_expected()
        self.reports = expected["enumeration"]
        self.perron = expected["perron"]
        Matrix = zmx.matrix.Matrix
        self.pool = {
            s: [(Matrix(rows), matrix_text(rows)) for rows in variants]
            for s, variants in enum_pool().items()
        }
        rng = random.Random(f"enumeration|{seed}")
        self.order = {s: rng.sample(range(POOL_VARIANTS), POOL_VARIANTS) for s in self.pool}

    def _pick(self, s, k):
        return self.pool[s][self.order[s][k % POOL_VARIANTS]]

    def cycle(self, k):
        ops = []
        for s, (band, n) in enumerate(ENUM_SLOTS):
            a, text = self._pick(s, k)
            ops.extend(self._sweep_ops(f"{band}{n}", a, text))
        for t, (what, n, *perron) in enumerate(ENUM_TAIL):
            a, text = self._pick(len(ENUM_SLOTS) + t, k)
            ops.append(self._maybee_op(a, n) if what == "maybee" else self._perron_op(a, text, n, *perron))
        return ops

    def _sweep_ops(self, label, a, text):
        zclass = self.zclass
        want = self.reports.get(digest(text))
        seen = {}

        def classify():
            return zclass.classify(a)

        def check_report(r):
            seen["report"] = r
            return digest(report_text(r)) == want

        ops = [Op(f"classify:{label}", classify, check_report)]
        for name in PREDICATES:
            ops.append(self._predicate_op(label, name, a, seen))
        return ops

    def _predicate_op(self, label, name, a, seen):
        zclass = self.zclass

        def call():
            return getattr(zclass, name)(a)

        def check(value):
            r = seen.get("report")
            return r is not None and value == getattr(r, name)

        return Op(f"{name}:{label}", call, check)

    def _maybee_op(self, a, n):
        digraph, matrix = self.digraph, self.matrix

        def call():
            return [[digraph.maybee_entry(a, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]

        def check(entries):
            return tuple(map(tuple, entries)) == matrix.inverse(a).rows

        return Op(f"maybee:{n}", call, check)

    def _perron_op(self, a, text, n, r, digits):
        zclass = self.zclass
        tol = Fraction(1, 10**digits)
        want = self.perron.get(perron_key(text, r, digits))

        def call():
            return zclass.perron_r(a, r, tol)

        return Op(f"perron:{n}/{r}", call, lambda v: str(v) == want)


# ------------------------------------------------------------- large-order

# One cycle, in order: (kind, order, coprime denominators). At the commit
# that defined the benchmark, dense order 18 (about 0.1 s) sits in the
# middle of the cycle's cost ranking, with the cheaper bdsw, coprime and
# order-32 cyclic operations below it and the order-24 and order-64 ones
# above, so the median falls inside its cluster. Dense order 24 (about
# 0.5 s, four a cycle) holds the tail; the order-64 cyclic chain costs about
# the same. About a quarter of the dense inputs carry pairwise-coprime
# denominators.
LARGE_SCHEDULE = (
    ("dense", 18, False), ("cyclic", 32, None), ("dense", 16, True), ("dense", 18, False),
    ("bdsw", 18, None), ("dense", 18, False), ("dense", 24, False), ("dense", 24, False),
    ("dense", 18, False), ("cyclic", 32, None), ("dense", 16, True), ("dense", 18, False),
    ("bdsw", 18, None), ("dense", 18, False), ("dense", 16, True), ("dense", 24, False),
    ("dense", 24, False), ("cyclic", 64, None),
)


class LargeOrder:
    """Invert-and-certify on dense and bdsw inputs, and the closed-form cyclic
    chain. Inputs are drawn fresh for every cycle from the seed."""

    def __init__(self, seed):
        import zmx.construct
        import zmx.cyclic
        import zmx.matrix

        self.matrix, self.cyclic, self.construct = zmx.matrix, zmx.cyclic, zmx.construct
        self.seed = seed

    def cycle(self, k):
        rng = random.Random(f"large-order|{self.seed}|{k}")
        Matrix = self.matrix.Matrix
        ops = []
        for kind, n, coprime in LARGE_SCHEDULE:
            if kind == "cyclic":
                ops.append(self._cyclic_op(n, *cyclic_params(rng, n)))
            else:
                rows = dense(rng, n, coprime) if kind == "dense" else bdsw_rows(rng, n)
                label = f"{kind}{n}" + ("-coprime" if coprime else "")
                ops.append(self._invert_op(label, Matrix(rows)))
        return ops

    def _invert_op(self, label, a):
        matrix = self.matrix

        def call():
            d = matrix.det(a)
            b = matrix.inverse(a)
            return d, b, a * b == matrix.Matrix.identity(a.n)

        def check(res):
            d, b, identity = res
            return identity and d * matrix.det(b) == 1

        return Op(f"invert:{label}", call, check)

    def _cyclic_op(self, n, diag, sup, corner):
        construct, cyclic, matrix = self.construct, self.cyclic, self.matrix

        def call():
            a = construct.from_cyclic_params(diag, sup, corner)
            return a, cyclic.is_inverse_cyclic(a), cyclic.cyclic_inverse(a)

        def check(res):
            a, is_cyclic, b = res
            return (
                is_cyclic
                and cyclic.is_bdsw(b)
                and a * b == matrix.Matrix.identity(n)
                and matrix.det(a) * matrix.det(b) == 1
            )

        return Op(f"cyclic-chain:{n}", call, check)


# --------------------------------------------------------------------- cli

CLI_ORDERS = (4, 5, 6, 7, 8)
CLI_KINDS = ("dense", "z", "cyclic", "bdsw")
# Fixed inputs per slot. A 20 s run makes 60 to 95 cycles at the commit that
# defined the benchmark, and each cycle takes the next variant of a
# seed-chosen permutation, so no file is read twice by the same command in a
# run. A cache kept across main() calls would see no repeats, as real
# one-shot calls would not. Past CLI_VARIANTS cycles ("cycles" in the run
# metadata) inputs start to repeat.
CLI_VARIANTS = 128
CLI_COMMANDS = (("classify",), ("classify", "--json"), ("invert",), ("cyclic-check",), ("digraph",))
# Once a cycle, the heaviest one-shot: the path-formula inverse of an order-6
# inverse cyclic file (complete digraph, about 35 ms at the commit that
# defined the benchmark). With 60 to 95 of them a run, the tail falls
# inside their cluster instead of on the rarest scheduling hiccups among
# thousands of 1-5 ms calls.
CLI_HEAVY = (("invert", "--method", "maybee"), "cyclic6")
CLI_GEN = (
    ("typed", lambda rng: ["--params=" + ",".join(str(v) for v in sorted(rng.sample(range(-9, 10), 7)))]),
    ("cyclic", lambda rng: _gen_params(rng, 6)),
    ("bdsw", lambda rng: _gen_params(rng, 6)),
    ("circulant", lambda rng: ["--alpha=" + ",".join(str(rng.randint(-4, 4)) for _ in range(6))]),
)


def _gen_params(rng, n):
    diag, sup, corner = cyclic_params(rng, n)
    return ["--diag=" + ",".join(map(str, diag)), "--super=" + ",".join(map(str, sup)), f"--corner={corner}"]


CLI_SLOTS = tuple((kind, n) for n in CLI_ORDERS for kind in CLI_KINDS)


def cli_commands(kind, n):
    """The command words run on every file of one slot, in recorded order."""
    heavy, heavy_slot = CLI_HEAVY
    return CLI_COMMANDS + ((heavy,) if f"{kind}{n}" == heavy_slot else ())


def cli_text(kind, n, v) -> str:
    """Matrix file text of variant v of one slot; fixed and seed-free."""
    from zmx.construct import from_cyclic_params

    rng = random.Random(f"cli|{kind}|{n}|{v}")
    if kind == "dense":
        rows = [[small_rational(rng, -5, 5) for _ in range(n)] for _ in range(n)]
    elif kind == "z":
        rows = shifted_z(rng, n, dominant=rng.randrange(2) == 0)
    elif kind == "cyclic":
        rows = from_cyclic_params(*cyclic_params(rng, n)).rows
    else:
        rows = bdsw_rows(rng, n)
    return matrix_text(rows)


def cli_gen_argv(family_index, v):
    family, params = CLI_GEN[family_index]
    return ["gen", family] + params(random.Random(f"cli|gen|{family}|{v}"))


def cli_outcome(code, out) -> str:
    return f"{code}:{digest(out)[:12]}"


def run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


class Cli:
    """In-process zmx.cli.main calls on fixed files of order 4 to 8.

    Every call is a one-shot on a tiny input, so argparse, parsing and report
    building dominate. The seed orders which fixed file fills each slot in
    each cycle; a cycle's files are written before it starts, untimed. Exit
    codes and stdout are checked against digests recorded in expected.json:
    for a file, keyed by a digest of its text, one outcome per command of
    cli_commands; for a gen line, keyed by a digest of the line.
    """

    def __init__(self, seed, workdir):
        import zmx.cli

        self.cli = zmx.cli
        self.expected = load_expected()["cli"]
        self.workdir = os.path.join(workdir, "cli")
        os.makedirs(self.workdir, exist_ok=True)
        rng = random.Random(f"cli|{seed}")
        slots = len(CLI_SLOTS) + len(CLI_GEN)
        self.order = [rng.sample(range(CLI_VARIANTS), CLI_VARIANTS) for _ in range(slots)]

    def cycle(self, k):
        ops = []
        for s, (kind, n) in enumerate(CLI_SLOTS):
            v = self.order[s][k % CLI_VARIANTS]
            text = cli_text(kind, n, v)
            path = os.path.join(self.workdir, f"{kind}{n}-{v}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            wants = self.expected.get(digest(text), "").split()
            for c, words in enumerate(cli_commands(kind, n)):
                want = wants[c] if c < len(wants) else None
                ops.append(self._op(f"{' '.join(words)}:{kind}{n}", list(words) + [path], want))
        for g in range(len(CLI_GEN)):
            argv = cli_gen_argv(g, self.order[len(CLI_SLOTS) + g][k % CLI_VARIANTS])
            ops.append(self._op(f"gen:{argv[1]}", argv, self.expected.get(digest(" ".join(argv)))))
        return ops

    def _op(self, label, argv, want):
        cli = self.cli

        def call():
            return run_cli(cli.main, argv)

        def check(res):
            return cli_outcome(*res) == want

        return Op(label, call, check)


def build(name, seed, workdir):
    if name == "campaigns":
        return Campaigns(seed)
    if name == "enumeration":
        return Enumeration(seed)
    if name == "large-order":
        return LargeOrder(seed)
    if name == "cli":
        return Cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("campaigns", "enumeration", "large-order", "cli")
