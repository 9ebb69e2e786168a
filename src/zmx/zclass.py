"""Z-matrix taxonomy decided by exact principal-minor signs.

A Z-matrix has nonpositive off-diagonal entries. Writing A = tI - B with B
nonnegative, the classes below are bands of t against the spectral radii of
B's principal submatrices, but every predicate here is decided without
eigenvalues, by exact sign conditions on A's own principal minors.

  nonsingular M  all 2^n - 1 principal minors > 0
  M (weak)       all principal minors >= 0
  N              n >= 2, minors of order < n all > 0, det < 0
  N0             minors of order < n all >= 0, det < 0
  F0             n >= 3, minors of order <= n-2 all >= 0, some
                 order-(n-1) minor < 0

l_index(A) = s locates the band: s = (minimal order of a negative principal
minor) - 1, or n when no minor is negative (s = n is M, s = n-1 is N0,
s = n-2 is F0). The top three bands are polynomial: every predicate runs one
O(n^3) fraction-free weak-M elimination of the whole matrix, and the tests
of is_n, is_n0 and is_f0 on principal submatrices (at most n, then C(n, 2)
pairs) continue from its recorded states. Only l_index and classify below
band n-2 run the exponential minor sweep, matrix._principal_minors read for
its signs, which alone meets the order cap (OrderCapError). It reads each
minor off its parent set's Bareiss-reduced grid in O(1) integer work, and is
the tests' oracle. perron_r, capped too, pins the band thresholds: the
largest spectral radius over order-r principal submatrices of a nonnegative
B, to a rational tolerance, on "tI - Bhat is weakly M iff t >= rho(Bhat)":
per submatrix, largest row sum first, Newton steps from above on its integer
characteristic polynomial narrow a bracket on a dyadic grid, and bisection
on that weak-M test closes and certifies it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterator, Optional

from zmx.digraph import digraph_of, is_irreducible
from zmx.errors import ORDER_CAP, NotZMatrixError, check_order_cap
from zmx.matrix import Matrix, _exact, _is_index, _principal_minors, det


def is_z(a: Matrix) -> bool:
    """True when every off-diagonal entry is <= 0."""
    g = a._grid  # the signs of A, since L > 0
    n = a.n
    return all(g[i][j] <= 0 for i in range(n) for j in range(n) if i != j)


class ZRepresentation(namedtuple("ZRepresentation", "t b")):
    """Split A = t*I - b of a Z-matrix, t a Fraction and the Matrix b
    entrywise nonnegative."""

    __slots__ = ()


def z_decompose(a: Matrix, t) -> ZRepresentation:
    """Split the Z-matrix a as t*I - B with B >= 0 entrywise.

    Any t at least the maximal diagonal entry works; smaller t would force a
    negative diagonal in B and is rejected.
    """
    if not is_z(a):
        raise NotZMatrixError("matrix has a positive off-diagonal entry")
    t = _exact(t, "t")
    max_diag = max(a.entry(i, i) for i in range(1, a.n + 1))
    if t < max_diag:
        raise ValueError(
            f"t = {t} is below the maximal diagonal entry {max_diag}; B would have a negative diagonal"
        )
    b = t * Matrix.identity(a.n) - a
    return ZRepresentation(t, b)


def _minor_signs(a: Matrix, max_order: Optional[int] = None) -> Iterator[tuple[int, int]]:
    """Yield (order, sign) for every principal minor up to max_order: orders
    ascending, and within an order the index sets in combinations order.

    The signs of matrix._principal_minors on the integer grid G = L*A;
    scaling by the positive integer L never changes a minor's sign.
    """
    for order, _, minor in _principal_minors(a._grid):
        if max_order is not None and order > max_order:
            return
        yield order, (minor > 0) - (minor < 0)


def _first_bad_minor(a: Matrix) -> Optional[int]:
    """Order of the first negative principal minor, or None: the bottom-up
    sweep, which stops there. It finds l_index below band n-2."""
    return next((order for order, s in _minor_signs(a) if s < 0), None)


def _weak_m(m, prev=1, done=0, states=None) -> tuple[bool, bool, Optional[int]]:
    """(weakly M, nonsingular M, bound) for the Z-matrix whose elimination
    state m (row lists, consumed) follows `done` pivots, the last one prev; a
    fresh test passes a copy of the grid. bound is None for weakly M input,
    and otherwise some principal minor of order at most bound is negative.

    The elimination pivots on the least positive diagonal entry left. After
    pivots on P, entry (i, j) is det A[P+i | P+j] (Sylvester), so a negative
    diagonal entry is a negative minor of order |P|+1. The Schur complement
    of the nonsingular-M block A[P] is again Z, and A is weakly M exactly
    when it is. Once its diagonal is all zero, it is weakly M exactly when
    its digraph is acyclic: vertices with no out-edge are peeled off until
    none is left. A cycle among the r left holds a chordless one, a negative
    minor of order at most |P|+r.

    A list passed as states gets (grid, prev, k) for each state met, k the
    position pivoted next and the grid left without row and column k: the
    state of A less that index after the same pivots. Where the test stops,
    k is None and the grid whole. A submatrix test continues from there.
    """
    while m:
        diag = [row[i] for i, row in enumerate(m)]
        pk = min(diag)
        if not pk:
            pk = min([x for x in diag if x], default=0)
        k = diag.index(pk) if pk > 0 else None
        if states is not None:
            states.append((m, prev, k))
        if k is None:
            break
        rk = m.pop(k)
        del rk[k]
        rows = []
        for ri in m:
            f = ri.pop(k)
            rows.append([(x * pk - f * y) // prev for x, y in zip(ri, rk)] if f else
                        [x * pk // prev for x in ri])
        m, prev, done = rows, pk, done + 1
    else:
        return True, True, None
    if pk < 0:
        return False, False, done + 1
    live, keep = None, list(range(len(m)))
    while keep != live:
        live, keep = keep, [i for i in keep if any(m[i][j] for j in keep)]
    return not live, False, done + len(live) if live else None


def _band(a: Matrix, low: int, cap: int = ORDER_CAP) -> tuple[int, bool]:
    """(s, strict): s is l_index(a) if that is at least low, else below low;
    for s >= n-1, strict tells whether every order-s principal submatrix is
    nonsingular M.

    Band k holds when every order-k principal submatrix is weakly M. Bands n,
    n-1 and n-2 are read from the top: one weak-M elimination of the whole
    matrix, then a test per index left out and one per pair of left-out
    indices whose own tests failed (a principal submatrix of a weakly M
    matrix is weakly M), each continued from the last state of that
    elimination holding its left-out indices. A failed test's bound fails
    every band at or above it. Below n-2 the capped sweep finds s; the
    predicates ask for low >= n-2, so they never reach the cap.
    """
    n, g = a.n, a._grid
    states = []
    weak, strict, bound = _weak_m([list(row) for row in g], states=states)
    if weak:
        return n, strict
    top = max(low, n - 2)  # the lowest band read from the top
    if top < bound:
        # the last state holding each index, and the indices of each kept grid
        last, labels, left = {}, [], list(range(n))
        for t, (_, _, k) in enumerate(states):
            last.update(dict.fromkeys(left, t))
            labels.append(left := [r for p, r in enumerate(left) if p != k])

        def without(out):
            t = min(last[r] for r in out)
            m, prev, _ = states[t]
            keep = [p for p, r in enumerate(labels[t]) if r not in out]
            return _weak_m([[m[i][j] for j in keep] for i in keep], prev, t)

        strict, failed = True, []
        for j in range(n):
            weak, nonsingular, b = without((j,))
            strict = strict and nonsingular
            if not weak:
                failed.append(j)
                bound = min(bound, b)
                if top >= bound:
                    break
        if not failed:
            return n - 1, strict
        if top < bound and all(without(pair)[0] for pair in combinations(failed, 2)):
            return n - 2, False
    if low > n - 3:
        return low - 1, False
    check_order_cap(n, cap)
    return _first_bad_minor(a) - 1, False


def is_nonsingular_m(a: Matrix) -> bool:
    """Z and every principal minor positive."""
    return is_z(a) and _band(a, a.n) == (a.n, True)


def is_m(a: Matrix) -> bool:
    """Z and every principal minor nonnegative (possibly singular M)."""
    return is_z(a) and _band(a, a.n)[0] == a.n


def is_n(a: Matrix) -> bool:
    """Z of order >= 2, proper principal minors all positive, det negative."""
    n = a.n
    return n >= 2 and is_z(a) and _band(a, n - 1) == (n - 1, True)


def is_n0(a: Matrix) -> bool:
    """Z, proper principal minors all nonnegative, det negative."""
    return is_z(a) and _band(a, a.n - 1)[0] == a.n - 1


def is_f0(a: Matrix) -> bool:
    """Z of order >= 3 whose order <= n-2 principal submatrices are all weakly
    M while some order-(n-1) principal submatrix is N0.

    Equivalently: minors of order <= n-2 all >= 0 and some order-(n-1) minor
    is negative. Returns False below order 3, where the class is not defined.
    """
    n = a.n
    return n >= 3 and is_z(a) and _band(a, n - 2)[0] == n - 2


def l_index(a: Matrix, cap: int = ORDER_CAP) -> int:
    """Band index s in 0..n for a Z-matrix.

    s = (minimal order of a negative principal minor) - 1, and s = n when no
    principal minor is negative. s = n means M, s = n-1 means N0, s = n-2
    means F0.
    """
    if not is_z(a):
        raise NotZMatrixError("l_index is defined for Z-matrices only")
    return _band(a, 0, cap)[0]


class ClassReport(namedtuple("ClassReport", "n is_z is_nonsingular determinant irreducible is_m "
                                             "is_nonsingular_m is_n is_n0 is_f0 l_index")):
    """classify's verdicts: the order, bools, the determinant as a Fraction
    and l_index, None unless the matrix is Z."""

    __slots__ = ()


def classify(a: Matrix, cap: int = ORDER_CAP) -> ClassReport:
    """Full taxonomy report from one band reading: weak-M tests from the
    top down to band n-2, the minor sweep below.

    Non-Z input still gets determinant, nonsingularity and irreducibility;
    the class flags are False and l_index is None there.
    """
    d = det(a)
    irr = is_irreducible(digraph_of(a))
    n = a.n
    if not is_z(a):
        return ClassReport(n, False, d != 0, d, irr, False, False, False, False, False, None)
    s, strict = _band(a, 0, cap)
    return ClassReport(
        n=n,
        is_z=True,
        is_nonsingular=d != 0,
        determinant=d,
        irreducible=irr,
        is_m=s == n,
        is_nonsingular_m=s == n and strict,
        is_n=n >= 2 and s == n - 1 and strict,
        is_n0=s == n - 1,
        is_f0=n >= 3 and s == n - 2,
        l_index=s,
    )


def _charpoly(g) -> list[int]:
    """Coefficients [1, c_1, ..., c_r] of det(xI - g) = sum c_i x^(r-i) for an
    r x r integer grid: Faddeev-LeVerrier, M_k = g M_(k-1) + c_(k-1) I and
    c_k = -tr(g M_k) / k, whose divisions are exact on integers."""
    r, coef = len(g), [1]
    gm = [[0] * r for _ in range(r)]  # g M_0
    for k in range(1, r + 1):
        for i in range(r):
            gm[i][i] += coef[-1]
        cols = list(zip(*gm))
        gm = [[sum(map(mul, row, col)) for col in cols] for row in g]
        coef.append(-sum(gm[i][i] for i in range(r)) // k)
    return coef


def perron_r(b: Matrix, r: int, tol=Fraction(1, 10**9), cap: int = ORDER_CAP) -> Fraction:
    """Largest spectral radius over the order-r principal submatrices of b.

    b must be entrywise nonnegative and 1 <= r <= n. The returned rational v
    sits within tol above the true maximum: rho <= v < rho + tol, certified
    by minor signs alone, no eigenvalue computation. A submatrix's value is
    the least point >= rho of its grid h * k / 2^K, h its largest row sum and
    K the first level with h / 2^K < tol. Largest h first, a weak-M test
    decides whether it can beat the best so far, unless a Collatz-Wielandt
    bound on rho already shows it cannot; Newton steps from above on
    its characteristic polynomial, increasing and convex right of rho
    (Gauss-Lucas), narrow the bracket, and bisection on weak-M tests closes
    and certifies it.
    """
    n = b.n
    if not _is_index(r, n):
        raise ValueError(f"submatrix order r = {r!r} outside 1..{n}")
    if any(x < 0 for row in b._grid for x in row):
        raise ValueError("matrix must be entrywise nonnegative")
    tol = _exact(tol, "tol")
    if tol <= 0:
        raise ValueError("tol must be positive")
    check_order_cap(n, cap)
    g, lcm = b._grid, b._lcm
    subs = ([[g[i][j] for j in combo] for i in combo] for combo in combinations(range(n), r))
    p, q = 0, 1  # the best value so far, p / q
    for s, sub in sorted(((max(map(sum, sub)), sub) for sub in subs), key=lambda x: -x[0]):
        if s * q <= p * lcm:  # h = s / L, and no later h is larger
            break
        depth = (s * tol.denominator // (lcm * tol.numerator)).bit_length()  # K
        neg = [[-x << depth for x in row] for row in sub]

        def weak(k):
            # tI - sub at t = h * k / 2^K, scaled by L * 2^K: s*k*I - 2^K * G
            m = [row[:] for row in neg]
            for i, row in enumerate(m):
                row[i] += s * k
            return _weak_m(m)[0]

        # h >= rho, so the top point passes; the first test, at the largest
        # point <= best, passes exactly when this submatrix cannot win. It is
        # skipped when the Collatz-Wielandt bound rho <= max (G x)_i / x_i,
        # x = (G + I) 1 > 0, already puts rho at or below that point
        lo, hi = (p * lcm << depth) // (q * s), 1 << depth
        x = [sum(row) + 1 for row in sub]
        if all(sum(map(mul, row, x)) << depth <= s * lo * xi
               for row, xi in zip(sub, x)) or weak(lo):
            continue
        # Newton on f(y) = det(yI - 2^K G) from y = s * hi >= 2^K rho lands in
        # [2^K rho, y); its coefficients are G's scaled by powers of 2^K
        coef = [c << depth * i for i, c in enumerate(_charpoly(sub))]
        while True:
            y, f, df = s * hi, 0, 0
            for c in coef:
                f, df = f * y + c, df * y + f
            # the step ceil((y f' - f) / (s f')), taken while it lands in (lo, hi)
            if not (f and df > 0 and lo < (step := -((f - y * df) // (s * df))) < hi):
                break
            hi = step
        if not weak(hi):
            hi = 1 << depth
        # probe hi - 1, hi - 2, hi - 4, ... until one fails, then halve: a simple
        # root fails the first; Newton stops a few points above a repeated one
        d = 1
        while hi - lo > 1:
            mid = max(hi - d, (lo + hi) // 2)
            lo, hi, d = (lo, mid, 2 * d) if weak(mid) else (mid, hi, d)
        p, q = s * hi, lcm << depth
    return Fraction(p, q)
