"""Z-matrix taxonomy decided by exact principal-minor signs.

A Z-matrix has nonpositive off-diagonal entries. Writing A = tI - B with B
nonnegative, the classes below are bands of t against the spectral radii of
B's principal submatrices, but every predicate here is decided without
eigenvalues: the band membership is equivalent to sign conditions on A's own
principal minors, which are exact over Fraction.

  nonsingular M  all 2^n - 1 principal minors > 0
  M (weak)       all principal minors >= 0
  N              n >= 2, minors of order < n all > 0, det < 0
  N0             minors of order < n all >= 0, det < 0
  F0             n >= 3, minors of order <= n-2 all >= 0, some
                 order-(n-1) minor < 0

l_index(A) = s locates the band: s = (minimal order of a negative principal
minor) - 1, or n when no minor is negative (s = n is M, s = n-1 is N0,
s = n-2 is F0). Minor enumeration is exponential, so these functions carry a
hard order cap; exceeding it raises OrderCapError. The sweep shares work
between nested index sets: each minor is O(1) integer work, read off its
parent set's Bareiss-reduced grid, plus one fraction-free grid step per set.
The perron_r bisection pins the band thresholds themselves: the largest
spectral radius over order-r principal submatrices of a nonnegative B, to
any requested rational tolerance, using only the minor test "tI - Bhat is
weakly M iff t >= rho(Bhat)". The bisection of a submatrix ends on a known
grid point, so one minor test at the grid point just below the best value so
far decides whether that submatrix could raise it; only those that could are
bisected, and the result is the same rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional

from zmx.digraph import digraph_of, is_irreducible
from zmx.errors import ORDER_CAP, NotZMatrixError, check_order_cap
from zmx.matrix import Matrix, _bareiss, det


def is_z(a: Matrix) -> bool:
    """True when every off-diagonal entry is <= 0."""
    g = a._grid  # the signs of A, since L > 0
    n = a.n
    return all(g[i][j] <= 0 for i in range(n) for j in range(n) if i != j)


@dataclass(frozen=True)
class ZRepresentation:
    """Split A = t*I - b of a Z-matrix, with b entrywise nonnegative."""

    t: Fraction
    b: Matrix


def z_decompose(a: Matrix, t) -> ZRepresentation:
    """Split the Z-matrix a as t*I - B with B >= 0 entrywise.

    Any t at least the maximal diagonal entry works; smaller t would force a
    negative diagonal in B and is rejected.
    """
    if not is_z(a):
        raise NotZMatrixError("matrix has a positive off-diagonal entry")
    if isinstance(t, float):
        raise TypeError("t must be exact (int, str or Fraction)")
    t = Fraction(t)
    max_diag = max(a.entry(i, i) for i in range(1, a.n + 1))
    if t < max_diag:
        raise ValueError(
            f"t = {t} is below the maximal diagonal entry {max_diag}; B would have a negative diagonal"
        )
    b = t * Matrix.identity(a.n) - a
    return ZRepresentation(t, b)


def _minor_signs(a: Matrix, max_order: Optional[int] = None) -> Iterator[tuple[int, int]]:
    """Yield (order, sign) for every principal minor: orders ascending, and
    within an order the index sets in combinations order.

    Signs are computed on the integer grid G = L*A; scaling by the positive
    integer L never changes a minor's sign. Each index set S keeps
    its Bareiss-reduced grid over the indices after max(S), whose entry
    (i, j) is det A[S+i | S+j] by Sylvester's identity. The minor of S+p is
    that grid's diagonal entry at p, and one fraction-free step, divided by
    det A[S], gives the grid of S+p. The step is undefined below a zero
    minor, so sets there are eliminated from scratch. A level's grids are
    built only once the next order is asked for.
    """
    n = a.n
    grid = a._grid
    top = n if max_order is None else min(max_order, n)
    # (index set, its grid or None, its minor) for the sets that have children
    level = [((), grid, 1)]
    for order in range(1, top + 1):
        grown = []
        for s, m, d in level:
            lo = s[-1] + 1 if s else 0
            for p in range(lo, n):
                t = s + (p,)
                if m is None:
                    minor = _bareiss([[grid[r][c] for c in t] for r in t])
                else:
                    minor = m[p - lo][p - lo]
                yield order, (minor > 0) - (minor < 0)
                if p + 1 < n:
                    grown.append((t, m if d else None, d, minor))
        if order == top:
            return
        level = []
        for t, m, d, minor in grown:
            if m is not None:
                # m spans the last len(m) indices; t's last index is row k
                k = t[-1] + len(m) - n
                rk = m[k]
                m = [[(ri[j] * minor - ri[k] * rk[j]) // d for j in range(k + 1, len(m))]
                     for ri in m[k + 1:]]
            level.append((t, m, minor))


def _first_bad_minor(a: Matrix, strict: bool = False) -> tuple[Optional[int], Optional[int]]:
    """The one taxonomy sweep: (order of the first negative minor, order of
    the first zero minor met before it), each None when there is none.

    Orders are swept ascending and the sweep stops at the first negative
    minor; with strict it also stops at the first zero minor, for callers
    that reject zeros anyway.
    """
    zero = None
    for order, s in _minor_signs(a):
        if s < 0:
            return order, zero
        if s == 0 and zero is None:
            if strict:
                return None, order
            zero = order
    return None, zero


def is_nonsingular_m(a: Matrix, cap: int = ORDER_CAP) -> bool:
    """Z and every principal minor positive."""
    if not is_z(a):
        return False
    check_order_cap(a.n, cap)
    return _first_bad_minor(a, strict=True) == (None, None)


def is_m(a: Matrix, cap: int = ORDER_CAP) -> bool:
    """Z and every principal minor nonnegative (possibly singular M)."""
    if not is_z(a):
        return False
    check_order_cap(a.n, cap)
    return _first_bad_minor(a)[0] is None


def is_n(a: Matrix, cap: int = ORDER_CAP) -> bool:
    """Z of order >= 2, proper principal minors all positive, det negative."""
    n = a.n
    if n < 2 or not is_z(a):
        return False
    check_order_cap(n, cap)
    return _first_bad_minor(a, strict=True) == (n, None)


def is_n0(a: Matrix, cap: int = ORDER_CAP) -> bool:
    """Z, proper principal minors all nonnegative, det negative."""
    if not is_z(a):
        return False
    check_order_cap(a.n, cap)
    return _first_bad_minor(a)[0] == a.n


def is_f0(a: Matrix, cap: int = ORDER_CAP) -> bool:
    """Z of order >= 3 whose order <= n-2 principal submatrices are all weakly
    M while some order-(n-1) principal submatrix is N0.

    Equivalently: minors of order <= n-2 all >= 0 and some order-(n-1) minor
    is negative. Returns False below order 3, where the class is not defined.
    """
    n = a.n
    if n < 3 or not is_z(a):
        return False
    check_order_cap(n, cap)
    return _first_bad_minor(a)[0] == n - 1


def l_index(a: Matrix, cap: int = ORDER_CAP) -> int:
    """Band index s in 0..n for a Z-matrix.

    s = (minimal order of a negative principal minor) - 1, and s = n when no
    principal minor is negative. s = n means M, s = n-1 means N0, s = n-2
    means F0.
    """
    if not is_z(a):
        raise NotZMatrixError("l_index is defined for Z-matrices only")
    check_order_cap(a.n, cap)
    neg = _first_bad_minor(a)[0]
    return a.n if neg is None else neg - 1


@dataclass(frozen=True)
class ClassReport:
    n: int
    is_z: bool
    is_nonsingular: bool
    determinant: Fraction
    irreducible: bool
    is_m: bool
    is_nonsingular_m: bool
    is_n: bool
    is_n0: bool
    is_f0: bool
    l_index: Optional[int]


def classify(a: Matrix, cap: int = ORDER_CAP) -> ClassReport:
    """Full taxonomy report from one minor sweep, which stops at the first
    negative minor.

    Non-Z input still gets determinant, nonsingularity and irreducibility;
    the class flags are False and l_index is None there.
    """
    d = det(a)
    irr = is_irreducible(digraph_of(a))
    n = a.n
    if not is_z(a):
        return ClassReport(n, False, d != 0, d, irr, False, False, False, False, False, None)
    check_order_cap(n, cap)
    neg, zero = _first_bad_minor(a)
    return ClassReport(
        n=n,
        is_z=True,
        is_nonsingular=d != 0,
        determinant=d,
        irreducible=irr,
        is_m=neg is None,
        is_nonsingular_m=neg is None and zero is None,
        is_n=n >= 2 and neg == n and zero is None,
        is_n0=neg == n,
        is_f0=n >= 3 and neg == n - 1,
        l_index=n if neg is None else neg - 1,
    )


def _is_weak_m_shift(bhat: Matrix, t: Fraction) -> bool:
    # tI - bhat is a Z-matrix for any nonnegative bhat
    shifted = t * Matrix.identity(bhat.n) - bhat
    return _first_bad_minor(shifted)[0] is None


def _rho_bisect(bhat: Matrix, tol: Fraction) -> Fraction:
    """Spectral radius of the nonnegative matrix bhat, to within tol above.

    Uses the monotone exact test rho(bhat) <= t iff tI - bhat has all
    principal minors >= 0; brackets with [0, max row sum].
    """
    lo = Fraction(0)
    if _is_weak_m_shift(bhat, lo):
        return lo
    hi = Fraction(max(map(sum, bhat._grid)), bhat._lcm)
    while hi - lo >= tol:
        mid = (lo + hi) / 2
        if _is_weak_m_shift(bhat, mid):
            hi = mid
        else:
            lo = mid
    return hi


def perron_r(b: Matrix, r: int, tol=Fraction(1, 10**9), cap: int = ORDER_CAP) -> Fraction:
    """Largest spectral radius over the order-r principal submatrices of b.

    b must be entrywise nonnegative and 1 <= r <= n. The returned rational v
    sits within tol above the true maximum: rho <= v < rho + tol, certified
    by minor signs alone, no eigenvalue computation. It is exactly the
    largest _rho_bisect value over the submatrices; a submatrix whose value
    cannot exceed the best so far is skipped after at most one minor test.
    """
    n = b.n
    check_order_cap(n, cap)
    if not (1 <= r <= n):
        raise ValueError(f"submatrix order r = {r} outside 1..{n}")
    if any(x < 0 for row in b._grid for x in row):
        raise ValueError("matrix must be entrywise nonnegative")
    if isinstance(tol, float):
        raise TypeError("tol must be exact (int, str or Fraction)")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = b._grid
    best = Fraction(0)
    for combo in combinations(range(n), r):
        sub = Matrix._from_grid(b._lcm, [[g[i][j] for j in combo] for i in combo])
        if best:
            # _rho_bisect(sub, tol) ends on the smallest point >= rho of the
            # grid h * k / 2^K, K the first level with h / 2^K < tol, so it
            # cannot beat best when rho is at most the largest grid point
            # <= best; at best = 0 that test is the bisection's own first
            h = Fraction(max(map(sum, sub._grid)), sub._lcm)
            if h <= best:
                continue
            step = h / 2 ** (h // tol).bit_length()
            if _is_weak_m_shift(sub, best // step * step):
                continue
        best = max(best, _rho_bisect(sub, tol))
    return best
