"""Inverse cyclic matrices and their bdsw inverses.

A square matrix with nonzero diagonal is *inverse cyclic* when its entries
satisfy three families of case-equations (all indices 1-based):

    a_ij = a_ik * a_kj / a_kk   for i < k < j
    a_ij = a_in * a_nj / a_nn   for j < i, i != n
    a_nj = a_n1 * a_1j / a_11   for j < n

Such a matrix is determined by its diagonal, super-diagonal and (n,1) corner;
every other entry is a monomial in those parameters. Writing d for the
product of the diagonal and c for the cyclic product
a_12 * a_23 * ... * a_(n-1)n * a_n1:

    det A = (d - c)^(n-1) / d^(n-2)

so A is singular exactly when d = c, and when d != c the inverse has the
*bdsw* zero pattern (nonzero diagonal, super-diagonal and (n,1) corner, zeros
elsewhere) with the closed form implemented in cyclic_inverse. For n = 1 the
cycle degenerates onto the diagonal; c is defined as 0 there, which keeps
every formula above valid.

bdsw_sign_classify packages the sign story: an entrywise positive inverse
cyclic matrix with d - c > 0 has a bdsw nonsingular M-matrix inverse, an
entrywise negative one has a bdsw N-matrix inverse when d - c < 0 (n even)
or d - c > 0 (n odd), and nothing else qualifies.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from zmx.errors import NotInverseCyclicError, SingularMatrixError
from zmx.matrix import Matrix, inverse


class CyclicProducts(NamedTuple):
    d: Fraction
    c: Fraction


class Verdict(enum.Enum):
    INVERSE_M = "InverseM"
    INVERSE_N = "InverseN"
    NEITHER = "Neither"


def is_full(a: Matrix) -> bool:
    """True when no entry is zero."""
    return all(x != 0 for row in a.rows for x in row)


def is_inverse_cyclic(a: Matrix) -> bool:
    """Check the case-equations directly (in product form, no division), in
    O(n^2): with a nonzero diagonal the upper-triangle equations through
    k = j - 1 make each a_ij (i < j) the product of the hops from i to j,
    which satisfies the equation through every i < k < j."""
    n = a.n
    rows = a.rows
    if any(rows[i][i] == 0 for i in range(n)):
        return False
    # upper triangle through k = j - 1: a_ij * a_kk == a_ik * a_kj
    for k in range(1, n - 1):
        akk = rows[k][k]
        akj = rows[k][k + 1]
        for i in range(k):
            if rows[i][k + 1] * akk != rows[i][k] * akj:
                return False
    # lower triangle rides through vertex n: a_ij * a_nn == a_in * a_nj
    last = n - 1
    ann = rows[last][last]
    for i in range(last):
        ain = rows[i][last]
        for j in range(i):
            if rows[i][j] * ann != ain * rows[last][j]:
                return False
    # last row rides through vertex 1: a_nj * a_11 == a_n1 * a_1j
    a11 = rows[0][0]
    an1 = rows[last][0]
    for j in range(1, last):
        if rows[last][j] * a11 != an1 * rows[0][j]:
            return False
    return True


def cyclic_products(a: Matrix) -> CyclicProducts:
    """d = product of the diagonal, c = the cyclic product (0 when n = 1)."""
    n = a.n
    rows = a.rows
    d = Fraction(1)
    for i in range(n):
        d *= rows[i][i]
    if n == 1:
        return CyclicProducts(d, Fraction(0))
    c = rows[n - 1][0]
    for i in range(n - 1):
        c *= rows[i][i + 1]
    return CyclicProducts(d, c)


def cyclic_det(a: Matrix) -> Fraction:
    """det A = (d - c)^(n-1) / d^(n-2) for inverse cyclic A."""
    if not is_inverse_cyclic(a):
        raise NotInverseCyclicError("determinant formula needs the inverse cyclic property")
    d, c = cyclic_products(a)
    n = a.n
    return (d - c) ** (n - 1) / d ** (n - 2)


def cyclic_inverse(a: Matrix) -> Matrix:
    """Closed-form inverse of a nonsingular inverse cyclic matrix.

    With e = d - c the nonzero entries of B = A^{-1} are

        b_ii = (prod of a_kk, k != i) / e
        b_ij = -a_ij * (prod of a_kk, k != i, j) / e   for j = i+1 or (i,j) = (n,1)

    Both products A*B and B*A are checked against the identity before
    returning; a failure would be a counterexample to the formula and raises
    ArithmeticError instead of handing back silently wrong data.
    """
    if not is_inverse_cyclic(a):
        raise NotInverseCyclicError("inverse formula needs the inverse cyclic property")
    d, c = cyclic_products(a)
    if d == c:
        raise SingularMatrixError("d = c, the matrix is singular")
    n = a.n
    rows = a.rows
    e = d - c
    # pre[i] and suf[i]: products of the diagonal before and from index i
    pre = [Fraction(1)]
    suf = [Fraction(1)]
    for i in range(n):
        pre.append(pre[-1] * rows[i][i])
        suf.append(suf[-1] * rows[n - 1 - i][n - 1 - i])
    suf.reverse()
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = pre[i] * suf[i + 1] / e
    for i in range(n - 1):
        out[i][i + 1] = -rows[i][i + 1] * pre[i] * suf[i + 2] / e
    if n >= 2:
        out[n - 1][0] = -rows[n - 1][0] * (pre[n - 1] / rows[0][0]) / e
    b = Matrix(out)
    ident = Matrix.identity(n)
    if a * b != ident or b * a != ident:
        raise ArithmeticError("closed-form inverse failed the A*B = I verification")
    return b


def is_bdsw(a: Matrix) -> bool:
    """Nonzero diagonal, super-diagonal and (n,1) corner, zeros elsewhere.

    Defined for n >= 2. At n = 2 the pattern covers all four cells, so every
    entry must be nonzero.
    """
    n = a.n
    if n < 2:
        return False
    rows = a.rows
    for i in range(n):
        for j in range(n):
            on_pattern = i == j or j == i + 1 or (i == n - 1 and j == 0)
            if on_pattern:
                if rows[i][j] == 0:
                    return False
            elif rows[i][j] != 0:
                return False
    return True


def roundtrip_check(a: Matrix) -> bool:
    """Both directions of the structure theorem on one nonsingular matrix.

    Returns True when (is_full and is_inverse_cyclic) agrees with
    is_bdsw(inverse(a)); the theorem says it always does, so a False return
    is a counterexample.
    """
    lhs = is_full(a) and is_inverse_cyclic(a)
    rhs = is_bdsw(inverse(a))
    return lhs == rhs


def bdsw_sign_classify(a: Matrix) -> Verdict:
    """Sign verdict: is the inverse a bdsw M-matrix, a bdsw N-matrix, or neither.

    InverseM: a entrywise positive, inverse cyclic, d - c > 0.
    InverseN: a entrywise negative, inverse cyclic, and d - c < 0 for even n,
    d - c > 0 for odd n. Everything else (including n = 1, where the bdsw
    pattern is undefined) is Neither.
    """
    n = a.n
    if n < 2 or not is_inverse_cyclic(a):
        return Verdict.NEITHER
    d, c = cyclic_products(a)
    e = d - c
    rows = a.rows
    if all(x > 0 for row in rows for x in row):
        if e > 0:
            return Verdict.INVERSE_M
        return Verdict.NEITHER
    if all(x < 0 for row in rows for x in row):
        if (n % 2 == 0 and e < 0) or (n % 2 == 1 and e > 0):
            return Verdict.INVERSE_N
        return Verdict.NEITHER
    return Verdict.NEITHER
