"""Inverse cyclic matrices and their bdsw inverses.

A square matrix with nonzero diagonal is *inverse cyclic* when its entries
satisfy three families of case-equations (all indices 1-based):

    a_ij = a_ik * a_kj / a_kk   for i < k < j
    a_ij = a_in * a_nj / a_nn   for j < i, i != n
    a_nj = a_n1 * a_1j / a_11   for j < n

Such a matrix is determined by its diagonal and the n hops of the cycle
1 -> 2 -> ... -> n -> 1, i.e. the super-diagonal and the (n,1) corner: every
entry is the walk along the cycle from i to j,

    a_ij = d_i * prod (h_k / d_k) over the hops k from i to j,

and from_cyclic_params builds from that walk. With a nonzero diagonal each
entry is its walk value exactly when every step of the walk holds,
a_(i,next(j)) * a_jj = a_ij * a_(j,next(j)), and is_inverse_cyclic checks
the steps on the integer grid G = L*A (both sides have degree two, so L
drops out). Writing d for the product of the diagonal and c for the cyclic
product of the hops:

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
from collections import namedtuple
from fractions import Fraction
from itertools import compress
from math import prod
from typing import Optional

from zmx.errors import NotInverseCyclicError, SingularMatrixError
from zmx.matrix import Matrix, inverse


class CyclicProducts(namedtuple("CyclicProducts", "d c")):
    """d, the product of the diagonal, and c, the cyclic product of the hops."""

    __slots__ = ()


class Verdict(enum.Enum):
    INVERSE_M = "InverseM"
    INVERSE_N = "InverseN"
    NEITHER = "Neither"


def is_full(a: Matrix) -> bool:
    """True when no entry is zero."""
    return all(all(row) for row in a._grid)


def _diag_hops(g) -> tuple[list, list]:
    """The diagonal and the n hops g_(i,i+1) of the cycle, the (n,1) corner last."""
    n = len(g)
    return [g[i][i] for i in range(n)], [g[i][(i + 1) % n] for i in range(n)]


def _cycle_grid(diag, hops) -> list[list]:
    """The rows holding diag on the diagonal and hop i at (i, i+1 mod n),
    zeros elsewhere: the inverse of _diag_hops. At n = 1 the diagonal wins."""
    n = len(diag)
    rows = [[0] * n for _ in range(n)]
    for i, (x, h) in enumerate(zip(diag, hops)):
        rows[i][(i + 1) % n] = h
        rows[i][i] = x
    return rows


def is_inverse_cyclic(a: Matrix) -> bool:
    """True when the diagonal is nonzero and every off-diagonal entry is the
    product its cycle walk gives, i.e. every step of the walk from each i
    holds. With a nonzero diagonal the case-equations force exactly these
    products, and the products satisfy every one of them. Stops at the
    first mismatch."""
    g = a._grid
    n = len(g)
    if not all(g[j][j] for j in range(n)):
        return False
    for i, row in enumerate(g):
        for t in range(i + 1, i + n - 1):
            j, k = t % n, (t + 1) % n
            if row[k] * g[j][j] != row[j] * g[j][k]:
                return False
    return True


def _cycle_products(g) -> tuple[int, int]:
    """D = the product of the grid's diagonal and C = the cyclic product of
    its hops (0 when n = 1): on G = L*A, d = D / L^n and c = C / L^n."""
    diag, hops = _diag_hops(g)
    return prod(diag), prod(hops) if len(g) > 1 else 0


def cyclic_products(a: Matrix) -> CyclicProducts:
    """d = product of the diagonal, c = the cyclic product (0 when n = 1)."""
    d, c = _cycle_products(a._grid)
    scale = a._lcm ** a.n
    return CyclicProducts(Fraction(d, scale), Fraction(c, scale))


def cyclic_det(a: Matrix) -> Fraction:
    """det A = (d - c)^(n-1) / d^(n-2) for inverse cyclic A, which on the grid
    G = L*A is (D - C)^(n-1) * D / (D^(n-1) * L^n), D != 0, at every n >= 1."""
    if not is_inverse_cyclic(a):
        raise NotInverseCyclicError("determinant formula needs the inverse cyclic property")
    d, c = _cycle_products(a._grid)
    n, lcm = a.n, a._lcm
    return Fraction((d - c) ** (n - 1) * d, d ** (n - 1) * lcm ** n)


def cyclic_inverse(a: Matrix) -> Matrix:
    """Closed-form inverse of a nonsingular inverse cyclic matrix.

    With r = d / (d - c) the nonzero entries of B = A^{-1} sit on the
    diagonal and the hops:

        b_ii = r / a_ii
        b_ij = -r * a_ij / (a_ii * a_jj)   for j = i+1 or (i,j) = (n,1)

    A*B = I is checked on the integer grids, column by column, over every
    nonzero of B, before returning (for square matrices over Q, A*B = I
    implies B*A = I); a failure would be a counterexample to the formula and
    raises ArithmeticError instead of handing back silently wrong data.
    """
    if not is_inverse_cyclic(a):
        raise NotInverseCyclicError("inverse formula needs the inverse cyclic property")
    d, c = _cycle_products(a._grid)
    if d == c:
        raise SingularMatrixError("d = c, the matrix is singular")
    # on G = L*A, r = D / (D - C); over D - C the entries are L * D / g_ii and
    # -L * g_ij * D / (g_ii * g_jj), integers (at n = 1 the diagonal wins)
    diag, hops = _diag_hops(a._grid)
    n, lcm = a.n, a._lcm
    b = Matrix._from_grid(d - c, _cycle_grid(
        [lcm * (d // x) for x in diag],
        [-lcm * h * (d // (diag[i] * diag[(i + 1) % n])) for i, h in enumerate(hops)]))
    # column j of G_A * G_B, the columns of G_A scaled by the nonzeros of
    # column j of G_B (a zero column gives zeros), must be L_A * L_B * e_j
    cols, one = list(zip(*a._grid)), lcm * b._lcm
    for j, bcol in enumerate(zip(*b._grid)):
        terms = compress(zip(bcol, cols), bcol)
        x, col = next(terms, (0, cols[0]))
        s = [x * v for v in col]
        for x, col in terms:
            s = [u + x * v for u, v in zip(s, col)]
        s[j] -= one
        if any(s):
            raise ArithmeticError("closed-form inverse failed the A*B = I verification")
    return b


def is_bdsw(a: Matrix) -> bool:
    """Nonzero diagonal, super-diagonal and (n,1) corner, zeros elsewhere.

    Defined for n >= 2. At n = 2 the pattern covers all four cells, so every
    entry must be nonzero.
    """
    n = a.n
    g = a._grid
    # for n >= 2 the 2n pattern cells are distinct: 2n nonzero cells in all,
    # and every pattern cell among them
    if n < 2 or sum(n - row.count(0) for row in g) != 2 * n:
        return False
    diag, hops = _diag_hops(g)
    return all(diag) and all(hops)


def roundtrip_check(a: Matrix, inv: Optional[Matrix] = None) -> bool:
    """Both directions of the structure theorem on one nonsingular matrix.

    Returns True when (is_full and is_inverse_cyclic) agrees with
    is_bdsw(inverse(a)); the theorem says it always does, so a False return
    is a counterexample. A caller that already holds inverse(a) may pass it
    as inv instead of having it computed again.
    """
    lhs = is_full(a) and is_inverse_cyclic(a)
    rhs = is_bdsw(inverse(a) if inv is None else inv)
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
    # D - C and the grid G = L*A have the signs of d - c and A, since L > 0
    d, c = _cycle_products(a._grid)
    e = d - c
    g = a._grid
    if all(x > 0 for row in g for x in row):
        if e > 0:
            return Verdict.INVERSE_M
        return Verdict.NEITHER
    if all(x < 0 for row in g for x in row):
        if (n % 2 == 0 and e < 0) or (n % 2 == 1 and e > 0):
            return Verdict.INVERSE_N
        return Verdict.NEITHER
    return Verdict.NEITHER
