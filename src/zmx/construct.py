"""Constructors for the structured families the toolkit studies.

from_cyclic_params rebuilds a full inverse cyclic matrix from its free
parameters (diagonal, super-diagonal, corner) by walking the cycle
1 -> ... -> n -> 1 over one integer denominator: every other entry is the
monomial the case-equations force. bdsw_matrix lays out the sparse pattern
directly. type_d builds the constant-on-L-shapes family a_ij = a_min(i,j)
from a strictly increasing parameter list, whose inverse is tridiagonal.
circulant_pz evaluates a polynomial in the cyclic shift matrix by laying out
the circulant it equals; circulant_conditions tests the parameter conditions
under which its inverse is a bdsw M- or N-matrix.

Each parameter enters once, through matrix._ratio, as a lowest-terms integer
pair, and every constructor and test reads them cleared to one denominator.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod
from typing import Sequence

from zmx.cyclic import _cycle_grid
from zmx.errors import ORDER_CAP
from zmx.matrix import Matrix, _cleared, _is_index, _ratio, inverse
from zmx.zclass import is_z, l_index


def _params(seq, name) -> list[tuple[int, int]]:
    return [_ratio(x, name) for x in seq]


def _cycle_params(diag: Sequence, sup: Sequence, corner) -> tuple[list, list]:
    """Lowest-terms pairs of the diagonal and hops (super-diagonal, then the
    corner) of an order n >= 2 cycle: n - 1 super-diagonal parameters and a
    nonzero diagonal."""
    d = _params(diag, "diag")
    hops = _params(sup, "super") + _params([corner], "corner")
    n = len(d)
    if n < 2:
        raise ValueError("need at least 2 diagonal parameters")
    if len(hops) != n:
        raise ValueError(f"expected {n - 1} super-diagonal parameters, got {len(hops) - 1}")
    if any(p == 0 for p, _ in d):
        raise ValueError("diagonal parameters must be nonzero")
    return d, hops


def _cycle_walk(diag, hops) -> Matrix:
    """The inverse cyclic matrix whose nonzero diagonal and hops (the corner
    last) are the lowest-terms pairs diag and hops: a_ij = d_i * prod h_k / d_k
    over the hops k from i to j. On integers d, h, row i of D*K*A, D = prod d,
    starts at D * d_i, and each hop's division by d_k is exact."""
    n = len(diag)
    if n < 2:
        raise ValueError("need at least 2 diagonal parameters")
    k, (d, h) = _cleared([diag, hops])
    big, steps, rows = prod(d), list(zip(h, d)) * 2, []
    for i, x in enumerate(d):
        walk = [big * x]  # the vertices i, i + 1, ..., i - 1 mod n
        for p, q in steps[i:i + n - 1]:
            walk.append(walk[-1] * p // q)
        rows.append(walk[n - i:] + walk[:n - i])
    return Matrix._from_grid(big * k, rows)


def _bdsw(diag, hops) -> Matrix:
    """The bdsw matrix whose diagonal and hops are the lowest-terms pairs."""
    if len(diag) < 2:
        raise ValueError("need at least 2 diagonal parameters")
    k, (d, h) = _cleared([diag, hops])
    return Matrix._from_grid(k, _cycle_grid(d, h))


def from_cyclic_params(diag: Sequence, sup: Sequence, corner) -> Matrix:
    """The inverse cyclic matrix with the given free parameters.

    diag must be nonzero throughout (length n >= 2), sup has length n-1 and
    may contain zeros, as may the corner. Entries off the three parameter
    positions are the monomials the case-equations force, so the result
    always satisfies is_inverse_cyclic.
    """
    return _cycle_walk(*_cycle_params(diag, sup, corner))


def bdsw_matrix(diag: Sequence, sup: Sequence, corner) -> Matrix:
    """bdsw pattern: given diagonal, super-diagonal and (n,1) corner, zeros elsewhere.

    All parameters must be nonzero and n >= 2; at n = 2 the four cells are
    exactly the four entries of the matrix.
    """
    d, hops = _cycle_params(diag, sup, corner)
    if any(p == 0 for p, _ in hops):
        raise ValueError("bdsw parameters must all be nonzero")
    return _bdsw(d, hops)


def type_d(a: Sequence) -> Matrix:
    """a_ij = a_min(i,j) for strictly increasing parameters a_1 < ... < a_n."""
    p = _params(a, "a")
    n = len(p)
    if n < 1:
        raise ValueError("need at least one parameter")
    # K > 0, so the cleared row g = K*a increases exactly when a does
    k, (g,) = _cleared([p])
    if any(cur <= prev for prev, cur in zip(g, g[1:])):
        raise ValueError("parameters must be strictly increasing")
    # a_ij = a_min(i,j): row i of the grid is g[:i], then g[i] to the end
    return Matrix._from_grid(k, [g[:i] + [g[i]] * (n - i) for i in range(n)])


class TypeDVerification(namedtuple("TypeDVerification", "tridiagonal z l_index_of_inverse")):
    """Whether the inverse is tridiagonal and Z; its L-band index, None unless Z."""

    __slots__ = ()


def _type_d_report(a: Sequence, cap: int) -> tuple[TypeDVerification, Matrix]:
    """type_d_verify's report, and the inverse of type_d(a) it reads."""
    # every parameter is read before a_1, so an inexact one still raises first
    a = list(a)
    if a and _params(a, "a")[0][0] == 0:
        raise ValueError("a_1 must be nonzero, the matrix would be singular")
    inv = inverse(type_d(a))
    z = is_z(inv)
    return TypeDVerification(is_tridiagonal(inv), z, l_index(inv, cap) if z else None), inv


def type_d_verify(a: Sequence, cap: int = ORDER_CAP) -> TypeDVerification:
    """Invert type_d(a) and report the structure of the inverse.

    Needs a_1 != 0 on top of strict increase (a_1 = 0 makes the matrix
    singular). The inverse of this family is tridiagonal and Z; the report
    carries its l_index, or None in the (unexpected) case the inverse is not Z.
    Only that l_index meets the order cap, and only below band n-2.
    """
    return _type_d_report(a, cap)[0]


def shift_matrix(n: int) -> Matrix:
    """Cyclic shift: ones on the super-diagonal and in the (n,1) corner."""
    if not _is_index(n, n):
        raise ValueError(f"order {n!r} is not a positive integer")
    # the circulant of Z itself: alpha_2 = 1, or alpha_1 = 1 when n = 1
    return circulant_pz([int(k == 1 % n) for k in range(n)])


def circulant_pz(alpha: Sequence) -> Matrix:
    """Evaluate alpha_1*I + alpha_2*Z + ... + alpha_n*Z^(n-1), Z the cyclic shift.

    Z^k holds ones at (i, i+k mod n), so the result is the circulant with
    entry (i, j) = alpha_((j - i) mod n): first row (alpha_1, ..., alpha_n)
    and every following row rotated one place right.
    """
    coeffs = _params(alpha, "alpha")
    n = len(coeffs)
    if n < 1:
        raise ValueError("need at least one coefficient")
    # row i of the grid is the first row rotated i places right
    k, (g,) = _cleared([coeffs])
    return Matrix._from_grid(k, [g[n - i:] + g[:n - i] for i in range(n)])


def circulant_conditions(alpha: Sequence, mode: str) -> bool:
    """Parameter test for circulants whose inverse is a bdsw M- or N-matrix.

    mode "nonneg" (all alpha >= 0): requires alpha_1 > alpha_2 > 0 and the
    power relation alpha_r = alpha_2^(r-1) / alpha_1^(r-2) for r = 3..n.
    mode "nonpos" (all alpha <= 0): requires alpha_2 < alpha_1 < 0 and the
    same power relation. A parameter list violating the mode's sign
    restriction is a caller error, not a False result.
    """
    coeffs = _params(alpha, "alpha")
    n = len(coeffs)
    if n < 2:
        raise ValueError("need at least two coefficients")
    # K > 0, so the cleared row g = K*alpha has alpha's signs and order
    _, (g,) = _cleared([coeffs])
    if mode == "nonneg":
        if any(x < 0 for x in g):
            raise ValueError("sign violation: nonneg mode requires all coefficients >= 0")
        if not (g[0] > g[1] > 0):
            return False
    elif mode == "nonpos":
        if any(x > 0 for x in g):
            raise ValueError("sign violation: nonpos mode requires all coefficients <= 0")
        if not (g[1] < g[0] < 0):
            return False
    else:
        raise ValueError(f"unknown mode {mode!r}, expected 'nonneg' or 'nonpos'")
    # the power relation times K^(r-2) * alpha_1^(r-2), which is nonzero
    return all(g[r - 1] * g[0] ** (r - 2) == g[1] ** (r - 1) for r in range(3, n + 1))


def is_tridiagonal(a: Matrix) -> bool:
    """Zero outside the three central diagonals (band entries may be anything)."""
    g = a._grid
    n = a.n
    return all(g[i][j] == 0 for i in range(n) for j in range(n) if abs(i - j) > 1)
