"""Symbolic proofs of the paper's identities at small orders.

The campaigns check the identities on random rational draws; here sympy
proves them for all parameters, on symbols d_1..d_n and h_1..h_n, at the
orders named below, so a campaign failure points at the code rather than
at the theorem. Each proof is tied to the code by one rational point: the
symbolic matrix, evaluated there, is what the zmx constructor builds.

- Forward direction, n = 2..5: the cycle walk's matrix A, a_ij = d_i * prod
  h_k / d_k over the hops k from i to j, has det A = (d - c)^(n-1) / d^(n-2)
  (d the product of the diagonal, c that of the hops), and A * B = I for
  the closed form B of cyclic_inverse.
- Backward direction, n = 2..6: the inverse of a bdsw matrix meets every
  walk step of is_inverse_cyclic and has a nonzero diagonal.
- Type D, n = 2..6: the inverse of a_ij = a_min(i,j) is tridiagonal, with
  1/delta_k + 1/delta_(k+1) on the diagonal (1/delta_n last) and
  -1/delta_(k+1) at (k, k+1) and (k+1, k), where delta_k = a_k - a_(k-1)
  and a_0 = 0.

The circulant power relation and the sign conditions of bdsw_sign_classify
are not proven here.
"""

from fractions import Fraction

import pytest

from zmx import (
    Matrix,
    bdsw_matrix,
    cyclic_inverse,
    det,
    from_cyclic_params,
    inverse,
    type_d,
)

sympy = pytest.importorskip("sympy")


def symbols(name, n):
    # nonzero, so that sympy may cancel by them
    return sympy.symbols(f"{name}1:{n + 1}", nonzero=True)


def vanishes(expr) -> bool:
    return sympy.cancel(sympy.together(expr)) == 0


def point(n, shift):
    """A rational point with no zero coordinate, for the n symbols of one kind."""
    return [Fraction(k + shift, k + 2) * (-1) ** k for k in range(1, n + 1)]


def value(expr, values) -> Fraction:
    """expr evaluated at values, a {symbol: Fraction} map."""
    return Fraction(str(expr.subs({s: sympy.Rational(v.numerator, v.denominator)
                                   for s, v in values.items()})))


def at(m, values) -> Matrix:
    """The symbolic matrix m evaluated at values."""
    return Matrix([[value(x, values) for x in row] for row in m.tolist()])


def cycle_walk(d, h):
    """a_ij = d_i * prod h_k / d_k over the hops k from i to j along the cycle."""
    n = len(d)
    rows = []
    for i in range(n):
        row = [None] * n
        x = row[i] = d[i]
        for t in range(i, i + n - 1):
            x = x * h[t % n] / d[t % n]
            row[(t + 1) % n] = x
        rows.append(row)
    return sympy.Matrix(rows)


def bdsw(d, h):
    """d on the diagonal and h_i at (i, i+1), the corner h_n at (n, 1)."""
    n = len(d)
    m = sympy.zeros(n, n)
    for i in range(n):
        m[i, (i + 1) % n] = h[i]
        m[i, i] = d[i]
    return m


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cycle_walk_determinant_and_closed_form_inverse(n):
    d, h = symbols("d", n), symbols("h", n)
    a = cycle_walk(d, h)
    dd, c = sympy.prod(d), sympy.prod(h)
    formula = (dd - c) ** (n - 1) / dd ** (n - 2)
    assert vanishes(a.det(method="berkowitz") - formula)
    r = dd / (dd - c)
    b = bdsw([r / x for x in d], [-r * a[i, (i + 1) % n] / (d[i] * d[(i + 1) % n]) for i in range(n)])
    assert all(vanishes(x) for x in a * b - sympy.eye(n))
    # the constructor and the closed form in the code are these matrices
    values = dict(zip(d, point(n, 1))) | dict(zip(h, point(n, 3)))
    built = from_cyclic_params(point(n, 1), point(n, 3)[:-1], point(n, 3)[-1])
    assert built == at(a, values)
    assert det(built) == value(formula, values)
    assert cyclic_inverse(built) == at(b, values)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bdsw_inverse_meets_every_walk_step(n):
    d, h = symbols("x", n), symbols("y", n)
    m = bdsw(d, h)
    inv = m.adjugate(method="berkowitz") / m.det(method="berkowitz")
    assert all(not vanishes(inv[j, j]) for j in range(n))
    # is_inverse_cyclic's step from i through j: a_(i,j+1) * a_jj = a_ij * a_(j,j+1)
    for i in range(n):
        for t in range(i + 1, i + n - 1):
            j, k = t % n, (t + 1) % n
            assert vanishes(inv[i, k] * inv[j, j] - inv[i, j] * inv[j, k])
    values = dict(zip(d, point(n, 1))) | dict(zip(h, point(n, 3)))
    built = bdsw_matrix(point(n, 1), point(n, 3)[:-1], point(n, 3)[-1])
    assert built == at(m, values) and inverse(built) == at(inv, values)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_type_d_inverse_is_the_delta_tridiagonal(n):
    a = symbols("a", n)
    m = sympy.Matrix(n, n, lambda i, j: a[min(i, j)])
    delta = [a[0]] + [a[k] - a[k - 1] for k in range(1, n)]
    t = sympy.zeros(n, n)
    for k in range(n):
        t[k, k] = 1 / delta[k] + (1 / delta[k + 1] if k + 1 < n else 0)
        if k + 1 < n:
            t[k, k + 1] = t[k + 1, k] = -1 / delta[k + 1]
    assert all(vanishes(x) for x in m * t - sympy.eye(n))
    params = [Fraction(k * k + 1, 3) for k in range(n)]
    values = dict(zip(a, params))
    assert type_d(params) == at(m, values) and inverse(type_d(params)) == at(t, values)
