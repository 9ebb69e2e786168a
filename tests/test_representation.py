"""The canonical integer-grid representation of Matrix.

A Matrix holds (L, G): L > 0 the lcm of the entry denominators and G = L*A
an integer grid. These tests check every operation that works on G against
a plain reference over tuples of Fraction written in this file, check that
the pair is canonical whatever route built it, and check that the hot paths
never build the Fraction rows of a matrix.
"""

import math
from fractions import Fraction
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from zmx import (
    Matrix,
    SingularMatrixError,
    cyclic_inverse,
    cyclic_products,
    det,
    from_cyclic_params,
    inverse,
    is_inverse_cyclic,
    run_verify,
)

# zero-heavy small rationals, so zero pivots, sparse products and singular
# matrices are common
SMALL = st.builds(
    Fraction, st.sampled_from((0, 0, 0, 1, -1, 2, -3)), st.sampled_from((1, 2, 3, 5, 7))
)
NONZERO = SMALL.filter(bool)
SCALAR = st.one_of(st.integers(-3, 3), SMALL)


def grid_of(draw, n, entries=SMALL):
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


@st.composite
def grid_pair(draw):
    n = draw(st.integers(1, 7))
    return grid_of(draw, n), grid_of(draw, n)


# ------------------------------------------------------------- the reference

def ref_mul(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
                       for j in range(n)) for i in range(n))


def ref_det_inverse(a):
    """Gauss-Jordan on [A | I] with Fraction pivots: (det A, A^-1), the
    inverse None when A is singular."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    d = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            d = -d
        p = aug[col][col]
        d *= p
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return d, tuple(tuple(row[n:]) for row in aug)


def ref_walk(diag, hops):
    """Entry (i, j) of the inverse cyclic matrix: d_i times h_k / d_k over
    the hops k on the cycle from i to j, one Fraction per cell."""
    n = len(diag)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        acc = diag[i]
        rows[i][i] = acc
        for t in range(i + 1, i + n):
            k = (t - 1) % n
            acc = acc * hops[k] / diag[k]
            rows[i][t % n] = acc
    return tuple(map(tuple, rows))


def ref_is_inverse_cyclic(a):
    n = len(a)
    diag = [a[i][i] for i in range(n)]
    if 0 in diag:
        return False
    return a == ref_walk(diag, [a[i][(i + 1) % n] for i in range(n)])


def ref_str(a):
    cells = [[str(x) for x in row] for row in a]
    widths = [max(len(r[j]) for r in cells) for j in range(len(a))]
    return "\n".join(" ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells)


def assert_canonical(m):
    lcm, grid = m._lcm, m._grid
    assert lcm > 0
    assert math.gcd(lcm, *chain.from_iterable(grid)) == 1
    assert lcm == math.lcm(*(x.denominator for row in m.rows for x in row))
    assert grid == tuple(tuple(int(x * lcm) for x in row) for row in m.rows)


def assert_same(m, ref):
    """m holds exactly the Fraction grid ref, in canonical form."""
    assert m.rows == ref
    assert_canonical(m)
    assert m == Matrix(ref) and hash(m) == hash(Matrix(ref))


# ------------------------------------------------------------------- tests

@settings(max_examples=200, deadline=None)
@given(grid_pair(), SCALAR)
def test_arithmetic_matches_the_fraction_reference(pair, k):
    ra, rb = pair
    a, b = Matrix(ra), Matrix(rb)
    n = a.n
    assert_same(a, ra)
    assert_same(a * b, ref_mul(ra, rb))
    assert_same(a + b, tuple(tuple(x + y for x, y in zip(p, q)) for p, q in zip(ra, rb)))
    assert_same(a - b, tuple(tuple(x - y for x, y in zip(p, q)) for p, q in zip(ra, rb)))
    assert_same(-a, tuple(tuple(-x for x in row) for row in ra))
    scaled = tuple(tuple(k * x for x in row) for row in ra)
    assert_same(a * k, scaled)
    assert_same(k * a, scaled)
    assert_same(a.transpose(), tuple(zip(*ra)))
    assert (a == b) == (ra == rb)
    assert str(a) == ref_str(ra)
    assert eval(repr(a), {"Matrix": Matrix}) == a
    assert all(a.entry(i + 1, j + 1) == ra[i][j] and a[i + 1, j + 1] == ra[i][j]
               for i in range(n) for j in range(n))
    assert all(type(x) is Fraction for row in a.rows for x in row)


@settings(max_examples=200, deadline=None)
@given(grid_pair())
def test_det_and_inverse_match_the_fraction_reference(pair):
    ra, _ = pair
    a = Matrix(ra)
    d = det(a)
    want_d, want = ref_det_inverse(ra)
    assert type(d) is Fraction and d == want_d
    assert (want is None) == (d == 0)
    if want is None:
        try:
            inverse(a)
        except SingularMatrixError:
            return
        raise AssertionError("inverse of a singular matrix returned")
    b = inverse(a)
    assert_same(b, want)
    # the same matrix by three routes: inverse, product, constructor
    assert inverse(b) == a and hash(inverse(b)) == hash(a)
    assert a * Matrix.identity(a.n) == a and hash(a * Matrix.identity(a.n)) == hash(a)
    assert_canonical(a * b)
    assert a * b == Matrix.identity(a.n) == b * a


@st.composite
def cyclic_params(draw):
    n = draw(st.integers(2, 7))
    return ([draw(NONZERO) for _ in range(n)], [draw(SMALL) for _ in range(n - 1)],
            draw(SMALL))


@settings(max_examples=200, deadline=None)
@given(cyclic_params(), st.integers(0, 48), SMALL)
def test_cyclic_functions_match_the_fraction_reference(params, cell, value):
    diag, sup, corner = params
    n = len(diag)
    want = ref_walk(diag, sup + [corner])
    m = from_cyclic_params(diag, sup, corner)
    assert_same(m, want)
    assert is_inverse_cyclic(m) and ref_is_inverse_cyclic(want)
    assert cyclic_products(m) == (math.prod(diag), math.prod(sup) * corner)
    assert all(type(x) is Fraction for x in cyclic_products(m))
    # one cell redrawn: both sides must agree on the verdict
    i, j = divmod(cell % (n * n), n)
    rows = [list(row) for row in want]
    rows[i][j] = value
    bent = tuple(map(tuple, rows))
    assert is_inverse_cyclic(Matrix(bent)) == ref_is_inverse_cyclic(bent)
    assert cyclic_products(Matrix(bent)) == (
        math.prod(bent[k][k] for k in range(n)), math.prod(bent[k][(k + 1) % n] for k in range(n)))


def test_equal_matrices_share_one_pair_whatever_the_route():
    halves = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    routes = [
        Matrix.identity(2),
        Matrix([[1, "0"], [Fraction(0), "2/2"]]),
        halves + halves,
        halves * 2,
        2 * halves,
        inverse(Matrix([[2, 0], [0, 2]])) * Matrix([[2, 0], [0, 2]]),
        inverse(inverse(Matrix.identity(2))),
        Matrix.zeros(2) - (-Matrix.identity(2)),
        from_cyclic_params([1, 1], [0], 0),
    ]
    for m in routes:
        assert m == routes[0] and hash(m) == hash(routes[0])
        assert (m._lcm, m._grid) == (1, ((1, 0), (0, 1)))
    assert (halves._lcm, halves._grid) == (2, ((1, 0), (0, 1)))
    # a negative last pivot still leaves L > 0
    neg = inverse(Matrix([[0, 1], [1, 0]]) * Fraction(-3, 2))
    assert (neg._lcm, neg._grid) == (3, ((0, -2), (-2, 0)))
    assert Matrix.zeros(3)._lcm == 1 and (Matrix.identity(3) * 0)._lcm == 1


def test_hot_paths_never_build_fraction_rows(monkeypatch):
    # an inverse cyclic matrix whose entries are all integers, so no
    # denominator forces Fractions anywhere but in the few returned values
    a = Matrix([[2, -2, -4, 0], [0, 1, 2, 0], [0, 0, -2, 0], [2, -2, -4, 1]])
    want = (det(a), inverse(a).rows, is_inverse_cyclic(a), cyclic_products(a),
            cyclic_inverse(a).rows)

    def refuse(*args):
        raise AssertionError("a hot path built the Fraction rows of a matrix")

    for name in ("rows", "entry", "__getitem__", "__str__", "__repr__"):
        monkeypatch.setattr(Matrix, name, property(refuse) if name == "rows" else refuse)
    fresh = Matrix([[2, -2, -4, 0], [0, 1, 2, 0], [0, 0, -2, 0], [2, -2, -4, 1]])
    inv, closed = inverse(fresh), cyclic_inverse(fresh)
    got = (det(fresh), inv, is_inverse_cyclic(fresh), cyclic_products(fresh), closed)
    # the oracle campaign reads entry signs and row sums off the grid
    summary = run_verify("zclass-oracles", 1, 6, 8, 0)
    monkeypatch.undo()
    assert got[:1] + (got[1].rows,) + got[2:4] + (got[4].rows,) == want
    assert summary.ok and summary.checks == 5 * 8
