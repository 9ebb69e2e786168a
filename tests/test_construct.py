"""Constructor families: type-D, parametric inverse cyclic, bdsw layout,
and circulants in the shift matrix."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmx import (
    ORDER_CAP,
    Matrix,
    OrderCapError,
    Verdict,
    bdsw_matrix,
    bdsw_sign_classify,
    circulant_conditions,
    circulant_pz,
    cyclic_products,
    det,
    from_cyclic_params,
    inverse,
    is_bdsw,
    is_inverse_cyclic,
    is_n,
    is_nonsingular_m,
    is_tridiagonal,
    shift_matrix,
    type_d,
    type_d_verify,
)
from zmx.construct import _cycle_walk
from zmx.matrix import _cleared
from zmx.sampling import random_inverse_cyclic


def mk(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


F = Fraction


def test_type_d_layout():
    assert type_d([1, 2, 3, 4]) == mk([
        [1, 1, 1, 1],
        [1, 2, 2, 2],
        [1, 2, 3, 3],
        [1, 2, 3, 4],
    ])
    assert type_d([-4, -3, -2, -1]) == mk([
        [-4, -4, -4, -4],
        [-4, -3, -3, -3],
        [-4, -3, -2, -2],
        [-4, -3, -2, -1],
    ])
    # general positions: entry (i, j) is the parameter with the smaller index
    a = [F(1, 2), F(3, 4), F(7, 8), F(9, 8)]
    m = type_d(a)
    for i in range(1, 5):
        for j in range(1, 5):
            assert m.entry(i, j) == a[min(i, j) - 1]


def test_type_d_requires_strict_increase():
    with pytest.raises(ValueError):
        type_d([1, 1, 2])
    with pytest.raises(ValueError):
        type_d([2, 1])
    type_d([5])  # single parameter is vacuously increasing
    with pytest.raises(ValueError, match="at least one parameter"):
        type_d([])


def test_type_d_verify_goldens():
    r = type_d_verify([1, 2, 3, 4])
    assert r.tridiagonal and r.z and r.l_index_of_inverse == 4
    assert is_nonsingular_m(inverse(type_d([1, 2, 3, 4])))

    r = type_d_verify([-4, -3, -2, -1])
    assert r.tridiagonal and r.z and r.l_index_of_inverse == 3
    assert is_n(inverse(type_d([-4, -3, -2, -1])))

    # parameters straddle zero: two nonpositive, so the band index is 1
    r = type_d_verify([-2, -1, 1, 2])
    assert r.tridiagonal and r.z and r.l_index_of_inverse == 1

    with pytest.raises(ValueError):
        type_d_verify([0, 1, 2])


def test_type_d_verify_caps_only_the_minor_sweep():
    # the inverse and the top bands are polynomial and run above the cap
    n = ORDER_CAP + 1
    r = type_d_verify(range(1, n + 1))
    assert r.tridiagonal and r.z and r.l_index_of_inverse == n
    assert type_d_verify(range(-n, 0)).l_index_of_inverse == n - 1
    # four nonpositive parameters put the band at 3, below n - 2: a sweep
    with pytest.raises(OrderCapError):
        type_d_verify(range(-3, n - 3))
    assert type_d_verify(range(-3, n - 3), cap=n).l_index_of_inverse == 3


def test_type_d_verify_l_index_tracks_nonpositive_count():
    rng = random.Random(404)
    for _ in range(40):
        n = rng.randint(2, 6)
        while True:
            vals = sorted(rng.sample(range(-9, 10), n))
            if vals[0] != 0:
                break
        s = sum(1 for v in vals if v <= 0)
        r = type_d_verify(vals)
        assert r.tridiagonal and r.z
        assert r.l_index_of_inverse == (n if s == 0 else s - 1)


def test_from_cyclic_params_goldens():
    assert from_cyclic_params([2, 1, -2, 1], [-2, 2, 0], 2) == mk([
        [2, -2, -4, 0],
        [0, 1, 2, 0],
        [0, 0, -2, 0],
        [2, -2, -4, 1],
    ])
    assert from_cyclic_params([1, 1, 1], [0, 0], 0) == Matrix.identity(3)
    assert from_cyclic_params([1, 1, -1], [-1, 1], 2) == mk([
        [1, -1, -1],
        [-2, 1, 1],
        [2, -2, -1],
    ])


def pair_walk(diag, hops):
    """Reference walk: every entry a (numerator, denominator) pair, each hop
    multiplying both by the hop's ratio h_k / d_k, cleared at the end."""
    n = len(diag)
    ratios = [(hp * dq, hq * dp) for (hp, hq), (dp, dq) in zip(hops, diag)]
    cells = [[x] * n for x in diag]
    for i, row in enumerate(cells):
        p, q = row[i]
        for t in range(i + 1, i + n):
            rp, rq = ratios[(t - 1) % n]  # the hop into vertex t % n
            p, q = p * rp, q * rq
            row[t % n] = (p, q)
    return Matrix._from_grid(*_cleared(cells))


def lowest_pairs(draw, n, numerators):
    xs = [Fraction(draw(st.sampled_from(numerators)), draw(st.sampled_from((1, 2, 3, 5, 7))))
          for _ in range(n)]
    return [(x.numerator, x.denominator) for x in xs]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cycle_walk_matches_the_pair_walk(data):
    # orders 2-64; negative parameters, zero hops and coprime denominators
    n = data.draw(st.integers(2, 64))
    diag = lowest_pairs(data.draw, n, (-4, -3, -1, 1, 2, 4))
    hops = lowest_pairs(data.draw, n, (-3, -2, -1, 0, 1, 3))
    assert _cycle_walk(diag, hops) == pair_walk(diag, hops)


def test_from_cyclic_params_always_cyclic_and_extraction_round_trips():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randint(2, 7)
        a = random_inverse_cyclic(rng, n)
        assert is_inverse_cyclic(a)
        diag = [a.entry(i, i) for i in range(1, n + 1)]
        sup = [a.entry(i, i + 1) for i in range(1, n)]
        corner = a.entry(n, 1)
        assert from_cyclic_params(diag, sup, corner) == a


def test_from_cyclic_params_rejections():
    with pytest.raises(ValueError):
        from_cyclic_params([1, 0, 1], [1, 1], 1)
    with pytest.raises(ValueError):
        from_cyclic_params([1, 2], [1, 1], 1)  # super-diagonal length
    with pytest.raises(ValueError):
        from_cyclic_params([1], [], 0)  # needs order 2
    with pytest.raises(TypeError):
        from_cyclic_params([1.0, 2.0], [1.0], 1.0)


def test_bdsw_matrix_goldens():
    assert bdsw_matrix([-1, -1, 1], [-1, -1], -2) == mk([
        [-1, -1, 0],
        [0, -1, -1],
        [-2, 0, 1],
    ])
    assert bdsw_matrix([1, 1], [1], 1) == mk([[1, 1], [1, 1]])
    m = bdsw_matrix([1, 2, 3, 4], [5, 6, 7], 8)
    assert is_bdsw(m)
    # starred pattern: nonzero exactly on diagonal, super-diagonal, corner
    for i in range(1, 5):
        for j in range(1, 5):
            on = i == j or j == i + 1 or (i, j) == (4, 1)
            assert (m.entry(i, j) != 0) == on


def test_bdsw_matrix_rejections():
    with pytest.raises(ValueError):
        bdsw_matrix([1, 0], [1], 1)
    with pytest.raises(ValueError):
        bdsw_matrix([1, 2], [0], 1)
    with pytest.raises(ValueError):
        bdsw_matrix([1, 2], [1], 0)
    with pytest.raises(ValueError):
        bdsw_matrix([1], [], 1)  # no n=1 pattern


def test_shift_matrix_layout():
    z = shift_matrix(4)
    assert z == mk([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    # columns are e^n, e^1, ..., e^(n-1)
    for j in range(2, 5):
        col = [z.entry(i, j) for i in range(1, 5)]
        assert col == [1 if i == j - 1 else 0 for i in range(1, 5)]
    assert [z.entry(i, 1) for i in range(1, 5)] == [0, 0, 0, 1]
    assert shift_matrix(1) == Matrix.identity(1)
    for n in (0, 2.0, True):
        with pytest.raises(ValueError, match="not a positive integer"):
            shift_matrix(n)


def test_circulant_layout_goldens():
    assert circulant_pz([1, 0, 0]) == Matrix.identity(3)
    with pytest.raises(ValueError, match="at least one coefficient"):
        circulant_pz([])
    assert circulant_pz([-1, -2, -4]) == mk([
        [-1, -2, -4],
        [-4, -1, -2],
        [-2, -4, -1],
    ])
    assert circulant_pz([2, 1, F(1, 2)]) == mk([
        [2, 1, F(1, 2)],
        [F(1, 2), 2, 1],
        [1, F(1, 2), 2],
    ])


def test_circulant_is_polynomial_in_shift_and_commutes():
    rng = random.Random(99)
    for _ in range(15):
        n = rng.randint(2, 6)
        alpha = [F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n)]
        a = circulant_pz(alpha)
        z = shift_matrix(n)
        acc = Matrix.zeros(n)
        power = Matrix.identity(n)
        for c in alpha:
            acc = acc + c * power
            power = power * z
        assert a == acc
        assert z * a == a * z
        # row r is row 1 rotated right r-1 places
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert a.entry(i, j) == alpha[(j - i) % n]


def test_circulant_conditions_goldens():
    assert circulant_conditions([2, 1, F(1, 2)], "nonneg")
    inv = inverse(circulant_pz([2, 1, F(1, 2)]))
    assert is_bdsw(inv) and is_nonsingular_m(inv)

    assert circulant_conditions([-1, -2, -4], "nonpos")
    a = circulant_pz([-1, -2, -4])
    assert cyclic_products(a) == (F(-1), F(-8))
    assert bdsw_sign_classify(a) is Verdict.INVERSE_N
    inv = inverse(a)
    assert is_bdsw(inv) and is_n(inv)

    assert not circulant_conditions([-1, -2, -5], "nonpos")
    assert not circulant_conditions([1, 2, 4], "nonneg")  # inequality reversed
    assert not circulant_conditions([-2, -2, -2], "nonpos")  # degenerate pair


def test_circulant_conditions_rejections():
    with pytest.raises(ValueError):
        circulant_conditions([2, 1, -1], "nonneg")
    with pytest.raises(ValueError):
        circulant_conditions([-1, -2, 1], "nonpos")
    with pytest.raises(ValueError):
        circulant_conditions([2, 1], "sideways")
    with pytest.raises(ValueError):
        circulant_conditions([2], "nonneg")


def test_is_tridiagonal_cases():
    assert is_tridiagonal(Matrix.identity(4))
    assert not is_tridiagonal(bdsw_matrix([1, 1, 1], [1, 1], 1))
    assert is_tridiagonal(inverse(type_d([1, 2, 3, 4])))
    assert is_tridiagonal(mk([[1, 1], [1, 1]]))
    assert not is_tridiagonal(mk([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))
