"""End-to-end acceptance: the printed golden examples exactly, the seven
seeded theorem campaigns at full scale, and the Perron bisection bracket.
One test per criterion; each campaign must report zero failures."""

import random
from fractions import Fraction
from itertools import combinations

from zmx import (
    IndexSet,
    Matrix,
    Verdict,
    bdsw_sign_classify,
    cyclic_inverse,
    inverse,
    is_bdsw,
    is_inverse_cyclic,
    is_m,
    is_n,
    is_z,
    l_index,
    perron_r,
    run_verify,
    submatrix,
)
from zmx.sampling import random_nonneg


def mk(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


def scaled(k, rows):
    return Fraction(1, k) * mk(rows)


def test_golden_examples_exact():
    a3 = mk([[1, -1, -1], [-2, 1, 1], [2, -2, -1]])
    assert inverse(a3) == mk([[-1, -1, 0], [0, -1, -1], [-2, 0, 1]])

    c3 = mk([[1, -1, -1], [-2, 1, 1], [2, 2, -1]])
    assert inverse(c3) == scaled(3, [[-3, -3, 0], [0, 1, 1], [-6, -4, -1]])
    assert not is_inverse_cyclic(c3)

    p5 = mk([
        [4, 4, 8, 4, 4],
        [1, 2, 4, 2, 2],
        [1, 1, 4, 2, 2],
        [2, 2, 4, 4, 4],
        [2, 2, 4, 2, 4],
    ])
    assert cyclic_inverse(p5) == scaled(4, [
        [2, -4, 0, 0, 0],
        [0, 4, -4, 0, 0],
        [0, 0, 2, -1, 0],
        [0, 0, 0, 2, -2],
        [-1, 0, 0, 0, 2],
    ])
    assert bdsw_sign_classify(p5) is Verdict.INVERSE_M

    n4 = mk([[-2, -2, -4, -8], [-4, -1, -2, -4], [-2, -2, -1, -2], [-2, -2, -4, -2]])
    n4_inv = scaled(6, [[1, -2, 0, 0], [0, 2, -4, 0], [0, 0, 2, -2], [-1, 0, 0, 1]])
    assert inverse(n4) == n4_inv
    assert bdsw_sign_classify(n4) is Verdict.INVERSE_N
    assert is_n(n4_inv)

    n5 = mk([
        [-2, -2, -4, -8, -16],
        [-8, -1, -2, -4, -8],
        [-4, -4, -1, -2, -4],
        [-2, -2, -4, -1, -2],
        [-2, -2, -4, -8, -2],
    ])
    assert inverse(n5) == scaled(14, [
        [1, -2, 0, 0, 0],
        [0, 2, -4, 0, 0],
        [0, 0, 2, -4, 0],
        [0, 0, 0, 2, -2],
        [-1, 0, 0, 0, 1],
    ])
    assert bdsw_sign_classify(n5) is Verdict.INVERSE_N

    w4 = mk([[-2, -2, -2, -2], [-1, -2, -2, -2], [-1, -1, -2, -2], [-1, -1, -1, -2]])
    w4_inv = scaled(2, [[-2, 2, 0, 0], [0, -2, 2, 0], [0, 0, -2, 2], [1, 0, 0, -2]])
    assert inverse(w4) == w4_inv
    assert is_bdsw(w4_inv) and not is_n(w4_inv)

    w5 = mk([
        [-2, -2, -2, -2, -2],
        [-1, -2, -2, -2, -2],
        [-1, -1, -2, -2, -2],
        [-1, -1, -1, -2, -2],
        [-1, -1, -1, -1, -2],
    ])
    w5_inv = scaled(2, [
        [-2, 2, 0, 0, 0],
        [0, -2, 2, 0, 0],
        [0, 0, -2, 2, 0],
        [0, 0, 0, -2, 2],
        [1, 0, 0, 0, -2],
    ])
    assert inverse(w5) == w5_inv
    assert not is_z(w5_inv)


def test_determinant_formula_campaign():
    s = run_verify("det-formula", 2, 8, 1000, 42)
    assert s.checks == 7000
    assert s.failures == []


def test_cycle_matrix_roundtrip_campaign():
    s = run_verify("cycle-matrix", 2, 7, 500, 7)
    assert s.checks == 6000
    assert s.failures == []


def test_sign_parity_campaign():
    s = run_verify("bdsw-z", 2, 7, 300, 3)
    assert s.checks == 1200
    assert s.failures == []


def test_zclass_oracle_campaign():
    s = run_verify("zclass-oracles", 1, 6, 500, 11)
    assert s.checks == 2500
    assert s.failures == []


def test_type_d_campaign():
    s = run_verify("type-d", 3, 7, 500, 5)
    assert s.checks == 2500
    assert s.failures == []


def test_circulant_campaign():
    s = run_verify("polyn", 3, 8, 300, 1)
    assert s.checks == 1200
    assert s.failures == []


def test_maybee_campaign():
    s = run_verify("maybee", 2, 10, 200, 9)
    assert s.checks == 400
    assert s.failures == []


def test_sign_campaigns_at_large_orders_with_a_raised_cap():
    # bdsw-z and polyn decide their classes by weak-M eliminations, which
    # are polynomial, so they run well above the default cap; 17 trials put
    # a block on every order from 16 to 32
    s = run_verify("bdsw-z", 16, 32, 17, 4, cap=32)
    assert s.checks == 68 and s.failures == []
    s = run_verify("polyn", 16, 32, 17, 4, cap=32)
    assert s.checks == 68 and s.failures == []
    # maybee's bdsw half sums the path formula over polynomially many minors
    s = run_verify("maybee", 16, 32, 17, 4, cap=32)
    assert s.checks == 17 and s.failures == []


def test_perron_bisection_bracket_and_band_sweep():
    tol = Fraction(1, 10**9)
    rng = random.Random(2025)
    for trial in range(100):
        n = rng.randint(1, 5)
        b = random_nonneg(rng, n)
        r = rng.randint(1, n)
        v = perron_r(b, r, tol)
        subs = [
            submatrix(b, IndexSet(n, combo), IndexSet(n, combo))
            for combo in combinations(range(1, n + 1), r)
        ]
        ident = Matrix.identity(r)
        # one tolerance above: every order-r shift is weakly M
        assert all(is_m((v + tol) * ident - s) for s in subs)
        # one tolerance below: the maximizing submatrix still resists
        assert any(not is_m((v - tol) * ident - s) for s in subs)

    # sweeping t downward through the measured thresholds steps the band
    # index n, ..., r, ..., 0 exactly where the radii say it should
    sweep_tol = Fraction(1, 10**6)
    for trial in range(40):
        n = rng.randint(2, 5)
        b = random_nonneg(rng, n)
        rhos = [perron_r(b, r, sweep_tol) for r in range(1, n + 1)]
        for lo, hi in zip(rhos, rhos[1:]):
            assert hi >= lo - sweep_tol  # nondecreasing up to measurement slack
        points = [(rhos[-1] + sweep_tol, n)]
        for r in range(n - 1, 0, -1):
            if rhos[r] - rhos[r - 1] > 4 * sweep_tol:
                points.append(((rhos[r] + rhos[r - 1]) / 2, r))
        points.append((rhos[0] - 1, 0))
        seen = []
        for t_val, want in points:
            band = l_index(t_val * Matrix.identity(n) - b)
            assert band == want
            seen.append(band)
        assert seen == sorted(seen, reverse=True)
