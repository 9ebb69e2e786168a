"""Z-matrix taxonomy tests.

Class membership is decided by principal-minor signs; every defining theorem
instance here is also cross-checked through the inverse-sign oracle route so
the two characterizations stay independently verified.
"""

import inspect
import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zmx
from zmx import (
    ORDER_CAP,
    Matrix,
    NotZMatrixError,
    OrderCapError,
    classify,
    digraph_of,
    enumerate_paths,
    inverse,
    is_f0,
    is_irreducible,
    is_m,
    is_n,
    is_n0,
    is_nonsingular_m,
    is_unipathic,
    is_z,
    l_index,
    maybee_entry,
    perron_r,
    principal_minor,
    run_verify,
    type_d,
    type_d_verify,
    z_decompose,
)
from zmx import matrix, zclass
from zmx.matrix import _bareiss
from zmx.sampling import random_z


def mk(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


def scaled(k, rows):
    return Fraction(1, k) * mk(rows)


# Inverse of a positive matrix whose inverse is an irreducible M-matrix.
P_INV = scaled(4, [
    [2, -4, 0, 0, 0],
    [0, 4, -4, 0, 0],
    [0, 0, 2, -1, 0],
    [0, 0, 0, 2, -2],
    [-1, 0, 0, 0, 2],
])
# Inverse of a negative matrix; an N-matrix of order 4.
N4_INV = scaled(6, [
    [1, -2, 0, 0],
    [0, 2, -4, 0],
    [0, 0, 2, -2],
    [-1, 0, 0, 1],
])
# Inverse of the even-order counterexample; bdsw but not Z, hence not N.
W4_INV = scaled(2, [
    [-2, 2, 0, 0],
    [0, -2, 2, 0],
    [0, 0, -2, 2],
    [1, 0, 0, -2],
])
# Inverse of the odd-order counterexample; not even Z.
W5_INV = scaled(2, [
    [-2, 2, 0, 0, 0],
    [0, -2, 2, 0, 0],
    [0, 0, -2, 2, 0],
    [0, 0, 0, -2, 2],
    [1, 0, 0, 0, -2],
])


def test_is_z_cases():
    assert is_z(Matrix.identity(4))
    assert is_z(mk([[1, -1], [-2, 3]]))
    assert not is_z(mk([[1, -1, -1], [-2, 1, 1], [2, 2, -1]]))
    assert is_z(mk([[-5]]))


def test_z_decompose_golden():
    rep = z_decompose(Matrix.identity(2), 1)
    assert rep.t == 1 and rep.b == Matrix.zeros(2)

    a = mk([[1, -1], [-2, 3]])
    rep = z_decompose(a, 3)
    assert rep.b == mk([[2, 1], [2, 0]])
    assert all(x >= 0 for row in rep.b.rows for x in row)
    # the split reconstructs the input exactly
    assert rep.t * Matrix.identity(2) - rep.b == a


def test_z_decompose_rejections():
    a = mk([[1, -1], [-2, 3]])
    with pytest.raises(ValueError):
        z_decompose(a, 0)  # below the max diagonal entry
    with pytest.raises(NotZMatrixError):
        z_decompose(mk([[0, 1], [0, 0]]), 5)
    with pytest.raises(TypeError):
        z_decompose(a, 3.0)


def test_nonsingular_m_cases():
    assert is_nonsingular_m(Matrix.identity(3))
    assert is_nonsingular_m(P_INV)
    assert not is_nonsingular_m(N4_INV)
    assert not is_nonsingular_m(mk([[1, 2], [0, 1]]))  # not Z
    assert not is_nonsingular_m(mk([[-1]]))
    # dual route: Z with nonnegative inverse
    assert all(x >= 0 for row in inverse(P_INV).rows for x in row)
    # irreducible nonsingular M has strictly positive inverse
    assert is_irreducible(digraph_of(P_INV))
    assert all(x > 0 for row in inverse(P_INV).rows for x in row)


def test_weak_m_cases():
    assert is_m(Matrix.zeros(3))
    assert is_m(mk([[1, -1], [-1, 1]]))  # singular M
    assert not is_m(mk([[0, -1], [-1, 0]]))  # det -1
    assert is_m(Matrix.identity(1))


def test_n_cases():
    assert is_n(N4_INV)
    assert not is_n(Matrix.identity(4))
    assert not is_n(W4_INV)
    assert not is_n(mk([[-1]]))  # order restriction
    # dual route: inverse strictly negative entrywise
    assert all(x < 0 for row in inverse(N4_INV).rows for x in row)
    assert is_irreducible(digraph_of(N4_INV))


def test_n0_cases():
    assert is_n0(N4_INV)
    assert not is_n0(Matrix.identity(4))
    d_inv = inverse(type_d([Fraction(-3), Fraction(-2), Fraction(-1), Fraction(0)]))
    assert is_n0(d_inv)
    assert not is_n(d_inv)
    # dual route: nonpositive irreducible inverse
    back = inverse(d_inv)
    assert all(x <= 0 for row in back.rows for x in row)
    assert is_irreducible(digraph_of(d_inv))


def test_f0_cases():
    f = inverse(type_d([Fraction(-2), Fraction(-1), Fraction(0), Fraction(1)]))
    assert is_f0(f)
    assert not is_f0(Matrix.identity(3))
    assert not is_f0(N4_INV)  # an N-matrix sits one band higher
    assert not is_f0(mk([[0, -1], [-1, 0]]))  # below order 3
    # dual route: det < 0, inverse has a positive diagonal entry and all
    # its principal minors of order >= 2 are <= 0
    from zmx.matrix import det, principal_minor
    assert det(f) < 0
    finv = inverse(f)
    assert any(finv.entry(i, i) > 0 for i in range(1, 5))
    from itertools import combinations
    for size in (2, 3, 4):
        for combo in combinations(range(1, 5), size):
            assert principal_minor(finv, combo) <= 0


def test_l_index_goldens():
    assert l_index(Matrix.identity(5)) == 5
    assert l_index(N4_INV) == 3
    assert l_index(inverse(type_d([Fraction(-2), Fraction(-1), Fraction(0), Fraction(1)]))) == 2
    assert l_index(mk([[-3]])) == 0
    with pytest.raises(NotZMatrixError):
        l_index(mk([[0, 1], [1, 0]]))


def test_order_cap_enforced():
    # the cap guards exponential work only: the minor sweep below band n - 2,
    # perron_r's subsets and the path formula off the diagonal
    low = mk([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])  # band 0, below n - 2 = 1
    with pytest.raises(OrderCapError):
        l_index(low, cap=2)
    with pytest.raises(OrderCapError):
        classify(low, cap=2)
    with pytest.raises(OrderCapError):
        perron_r(Matrix.zeros(3), 1, cap=2)
    assert l_index(low, cap=3) == 0
    a = Matrix.identity(3)
    assert is_m(a) and classify(a, cap=2).is_nonsingular_m
    # above the default cap the polynomial calls return
    n = ORDER_CAP + 1
    big = Matrix.identity(n)
    n_matrix = type_d_inverse(range(-n, 0))
    assert is_m(big) and is_nonsingular_m(big) and l_index(big) == n
    assert not (is_n(big) or is_n0(big) or is_f0(big))
    assert is_n(n_matrix) and is_n0(n_matrix) and not is_f0(n_matrix)
    assert classify(big).is_nonsingular_m and classify(n_matrix).l_index == n - 1
    assert type_d_verify(range(1, n + 1)).l_index_of_inverse == n
    assert is_unipathic(digraph_of(big))
    # and every exponential path still raises at the one shared default cap
    low_big = Matrix._from_grid(1, [[-1 if i == j == 0 else int(i == j) for j in range(n)]
                                    for i in range(n)])
    capped = [
        lambda: l_index(low_big),
        lambda: classify(low_big),
        lambda: l_index(type_d_inverse(range(-3, n - 3))),
        lambda: perron_r(big, 1),
        lambda: type_d_verify(range(-3, n - 3)),
        lambda: maybee_entry(big, 1, 2),
        lambda: enumerate_paths(digraph_of(big), 1, 2),
        lambda: run_verify("maybee", n, n, 1, 1),
    ]
    for call in capped:
        with pytest.raises(OrderCapError):
            call()
    # a cap parameter only where a call can raise OrderCapError
    takes_cap = {name for name in zmx.__all__ if inspect.isfunction(getattr(zmx, name))
                 and "cap" in inspect.signature(getattr(zmx, name)).parameters}
    assert takes_cap == {"l_index", "classify", "perron_r", "enumerate_paths",
                         "maybee_entry", "type_d_verify", "run_verify"}


TOL = Fraction(1, 10**9)


def test_perron_goldens():
    swap = mk([[0, 1], [1, 0]])
    v = perron_r(swap, 2, TOL)
    assert 1 <= v < 1 + TOL
    ones3 = mk([[1, 1, 1]] * 3)
    v = perron_r(ones3, 3, TOL)
    assert 3 <= v < 3 + TOL
    v = perron_r(mk([[2]]), 1, TOL)
    assert 2 <= v < 2 + TOL
    # order-1 radii are just the diagonal entries
    assert perron_r(ones3, 1, TOL) == 1


def test_perron_validation():
    b = mk([[1, 0], [0, 1]])
    # r is an order: a bool or a float is refused as an out-of-range one is
    for r in (0, 3, 1.5, 2.0, True):
        with pytest.raises(ValueError, match=r"outside 1\.\.2"):
            perron_r(b, r)
    with pytest.raises(ValueError):
        perron_r(mk([[-1, 0], [0, 1]]), 1)
    with pytest.raises(TypeError):
        perron_r(b, 1, 1e-9)
    with pytest.raises(ValueError):
        perron_r(b, 1, Fraction(0))


def sub_of(b, combo):
    rows = b.rows
    return Matrix([[rows[i][j] for j in combo] for i in combo])


def rho_bisect(sub, tol):
    """The oracle for one submatrix: a Fraction bisection over [0, max row
    sum] on "tI - sub is M iff t >= rho", asked of the public is_m. It ends on
    the least point >= rho of the grid perron_r bisects by index."""
    ident = Matrix.identity(sub.n)
    lo, hi = Fraction(0), max(map(sum, sub.rows))
    if is_m(lo * ident - sub):
        return lo
    while hi - lo >= tol:
        mid = (lo + hi) / 2
        if is_m(mid * ident - sub):
            hi = mid
        else:
            lo = mid
    return hi


@st.composite
def nonneg_case(draw):
    n = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.sampled_from((0, 0, 1, 2, 3, 5)),
                      st.sampled_from((1, 2, 3, 7)))
    b = mk([[draw(entry) for _ in range(n)] for _ in range(n)])
    tol = draw(st.sampled_from((Fraction(3, 7), Fraction(1, 10), Fraction(1, 10**6),
                                Fraction(1, 10**12), Fraction(1, 1024), Fraction(1), Fraction(5))))
    return b, draw(st.integers(1, n)), tol


# two order-2 blocks of spectral radius 2: [[0, 2], [2, 0]] has max row sum 2,
# [[1, 2], [1, 0]] has 3, so their bisection grids differ, in either order
EQUAL_ROOTS = mk([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 1, 2], [0, 0, 1, 0]])
EQUAL_ROOTS_SWAPPED = mk([[1, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]])
TWIN_BLOCKS = mk([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]])


@settings(max_examples=150, deadline=None)
@given(nonneg_case())
@example((EQUAL_ROOTS, 2, Fraction(1, 10**6)))
@example((EQUAL_ROOTS_SWAPPED, 2, Fraction(3, 7)))
@example((TWIN_BLOCKS, 2, Fraction(1, 10)))
@example((mk([[0, 0], [0, 2]]), 1, TOL))  # a zero submatrix first: h = 0 at best = 0
@example((Matrix.zeros(3), 2, TOL))  # every submatrix zero: the value is 0
@example((mk([[1, 2], [3, 0]]), 1, Fraction(5)))  # tol > h, so K = 0
@example((mk([[1, 1], [0, 0]]), 2, TOL))  # rho = h / 2: tI - B singular M at t = rho
@example((mk([[0, 1, 2], [3, 0, 1], [1, 1, 0]]), 2, Fraction(1, 10**30)))
@example((mk([[1, 2, 0], [0, 1, 5], [3, 0, 2]]), 3, Fraction(1, 10**6)))  # r = n
def test_perron_r_is_the_largest_bisected_root(case):
    b, r, tol = case
    want = max(rho_bisect(sub_of(b, c), tol) for c in combinations(range(b.n), r))
    assert perron_r(b, r, tol) == want


def test_perron_r_bisects_only_a_subset_that_can_win(monkeypatch):
    calls = []
    weak_m = zclass._weak_m

    def counted(m, *args):
        calls.append(len(m))
        return weak_m(m, *args)

    monkeypatch.setattr(zclass, "_weak_m", counted)
    # {1, 2, 3} holds 3(J - I), radius 6; every other 3-subset is block
    # triangular with radius at most 3 but a row sum above 6
    n, r = 5, 3
    b = mk([[0 if i == j else 3 if max(i, j) < 3 else 10 if i < j else 0
             for j in range(n)] for i in range(n)])
    one = perron_r(sub_of(b, range(r)), r, TOL)
    # alone it tests t = 0, then once per level of its grid of 2^K points
    assert len(calls) == 1 + (6 // TOL).bit_length() == 34
    calls.clear()
    # first among the subsets, it is bisected as alone; every later subset
    # fails to beat it at its first test
    assert perron_r(b, r, TOL) == one
    assert len(calls) == 34 + comb(n, r) - 1 == 43
    assert calls == [r] * 43


def test_classify_identity():
    r = classify(Matrix.identity(3))
    assert r.is_z and r.is_nonsingular_m and r.is_m
    assert r.l_index == 3 and not r.irreducible
    assert r.determinant == 1 and r.is_nonsingular
    assert not (r.is_n or r.is_n0 or r.is_f0)


def test_classify_n_matrix():
    r = classify(N4_INV)
    assert r.is_n and r.is_n0 and r.l_index == 3
    assert r.irreducible and not r.is_m and not r.is_f0
    assert r.determinant == det_of(N4_INV)


def det_of(a):
    from zmx.matrix import det
    return det(a)


def test_classify_non_z_still_reports_basics():
    r = classify(W5_INV)
    assert not r.is_z
    assert r.l_index is None
    assert r.is_nonsingular and r.irreducible
    assert not (r.is_m or r.is_nonsingular_m or r.is_n or r.is_n0 or r.is_f0)


def test_classify_agrees_with_predicates_and_invariants():
    rng = random.Random(6061)
    for trial in range(150):
        n = rng.randint(1, 5)
        a = random_z(rng, n)
        r = classify(a)
        assert r.is_z
        assert r.is_m == is_m(a)
        assert r.is_nonsingular_m == is_nonsingular_m(a)
        assert r.is_n == is_n(a)
        assert r.is_n0 == is_n0(a)
        assert r.is_f0 == is_f0(a)
        assert r.l_index == l_index(a)
        # structural implications of the taxonomy
        if r.is_nonsingular_m:
            assert r.is_m
        if r.is_n:
            assert r.is_n0 and r.irreducible
        assert r.is_m == (r.l_index == n)
        if r.is_n0:
            assert r.l_index == n - 1
        if r.is_f0:
            assert r.l_index == n - 2
        assert sum([r.is_nonsingular_m, r.is_n0, r.is_f0]) <= 1


@st.composite
def small_z(draw, max_n=6):
    # diagonal 0..4 and off-diagonal 0, -1, -2 make zero minors common
    n = draw(st.integers(1, max_n))
    return mk([
        [draw(st.integers(0, 4)) if i == j else draw(st.sampled_from((0, -1, -2)))
         for j in range(n)]
        for i in range(n)
    ])


def count_work(monkeypatch):
    """Count the weak-M kernel's entries and the items every minor sweep
    yields. An entry that records its states starts from the full grid; every
    other entry must continue from one of those states, with the prev and
    the pivot count recorded there, its grid one or two indices smaller."""
    work = {"fresh": 0, "continued": 0, "minors": 0}
    weak_m, sweep, recorded = zclass._weak_m, zclass._minor_signs, []

    def counted_weak_m(m, prev=1, done=0, states=None):
        if states is not None:
            assert (len(m), prev, done) == (len(m[0]), 1, 0)
            work["fresh"] += 1
            recorded[:] = [states, len(m)]
        else:
            states, n = recorded
            assert done < len(states) and prev == states[done][1]
            assert len(m) in (n - done - 1, n - done - 2)
            work["continued"] += 1
        return weak_m(m, prev, done, states)

    def counted_sweep(a, max_order=None):
        for item in sweep(a, max_order):
            work["minors"] += 1
            yield item

    monkeypatch.setattr(zclass, "_weak_m", counted_weak_m)
    monkeypatch.setattr(zclass, "_minor_signs", counted_sweep)
    return work


# a_11 = 0 and the leading 2x2 minor is -1: band 1, below n - 2 = 2
LOW_BAND4 = mk([[0, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])


def test_sweeps_stop_at_the_first_deciding_minor(monkeypatch):
    seen = []
    sweep = zclass._minor_signs

    def counted(a, max_order=None):
        for item in sweep(a, max_order):
            seen.append(item)
            yield item

    monkeypatch.setattr(zclass, "_minor_signs", counted)
    # the four order-1 minors, then the first order-2 minor, which is negative
    first_negative = [(1, 0), (1, 1), (1, 1), (1, 1), (2, -1)]
    assert l_index(LOW_BAND4) == 1
    assert seen == first_negative
    seen.clear()
    r = classify(LOW_BAND4)
    assert r.l_index == 1 and not (r.is_m or r.is_n0 or r.is_f0)
    assert seen == first_negative
    # the predicates read the top bands only and never sweep
    seen.clear()
    for view in (is_m, is_nonsingular_m, is_n, is_n0, is_f0):
        assert not view(LOW_BAND4)
    assert seen == []


def type_d_inverse(params):
    return inverse(type_d([Fraction(x) for x in params]))


def test_top_bands_take_polynomially_many_eliminations(monkeypatch):
    n = 7
    # l_index of the type-D inverse is (count of nonpositive parameters) - 1
    cases = {
        n: mk([[n if i == j else -((i + j) % 2) for j in range(n)] for i in range(n)]),
        n - 1: type_d_inverse(range(-n, 0)),  # N
        n - 2: type_d_inverse(range(-5, 2)),  # F0
        2: type_d_inverse(range(-2, 5)),
    }
    n0 = type_d_inverse(range(-6, 1))
    assert is_n0(n0) and not is_n(n0) and is_n(cases[n - 1])
    assert {s: l_index(a) for s, a in cases.items()} == {s: s for s in cases}
    work = count_work(monkeypatch)
    # one elimination from the full grid; then at most one continuation per
    # index left out and, for F0, per pair of left-out indices
    limits = {is_m: 0, is_nonsingular_m: 0, is_n: n, is_n0: n, is_f0: n + comb(n, 2)}
    for view, limit in limits.items():
        for a in (*cases.values(), n0):
            work.update(fresh=0, continued=0, minors=0)
            view(a)
            assert work["minors"] == 0 and work["fresh"] == 1
            assert work["continued"] <= limit
            if a is cases[n]:
                assert work["continued"] == 0
            elif view in (is_n, is_n0, is_f0) and a is not cases[2]:
                assert work["continued"] >= 1
    # below band n - 2, l_index tests the whole matrix and then sweeps
    work.update(fresh=0, continued=0, minors=0)
    assert l_index(LOW_BAND4) == 1
    assert work == {"fresh": 1, "continued": 0, "minors": 5}


def minors_by_order(a):
    n = a.n
    return {k: [principal_minor(a, c) for c in combinations(range(1, n + 1), k)]
            for k in range(1, n + 1)}


@st.composite
def z_matrices(draw):
    """Z-matrices of orders 1 to 9 whose eliminations meet zero pivots and
    zero-diagonal remainders: zero-heavy entries, an all-zero diagonal, or a
    permuted block-triangular matrix of directed-cycle Laplacians (singular
    irreducible M blocks), some shifted by -1 or +1 on the diagonal."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(("zero-heavy", "zero-diagonal", "blocks")))
    off = st.sampled_from((0, 0, 0, -1, -2))
    if kind != "blocks":
        diag = st.sampled_from((0, 0, 1, 2, 3, 5) if kind == "zero-heavy" else (0,))
        return mk([[draw(diag) if i == j else draw(off) for j in range(n)] for i in range(n)])
    rows = [[0] * n for _ in range(n)]
    start = 0
    while start < n:
        k = draw(st.integers(1, n - start))
        shift = draw(st.sampled_from((0, 0, 0, 1, -1)))
        for i in range(start, start + k):
            rows[i][i] = shift
            if k > 1:
                w = draw(st.integers(1, 3))
                rows[i][i] += w
                rows[i][start + (i - start + 1) % k] = -w
            for j in range(start):
                rows[i][j] = draw(off)
        start += k
    perm = draw(st.permutations(range(n)))
    return mk([[rows[i][j] for j in perm] for i in perm])


@settings(max_examples=300, deadline=None)
@given(z_matrices())
@example(mk([[1, -1, 0], [0, 1, -1], [-1, 0, 1]]))  # singular irreducible M
@example(mk([[0, -1, 0], [0, 0, -1], [-1, 0, 0]]))  # a zero-diagonal 3-cycle
@example(mk([[0, -1], [0, 0]]))  # an acyclic zero-diagonal remainder
def test_weak_m_matches_the_minor_signs(a):
    n = a.n
    minors = minors_by_order(a)
    first_negative = min((k for k in minors if any(x < 0 for x in minors[k])), default=None)
    assert zclass._first_bad_minor(a) == first_negative
    weak, nonsingular, bound = zclass._weak_m([list(row) for row in a._grid])
    assert weak == (first_negative is None)
    assert nonsingular == all(x > 0 for k in minors for x in minors[k])
    if weak:
        assert bound is None
    else:
        assert first_negative <= bound <= n


@settings(max_examples=400, deadline=None)
@given(st.one_of(small_z(), z_matrices()))
@example(LOW_BAND4)
@example(type_d_inverse(range(-9, 0)))  # N
@example(type_d_inverse(range(-8, 1)))  # N0, not N
@example(type_d_inverse(range(-7, 2)))  # F0
def test_taxonomy_matches_brute_force_minors(a):
    n = a.n
    minors = minors_by_order(a)
    proper = [x for k in range(1, n) for x in minors[k]]
    det_a = minors[n][0]
    negative_orders = [k for k in minors if any(x < 0 for x in minors[k])]
    want = {
        "is_m": not negative_orders,
        "is_nonsingular_m": all(x > 0 for k in minors for x in minors[k]),
        "is_n": n >= 2 and all(x > 0 for x in proper) and det_a < 0,
        "is_n0": all(x >= 0 for x in proper) and det_a < 0,
        "is_f0": n >= 3
        and all(x >= 0 for k in range(1, n - 1) for x in minors[k])
        and any(x < 0 for x in minors[n - 1]),
        "l_index": negative_orders[0] - 1 if negative_orders else n,
    }
    got = {
        "is_m": is_m(a),
        "is_nonsingular_m": is_nonsingular_m(a),
        "is_n": is_n(a),
        "is_n0": is_n0(a),
        "is_f0": is_f0(a),
        "l_index": l_index(a),
    }
    assert got == want
    r = classify(a)
    assert {name: getattr(r, name) for name in want} == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_z(), z_matrices()))
@example(LOW_BAND4)
@example(type_d_inverse(range(-9, 0)))  # N
@example(type_d_inverse(range(-8, 1)))  # N0, not N
@example(type_d_inverse(range(-7, 2)))  # F0
def test_band_matches_brute_force_minors_at_every_low(a):
    # _band continues its leave-one-out tests from one elimination; at every
    # low it must still read the band of the brute-force minors and of the
    # bottom-up sweep, or report one below low when the band is below low
    n = a.n
    minors = minors_by_order(a)
    first_negative = min((k for k in minors if any(x < 0 for x in minors[k])), default=None)
    assert zclass._first_bad_minor(a) == first_negative
    s = n if first_negative is None else first_negative - 1
    for low in range(n + 1):
        band, strict = zclass._band(a, low, n)
        if s < low:
            assert band < low
            continue
        assert band == s
        if s >= n - 1:
            assert strict == all(x > 0 for k in range(1, s + 1) for x in minors[k])


@st.composite
def zero_heavy(draw):
    # numerators mostly 0 and denominators in {1, 2, 3}; about half the
    # draws are Z-matrices, the rest have positive off-diagonal entries too
    n = draw(st.integers(1, 9))
    entry = st.builds(Fraction, st.sampled_from((0, 0, 0, 1, -1, 2, -3)),
                      st.sampled_from((1, 2, 3)))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[x if i == j else -abs(x) for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    return mk(rows)


@settings(max_examples=200, deadline=None)
@given(zero_heavy())
def test_minor_sweep_matches_per_subset_elimination(a):
    n = a.n
    # clear denominators by hand, independently of the Matrix representation
    lcm = math.lcm(*(x.denominator for row in a.rows for x in row))
    grid = [[int(x * lcm) for x in row] for row in a.rows]
    want = []
    for k in range(1, n + 1):
        for c in combinations(range(n), k):
            d = _bareiss([[grid[r][q] for q in c] for r in c])
            want.append((k, (d > 0) - (d < 0)))
    for max_order in (None, *range(n + 2)):
        top = n if max_order is None else max_order
        assert list(zclass._minor_signs(a, max_order)) == [w for w in want if w[0] <= top]


def test_minor_sweep_eliminates_only_below_a_zero_minor(monkeypatch):
    # records the top-left entry of every sub-grid eliminated from scratch
    corners = []

    def counted(m):
        corners.append(m[0][0])
        return _bareiss(m)

    monkeypatch.setattr(matrix, "_bareiss", counted)
    n = 10
    # strictly diagonally dominant Z-matrix: every principal minor is positive
    rows = [[n if i == j else -((i * j + 1) % 2) for j in range(n)] for i in range(n)]
    assert list(zclass._minor_signs(mk(rows))) == [
        (k, 1) for k in range(1, n + 1) for _ in combinations(range(n), k)
    ]
    assert corners == []
    # with a_11 = 0 only the sets of order >= 3 through index 1 lie below a
    # zero minor, and the diagonal of A is 0 nowhere else
    rows[0][0] = 0
    list(zclass._minor_signs(mk(rows)))
    assert corners == [0] * sum(comb(n - 1, k - 1) for k in range(3, n + 1))


@st.composite
def z_and_permutation(draw):
    a = draw(small_z(max_n=7))
    return a, draw(st.permutations(range(a.n)))


@settings(max_examples=200, deadline=None)
@given(z_and_permutation())
def test_classify_is_invariant_under_permutation(case):
    a, perm = case
    rows = a.rows
    pap = Matrix([[rows[i][j] for j in perm] for i in perm])
    assert classify(pap) == classify(a)


@settings(max_examples=200, deadline=None)
@given(small_z(), st.data())
def test_classify_is_invariant_under_positive_diagonal_scaling(a, data):
    n = a.n
    positive = st.builds(Fraction, st.integers(1, 7), st.sampled_from((1, 2, 3)))
    p = [data.draw(positive) for _ in range(n)]
    q = [data.draw(positive) for _ in range(n)]
    rows = a.rows
    dae = Matrix([[p[i] * rows[i][j] * q[j] for j in range(n)] for i in range(n)])
    report = classify(a)
    scale = Fraction(1)
    for x in p + q:
        scale *= x
    assert classify(dae) == replace(report, determinant=report.determinant * scale)
