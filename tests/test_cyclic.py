"""Inverse cyclic / bdsw core: closed forms against the general-purpose
inverse, structure theorem probes, sign classification, and the proof-side
column reduction. Golden matrices are worked examples with printed inverses,
so every closed form here is checked against an independently known answer.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zmx import (
    IndexSet,
    Matrix,
    NotInverseCyclicError,
    SingularMatrixError,
    Verdict,
    bdsw_sign_classify,
    cyclic_det,
    cyclic_inverse,
    cyclic_products,
    det,
    from_cyclic_params,
    inverse,
    is_bdsw,
    is_full,
    is_inverse_cyclic,
    is_n,
    is_nonsingular_m,
    is_z,
    roundtrip_check,
    shift_matrix,
    submatrix,
)
from zmx import cyclic
from zmx.sampling import _cyclic_pairs, random_bdsw, random_inverse_cyclic


def mk(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


def scaled(k, rows):
    return Fraction(1, k) * mk(rows)


A3 = mk([[1, -1, -1], [-2, 1, 1], [2, -2, -1]])
A3_INV = mk([[-1, -1, 0], [0, -1, -1], [-2, 0, 1]])
# same as A3 except entry (3,2), which breaks the cyclic relations
C3 = mk([[1, -1, -1], [-2, 1, 1], [2, 2, -1]])
C3_INV = scaled(3, [[-3, -3, 0], [0, 1, 1], [-6, -4, -1]])
# inverse cyclic but not full: zeros allowed off the defining bands
A4 = mk([[2, -2, -4, 0], [0, 1, 2, 0], [0, 0, -2, 0], [2, -2, -4, 1]])
A4_INV = mk([
    [Fraction(1, 2), 1, 0, 0],
    [0, 1, 1, 0],
    [0, 0, Fraction(-1, 2), 0],
    [-1, 0, 0, 1],
])
# full but the inverse is not bdsw, so not inverse cyclic
R3 = mk([[1, 2, 2], [1, 1, 1], [2, 2, 1]])
R3_INV = mk([[-1, 2, 0], [1, -3, 1], [0, 2, -1]])
# positive, d - c > 0: the inverse is a bdsw M-matrix
P5 = mk([
    [4, 4, 8, 4, 4],
    [1, 2, 4, 2, 2],
    [1, 1, 4, 2, 2],
    [2, 2, 4, 4, 4],
    [2, 2, 4, 2, 4],
])
P5_INV = scaled(4, [
    [2, -4, 0, 0, 0],
    [0, 4, -4, 0, 0],
    [0, 0, 2, -1, 0],
    [0, 0, 0, 2, -2],
    [-1, 0, 0, 0, 2],
])
# negative, even order, d - c < 0: the inverse is a bdsw N-matrix
N4 = mk([[-2, -2, -4, -8], [-4, -1, -2, -4], [-2, -2, -1, -2], [-2, -2, -4, -2]])
N4_INV = scaled(6, [[1, -2, 0, 0], [0, 2, -4, 0], [0, 0, 2, -2], [-1, 0, 0, 1]])
# negative, odd order, d - c > 0: also a bdsw N-matrix inverse
N5 = mk([
    [-2, -2, -4, -8, -16],
    [-8, -1, -2, -4, -8],
    [-4, -4, -1, -2, -4],
    [-2, -2, -4, -1, -2],
    [-2, -2, -4, -8, -2],
])
N5_INV = scaled(14, [
    [1, -2, 0, 0, 0],
    [0, 2, -4, 0, 0],
    [0, 0, 2, -4, 0],
    [0, 0, 0, 2, -2],
    [-1, 0, 0, 0, 1],
])
# negative, even order but d - c > 0: wrong parity, inverse bdsw yet not N
W4 = mk([[-2, -2, -2, -2], [-1, -2, -2, -2], [-1, -1, -2, -2], [-1, -1, -1, -2]])
W4_INV = scaled(2, [[-2, 2, 0, 0], [0, -2, 2, 0], [0, 0, -2, 2], [1, 0, 0, -2]])
# negative, odd order but d - c < 0: inverse is not even a Z-matrix
W5 = mk([
    [-2, -2, -2, -2, -2],
    [-1, -2, -2, -2, -2],
    [-1, -1, -2, -2, -2],
    [-1, -1, -1, -2, -2],
    [-1, -1, -1, -1, -2],
])
W5_INV = scaled(2, [
    [-2, 2, 0, 0, 0],
    [0, -2, 2, 0, 0],
    [0, 0, -2, 2, 0],
    [0, 0, 0, -2, 2],
    [1, 0, 0, 0, -2],
])


def test_printed_inverses_are_right():
    # anchor the goldens themselves before using them as oracles
    for a, b in [(A3, A3_INV), (C3, C3_INV), (A4, A4_INV), (R3, R3_INV),
                 (P5, P5_INV), (N4, N4_INV), (N5, N5_INV), (W4, W4_INV),
                 (W5, W5_INV)]:
        assert a * b == Matrix.identity(a.n)
        assert inverse(a) == b


def test_is_full_cases():
    assert is_full(mk([[1, 1, 1]] * 3))
    assert not is_full(Matrix.identity(3))
    assert not is_full(A4)
    assert is_full(A3) and is_full(P5) and is_full(R3)


def test_is_bdsw_cases():
    assert is_bdsw(A3_INV)
    assert not is_bdsw(C3_INV)
    assert not is_bdsw(Matrix.identity(3))
    assert is_bdsw(mk([[1, 2], [3, 4]]))  # n=2: every cell is on the pattern
    assert not is_bdsw(mk([[1, 0], [3, 4]]))
    assert not is_bdsw(mk([[5]]))
    assert is_bdsw(W4_INV) and is_bdsw(N5_INV) and is_bdsw(P5_INV)
    assert is_bdsw(W5_INV)  # the pattern holds even though Z-ness fails


def test_is_inverse_cyclic_cases():
    assert is_inverse_cyclic(A4)
    assert not is_inverse_cyclic(C3)
    assert is_inverse_cyclic(Matrix.identity(4))
    assert is_inverse_cyclic(A3)
    assert not is_inverse_cyclic(R3)
    for m in (P5, N4, N5, W4, W5):
        assert is_inverse_cyclic(m)
    assert not is_inverse_cyclic(mk([[0, 1], [1, 1]]))  # zero diagonal


def every_case_equation_holds(a):
    """The case-equations in product form, the upper triangle through every
    intermediate k: the O(n^3) reference for is_inverse_cyclic."""
    n = a.n
    e = a.entry
    if any(e(i, i) == 0 for i in range(1, n + 1)):
        return False
    upper = all(e(i, j) * e(k, k) == e(i, k) * e(k, j)
                for i, k, j in combinations(range(1, n + 1), 3))
    lower = all(e(i, j) * e(n, n) == e(i, n) * e(n, j)
                for i in range(1, n) for j in range(1, i))
    last = all(e(n, j) * e(1, 1) == e(n, 1) * e(1, j) for j in range(2, n))
    return upper and lower and last


def test_is_inverse_cyclic_matches_every_case_equation():
    rng = random.Random(60221)
    hits = misses = 0
    for trial in range(400):
        n = rng.randint(1, 7)
        if n >= 2 and trial % 2:
            a = random_inverse_cyclic(rng, n)  # zeros allowed in sup and corner
            if trial % 4 == 1:
                rows = [list(row) for row in a.rows]
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i][j] = rng.choice((Fraction(0), rows[i][j] * 2, Fraction(1, 3)))
                a = Matrix(rows)
        else:
            # zero-heavy, with a nonzero diagonal so the equations decide
            a = Matrix([[Fraction(rng.choice((1, 2, -1, 3)), rng.choice((1, 2))) if i == j
                         else Fraction(rng.choice((0, 0, 0, 1, -2)))
                         for j in range(n)] for i in range(n)])
        want = every_case_equation_holds(a)
        assert is_inverse_cyclic(a) == want
        hits += want
        misses += not want
    assert hits >= 100 and misses >= 100


RATIONAL = st.builds(Fraction, st.sampled_from((0, 1, -1, 2, -3)), st.sampled_from((1, 2, 5)))
NONZERO = RATIONAL.filter(bool)


@st.composite
def cyclic_or_perturbed(draw):
    """An inverse cyclic matrix of order 1-7 (zeros allowed on the hops),
    half the time with one entry redrawn, which may break the property or
    zero a diagonal entry."""
    n = draw(st.integers(1, 7))
    diag = [draw(NONZERO) for _ in range(n)]
    if n == 1:
        a = Matrix([diag])
    else:
        a = from_cyclic_params(diag, [draw(RATIONAL) for _ in range(n - 1)], draw(RATIONAL))
    if draw(st.booleans()):
        rows = [list(row) for row in a.rows]
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(RATIONAL)
        a = Matrix(rows)
    return a


@settings(max_examples=200, deadline=None)
@given(cyclic_or_perturbed())
@example(A3)
@example(C3)
def test_inverse_cyclicity_is_invariant_under_the_cyclic_shift(a):
    n = a.n
    z = shift_matrix(n)
    want = every_case_equation_holds(a)
    assert is_inverse_cyclic(a) == want
    shifted = a
    for _ in range(n - 1):
        moved = z * shifted * z.transpose()
        # the (n,1) corner hop becomes the super-diagonal hop (n-1, n)
        assert moved.entry(n - 1, n) == shifted.entry(n, 1)
        shifted = moved
        assert is_inverse_cyclic(shifted) == every_case_equation_holds(shifted) == want


@settings(max_examples=200, deadline=None)
@given(cyclic_or_perturbed(), st.data())
def test_inverse_cyclicity_is_invariant_under_diagonal_scaling(a, data):
    n = a.n

    def diagonal():
        entries = [data.draw(NONZERO) for _ in range(n)]
        return Matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    scaled_a = diagonal() * a * diagonal()
    want = every_case_equation_holds(a)
    assert is_inverse_cyclic(a) == is_inverse_cyclic(scaled_a) == want
    assert every_case_equation_holds(scaled_a) == want


def fraction_cyclic_det(a):
    # the formula as written, in Fractions
    d, c = cyclic_products(a)
    return (d - c) ** (a.n - 1) / d ** (a.n - 2)


def fraction_cyclic_inverse(a):
    # b_ii = r / a_ii and b_ij = -r * a_ij / (a_ii * a_jj) on the hops, in Fractions
    d, c = cyclic_products(a)
    r, n = d / (d - c), a.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n + 1):
        j = i % n + 1
        rows[i - 1][j - 1] = -r * a.entry(i, j) / (a.entry(i, i) * a.entry(j, j))
        rows[i - 1][i - 1] = r / a.entry(i, i)
    return Matrix(rows)


@settings(max_examples=300, deadline=None)
@given(cyclic_or_perturbed())
@example(mk([[Fraction(-3, 2)]]))
@example(mk([[2, Fraction(1, 2)], [-5, Fraction(-1, 3)]]))  # n = 2: any nonzero diagonal
@example(mk([[1, 2], [3, 6]]))  # n = 2 and d = c
@example(A4)  # a zero hop
@example(P5)
def test_closed_forms_on_the_grid_match_the_fraction_formulas(a):
    if not is_inverse_cyclic(a):
        return
    assert cyclic_det(a) == fraction_cyclic_det(a) == det(a)
    d, c = cyclic_products(a)
    if d == c:
        with pytest.raises(SingularMatrixError):
            cyclic_inverse(a)
    else:
        assert cyclic_inverse(a) == fraction_cyclic_inverse(a) == inverse(a)


def test_cyclic_inverse_matches_general_inverse():
    rng = random.Random(1729)
    for _ in range(40):
        a = random_inverse_cyclic(rng, rng.randint(2, 9))
        d, c = cyclic_products(a)
        if d != c:
            assert cyclic_inverse(a) == inverse(a)
    assert cyclic_inverse(mk([[Fraction(-3, 2)]])) == mk([[Fraction(-2, 3)]])


def test_cyclic_products_goldens():
    assert cyclic_products(A3) == (Fraction(-1), Fraction(-2))
    assert cyclic_products(P5) == (Fraction(512), Fraction(256))
    assert cyclic_products(Matrix.identity(3)) == (Fraction(1), Fraction(0))
    assert cyclic_products(mk([[7]])) == (Fraction(7), Fraction(0))


def test_cyclic_det_goldens():
    assert cyclic_det(A3) == -1 == det(A3)
    assert cyclic_det(A4) == -4 == det(A4)
    assert cyclic_det(P5) == 32 == det(P5)
    assert cyclic_det(mk([[7]])) == 7
    with pytest.raises(NotInverseCyclicError):
        cyclic_det(C3)


def test_cyclic_inverse_goldens():
    assert cyclic_inverse(A3) == A3_INV
    assert cyclic_inverse(A4) == A4_INV
    assert cyclic_inverse(P5) == P5_INV
    assert cyclic_inverse(N4) == N4_INV
    with pytest.raises(NotInverseCyclicError):
        cyclic_inverse(C3)
    # d = c forces singularity; here d = c = 1
    with pytest.raises(SingularMatrixError):
        cyclic_inverse(mk([[1, 1], [1, 1]]))


# order 9, d = -24 != c = -16
A9 = from_cyclic_params([2, -1, 1, 3, -2, 1, 1, -1, 2], [1, 2, -1, 1, 1, -2, 2, 1], -2)


@pytest.mark.parametrize("a, cell", [
    pytest.param(A4, (0, 0), id="cell0"),
    pytest.param(A4, (1, 2), id="cell1"),
    pytest.param(A4, (3, 0), id="cell2"),
    pytest.param(A4, (2, 0), id="cell3"),
    # at order 2 the pattern covers all four cells
    pytest.param(mk([[2, 1], [3, 5]]), (1, 0), id="order2-corner"),
    pytest.param(mk([[2, 1], [3, 5]]), (0, 1), id="order2-hop"),
    pytest.param(A9, (5, 2), id="order9-below-diagonal"),
    pytest.param(A9, (1, 4), id="order9-above-hops"),
    pytest.param(A9, (8, 4), id="order9-last-row"),
    pytest.param(A9, (8, 0), id="order9-corner"),
    # at order 1 the corner is the diagonal
    pytest.param(mk([[Fraction(-3, 2)]]), (0, 0), id="order1-diagonal"),
])
def test_cyclic_inverse_rejects_a_corrupted_closed_form(monkeypatch, a, cell):
    # a diagonal, hop, corner or off-pattern cell of B off by one fails A*B = I
    assert is_inverse_cyclic(a) and cyclic_det(a) != 0
    layout = cyclic._cycle_grid

    def corrupted(diag, hops):
        rows = layout(diag, hops)
        rows[cell[0]][cell[1]] += 1
        return rows

    monkeypatch.setattr(cyclic, "_cycle_grid", corrupted)
    with pytest.raises(ArithmeticError, match="A\\*B = I"):
        cyclic_inverse(a)


def test_singular_iff_d_equals_c():
    rng = random.Random(9119)
    for trial in range(60):
        if trial % 5 == 0:
            # force d = c through the corner entry
            n = rng.randint(2, 6)
            diag, hops = _cyclic_pairs(rng, n, zeros=False)
            diag, sup = [Fraction(*x) for x in diag], [Fraction(*h) for h in hops[:-1]]
            prod = Fraction(1)
            for x in diag:
                prod *= x
            for x in sup:
                prod /= x
            a = from_cyclic_params(diag, sup, prod)
            d, c = cyclic_products(a)
            assert d == c and det(a) == 0 and cyclic_det(a) == 0
        else:
            a = random_inverse_cyclic(rng, n)
            d, c = cyclic_products(a)
            assert cyclic_det(a) == det(a)
            assert (d == c) == (det(a) == 0)


def test_roundtrip_goldens():
    assert roundtrip_check(A3)   # both sides hold
    assert roundtrip_check(C3)   # both sides fail
    assert roundtrip_check(R3)   # full but not cyclic; inverse not bdsw
    assert roundtrip_check(A4)   # cyclic but not full; inverse not bdsw
    with pytest.raises(SingularMatrixError):
        roundtrip_check(Matrix.zeros(2))


def test_roundtrip_check_takes_the_inverse_it_would_compute():
    rng = random.Random(3517)
    for a in (A3, C3, R3, A4, *(random_bdsw(rng, n) for n in range(2, 7)),
              *(random_inverse_cyclic(rng, n, zeros=n % 2 == 0) for n in range(2, 7))):
        if det(a) != 0:
            assert roundtrip_check(a, inverse(a)) == roundtrip_check(a)
    # the inverse passed in is the one checked: C3's inverse is not bdsw
    # while A3's is, so handing A3 its own inverse keeps the verdict and
    # handing it C3's breaks it
    assert roundtrip_check(A3, A3_INV) and not roundtrip_check(A3, C3_INV)


def test_nonsingular_bdsw_has_full_inverse():
    assert inverse(A3_INV) == A3 and is_full(A3)
    rng = random.Random(7222)
    for _ in range(20):
        b = random_bdsw(rng, rng.randint(2, 6))
        if det(b) == 0:
            continue
        binv = inverse(b)
        assert is_full(binv)
        assert is_inverse_cyclic(binv)


def test_sign_classification_goldens():
    assert bdsw_sign_classify(P5) is Verdict.INVERSE_M
    assert bdsw_sign_classify(N4) is Verdict.INVERSE_N
    assert bdsw_sign_classify(N5) is Verdict.INVERSE_N
    assert bdsw_sign_classify(W4) is Verdict.NEITHER
    assert bdsw_sign_classify(W5) is Verdict.NEITHER
    assert bdsw_sign_classify(A3) is Verdict.NEITHER  # mixed signs
    assert bdsw_sign_classify(mk([[5]])) is Verdict.NEITHER
    assert Verdict.INVERSE_M.value == "InverseM"
    assert Verdict.INVERSE_N.value == "InverseN"
    assert Verdict.NEITHER.value == "Neither"


def test_sign_verdicts_deliver_what_they_promise():
    assert is_nonsingular_m(P5_INV) and is_bdsw(P5_INV)
    assert is_n(N4_INV) and is_bdsw(N4_INV)
    assert is_n(N5_INV) and is_bdsw(N5_INV)
    # the parity counterexamples: bdsw but not N, and not even Z
    assert is_bdsw(W4_INV) and not is_n(W4_INV)
    assert not is_z(W5_INV)


def test_diagonal_product_is_constant_across_i():
    for a in (A3, A4, P5, N4, N5, W4, W5):
        d, c = cyclic_products(a)
        b = inverse(a)
        want = d / (d - c)
        for i in range(1, a.n + 1):
            assert a.entry(i, i) * b.entry(i, i) == want


def test_principal_submatrices_inherit_the_property():
    for a in (A4, P5):
        n = a.n
        for size in range(1, n + 1):
            for members in combinations(range(1, n + 1), size):
                s = IndexSet(n, members)
                assert is_inverse_cyclic(submatrix(a, s, s))


def product_form_holds(a):
    """The equivalent formulation: every entry is a ratio of products of
    super-diagonal and corner entries over diagonal entries. Written for
    matrices with nonzero diagonal; agrees with the case-equation form."""
    n = a.n
    if any(a.entry(i, i) == 0 for i in range(1, n + 1)):
        return False

    def sup_run(lo, hi):
        # product of a_{k,k+1} over k in lo..hi-1, empty run gives 1
        p = Fraction(1)
        for k in range(lo, hi):
            p *= a.entry(k, k + 1)
        return p

    def diag_run(lo, hi):
        p = Fraction(1)
        for k in range(lo, hi + 1):
            p *= a.entry(k, k)
        return p

    corner = a.entry(n, 1)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + 1 < j:
                want = sup_run(i, j) / diag_run(i + 1, j - 1)
            elif j < i != n:
                want = (sup_run(i, n) * corner * sup_run(1, j)
                        / (diag_run(i + 1, n) * diag_run(1, j - 1)))
            elif j < i == n:
                want = corner * sup_run(1, j) / diag_run(1, j - 1)
            else:
                continue
            if a.entry(i, j) != want:
                return False
    return True


def test_two_formulations_agree_on_full_matrices():
    assert product_form_holds(A3)
    assert not product_form_holds(C3)
    rng = random.Random(31415)
    agree = hits = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        if rng.random() < 0.5:
            a = random_inverse_cyclic(rng, n, zeros=False)
        else:
            a = Matrix([[Fraction(rng.randint(1, 5), rng.choice((1, 2))) for _ in range(n)]
                        for _ in range(n)])
        if not is_full(a):
            continue
        lhs = is_inverse_cyclic(a)
        assert lhs == product_form_holds(a)
        agree += 1
        hits += lhs
    assert agree >= 50 and hits >= 10  # both outcomes exercised


def column_reduce(a):
    """Sweep used in the determinant proof: c^k = a^k - (a_{k-1,k}/a_{k-1,k-1}) a^{k-1},
    taking every a^k from the original matrix."""
    n = a.n
    cols = [[a.entry(i, k) for i in range(1, n + 1)] for k in range(1, n + 1)]
    out = [cols[0]]
    for k in range(1, n):
        f = a.entry(k, k + 1) / a.entry(k, k)
        out.append([x - f * y for x, y in zip(cols[k], cols[k - 1])])
    return Matrix([[out[j][i] for j in range(n)] for i in range(n)])


def test_column_reduction_triangularizes():
    rng = random.Random(5150)
    mats = [A3, A4, P5, N4] + [random_inverse_cyclic(rng, rng.randint(2, 6))
                               for _ in range(20)]
    for a in mats:
        c = column_reduce(a)
        n = a.n
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert c.entry(i, j) == 0
        d, cc = cyclic_products(a)
        assert c.entry(1, 1) == a.entry(1, 1)
        for i in range(2, n + 1):
            assert c.entry(i, i) == (d - cc) / d * a.entry(i, i)
        assert det(c) == det(a)


def block_structure_ok(m):
    n = m.n
    upper = all(m.entry(i, j) == 0 for i in range(2, n + 1) for j in range(1, i))
    if upper:
        return True
    for split in range(1, n):
        if all(m.entry(i, j) == 0
               for i in range(1, split + 1) for j in range(split + 1, n + 1)):
            return True
    return False


def test_bdsw_proper_principal_submatrices():
    rng = random.Random(2718)
    mats = [A3_INV, P5_INV, N5_INV] + [random_bdsw(rng, rng.randint(3, 7))
                                       for _ in range(12)]
    for b in mats:
        n = b.n
        for size in range(1, n):
            for members in combinations(range(1, n + 1), size):
                s = IndexSet(n, members)
                sub = submatrix(b, s, s)
                assert det(sub) != 0
                assert block_structure_ok(sub)
