"""Matrix layer: exact scalars, determinants, inverses, minors.

The determinant and the inverse share one fraction-free Bareiss elimination
over a cleared-denominator integer grid; the inverse runs it forward on
[G | I], each row of I packed into one integer of slots wide enough for
Hadamard's bound, and finishes with a fraction-free back substitution on
the packed rows. Both are checked against slower textbook routines written
independently in this file (first-row cofactor expansion, Gauss-Jordan with
fraction pivoting, the adjugate of cofactor determinants), against the
Gauss-Jordan form of Bareiss's elimination that the inverse used before, and
against sympy when it is installed; a white-box test checks the slot bound
on drawn inputs, and Sylvester Hadamard matrices, which meet Hadamard's
bound, are golden cases. Products, packed and looped, are checked against
the textbook triple loop.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:
    sympy = None

from zmx import (
    IndexSet,
    Matrix,
    SingularMatrixError,
    complementary_minor_check,
    det,
    inverse,
    principal_minor,
    submatrix,
)
from zmx import matrix


def mk(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


# worked 3x3 from the docs: determinant -1, bdsw inverse
GOLD_A = mk([[1, -1, -1], [-2, 1, 1], [2, -2, -1]])
GOLD_A_INV = mk([[-1, -1, 0], [0, -1, -1], [-2, 0, 1]])

# perturbing one entry of GOLD_A gives determinant 3
GOLD_C = mk([[1, -1, -1], [-2, 1, 1], [2, 2, -1]])
GOLD_C_INV = Matrix([[Fraction(x, 3) for x in row]
                     for row in [[-3, -3, 0], [0, 1, 1], [-6, -4, -1]]])

# 5x5 positive matrix with determinant 32
GOLD_P = mk([
    [4, 4, 8, 4, 4],
    [1, 2, 4, 2, 2],
    [1, 1, 4, 2, 2],
    [2, 2, 4, 4, 4],
    [2, 2, 4, 2, 4],
])


def cofactor_det(rows):
    """Slow reference determinant: expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def gauss_jordan_inverse(a):
    """Reference inverse by row reduction of [A | I] with exact pivoting."""
    n = a.n
    aug = [list(a.rows[i]) + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return Matrix([row[n:] for row in aug])


def bareiss_gauss_jordan_inverse(a):
    """Reference inverse: Bareiss's fraction-free elimination of [G | L*I],
    Gauss-Jordan style, reducing every row at every pivot, so that the right
    block ends as the last pivot times A^-1."""
    n, lcm = a.n, a._lcm
    m = [list(row) + [lcm if j == i else 0 for j in range(n)] for i, row in enumerate(a._grid)]
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is None:
                raise SingularMatrixError("singular")
            m[k], m[r] = m[r], m[k]
        pivot = m[k][k]
        for i in range(n):
            if i != k:
                factor = m[i][k]
                m[i] = [(x * pivot - factor * y) // prev for x, y in zip(m[i], m[k])]
        prev = pivot
    return Matrix._from_grid(prev, [row[n:] for row in m])


def cofactor_inverse(a):
    """Reference inverse: the adjugate of cofactor determinants, over det(a)."""
    d = det(a)
    if d == 0:
        raise SingularMatrixError("matrix is singular, no inverse exists")
    n = a.n
    if n == 1:
        return Matrix([[1 / d]])
    idx = range(1, n + 1)

    def cofactor(i, j):
        m = det(submatrix(a, [r for r in idx if r != i], [c for c in idx if c != j]))
        return -m if (i + j) % 2 else m

    # the adjugate transposes the cofactor grid
    return Matrix([[cofactor(j, i) / d for j in idx] for i in idx])


def triple_loop_product(a, b):
    """Reference product: the textbook sum over k for every entry, taken on
    the integer grids L*A and L'*B and divided by L*L' (Fraction sums cost
    seconds at order 48)."""
    n, ga, gb = a.n, a._grid, b._grid
    return Matrix([
        [Fraction(sum(ga[i][k] * gb[k][j] for k in range(n)), a._lcm * b._lcm)
         for j in range(n)]
        for i in range(n)
    ])


# zero-heavy small rationals, so zero leading pivots, row swaps and singular
# matrices are common
SMALL = st.builds(
    Fraction, st.sampled_from((0, 0, 0, 1, -1, 2, -3)), st.sampled_from((1, 2, 3, 5, 7))
)
NONZERO = st.builds(
    Fraction, st.sampled_from((1, -1, 2, -3, 4)), st.sampled_from((1, 2, 3, 5, 7))
)


def square(draw, n, entries, pattern=lambda i, j: True):
    return Matrix([[draw(entries) if pattern(i, j) else 0 for j in range(n)]
                   for i in range(n)])


@st.composite
def zero_heavy_pair(draw):
    n = draw(st.integers(1, 7))
    return square(draw, n, SMALL), square(draw, n, SMALL)


def on_bdsw(n):
    return lambda i, j: j == i or j == i + 1 or (i == n - 1 and j == 0)


@st.composite
def mul_operands(draw):
    """Orders 1-48, so that products run on both sides of the packing
    crossover: dense, coprime-denominator, negative, zero-heavy and bdsw
    factors, a sparse left factor times a dense right one, and A times
    inverse(A), whose wide entries stress the slot width."""
    n = draw(st.integers(1, 48))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def grid(values, dens=(1,), pattern=lambda i, j: True):
        return Matrix([[Fraction(rng.choice(values), rng.choice(dens)) if pattern(i, j) else 0
                        for j in range(n)] for i in range(n)])

    digits = range(-9, 10)
    factors = {
        "dense": lambda: grid(digits),
        "coprime": lambda: grid(digits, (1, 2, 3, 5, 7)),
        "negative": lambda: grid(range(-9, 0), (1, 2, 3)),
        "zero-heavy": lambda: grid((0, 0, 0, 1, -1, 2, -3), (1, 2, 3, 5, 7)),
        "bdsw": lambda: grid((1, -1, 2, -3, 4), (1, 2, 3, 5, 7), on_bdsw(n)),
    }
    kind = draw(st.sampled_from((*factors, "sparse-dense", "inverse")))
    if kind == "sparse-dense":
        return [factors[draw(st.sampled_from(("zero-heavy", "bdsw")))](), factors["coprime"]()]
    if kind == "inverse":
        a = factors[draw(st.sampled_from(("dense", "coprime")))]()
        return [a, inverse(a) if det(a) else a]
    return [factors[kind](), factors[draw(st.sampled_from(list(factors)))]()]


def small_ints(draw, n, lo, hi, nonzero=False):
    values = [x for x in range(lo, hi + 1) if x or not nonzero]
    return [draw(st.sampled_from(values)) for _ in range(n)]


@st.composite
def inverse_inputs(draw):
    """Orders 1-32: dense integer, coprime-denominator, bdsw and tridiagonal
    inputs; big entries up to 10^30 over small denominators at orders 1-16,
    whose packed slots are hundreds of bits wide; row-shuffled upper triangular ones,
    whose zero leading entries force row swaps; L*U products whose last
    pivot alone vanishes; and nonsingular L*U products whose leading k x k
    minor alone vanishes, which swap rows at step k-1 with nonzero factors
    after k-1 packed identity rows have mixed."""
    n = draw(st.integers(1, 32))
    kind = draw(st.sampled_from(("dense", "coprime", "big", "bdsw", "tridiagonal", "swaps",
                                 "last-pivot", "zero-minor")))
    if kind == "zero-minor":
        n = max(n, 3)  # room for 2 <= k < n
    if kind == "dense":
        return Matrix([small_ints(draw, n, -9, 9) for _ in range(n)])
    if kind == "big":
        # past 16 the Fraction oracle takes seconds at this width; seeded, as
        # n^2 entries this wide would overrun hypothesis's buffer
        n = min(n, 16)
        rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
        return Matrix([[Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.choice((1, 2, 3, 5, 7)))
                        for _ in range(n)] for _ in range(n)])
    if kind == "coprime":
        return Matrix([[Fraction(p, draw(st.sampled_from((1, 2, 3, 5, 7))))
                        for p in small_ints(draw, n, -9, 9)] for _ in range(n)])
    if kind == "bdsw":
        return square(draw, n, NONZERO, on_bdsw(n))
    if kind == "tridiagonal":
        return square(draw, n, NONZERO, lambda i, j: abs(i - j) <= 1)
    upper = [[0] * i + small_ints(draw, 1, -3, 3, nonzero=True) + small_ints(draw, n - i - 1, -3, 3)
             for i in range(n)]
    if kind == "swaps":
        return Matrix([upper[i] for i in draw(st.permutations(range(n)))])
    if kind == "zero-minor":
        # rows k-1 and k of upper swapped: row k-1 starts with k zeros, so the
        # leading k x k minor is zero, and every other leading minor is not
        k = draw(st.integers(2, n - 1))
        upper[k - 1], upper[k] = upper[k], upper[k - 1]
    else:
        # unit lower triangular times upper triangular with a zero last pivot:
        # every leading minor but the full determinant is nonzero
        upper[-1][-1] = 0
    lower = [small_ints(draw, i, -3, 3) + [1] + [0] * (n - i - 1) for i in range(n)]
    return Matrix(lower) * Matrix(upper)


def random_rows(rng, n):
    return [[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2]))
             for _ in range(n)] for _ in range(n)]


def test_entry_indexing_is_one_based():
    assert GOLD_A.entry(1, 1) == 1
    assert GOLD_A.entry(3, 1) == 2
    assert GOLD_A[2, 3] == 1
    with pytest.raises(IndexError):
        GOLD_A.entry(0, 1)
    with pytest.raises(IndexError):
        GOLD_A.entry(1, 4)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        Matrix([[0.5, 1], [1, 1]])
    with pytest.raises(TypeError):
        mk([[1, 2], [3, 4]]) * 0.5
    with pytest.raises(TypeError):
        1.5 * mk([[1, 2], [3, 4]])


def test_constructor_validates_shape():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([])


def test_identity_and_zeros_refuse_what_is_not_an_order():
    # an order-0 matrix is no matrix, as the constructor says
    for n in (0, -2, 2.0, True):
        for build in (Matrix.identity, Matrix.zeros):
            with pytest.raises(ValueError, match="not a positive integer"):
                build(n)
    assert Matrix.zeros(2) == mk([[0, 0], [0, 0]])
    assert Matrix.identity(2) == mk([[1, 0], [0, 1]])


def test_matrix_is_immutable_value_type():
    a = mk([[1, 2], [3, 4]])
    b = mk([[1, 2], [3, 4]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != mk([[1, 2], [3, 5]])
    with pytest.raises(AttributeError):
        a.entries = None


def test_arithmetic_and_identity():
    a = mk([[1, 2], [3, 4]])
    ident = Matrix.identity(2)
    assert a * ident == a
    assert ident * a == a
    assert a + (-a) == Matrix.zeros(2)
    assert (a - a) == Matrix.zeros(2)
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    with pytest.raises(TypeError):
        a + 1  # a shift is spelled a + t * Matrix.identity(n)


def test_mul_requires_matching_order():
    with pytest.raises(ValueError):
        mk([[1, 2], [3, 4]]) * Matrix.identity(3)
    with pytest.raises(ValueError, match="orders differ"):
        mk([[1, 2], [3, 4]]) + Matrix.identity(3)


def test_det_identity_is_one():
    assert det(Matrix.identity(4)) == 1


def test_det_golden_values():
    assert det(GOLD_A) == -1
    assert det(GOLD_C) == 3
    assert det(GOLD_P) == 32
    assert det(mk([[5]])) == 5


def test_det_matches_cofactor_expansion():
    rng = random.Random(2024)
    for trial in range(120):
        n = 1 + trial % 5
        rows = random_rows(rng, n)
        assert det(Matrix(rows)) == cofactor_det(rows)


def test_det_is_multiplicative_on_random_pairs():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = Matrix(random_rows(rng, n))
        b = Matrix(random_rows(rng, n))
        assert det(a * b) == det(a) * det(b)


def test_inverse_golden_values():
    assert inverse(GOLD_A) == GOLD_A_INV
    assert inverse(GOLD_C) == GOLD_C_INV
    assert inverse(Matrix.identity(3)) == Matrix.identity(3)


def test_inverse_matches_gauss_jordan_and_roundtrips():
    rng = random.Random(4099)
    done = 0
    while done < 60:
        n = rng.randint(1, 6)
        a = Matrix(random_rows(rng, n))
        if det(a) == 0:
            continue
        done += 1
        b = inverse(a)
        assert b == gauss_jordan_inverse(a)
        assert a * b == Matrix.identity(n)
        assert b * a == Matrix.identity(n)
        assert inverse(b) == a
        assert det(a) * det(b) == 1


@settings(max_examples=300, deadline=None)
@given(zero_heavy_pair())
def test_inverse_matches_cofactor_oracle(pair):
    a, b = pair
    try:
        want = cofactor_inverse(a)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            inverse(a)
    else:
        assert inverse(a) == want
        assert inverse(inverse(a)) == a
    assert det(a * b) == det(a) * det(b)


@settings(max_examples=100, deadline=None)
@given(inverse_inputs())
def test_inverse_matches_gauss_jordan_oracles(a):
    outcomes = []
    for f in (inverse, bareiss_gauss_jordan_inverse, gauss_jordan_inverse):
        try:
            outcomes.append(f(a))
        except SingularMatrixError:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert (outcomes[0] is None) == (det(a) == 0)


@settings(max_examples=60, deadline=None)
@given(inverse_inputs())
def test_inverse_slots_hold_hadamards_bound(a):
    # Y = d * A^-1, d the last pivot, is +-L * adj G, and each packed slot
    # holds an entry of Y plus off, so the slot width rests on |Y| <= off,
    # Hadamard's bound over the rows of G
    n, lcm, g = a.n, a._lcm, a._grid
    off = lcm
    for row in g:
        off *= math.isqrt(sum(x * x for x in row)) + 1
    packed = []
    real = matrix._bareiss
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "_bareiss", lambda m: packed.append([r[n] for r in m]) or real(m))
        try:
            b = inverse(a)
        except SingularMatrixError:
            return
    w = packed[0][1].bit_length() - 1 if n > 1 else off.bit_length() + 1  # one slot at n = 1
    assert packed == [[1 << w * i for i in range(n)]]
    assert 1 << w > 2 * off
    dg = abs(det(a)) * lcm ** n  # |d| = |det G|
    ys = [abs(x) * dg for row in b.rows for x in row]
    assert all(y.denominator == 1 and y <= off for y in ys)


def sylvester(n):
    """The Sylvester Hadamard matrix of order n, a power of 2: H_1 = [1] and
    H_2k = [[H_k, H_k], [H_k, -H_k]]."""
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return Matrix(h)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_inverse_of_sylvester_hadamard_matrices(n):
    # H * H^T = n * I, and H meets Hadamard's bound: det H = +-n^(n/2)
    h = sylvester(n)
    assert inverse(h) == h.transpose() * Fraction(1, n)
    assert abs(det(h)) ** 2 == n ** n
    # (2/3) * H is the grid 2H over L = 3
    assert inverse(h * Fraction(2, 3)) == h.transpose() * Fraction(3, 2 * n)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=100, deadline=None)
@given(zero_heavy_pair())
def test_det_and_inverse_match_sympy(pair):
    a, _ = pair
    s = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                      for row in a.rows])

    def frac(r):
        return Fraction(int(r.p), int(r.q))

    d = frac(s.det())
    assert det(a) == d
    if d == 0:
        with pytest.raises(SingularMatrixError):
            inverse(a)
    else:
        assert inverse(a).rows == tuple(tuple(frac(x) for x in row)
                                        for row in s.inv().tolist())


@settings(max_examples=100, deadline=None)
@given(mul_operands())
def test_mul_matches_triple_loop(operands):
    a, b = operands
    assert a * b == triple_loop_product(a, b)
    assert b * a == triple_loop_product(b, a)


def test_products_on_each_side_of_the_packing_crossover(monkeypatch):
    # nnz(A) * nnz(B) = _PACK_AT * n^3 keeps the loop; one more nonzero packs
    n, rng = 12, random.Random(16)
    real, packed = matrix._packed_product, []
    monkeypatch.setattr(matrix, "_packed_product", lambda a, b: packed.append(1) or real(a, b))
    b = Matrix([[Fraction(rng.choice((-9, -2, 1, 5)), rng.choice((1, 3, 7))) for _ in range(n)]
                for _ in range(n)])
    for extra in (0, 1):
        cells = [Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.choice((1, 2, 5)))
                 for _ in range(matrix._PACK_AT * n + extra)]
        cells += [0] * (n * n - len(cells))
        rng.shuffle(cells)
        a = Matrix([cells[i * n:(i + 1) * n] for i in range(n)])
        assert a * b == triple_loop_product(a, b)
        assert len(packed) == extra


def test_packed_slots_hold_the_extreme_dot_products():
    # every dot product of v*J times +-9*J is +-9*n*v, the packing offset, so
    # the slots reach both ends of their range; 9*n*v takes bit lengths 7-12
    for n in range(11, 49):
        for v in range(1, 10):
            for w in (9, -9):
                assert Matrix([[v] * n] * n) * Matrix([[w] * n] * n) == Matrix([[n * v * w] * n] * n)


def test_inverse_of_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse(mk([[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.zeros(3))


def test_index_set_validation_and_complement():
    s = IndexSet(5, (2, 4))
    assert s.complement().members == (1, 3, 5)
    assert IndexSet(3, (1, 2, 3)).complement().members == ()
    with pytest.raises(ValueError):
        IndexSet(3, (2, 1))
    with pytest.raises(ValueError):
        IndexSet(3, (1, 4))
    with pytest.raises(ValueError):
        IndexSet(3, (2, 2))
    # bases and members are integers: a bool or a float names no index
    for base, members in ((2.5, (1, 2)), (True, ()), (0, ()), (3, (True, 2)), (3, (1, 2.0))):
        with pytest.raises(ValueError):
            IndexSet(base, members)


def test_submatrix_and_principal_minor():
    d4 = mk([[1, 1, 1, 1], [1, 2, 2, 2], [1, 2, 3, 3], [1, 2, 3, 4]])
    assert principal_minor(d4, [1, 2]) == 1
    assert principal_minor(GOLD_A, [1, 2, 3]) == det(GOLD_A) == -1
    assert principal_minor(GOLD_A, [2]) == 1
    assert principal_minor(GOLD_A, []) == 1
    assert submatrix(d4, [1, 3], [2, 4]) == mk([[1, 1], [2, 3]])
    with pytest.raises(ValueError):
        submatrix(d4, [1, 2], [1])
    with pytest.raises(ValueError, match="nonempty"):
        submatrix(d4, [], [])
    # a float index is rejected as an out-of-range one is
    with pytest.raises(ValueError):
        submatrix(d4, [1.0, 2], [1, 2])
    with pytest.raises(ValueError):
        principal_minor(d4, [1, 2.5])
    with pytest.raises(ValueError):
        complementary_minor_check(d4, [1.0], [1])
    with pytest.raises(ValueError, match="nonempty"):
        complementary_minor_check(d4, [], [])
    with pytest.raises(ValueError, match="equal size"):
        complementary_minor_check(d4, [1, 2], [1])


def test_complementary_minor_golden_cases():
    assert complementary_minor_check(Matrix.identity(3), [1], [1])
    assert complementary_minor_check(GOLD_A, [1, 2], [2, 3])


def test_complementary_minor_property_all_sizes():
    # det B[a|b] = +-det A[b'|a'] / det A must hold for every index pair
    rng = random.Random(515)
    done = 0
    while done < 8:
        n = rng.randint(2, 6)
        a = Matrix(random_rows(rng, n))
        if det(a) == 0:
            continue
        done += 1
        idx = list(range(1, n + 1))
        for size in range(1, n):
            for _ in range(12):
                alpha = sorted(rng.sample(idx, size))
                beta = sorted(rng.sample(idx, size))
                assert complementary_minor_check(a, alpha, beta)


def test_complementary_minor_requires_nonsingular():
    with pytest.raises(SingularMatrixError):
        complementary_minor_check(Matrix.zeros(2), [1], [1])


def test_repr_round_trips_through_eval():
    a = mk([[1, -2], [Fraction(1, 2), 3]])
    assert eval(repr(a), {"Matrix": Matrix, "Fraction": Fraction}) == a
