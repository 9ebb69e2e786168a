"""Digraph layer: nonzero patterns, irreducibility, simple paths, and the
path-sum inverse formula. The path formula is validated entrywise against
the algebraic inverse, which settles the orientation (paths from v_i to
v_j produce entry (i, j) of the inverse)."""

import random
import sys
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zmx import (
    Digraph,
    Matrix,
    OrderCapError,
    Path,
    SingularMatrixError,
    digraph_of,
    det,
    enumerate_paths,
    from_cyclic_params,
    inverse,
    is_irreducible,
    is_unipathic,
    maybee_entry,
    principal_minor,
    to_dot,
)
from zmx import digraph, matrix
from zmx.matrix import _bareiss, _principal_minors
from zmx.sampling import random_bdsw, random_nonsingular


def mk(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


BDSW3 = mk([[-1, -1, 0], [0, -1, -1], [-2, 0, 1]])
BDSW4 = mk([[2, 1, 0, 0], [0, 1, 3, 0], [0, 0, -1, 1], [4, 0, 0, 2]])
FULL3 = Digraph(3, {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)})


def test_digraph_edges_follow_nonzero_pattern():
    d = digraph_of(BDSW4)
    cycle = {(1, 2), (2, 3), (3, 4), (4, 1)}
    loops = {(i, i) for i in range(1, 5)}
    assert d.edges == cycle | loops
    assert len(d.edges) == 2 * 4


def test_digraph_of_zero_and_identity():
    assert digraph_of(Matrix.zeros(3)).edges == set()
    assert digraph_of(Matrix.identity(3)).edges == {(1, 1), (2, 2), (3, 3)}


def test_digraph_validates_edges():
    with pytest.raises(ValueError):
        Digraph(2, {(1, 3)})
    with pytest.raises(ValueError):
        Digraph(0, set())


def test_vertices_must_be_integers():
    # vertices and orders are integers, as IndexSet's are: a float in range or
    # a bool names none
    a = mk([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    d = digraph_of(a)
    calls = [
        lambda: maybee_entry(a, 1, 1.5),
        lambda: maybee_entry(a, True, 2),
        lambda: enumerate_paths(d, 1, 1.5),
        lambda: enumerate_paths(d, 1, 3.0),
        lambda: enumerate_paths(d, True, 2),
        lambda: Digraph(3, [(1, 2.5)]),
        lambda: Digraph(3, [(True, 2)]),
        lambda: Digraph(2.5, [(1, 2)]),
        lambda: Digraph(True, []),
        lambda: Path((1, 2.0), 2),
        lambda: Path((1, 2), 2.5),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_path_type():
    p = Path((1, 2, 3), 4)
    assert p.length == 2
    assert p.off_path() == (4,)
    assert Path((2, 4), 4).off_path() == (1, 3)
    with pytest.raises(ValueError):
        Path((1, 1, 2), 3)
    with pytest.raises(ValueError):
        Path((1,), 3)


def test_irreducible_cases():
    assert is_irreducible(digraph_of(BDSW4))
    assert is_irreducible(digraph_of(mk([[7]])))  # single vertex counts
    assert not is_irreducible(digraph_of(Matrix.identity(2)))
    # full upper triangular has no way back down
    assert not is_irreducible(digraph_of(mk([[1, 1, 1], [0, 1, 1], [0, 0, 1]])))
    assert is_irreducible(FULL3)


def test_irreducibility_passes_to_the_inverse():
    rng = random.Random(88)
    done = 0
    while done < 30:
        n = rng.randint(2, 5)
        a = Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                    for _ in range(n)])
        if det(a) == 0:
            continue
        done += 1
        assert is_irreducible(digraph_of(a)) == is_irreducible(digraph_of(inverse(a)))


def test_enumerate_paths_goldens():
    d4 = digraph_of(BDSW4)
    assert [p.vertices for p in enumerate_paths(d4, 1, 3)] == [(1, 2, 3)]
    loops = Digraph(2, {(1, 1), (2, 2)})
    assert enumerate_paths(loops, 1, 2) == []
    # shorter paths come first, ties broken lexicographically
    assert [p.vertices for p in enumerate_paths(FULL3, 1, 3)] == [(1, 3), (1, 2, 3)]
    with pytest.raises(ValueError):
        enumerate_paths(FULL3, 2, 2)


def test_enumerate_paths_respects_cap():
    big = Digraph(13, {(1, 2)})
    with pytest.raises(OrderCapError):
        enumerate_paths(big, 1, 2)
    assert [p.vertices for p in enumerate_paths(big, 1, 2, cap=13)] == [(1, 2)]


def test_unipathic_cases():
    assert is_unipathic(digraph_of(BDSW4))
    assert is_unipathic(digraph_of(BDSW3))
    assert not is_unipathic(FULL3)
    assert is_unipathic(digraph_of(Matrix.identity(3)))


@st.composite
def small_digraph(draw):
    n = draw(st.integers(1, 7))
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return Digraph(n, draw(st.sets(st.sampled_from(cells), max_size=2 * n)))


def brute_force_paths(d, i, j):
    """Every simple path from v_i to v_j, in shortlex order: the vertex
    sequences i, inner..., j over the other vertices whose consecutive pairs
    are all edges. permutations of the ascending inner vertices come in
    lexicographic order, so each length's paths do too."""
    inner = [v for v in range(1, d.n + 1) if v != i and v != j]
    return [Path((i, *mid, j), d.n)
            for k in range(len(inner) + 1) for mid in permutations(inner, k)
            if all(e in d.edges for e in zip((i, *mid), (*mid, j)))]


@settings(max_examples=300, deadline=None)
@given(small_digraph())
@example(digraph_of(BDSW4))
@example(FULL3)
def test_is_unipathic_matches_path_listing(d):
    # both walks against a reference that shares no code with them
    want = {(i, j): brute_force_paths(d, i, j)
            for i in range(1, d.n + 1) for j in range(1, d.n + 1) if i != j}
    for (i, j), paths in want.items():
        assert enumerate_paths(d, i, j) == paths
    assert is_unipathic(d) == all(len(paths) <= 1 for paths in want.values())


def warshall_closure(d):
    """reach[u][v] (0-based) when some walk of at least one edge, loops
    included, leads from v_(u+1) to v_(v+1)."""
    n = d.n
    reach = [[(u, v) in d.edges for v in range(1, n + 1)] for u in range(1, n + 1)]
    for k in range(n):
        for row in reach:
            if row[k]:
                row[:] = [r or t for r, t in zip(row, reach[k])]
    return reach


@settings(max_examples=300, deadline=None)
@given(small_digraph())
@example(Digraph(1, []))  # a single vertex is irreducible, loop or not
@example(Digraph(2, {(1, 2), (1, 1)}))  # v1 reaches v2, nothing reaches v1
@example(Digraph(2, {(2, 1), (2, 2)}))  # v2 reaches v1, v1 reaches nothing
@example(FULL3)
def test_is_irreducible_matches_warshall_closure(d):
    reach = warshall_closure(d)
    want = d.n == 1 or all(reach[u][v] for u in range(d.n) for v in range(d.n) if u != v)
    assert is_irreducible(d) == want


def test_maybee_entry_golden_path():
    # unique path v1 -> v2 -> v3, one term: (-1)^2 * (-1)(-1) * det[] / det
    assert maybee_entry(BDSW3, 1, 3) == Fraction(-1)
    assert maybee_entry(Matrix.identity(3), 2, 2) == 1


def test_maybee_reconstructs_the_inverse_of_the_golden():
    want = mk([[1, -1, -1], [-2, 1, 1], [2, -2, -1]])
    got = Matrix([[maybee_entry(BDSW3, i, j) for j in (1, 2, 3)]
                  for i in (1, 2, 3)])
    assert got == want == inverse(BDSW3)


def test_maybee_matches_inverse_on_random_dense():
    rng = random.Random(3191)
    done = 0
    while done < 25:
        n = rng.randint(2, 4)
        a = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(n)])
        if det(a) == 0:
            continue
        done += 1
        inv = inverse(a)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert maybee_entry(a, i, j) == inv.entry(i, j)


def test_maybee_requires_nonsingular():
    with pytest.raises(SingularMatrixError):
        maybee_entry(Matrix.zeros(2), 1, 2)


def path_formula(a, i, j):
    # the formula term by term over Fractions: one Path and one minor per path
    d = det(a)
    if d == 0:
        raise SingularMatrixError("singular")
    if i == j:
        return principal_minor(a, [k for k in range(1, a.n + 1) if k != i]) / d
    total = Fraction(0)
    for p in enumerate_paths(digraph_of(a), i, j):
        term = principal_minor(a, p.off_path())
        for u, w in zip(p.vertices, p.vertices[1:]):
            term *= a.entry(u, w)
        total += (-1) ** p.length * term
    return total / d


@st.composite
def zero_heavy(draw):
    n = draw(st.integers(1, 7))
    entry = st.builds(Fraction, st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3)),
                      st.sampled_from((1, 2, 3, 5, 7)))
    return Matrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=150, deadline=None)
@given(zero_heavy())
def test_maybee_entry_matches_path_formula_and_inverse(a):
    n = a.n
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if det(a) == 0:
        for i, j in cells:
            with pytest.raises(SingularMatrixError):
                maybee_entry(a, i, j)
        return
    inv = inverse(a)
    for i, j in cells:
        assert maybee_entry(a, i, j) == path_formula(a, i, j) == inv.entry(i, j)


def counted_eliminations(monkeypatch):
    """Record the row count of every elimination, wherever it is made."""
    calls = []

    def counted(m):
        calls.append(len(m))
        return _bareiss(m)

    monkeypatch.setattr(matrix, "_bareiss", counted)
    monkeypatch.setattr(digraph, "_bareiss", counted)
    return calls


def swept_sets(n, wanted=None):
    """The index tuples the minor sweep of an order-n grid visits: every
    nonempty subset, or, given wanted, the nonempty prefixes (in index
    order) of the wanted sets."""
    if wanted is None:
        return {c for k in range(1, n + 1) for c in combinations(range(n), k)}
    members = [tuple(k for k in range(n) if mask >> k & 1) for mask in wanted]
    return {c[:q] for c in members for q in range(1, len(c) + 1)}


def sweep_fallbacks(grid, wanted=None):
    """How many of the sets it visits the minor sweep eliminates from
    scratch: those with a zero minor on a prefix (in index order) at least
    two shorter, since a set's reduced grid is divided by its parent's minor."""
    sets = swept_sets(len(grid), wanted)
    minors = {c: _bareiss([[grid[r][q] for q in c] for r in c]) for c in sets}
    return sum(1 for c in sets if any(minors[c[:q]] == 0 for q in range(1, len(c) - 1)))


def off_path_sets(a, i, j):
    """The off-path vertex masks of the paths from v_i to v_j (0-based)."""
    n = a.n
    through = [k for k in range(n) if k not in (i, j)]
    sums = digraph._path_sums(a._grid, i, through)
    return {(1 << n) - 1 ^ on for on, ends in sums.items() if ends.get(j)}


def test_maybee_entry_shares_minors_between_paths(monkeypatch):
    rng = random.Random(707)
    while True:
        a = mk([[rng.choice((1, -1, 2, -3, 5)) for _ in range(7)] for _ in range(7)])
        if det(a) != 0:
            break
    want = inverse(a).entry(2, 6)
    fallbacks = sweep_fallbacks(a._grid, off_path_sets(a, 1, 5))
    calls = counted_eliminations(monkeypatch)
    assert maybee_entry(a, 2, 6) == want
    # det G, then the one sweep over the five vertices other than the
    # endpoints, which eliminates only the sets below a zero minor
    assert calls[0] == 7
    assert len(calls) == 1 + fallbacks < 1 + 2 ** 5


def test_maybee_entry_off_the_diagonal_eliminates_only_det_g(monkeypatch):
    # strictly diagonally dominant with a positive diagonal: no principal
    # minor is zero, so the sweep reads every off-path minor off its parent
    n = 8
    a = mk([[3 * n if r == c else (-1) ** (r * c) for c in range(n)] for r in range(n)])
    want = inverse(a).entry(2, 7)
    calls = counted_eliminations(monkeypatch)
    assert maybee_entry(a, 2, 7) == want
    assert calls == [n]


def test_maybee_entry_on_the_diagonal_eliminates_det_g_and_one_minor(monkeypatch):
    # entry (i, i) is det G[V - i] / det G: one elimination each, no sweep
    rng = random.Random("maybee-diagonal")
    cases = [(a, inverse(a)) for a in (random_nonsingular(rng, n) for n in range(1, 9))]
    sweeps = counted_sweeps(monkeypatch)
    calls = counted_eliminations(monkeypatch)
    for a, inv in cases:
        for i in range(1, a.n + 1):
            calls.clear()
            assert maybee_entry(a, i, i) == inv.entry(i, i)
            assert calls == ([a.n, a.n - 1] if a.n > 1 else [1])
    assert sweeps == []


@pytest.mark.parametrize("kind", ["dense", "bdsw", "zero-heavy"])
def test_maybee_inverse_eliminates_the_full_grid_once(monkeypatch, kind):
    rng = random.Random(f"maybee-inverse|{kind}")
    cases = []
    for n in range(1 if kind != "bdsw" else 2, 9):
        if kind == "dense":
            a = random_nonsingular(rng, n)
        elif kind == "bdsw":
            a = random_bdsw(rng, n)
        else:
            a = mk([[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)])
            if det(a) == 0:
                continue
        sums = [digraph._path_sums(a._grid, i, [k for k in range(n) if k != i]) for i in range(n)]
        offs = {(1 << n) - 1 ^ on for row in sums for on in row}
        cases.append((a, inverse(a), sweep_fallbacks(a._grid, offs)))
    calls = counted_eliminations(monkeypatch)
    for a, inv, fallbacks in cases:
        calls.clear()
        assert digraph._maybee_inverse(a) == inv
        # det G once; every other elimination is a sweep fallback below order n
        assert calls.count(a.n) == 1
        assert len(calls) == 1 + fallbacks


def test_maybee_inverse_of_a_bdsw_matrix_sweeps_polynomially_many_sets(monkeypatch):
    # row i's off-path sets are the cyclic arcs missing v_i, whose prefixes
    # number (n^3 + 5n) / 6 - 1 in all, against 2^n - 2 for the whole sweep
    rng = random.Random("maybee-inverse-bdsw-count")
    cases = [(a, inverse(a)) for a in (random_bdsw(rng, n) for n in range(8, 33))]
    sweeps = counted_sweeps(monkeypatch)
    for a, inv in cases:
        sweeps.clear()
        assert digraph._maybee_inverse(a, cap=32) == inv
        assert sweeps == [[(1 << a.n) - 1, (a.n ** 3 + 5 * a.n) // 6 - 1]]


def test_maybee_inverse_fails_as_maybee_entry_does():
    singular = mk([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    with pytest.raises(SingularMatrixError):
        digraph._maybee_inverse(singular, cap=1)
    with pytest.raises(OrderCapError):
        digraph._maybee_inverse(Matrix.identity(3), cap=2)
    # an order-1 inverse is a diagonal entry, which the cap never guards
    assert digraph._maybee_inverse(mk([[4]]), cap=0) == mk([[Fraction(1, 4)]])


@settings(max_examples=150, deadline=None)
@given(zero_heavy())
def test_path_sums_group_the_listed_paths_by_vertex_set(a):
    n, grid, d = a.n, a._grid, digraph_of(a)

    def nonzero(sums, j):
        return {m: ends[j] for m, ends in sums.items() if ends.get(j)}

    for i in range(n):
        # the row form passes through every vertex but i, and i ends only
        # the empty path
        row = digraph._path_sums(grid, i, [k for k in range(n) if k != i])
        assert row[1 << i] == {i: 1}
        assert all(i not in ends for on, ends in row.items() if on != 1 << i)
        for j in range(n):
            if i == j:
                continue
            want: dict[int, int] = {}
            for p in enumerate_paths(d, i + 1, j + 1):
                mask = sum(1 << (v - 1) for v in p.vertices)
                term = (-1) ** p.length
                for u, w in zip(p.vertices, p.vertices[1:]):
                    term *= grid[u - 1][w - 1]
                want[mask] = want.get(mask, 0) + term
            want = {m: s for m, s in want.items() if s}
            # the entry form passes through every vertex but i and j, so j
            # only ever ends a path
            entry = digraph._path_sums(grid, i, [k for k in range(n) if k not in (i, j)])
            assert all(list(ends) == [j] for m, ends in entry.items() if m >> j & 1)
            assert nonzero(entry, j) == want
            assert nonzero(row, j) == want


@settings(max_examples=150, deadline=None)
@given(zero_heavy(), st.data())
def test_minor_sweep_yields_every_principal_minor_or_the_wanted_prefixes(a, data):
    # every subset without wanted, else exactly the prefixes of the wanted
    # sets, in the same order; the wanted sets lie in a drawn index subset,
    # so the sweep runs over fewer indices than the grid has
    n, lcm = a.n, a._lcm
    within = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    masks = [sum(1 << c for c in s) for k in range(len(within) + 1) for s in combinations(within, k)]
    wanted = data.draw(st.one_of(st.none(), st.just([]), st.lists(st.sampled_from(masks))))
    sets = swept_sets(n, wanted)
    want = [
        (k, sum(1 << c for c in s), principal_minor(a, [c + 1 for c in s]) * lcm ** k)
        for k in range(1, n + 1) for s in combinations(range(n), k) if s in sets
    ]
    assert list(_principal_minors(a._grid, wanted)) == want


def test_maybee_entry_at_the_cap_order(monkeypatch):
    # a dense order-12 inverse cyclic matrix: some 10^7 simple paths run
    # from v3 to v9, on 2^10 vertex sets
    n = 12
    a = from_cyclic_params([1 + k % 3 for k in range(n)],
                           [(-1) ** k * (1 + k % 2) for k in range(n - 1)], 3)
    assert all(all(row) for row in a._grid)
    want = inverse(a).entry(3, 9)
    fallbacks = sweep_fallbacks(a._grid, off_path_sets(a, 2, 8))
    calls = counted_eliminations(monkeypatch)
    assert maybee_entry(a, 3, 9) == want
    assert calls[0] == n
    assert len(calls) == 1 + fallbacks < 1 + 2 ** 10


def counted_sweeps(monkeypatch):
    """Record the union of the sets visited, as a mask, and their number, of
    every sweep."""
    calls = []

    def counted(grid, wanted=None):
        calls.append([0, 0])
        for item in _principal_minors(grid, wanted):
            calls[-1][0] |= item[1]
            calls[-1][1] += 1
            yield item

    monkeypatch.setattr(digraph, "_principal_minors", counted)
    return calls


def test_maybee_entry_sweeps_only_the_prefixes_of_a_bdsw_path_set(monkeypatch):
    # a bdsw entry has one path, so the sweep visits the prefixes of its
    # off-path set: at most n - 2 of the 2^10 subsets
    n = 12
    a = random_bdsw(random.Random("maybee-sparse"), n)
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    want = inverse(a)
    fallbacks = {(i, j): sweep_fallbacks(a._grid, off_path_sets(a, i - 1, j - 1)) for i, j in cells}
    sweeps = counted_sweeps(monkeypatch)
    calls = counted_eliminations(monkeypatch)
    for i, j in cells:
        calls.clear()
        sweeps.clear()
        assert maybee_entry(a, i, j) == want.entry(i, j)
        (off,) = off_path_sets(a, i - 1, j - 1)
        # one sweep over the path set's prefixes; det G and the fallbacks
        assert sweeps == [[off, off.bit_count()]] and off.bit_count() <= n - 2
        assert calls[0] == n and len(calls) == 1 + fallbacks[i, j]


def test_maybee_entry_sweeps_a_dense_entry(monkeypatch):
    a = random_nonsingular(random.Random("maybee-dense"), 7)
    want = inverse(a).entry(2, 6)
    sweeps = counted_sweeps(monkeypatch)
    assert maybee_entry(a, 2, 6) == want
    # the sweep stays off the endpoints v2 and v6
    assert sweeps == [[0b1011101, len(swept_sets(7, off_path_sets(a, 1, 5)))]]


@st.composite
def bdsw(draw):
    return random_bdsw(random.Random(draw(st.integers(0, 2**32))), draw(st.integers(2, 12)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(zero_heavy(), bdsw()), st.data())
def test_maybee_entry_matches_inverse_on_sparse_and_dense_inputs(a, data):
    # one path per entry (bdsw) or many (dense)
    assume(det(a) != 0)
    inv = inverse(a)
    cell = st.integers(1, a.n)
    for _ in range(4):
        i, j = data.draw(cell), data.draw(cell)
        assert maybee_entry(a, i, j) == inv.entry(i, j)


def test_path_walks_do_not_recurse_per_vertex():
    # the bdsw pattern: loops, the super-diagonal and the (n, 1) corner, one
    # cycle through every vertex, longer than the recursion limit
    n = sys.getrecursionlimit() + 100
    d = Digraph(n, [(k, k) for k in range(1, n + 1)]
                + [(k, k + 1) for k in range(1, n)] + [(n, 1)])
    assert is_unipathic(d)
    assert enumerate_paths(d, 1, n, cap=n) == [Path(tuple(range(1, n + 1)), n)]


@pytest.mark.parametrize("kind", ["dense", "bdsw"])
def test_maybee_entry_follows_a_permutation_of_the_vertices(kind):
    rng = random.Random(f"maybee-permutation|{kind}")
    for n in range(2, 10):
        a = random_nonsingular(rng, n) if kind == "dense" else random_bdsw(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = a.rows
        pap = Matrix([[rows[r][c] for c in perm] for r in perm])
        for _ in range(4):
            k, l = rng.randrange(n), rng.randrange(n)
            assert maybee_entry(pap, k + 1, l + 1) == maybee_entry(a, perm[k] + 1, perm[l] + 1)


def test_dot_export():
    text = to_dot(digraph_of(mk([[1, 1], [0, 1]])))
    lines = text.splitlines()
    assert lines[0] == "digraph {"
    assert lines[-1] == "}"
    assert "  v1 -> v1;" in lines
    assert "  v1 -> v2;" in lines
    assert "  v2 -> v1;" not in lines
    # deterministic output: vertices then sorted edges
    assert text == to_dot(digraph_of(mk([[1, 1], [0, 1]])))
