"""Digraphs of square matrices and the path formula for inverse entries.

The digraph D(A) of an order-n matrix has vertices v1..vn and an edge (i, j)
exactly when a_ij != 0; loops count. Digraph(...) and Path(...) check their
input; digraph_of and enumerate_paths, whose vertices are in range by
construction, build them with _make. Irreducibility of A is strong
connectivity of D(A), with n = 1 irreducible by convention. Every walk reads
the out-lists of _adjacency, and both path questions run the one simple-path
DFS, _walk, on an explicit stack rather than the call stack. Path enumeration
lists every path, so it carries a hard order cap (the dense worst case is
factorial); exceeding the cap raises OrderCapError rather than silently
grinding. is_unipathic stops at the second path to any vertex, so it is
polynomial and uncapped. maybee_entry does not walk the paths: it sums the
path formula by vertex set in O(n^2 * 2^n) integer work, its off-path minors
from one sweep over their prefixes only, polynomially many for a unipathic
(bdsw) matrix; _maybee_inverse sums all rows, the diagonal as the empty path, in one sweep.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Iterator

from zmx.errors import ORDER_CAP, SingularMatrixError, check_order_cap
from zmx.matrix import Matrix, _bareiss, _is_index, _principal_minors


class Digraph(namedtuple("Digraph", "n edges")):
    """Vertex set {1..n} plus a frozenset of directed edges, loops allowed."""

    __slots__ = ()

    def __new__(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Digraph":
        if not _is_index(n, n):
            raise ValueError(f"digraph order {n!r} is not a positive integer")
        es = [(i, j) for i, j in edges]
        for i, j in es:
            if not (_is_index(i, n) and _is_index(j, n)):
                raise ValueError(f"edge ({i},{j}) outside vertex range 1..{n}")
        return super().__new__(cls, n, frozenset(es))


class Path(namedtuple("Path", "vertices n")):
    """Simple path, stored as its vertex sequence inside {1..n}."""

    __slots__ = ()

    def __new__(cls, vertices: tuple[int, ...], n: int) -> "Path":
        if len(vertices) < 2:
            raise ValueError("a path has at least one edge")
        if len(set(vertices)) != len(vertices):
            raise ValueError("path vertices must be distinct")
        if not (_is_index(n, n) and all(_is_index(v, n) for v in vertices)):
            raise ValueError(f"path vertices must be integers in 1..{n!r}")
        return super().__new__(cls, vertices, n)

    @property
    def length(self) -> int:
        """Edge count l(p)."""
        return len(self.vertices) - 1

    def off_path(self) -> tuple[int, ...]:
        """Ascending complement of the path's vertex set in {1..n}."""
        on = set(self.vertices)
        return tuple(v for v in range(1, self.n + 1) if v not in on)


def digraph_of(a: Matrix) -> Digraph:
    n = a.n
    g = a._grid
    # edges read off grid indices are in range, so _make skips __new__'s checks
    return Digraph._make(
        (n, frozenset((i + 1, j + 1) for i in range(n) for j in range(n) if g[i][j]))
    )


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Out-lists indexed by vertex 1..n (slot 0 unused), in edge order."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for i, j in edges:
        adj[i].append(j)
    return adj


def _walk(adj: list[list[int]], source: int, stop: int | None) -> Iterator[list[int]]:
    """Each simple path from source, as the trail (source first) after each step
    of a DFS on an explicit stack; the list is reused, so read it before
    resuming. The walk does not go on past stop."""
    on_trail = [False] * len(adj)
    on_trail[source] = True
    trail = [source]
    stack = [iter(adj[source])]  # one neighbour iterator per trail vertex
    while stack:
        for w in stack[-1]:
            if not on_trail[w]:
                trail.append(w)
                yield trail
                if w == stop:
                    trail.pop()
                    continue
                on_trail[w] = True
                stack.append(iter(adj[w]))
                break
        else:
            stack.pop()
            on_trail[trail.pop()] = False


def is_irreducible(d: Digraph) -> bool:
    """Strong connectivity of d: v1 reaches every vertex along the edges and
    against them, so a single vertex is irreducible."""
    for reverse in (False, True):
        adj = _adjacency(d.n, [(j, i) for i, j in d.edges] if reverse else d.edges)
        seen = [False] * (d.n + 1)
        seen[1] = True
        stack, left = [1], d.n - 1  # left: the vertices not yet reached
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    left -= 1
                    stack.append(w)
        if left:
            return False
    return True


def enumerate_paths(d: Digraph, i: int, j: int, cap: int = ORDER_CAP) -> list[Path]:
    """All simple paths from v_i to v_j, i != j, in shortlex order."""
    if not (_is_index(i, d.n) and _is_index(j, d.n)):
        raise ValueError(f"vertices must be integers in 1..{d.n}")
    if i == j:
        raise ValueError("path endpoints must differ")
    check_order_cap(d.n, cap)
    found = [tuple(t) for t in _walk(_adjacency(d.n, d.edges), i, j) if t[-1] == j]
    found.sort(key=lambda vs: (len(vs), vs))
    # each trail holds distinct vertices of d, so _make skips Path's checks
    return [Path._make((vs, d.n)) for vs in found]


def is_unipathic(d: Digraph) -> bool:
    """True when every ordered vertex pair (i, j), i != j, has at most one simple path.

    One walk over the simple paths from each source: every step onto a
    vertex is a distinct simple path to it, so the second arrival at any
    vertex answers False. It enters each vertex at most once per source, so
    it costs O(n(n+m)) and needs no order cap.
    """
    adj = _adjacency(d.n, d.edges)
    for source in range(1, d.n + 1):
        arrived = [False] * (d.n + 1)
        for trail in _walk(adj, source, None):
            w = trail[-1]
            if arrived[w]:
                return False
            arrived[w] = True
    return True


def _path_sums(grid: list[list[int]], i: int, through) -> dict[int, dict[int, int]]:
    """{vertex mask: {endpoint: sum of (-1)^l(p) * G[p]}} over the simple paths
    p from i, the empty path included, whose inner vertices all lie in through.

    Indices are 0-based, and bit k of a mask is vertex k, endpoints included.
    A frontier DP takes one edge per step and keeps, for each vertex mask,
    the signed product sum of the paths ending at each vertex, so paths on
    the same vertex set are summed together: O(n^2 * 2^n) integer work
    rather than one walk per path. through = V - {i, j} gives the paths from
    i to j; through = V - {i} gives all of row i, the l = 0 term {1 << i: {i: 1}} too.
    """
    go = sum(1 << k for k in through) | 1 << i
    # only i and the vertices in through are left again; no path re-enters i
    adj = [[(w, 1 << w, g) for w, g in enumerate(row) if g and w != u and w != i]
           if go >> u & 1 else [] for u, row in enumerate(grid)]
    frontier: dict[int, dict[int, int]] = {1 << i: {i: 1}}
    sums = dict(frontier)
    while frontier:
        step: dict[int, dict[int, int]] = {}
        for on, ends in frontier.items():
            for u, signed in ends.items():
                for w, bit, g in adj[u]:
                    if not on & bit:
                        row = step.setdefault(on | bit, {})
                        row[w] = row.get(w, 0) - signed * g
        sums.update(step)
        frontier = step
    return sums


def _det_g(grid) -> int:
    """det G for the integer grid G; raises SingularMatrixError when it is 0."""
    d_g = _bareiss([list(row) for row in grid])
    if d_g == 0:
        raise SingularMatrixError("matrix is singular, no inverse exists")
    return d_g


def maybee_entry(a: Matrix, i: int, j: int, cap: int = ORDER_CAP) -> Fraction:
    """Entry (i, j) of inverse(a) computed by the path formula.

    Diagonal: det A(i) / det A, where A(i) drops row and column i. Off the
    diagonal the entry is a signed sum over the simple paths p from v_i to
    v_j in D(A):

        (1 / det A) * sum_p (-1)^l(p) * A[p] * det A[V(p)]

    with A[p] the product of the entries along p and V(p) the vertices off p.
    The empty minor (paths covering every vertex) contributes 1.

    The sum runs in integers: with A = G / L for the lcm L of the entry
    denominators, each term is L * G[p] * det G[V(p)] / det G. Paths with
    the same vertex set share their minor, so _path_sums groups the signed
    products (-1)^l(p) G[p] by vertex set in O(n^2 * 2^n) integer work. One
    principal-minor sweep, asked for the off-path sets, visits only their
    prefixes, each in O(1) integer work (a bdsw entry's one path misses k
    vertices: k sets); only det G and sets below a zero minor are eliminated.
    """
    n = a.n
    if not (_is_index(i, n) and _is_index(j, n)):
        raise ValueError(f"indices must be integers in 1..{n}")
    lcm, grid = a._lcm, a._grid
    d_g = _det_g(grid)
    i, j = i - 1, j - 1
    others = [k for k in range(n) if k != i and k != j]
    if i == j:
        return Fraction(lcm * (_bareiss([[grid[r][c] for c in others] for r in others])
                               if others else 1), d_g)
    check_order_cap(n, cap)
    sums = {on: ends[j] for on, ends in _path_sums(grid, i, others).items() if ends.get(j)}
    full = (1 << n) - 1
    offs = {full ^ on for on in sums}
    minors = {0: 1} | {mask: m for _, mask, m in _principal_minors(grid, offs)}
    return Fraction(lcm * sum(s * minors[full ^ on] for on, s in sums.items()), d_g)


def _maybee_inverse(a: Matrix, cap: int = ORDER_CAP) -> Matrix:
    """inverse(a) by the path formula of maybee_entry, one row at a time.

    det G is eliminated once and row i is one _path_sums from i. One sweep
    over every row's off-path sets gives the minors; each state (vertex mask,
    endpoint j), the empty path's at j = i too, adds its sum times det
    G[V - mask] to entry (i, j). Errors come in maybee_entry's order:
    SingularMatrixError, then the order cap, never met at order 1.
    """
    n, lcm, grid = a.n, a._lcm, a._grid
    d_g = _det_g(grid)
    if n > 1:
        check_order_cap(n, cap)
    full = (1 << n) - 1
    sums = [_path_sums(grid, i, [k for k in range(n) if k != i]) for i in range(n)]
    offs = {full ^ on for row in sums for on in row}
    minors = {0: 1} | {mask: m for _, mask, m in _principal_minors(grid, offs)}
    rows = []
    for row_sums in sums:
        row = [0] * n
        for on, ends in row_sums.items():
            m = minors[full ^ on]
            for j, s in ends.items():
                row[j] += s * m
        rows.append([lcm * x for x in row])
    return Matrix._from_grid(d_g, rows)


def to_dot(d: Digraph) -> str:
    """DOT source for d, loop edges included, deterministically ordered."""
    lines = ["digraph {"]
    for v in range(1, d.n + 1):
        lines.append(f"  v{v};")
    for i, j in sorted(d.edges):
        lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
