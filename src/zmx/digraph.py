"""Digraphs of square matrices and the path formula for inverse entries.

The digraph D(A) of an order-n matrix has vertices v1..vn and an edge (i, j)
exactly when a_ij != 0; loops count. Irreducibility of A is strong
connectivity of D(A), with n = 1 irreducible by convention. Path enumeration
is exhaustive DFS over simple paths, so it carries a hard order cap (the
dense worst case is factorial); exceeding the cap raises OrderCapError
rather than silently grinding. maybee_entry does not walk the paths: it
sums the path formula in integers by vertex set, O(n^2 * 2^n) work, and
makes one elimination per vertex set, at most 1 + 2^(n-2) for an entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from zmx.errors import ORDER_CAP, SingularMatrixError, check_order_cap
from zmx.matrix import Matrix, _bareiss


@dataclass(frozen=True)
class Digraph:
    """Vertex set {1..n} plus a set of directed edges, loops allowed."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 1:
            raise ValueError("digraph needs at least one vertex")
        es = frozenset((int(i), int(j)) for i, j in edges)
        for i, j in es:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) outside vertex range 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", es)


@dataclass(frozen=True)
class Path:
    """Simple path, stored as its vertex sequence inside {1..n}."""

    vertices: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        vs = self.vertices
        if len(vs) < 2:
            raise ValueError("a path has at least one edge")
        if len(set(vs)) != len(vs):
            raise ValueError("path vertices must be distinct")
        if any(not (1 <= v <= self.n) for v in vs):
            raise ValueError(f"path vertices must lie in 1..{self.n}")

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
    return Digraph(
        n,
        ((i + 1, j + 1) for i in range(n) for j in range(n) if g[i][j]),
    )


def _adjacency(d: Digraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(d.n + 1)]
    for i, j in d.edges:
        adj[i].append(j)
    for lst in adj:
        lst.sort()
    return adj


def is_irreducible(d: Digraph) -> bool:
    """Strong connectivity of d; a single vertex is irreducible by convention."""
    if d.n == 1:
        return True
    fwd: list[list[int]] = [[] for _ in range(d.n + 1)]
    rev: list[list[int]] = [[] for _ in range(d.n + 1)]
    for i, j in d.edges:
        if i != j:
            fwd[i].append(j)
            rev[j].append(i)

    def reaches_all(adj):
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == d.n

    return reaches_all(fwd) and reaches_all(rev)


def enumerate_paths(d: Digraph, i: int, j: int, cap: int = ORDER_CAP) -> list[Path]:
    """All simple paths from v_i to v_j, i != j, in shortlex order."""
    if not (1 <= i <= d.n and 1 <= j <= d.n):
        raise ValueError(f"vertices must lie in 1..{d.n}")
    if i == j:
        raise ValueError("path endpoints must differ")
    check_order_cap(d.n, cap)
    adj = _adjacency(d)
    found: list[tuple[int, ...]] = []
    trail = [i]
    on_trail = [False] * (d.n + 1)
    on_trail[i] = True

    def walk(u: int) -> None:
        for w in adj[u]:
            if w == j:
                found.append(tuple(trail) + (j,))
            elif not on_trail[w]:
                on_trail[w] = True
                trail.append(w)
                walk(w)
                trail.pop()
                on_trail[w] = False

    walk(i)
    found.sort(key=lambda vs: (len(vs), vs))
    return [Path(vs, d.n) for vs in found]


def is_unipathic(d: Digraph, cap: int = ORDER_CAP) -> bool:
    """True when every ordered vertex pair (i, j), i != j, has at most one simple path.

    One DFS over the simple paths from each source: every arrival at a
    vertex is a distinct simple path to it, so the second arrival at any
    vertex answers False.
    """
    check_order_cap(d.n, cap)
    adj = _adjacency(d)
    for source in range(1, d.n + 1):
        arrived = [False] * (d.n + 1)
        on_trail = [False] * (d.n + 1)
        on_trail[source] = True

        def second_arrival(u: int) -> bool:
            for w in adj[u]:
                if on_trail[w]:
                    continue
                if arrived[w]:
                    return True
                arrived[w] = on_trail[w] = True
                if second_arrival(w):
                    return True
                on_trail[w] = False
            return False

        if second_arrival(source):
            return False
    return True


def _path_sums(grid: list[list[int]], i: int, j: int) -> dict[int, int]:
    """{vertex mask: sum of (-1)^l(p) * G[p]} over the simple paths p from i to j.

    Indices are 0-based, i != j, and bit k of a mask is vertex k, endpoints
    included. A frontier DP takes one edge per step and keeps, for each
    vertex mask, the signed product sum of the paths ending at each vertex,
    so paths on the same vertex set are summed together: O(n^2 * 2^n)
    integer work rather than one walk per path.
    """
    adj = [[(w, 1 << w, g) for w, g in enumerate(row) if g and w != u and w != j]
           for u, row in enumerate(grid)]
    sums: dict[int, int] = {}
    frontier: dict[int, dict[int, int]] = {1 << i: {i: 1}}
    while frontier:
        step: dict[int, dict[int, int]] = {}
        for on, ends in frontier.items():
            total = 0
            for u, signed in ends.items():
                total -= signed * grid[u][j]
                for w, bit, g in adj[u]:
                    if not on & bit:
                        row = step.setdefault(on | bit, {})
                        row[w] = row.get(w, 0) - signed * g
            sums[on | 1 << j] = total
        frontier = step
    return sums


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
    products (-1)^l(p) G[p] by vertex set in O(n^2 * 2^n) integer work, and
    each nonzero group costs one minor: at most 1 + 2^(n-2) eliminations,
    however many paths there are.
    """
    n = a.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices must lie in 1..{n}")
    lcm, grid = a._lcm, a._grid
    d_g = _bareiss([list(row) for row in grid])
    if d_g == 0:
        raise SingularMatrixError("matrix is singular, no inverse exists")

    def minor(ks: list[int]) -> int:
        return _bareiss([[grid[r][c] for c in ks] for r in ks]) if ks else 1

    i, j = i - 1, j - 1
    if i == j:
        return Fraction(lcm * minor([k for k in range(n) if k != i]), d_g)
    check_order_cap(n, cap)
    total = 0
    for on, signed in _path_sums(grid, i, j).items():
        if signed:
            total += signed * minor([k for k in range(n) if not on >> k & 1])
    return Fraction(lcm * total, d_g)


def to_dot(d: Digraph) -> str:
    """DOT source for d, loop edges included, deterministically ordered."""
    lines = ["digraph {"]
    for v in range(1, d.n + 1):
        lines.append(f"  v{v};")
    for i, j in sorted(d.edges):
        lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
