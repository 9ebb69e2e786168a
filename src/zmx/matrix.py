"""Exact rational matrices and the determinant machinery built on them.

A matrix is stored as its canonical integer pair (L, G): L > 0 is the lcm of
the entry denominators and G = L*A is an integer grid, so equal matrices
have equal pairs. Floating point is rejected at the door, so no result here
is ever approximate. Entries come back as fractions.Fraction, built from G
each time rows or entry ask for them; str and repr, like the CLI's writers,
take each entry's lowest-terms text from (L, G) by _entry_strings, one gcd
per entry and no Fraction. The public API is 1-based:
A[i, j] is the entry in row i, column j for 1 <= i, j <= n, matching the
convention used in the docs, error messages and the CLI formats.

Arithmetic runs on G and re-canonicalises with one gcd pass; dense products
pack each row of the right grid into one big integer (Kronecker
substitution). det and inverse run one fraction-free Bareiss elimination
over G (det A = det G / L^n). The inverse runs it forward on [G | I], each
row of I packed into one integer of slots sized by Hadamard's bound; a
fraction-free back substitution on the packed rows finds d * A^-1, d the
last pivot, an integer grid, so every division is exact.
_principal_minors is the one principal-minor sweep, shared by the Z-matrix
taxonomy and the path formula for inverse entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterable, Iterator, Optional, Union

from zmx.errors import SingularMatrixError

Rational = Fraction

Entry = Union[int, str, Fraction]


def _exact(x, name: str) -> Fraction:
    """x as a Fraction; a float raises TypeError, as nothing built on it is exact."""
    if isinstance(x, float):
        raise TypeError(f"{name} must be exact (int, str or Fraction)")
    return x if type(x) is Fraction else Fraction(x)


def _ratio(x, name: str = "entries") -> tuple[int, int]:
    """(numerator, denominator) of an exact entry or parameter, in lowest terms."""
    if type(x) is not int and type(x) is not Fraction:
        x = _exact(x, name)
    return x.numerator, x.denominator


def _cleared(cells) -> tuple[int, list[list[int]]]:
    """K and the grid K*A for rows of (numerator, denominator) pairs, K the lcm
    of the denominators; canonical when every pair is in lowest terms."""
    k = math.lcm(*(q for row in cells for _, q in row))
    return k, [[p * (k // q) for p, q in row] for row in cells]


_PACK_AT = 10  # multiply-adds per output entry past which packing beats the loop


def _packed_product(a, b) -> list[list[int]]:
    """The integer product of two nonzero square grids by Kronecker substitution:
    each row of b becomes one integer of w-byte slots, so an output row is one
    sum of products, whose slots hold its dot products plus n*max|a|*max|b|."""
    n, mb = len(a), max(map(abs, chain.from_iterable(b)))
    off = n * max(map(abs, chain.from_iterable(a))) * mb
    w = off.bit_length() // 8 + 1  # bytes enough for 0..2*off
    ones = int.from_bytes((bytes(w - 1) + b"\1") * n, "big")
    packed = [int.from_bytes(b"".join([(x + mb).to_bytes(w, "big") for x in row]), "big") - mb * ones
              for row in b]
    out = []
    for arow in a:
        s = (off * ones + sum([x * p for x, p in zip(arow, packed) if x])).to_bytes(n * w, "big")
        out.append([int.from_bytes(s[j:j + w], "big") - off for j in range(0, n * w, w)])
    return out


class Matrix:
    """Immutable square matrix over Fraction with 1-based entry access."""

    __slots__ = ("_lcm", "_grid")

    def __init__(self, rows: Iterable[Iterable[Entry]]) -> None:
        cells = [[_ratio(x) for x in row] for row in rows]
        n = len(cells)
        if n == 0:
            raise ValueError("matrix order must be at least 1")
        for row in cells:
            if len(row) != n:
                raise ValueError(f"expected {n} entries per row in an order-{n} matrix, got {len(row)}")
        lcm, grid = _cleared(cells)
        self._lcm, self._grid = lcm, tuple(map(tuple, grid))

    @classmethod
    def _from_grid(cls, lcm: int, grid) -> "Matrix":
        """The matrix grid / lcm for a square integer grid and lcm != 0, brought
        to canonical form by one gcd pass."""
        if lcm != 1:
            g = math.gcd(lcm, *chain.from_iterable(grid)) * (-1 if lcm < 0 else 1)
            if g != 1:
                lcm //= g
                grid = [[x // g for x in row] for row in grid]
        m = object.__new__(cls)
        m._lcm, m._grid = lcm, tuple(map(tuple, grid))
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        if not _is_index(n, n):
            raise ValueError(f"matrix order {n!r} is not a positive integer")
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            grid[i][i] = 1
        return cls._from_grid(1, grid)

    @classmethod
    def zeros(cls, n: int) -> "Matrix":
        return 0 * cls.identity(n)

    @property
    def n(self) -> int:
        return len(self._grid)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self._lcm) for x in row) for row in self._grid)

    def entry(self, i: int, j: int) -> Fraction:
        """Entry in row i, column j (1-based)."""
        n = self.n
        if not (_is_index(i, n) and _is_index(j, n)):
            raise IndexError(f"entry ({i},{j}) outside an order-{n} matrix")
        return Fraction(self._grid[i - 1][j - 1], self._lcm)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entry(i, j)

    def transpose(self) -> "Matrix":
        return Matrix._from_grid(self._lcm, list(zip(*self._grid)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._lcm == other._lcm and self._grid == other._grid

    def __hash__(self) -> int:
        return hash((self._lcm, self._grid))

    def __neg__(self) -> "Matrix":
        return Matrix._from_grid(self._lcm, [[-x for x in row] for row in self._grid])

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def _combine(self, other, sign: int):
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("matrix orders differ")
        lcm = math.lcm(self._lcm, other._lcm)
        p, q = lcm // self._lcm, sign * (lcm // other._lcm)
        return Matrix._from_grid(lcm, [
            [p * a + q * b for a, b in zip(ra, rb)] for ra, rb in zip(self._grid, other._grid)
        ])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if other.n != self.n:
                raise ValueError("matrix orders differ")
            n, brows = self.n, other._grid
            # the loop's multiply-adds per output entry: nnz(A) * nnz(B) / n^3 <= nnz(A) / n
            nnz, top = n * n - sum([row.count(0) for row in self._grid]), _PACK_AT * n
            if nnz > top and nnz * (n * n - sum([row.count(0) for row in brows])) > top * n * n:
                return Matrix._from_grid(self._lcm * other._lcm, _packed_product(self._grid, brows))
            # each output row sums the rows of other scaled by the nonzero
            # entries of the left row, so a sparse factor costs its nonzeros
            bnz = [[j for j, b in enumerate(brow) if b] for brow in brows]
            out = []
            for arow in self._grid:
                orow = [0] * n
                for k, a in enumerate(arow):
                    if a:
                        brow = brows[k]
                        for j in bnz[k]:
                            orow[j] += a * brow[j]
                out.append(orow)
            return Matrix._from_grid(self._lcm * other._lcm, out)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return Matrix._from_grid(
                self._lcm * other.denominator, [[p * x for x in row] for row in self._grid]
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Matrix({_entry_strings(self)})"

    def __str__(self) -> str:
        cells = _entry_strings(self)
        widths = [max(map(len, col)) for col in zip(*cells)]
        return "\n".join(" ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells)


def _entry_strings(a: Matrix) -> list[list[str]]:
    """The rows of a as str(Fraction) writes each entry: p/q in lowest terms,
    or p. Each entry costs one gcd with L, and each quotient of L is written once."""
    lcm = a._lcm
    if lcm == 1:
        return [list(map(str, row)) for row in a._grid]
    gcd, dens, out = math.gcd, {lcm: ""}, []
    for row in a._grid:
        cells = []
        for x in row:
            g = gcd(x, lcm)
            den = dens.get(g)
            if den is None:
                den = dens[g] = f"/{lcm // g}"
            cells.append(f"{x // g}{den}")
        out.append(cells)
    return out


def _is_index(v, n: int) -> bool:
    """Whether v is an integer in 1..n (a bool or 2.0 is not), the one check
    on vertices and indices; _is_index(n, n) says that n is a valid order."""
    return isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= n


class IndexSet:
    """Ascending subset of {1, ..., base}. May be empty (a complement can be).
    Immutable, equal and hashed by (base, members)."""

    __slots__ = ("base", "members")

    def __init__(self, base: int, members: Iterable[int]) -> None:
        if not _is_index(base, base):
            raise ValueError(f"base {base!r} is not a positive integer")
        members = tuple(members)
        prev = 0
        for m in members:
            if not _is_index(m, base):
                raise ValueError(f"index {m} outside 1..{base}")
            if m <= prev:
                raise ValueError("members must be strictly ascending")
            prev = m
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return IndexSet, (self.base, self.members)

    def __repr__(self) -> str:
        return f"IndexSet(base={self.base!r}, members={self.members!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not IndexSet:
            return NotImplemented
        return self.base == other.base and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.base, self.members))

    def complement(self) -> "IndexSet":
        inside = set(self.members)
        return IndexSet(self.base, tuple(i for i in range(1, self.base + 1) if i not in inside))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


def _bareiss(m: list[list[int]]) -> int:
    """Fraction-free Bareiss elimination of the left n x n block of the n x w
    integer grid m, in place. Returns that block's determinant.

    Only the rows below each pivot are reduced, which is all the determinant
    needs; columns right of the block undergo the same row operations, rows
    swapped included. Unless it returns 0, the block ends upper triangular
    with the pivots on its diagonal, the last pivot m[-1][n-1] being the
    determinant of the row-swapped block.
    """
    n = len(m)
    w = len(m[0])
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_i[k]
            # exact divisions, a Bareiss invariant; a zero factor only scales
            if factor:
                for j in range(k + 1, w):
                    row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            else:
                for j in range(k + 1, w):
                    row_i[j] = row_i[j] * pivot // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[-1][n - 1]


def _principal_minors(grid, wanted: Optional[Iterable[int]] = None) -> Iterator[tuple[int, int, int]]:
    """Yield (order, mask, det grid[S, S]) for the nonempty sets S of 0-based
    indices: orders ascending, and within an order the sets in combinations
    order. Bit k of mask is index k. Given wanted, a collection of masks,
    only the prefixes (in index order) of the wanted sets are yielded, as
    each is read off the one before, and the sweep runs over their union.

    Each set S keeps its Bareiss-reduced grid over the swept indices after
    S's last, whose entry (i, j) is det grid[S+i | S+j] by Sylvester's
    identity. The minor of S+p is that grid's diagonal entry at p, and one
    fraction-free step, divided by det grid[S], gives the grid of S+p: O(1)
    integer work per minor. The step is undefined below a zero minor, so sets
    there are eliminated from scratch. A level's grids are built only once
    the next order is asked for.
    """
    idx, keep = list(range(len(grid))), None
    if wanted is not None:
        # strip each set's top index until a prefix already kept
        keep, union = set(), 0
        for mask in wanted:
            union |= mask
            while mask and mask not in keep:
                keep.add(mask)
                mask ^= 1 << mask.bit_length() - 1
        idx = [k for k in idx if union >> k & 1]
    n = len(idx)
    # (positions, mask, grid or None, minor) for the sets that have children
    level = [((), 0, [[grid[r][c] for c in idx] for r in idx], 1)]
    for order in range(1, n + 1):
        grown = []
        for s, mask, m, d in level:
            lo = s[-1] + 1 if s else 0
            for p in range(lo, n):
                t, tmask = s + (p,), mask | 1 << idx[p]
                if keep is not None and tmask not in keep:
                    continue
                if m is None:
                    ks = [idx[q] for q in t]
                    minor = _bareiss([[grid[r][c] for c in ks] for r in ks])
                else:
                    minor = m[p - lo][p - lo]
                yield order, tmask, minor
                if p + 1 < n:
                    grown.append((t, tmask, m if d else None, d, minor))
        level = []
        for t, tmask, m, d, minor in grown:
            if m is not None:
                # m spans the last len(m) positions; t's last position is row k
                k = t[-1] + len(m) - n
                rk = m[k]
                m = [[(ri[j] * minor - ri[k] * rk[j]) // d for j in range(k + 1, len(m))]
                     for ri in m[k + 1:]]
            level.append((t, tmask, m, minor))


def det(a: Matrix) -> Fraction:
    """Exact determinant."""
    lcm = a._lcm
    d = _bareiss([list(row) for row in a._grid])
    if lcm == 1:
        return Fraction(d)
    return Fraction(d, lcm ** a.n)


def inverse(a: Matrix) -> Matrix:
    """Exact inverse. Raises SingularMatrixError when det(a) = 0."""
    n, lcm, g = a.n, a._lcm, a._grid
    # Y = d * A^-1 = +-L * adj G, d the last pivot, is an integer grid within
    # off of zero by Hadamard's bound. So row i of I travels as 1 in the i-th
    # of n w-bit slots of one integer; Bareiss divides every slot, so the
    # integer, exactly, and the swaps leave P*G * X = P for X = G^-1
    off = lcm * math.prod([math.isqrt(sum(map(mul, row, row))) + 1 for row in g])
    w = off.bit_length() + 1  # bits enough for 0..2*off
    grid = [[*row, 1 << w * i] for i, row in enumerate(g)]
    if _bareiss(grid) == 0:
        raise SingularMatrixError("matrix is singular, no inverse exists")
    # now U * G^-1 = R, U the triangular left block, so the packed rows Y_n =
    # L * R_n and Y_i = (d * L * R_i - sum over k > i of U_ik * Y_k) / U_ii
    d = grid[-1][n - 1]
    dl = d * lcm
    grid[-1][n] *= lcm
    for i in range(n - 2, -1, -1):
        row = grid[i]
        y = dl * row[n]
        for k in range(i + 1, n):
            if row[k]:
                y -= row[k] * grid[k][n]
        row[n] = y // row[i]
    # off added in every slot makes each one a w-bit field in 0..2*off
    mask = (1 << w) - 1
    shift = off * (((1 << w * n) - 1) // mask)
    for row in grid:
        y = row.pop() + shift
        for j in range(n):
            row[j] = (y & mask) - off
            y >>= w
    return Matrix._from_grid(d, grid)


def submatrix(a: Matrix, row_idx: Union[IndexSet, Iterable[int]], col_idx: Union[IndexSet, Iterable[int]]) -> Matrix:
    """A[rows|cols] for equal-length ascending 1-based index sequences."""
    ri, ci = IndexSet(a.n, row_idx).members, IndexSet(a.n, col_idx).members
    if not (ri and ci):
        raise ValueError("index set must be nonempty")
    if len(ri) != len(ci):
        raise ValueError("row and column index sets must have equal size")
    g = a._grid
    return Matrix._from_grid(a._lcm, [[g[i - 1][j - 1] for j in ci] for i in ri])


def principal_minor(a: Matrix, idx: Union[IndexSet, Iterable[int]]) -> Fraction:
    """det A[S] for S a subset of {1..n}. The empty minor is 1 by convention."""
    s = IndexSet(a.n, idx).members
    if not s:
        return Fraction(1)
    return det(submatrix(a, s, s))


def complementary_minor_check(a: Matrix, alpha: Union[IndexSet, Iterable[int]], beta: Union[IndexSet, Iterable[int]]) -> bool:
    """Check the complementary-minor identity tying minors of inverse(a) to a.

    With B = a^{-1} and index sets alpha, beta of common size p:

        det B[alpha|beta] = gamma / det(a) * det a[beta'|alpha']

    where gamma = (-1)^(sum(alpha) + sum(beta)) and ' is complementation. The
    complementary minor of the full set is the empty minor, 1.
    """
    n = a.n
    al, be = IndexSet(n, alpha), IndexSet(n, beta)
    if not (al and be):
        raise ValueError("index set must be nonempty")
    if len(al) != len(be):
        raise ValueError("alpha and beta must have equal size")
    b = inverse(a)
    lhs = det(submatrix(b, al, be))
    al_c, be_c = al.complement().members, be.complement().members
    comp = det(submatrix(a, be_c, al_c)) if be_c else Fraction(1)
    sign = -1 if (sum(al) + sum(be)) % 2 else 1
    return lhs == sign * comp / det(a)
