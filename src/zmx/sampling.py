"""Seeded random draws for the verification campaigns.

Every function takes an explicit random.Random so campaigns are reproducible
from (seed, n, trial). Values are kept small on purpose: entries are products
of parameters in several families and the point is sign structure, not
magnitude. Draws are integer (numerator, denominator) pairs in lowest terms,
and the matrix samplers clear them onto an integer grid with one lcm;
rand_rational and random_cyclic_params wrap the same draws in Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, prod

from zmx.construct import _bdsw, _cycle_walk
from zmx.cyclic import _cycle_products
from zmx.matrix import Matrix, _cleared, det


def _rand_pair(rng: random.Random, lo: int = -4, hi: int = 4, nonzero: bool = False) -> tuple[int, int]:
    """rand_rational's draw as a lowest-terms (numerator, denominator) pair."""
    while True:
        num = rng.randint(lo, hi)
        half = rng.randrange(4) == 0
        if num or not nonzero:
            return (num, 2) if half and num % 2 else (num // 2 if half else num, 1)


def rand_rational(rng: random.Random, lo: int = -4, hi: int = 4, nonzero: bool = False) -> Fraction:
    """Small integer, occasionally a half-integer."""
    return Fraction(*_rand_pair(rng, lo, hi, nonzero))


def random_matrix(rng: random.Random, n: int) -> Matrix:
    return Matrix._from_grid(*_cleared([[_rand_pair(rng) for _ in range(n)] for _ in range(n)]))


def random_nonsingular(rng: random.Random, n: int) -> Matrix:
    while True:
        m = random_matrix(rng, n)
        if det(m) != 0:
            return m


def _cyclic_pairs(rng, n, *, zeros=True, sign=None):
    """random_cyclic_params' draws as pairs: (diagonal, hops), the corner the
    last hop."""
    s = {"pos": 1, "neg": -1}.get(sign)

    def pick(nz):
        if s is None:
            return _rand_pair(rng, -4, 4, nz)
        p, q = _rand_pair(rng, 1, 4)
        return s * p, q

    diag = [pick(True) for _ in range(n)]
    if sign is None and zeros:
        return diag, [_rand_pair(rng, -3, 3) for _ in range(n)]
    return diag, [pick(True) for _ in range(n)]


def random_cyclic_params(rng, n, *, zeros=True, sign=None):
    """Parameters for from_cyclic_params.

    sign None draws mixed signs; "pos"/"neg" force strictly positive or
    strictly negative parameters (which makes the built matrix entrywise
    positive or negative). zeros=True lets super/corner parameters vanish.
    """
    diag, hops = _cyclic_pairs(rng, n, zeros=zeros, sign=sign)
    hops = [Fraction(*h) for h in hops]
    return [Fraction(*x) for x in diag], hops[:-1], hops[-1]


def random_inverse_cyclic(rng, n, *, zeros=True, sign=None) -> Matrix:
    return _cycle_walk(*_cyclic_pairs(rng, n, zeros=zeros, sign=sign))


def forced_singular_cyclic_params(rng, n):
    """(diagonal, hops) pairs, the corner the last hop, with c = d exactly,
    so the matrix they walk to is singular."""
    diag = [_rand_pair(rng, -4, 4, nonzero=True) for _ in range(n)]
    sup = [_rand_pair(rng, -4, 4, nonzero=True) for _ in range(n - 1)]
    # the corner prod(diag) / prod(sup), in lowest terms
    p = prod(p for p, _ in diag) * prod(q for _, q in sup)
    q = prod(q for _, q in diag) * prod(p for p, _ in sup)
    g = gcd(p, q) * (-1 if q < 0 else 1)
    return diag, sup + [(p // g, q // g)]


def random_bdsw(rng, n) -> Matrix:
    while True:
        a = _bdsw([_rand_pair(rng, -4, 4, nonzero=True) for _ in range(n)],
                  [_rand_pair(rng, -4, 4, nonzero=True) for _ in range(n)])
        # the bdsw pattern has det G = D - (-1)^n C
        d, c = _cycle_products(a._grid)
        if d != (-1) ** n * c:
            return a


def random_type_d_params(rng, n, pattern=None):
    """Strictly increasing parameters with a_1 != 0.

    pattern selects the targeted sign layouts: "all_negative" (a_n < 0),
    "top_zero" (a_n = 0), "second_zero" (a_(n-1) = 0 < a_n). Default draws
    from -8..8, or from -n..n above order 17, where -8..8 runs out.
    """
    if pattern == "all_negative":
        vals = sorted(rng.sample(range(-n - 7, 0), n))
    elif pattern == "top_zero":
        vals = sorted(rng.sample(range(-n - 7, 0), n - 1)) + [0]
    elif pattern == "second_zero":
        vals = sorted(rng.sample(range(-n - 7, 0), n - 2)) + [0, rng.randint(1, 4)]
    else:
        w = 8 if n <= 17 else n
        while True:
            vals = sorted(rng.sample(range(-w, w + 1), n))
            if vals[0] != 0:
                break
    return [Fraction(v) for v in vals]


def random_z(rng, n) -> Matrix:
    cells = [[_rand_pair(rng, -3, 5) if i == j else _rand_pair(rng, -3, 0) for j in range(n)]
             for i in range(n)]
    return Matrix._from_grid(*_cleared(cells))


def random_nonneg(rng, n) -> Matrix:
    return Matrix._from_grid(*_cleared([[_rand_pair(rng, 0, 4) for _ in range(n)] for _ in range(n)]))


def random_shifted_z(rng, n) -> Matrix:
    """t*I - B for nonnegative B and t somewhere inside [0, max row sum].

    Sweeping t across that range lands the result in all the taxonomy bands,
    which is what the oracle-equivalence campaign needs for coverage.
    """
    b = random_nonneg(rng, n)
    # floor(max row sum) + 1, read off the grid L*B
    top = max(map(sum, b._grid)) // b._lcm + 1
    t = Fraction(rng.randint(0, top * 4), 4)
    return t * Matrix.identity(n) - b


def random_circulant_alpha(rng, n, mode, *, conforming=True):
    """Coefficient lists for circulant_pz, conforming or deliberately broken.

    Non-conforming draws keep the mode's sign restriction (the conditions
    checker treats sign violations as caller errors) but either reverse the
    leading inequality or bend one power-relation coefficient.
    """
    if mode == "nonneg":
        a1 = Fraction(rng.randint(2, 4))
        a2 = a1 - Fraction(rng.randint(1, 2 * int(a1) - 1), 2)
    else:
        a1 = -Fraction(rng.randint(1, 3))
        a2 = a1 - Fraction(rng.randint(1, 4), rng.choice([1, 2]))
    alpha = [a1, a2] + [a2 ** (r - 1) / a1 ** (r - 2) for r in range(3, n + 1)]
    if conforming:
        return alpha
    how = rng.randrange(3) if n >= 3 else rng.randrange(2)
    if how == 0:
        # reversed leading inequality, signs preserved
        alpha[0], alpha[1] = alpha[1], alpha[0]
    elif how == 1:
        # degenerate leading pair
        alpha[1] = alpha[0]
    else:
        r = rng.randrange(2, n)
        bend = alpha[r] / 2 if alpha[r] else (Fraction(-1, 2) if mode == "nonpos" else Fraction(1, 2))
        alpha[r] = bend
    return alpha
