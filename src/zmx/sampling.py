"""Seeded random draws for the verification campaigns.

Every function takes an explicit random.Random so campaigns are reproducible
from (seed, n, trial). Values are kept small on purpose: entries are products
of parameters in several families and the point is sign structure, not
magnitude.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

from zmx.construct import bdsw_matrix, from_cyclic_params
from zmx.matrix import Matrix, det


def rand_rational(rng: random.Random, lo: int = -4, hi: int = 4, nonzero: bool = False) -> Fraction:
    """Small integer, occasionally a half-integer."""
    while True:
        num = rng.randint(lo, hi)
        x = Fraction(num, 2) if rng.randrange(4) == 0 else Fraction(num)
        if x != 0 or not nonzero:
            return x


def random_matrix(rng: random.Random, n: int) -> Matrix:
    return Matrix([[rand_rational(rng) for _ in range(n)] for _ in range(n)])


def random_nonsingular(rng: random.Random, n: int) -> Matrix:
    while True:
        m = random_matrix(rng, n)
        if det(m) != 0:
            return m


def random_cyclic_params(rng, n, *, zeros=True, sign=None):
    """Parameters for from_cyclic_params.

    sign None draws mixed signs; "pos"/"neg" force strictly positive or
    strictly negative parameters (which makes the built matrix entrywise
    positive or negative). zeros=True lets super/corner parameters vanish.
    """
    if sign == "pos":
        pick = lambda nz: Fraction(rng.randint(1, 4), 2 if rng.randrange(4) == 0 else 1)
    elif sign == "neg":
        pick = lambda nz: Fraction(-rng.randint(1, 4), 2 if rng.randrange(4) == 0 else 1)
    else:
        pick = lambda nz: rand_rational(rng, -4, 4, nonzero=nz)
    diag = [pick(True) for _ in range(n)]
    if sign is None and zeros:
        sup = [rand_rational(rng, -3, 3) for _ in range(n - 1)]
        corner = rand_rational(rng, -3, 3)
    else:
        sup = [pick(True) for _ in range(n - 1)]
        corner = pick(True)
    return diag, sup, corner


def random_inverse_cyclic(rng, n, *, zeros=True, sign=None) -> Matrix:
    diag, sup, corner = random_cyclic_params(rng, n, zeros=zeros, sign=sign)
    return from_cyclic_params(diag, sup, corner)


def forced_singular_cyclic_params(rng, n):
    """Parameters with c = d exactly, so the built matrix is singular."""
    diag = [rand_rational(rng, -4, 4, nonzero=True) for _ in range(n)]
    sup = [rand_rational(rng, -4, 4, nonzero=True) for _ in range(n - 1)]
    return diag, sup, prod(diag) / prod(sup)


def random_bdsw(rng, n) -> Matrix:
    while True:
        diag = [rand_rational(rng, -4, 4, nonzero=True) for _ in range(n)]
        sup = [rand_rational(rng, -4, 4, nonzero=True) for _ in range(n - 1)]
        corner = rand_rational(rng, -4, 4, nonzero=True)
        m = bdsw_matrix(diag, sup, corner)
        if det(m) != 0:
            return m


def random_type_d_params(rng, n, pattern=None):
    """Strictly increasing parameters with a_1 != 0.

    pattern selects the targeted sign layouts: "all_negative" (a_n < 0),
    "top_zero" (a_n = 0), "second_zero" (a_(n-1) = 0 < a_n). Default draws a
    window anywhere across zero.
    """
    if pattern == "all_negative":
        vals = sorted(rng.sample(range(-n - 7, 0), n))
    elif pattern == "top_zero":
        vals = sorted(rng.sample(range(-n - 7, 0), n - 1)) + [0]
    elif pattern == "second_zero":
        vals = sorted(rng.sample(range(-n - 7, 0), n - 2)) + [0, rng.randint(1, 4)]
    else:
        while True:
            vals = sorted(rng.sample(range(-8, 9), n))
            if vals[0] != 0:
                break
    return [Fraction(v) for v in vals]


def random_z(rng, n) -> Matrix:
    rows = [
        [
            rand_rational(rng, -3, 5) if i == j else rand_rational(rng, -3, 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return Matrix(rows)


def random_nonneg(rng, n) -> Matrix:
    return Matrix([[rand_rational(rng, 0, 4) for _ in range(n)] for _ in range(n)])


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
