"""The samplers draw integer pairs; the Fraction samplers they replaced are
kept here as the oracle. Each must return the same values as its oracle and
leave the generator in the same state, so every campaign's draws, labels and
check counts stay what they were."""

import random
from fractions import Fraction
from math import prod

import pytest

from zmx import sampling
from zmx.construct import bdsw_matrix, from_cyclic_params
from zmx.matrix import Matrix, det


def old_rand_rational(rng, lo=-4, hi=4, nonzero=False):
    while True:
        num = rng.randint(lo, hi)
        x = Fraction(num, 2) if rng.randrange(4) == 0 else Fraction(num)
        if x != 0 or not nonzero:
            return x


def old_random_matrix(rng, n):
    return Matrix([[old_rand_rational(rng) for _ in range(n)] for _ in range(n)])


def old_random_nonsingular(rng, n):
    while True:
        m = old_random_matrix(rng, n)
        if det(m) != 0:
            return m


def old_random_cyclic_params(rng, n, *, zeros=True, sign=None):
    if sign == "pos":
        pick = lambda nz: Fraction(rng.randint(1, 4), 2 if rng.randrange(4) == 0 else 1)  # noqa: E731
    elif sign == "neg":
        pick = lambda nz: Fraction(-rng.randint(1, 4), 2 if rng.randrange(4) == 0 else 1)  # noqa: E731
    else:
        pick = lambda nz: old_rand_rational(rng, -4, 4, nonzero=nz)  # noqa: E731
    diag = [pick(True) for _ in range(n)]
    if sign is None and zeros:
        sup = [old_rand_rational(rng, -3, 3) for _ in range(n - 1)]
        corner = old_rand_rational(rng, -3, 3)
    else:
        sup = [pick(True) for _ in range(n - 1)]
        corner = pick(True)
    return diag, sup, corner


def old_random_inverse_cyclic(rng, n, **kw):
    return from_cyclic_params(*old_random_cyclic_params(rng, n, **kw))


def old_forced_singular_cyclic_params(rng, n):
    diag = [old_rand_rational(rng, -4, 4, nonzero=True) for _ in range(n)]
    sup = [old_rand_rational(rng, -4, 4, nonzero=True) for _ in range(n - 1)]
    return diag, sup, prod(diag) / prod(sup)


def old_random_bdsw(rng, n):
    while True:
        diag = [old_rand_rational(rng, -4, 4, nonzero=True) for _ in range(n)]
        sup = [old_rand_rational(rng, -4, 4, nonzero=True) for _ in range(n - 1)]
        corner = old_rand_rational(rng, -4, 4, nonzero=True)
        m = bdsw_matrix(diag, sup, corner)
        if det(m) != 0:
            return m


def old_random_z(rng, n):
    return Matrix([[old_rand_rational(rng, -3, 5) if i == j else old_rand_rational(rng, -3, 0)
                    for j in range(n)] for i in range(n)])


def old_random_nonneg(rng, n):
    return Matrix([[old_rand_rational(rng, 0, 4) for _ in range(n)] for _ in range(n)])


def fractions_of(draw):
    # (diagonal, hops) pairs as the Fraction lists diag, sup and the corner
    diag, hops = draw
    hops = [Fraction(*h) for h in hops]
    return [Fraction(*x) for x in diag], hops[:-1], hops[-1]


# keyed by the sampler each draw replays; the pair draws _rand_pair and
# _cyclic_pairs replay rand_rational and random_cyclic_params, which were
# Fraction wrappers around them
CASES = {
    "rand_rational": (lambda rng, n: [Fraction(*sampling._rand_pair(rng, -n, n, nonzero=n % 2 == 1))
                                      for _ in range(n)],
                      lambda rng, n: [old_rand_rational(rng, -n, n, nonzero=n % 2 == 1)
                                      for _ in range(n)]),
    "random_matrix": (sampling.random_matrix, old_random_matrix),
    "random_nonsingular": (sampling.random_nonsingular, old_random_nonsingular),
    "forced_singular_cyclic_params": (
        lambda rng, n: fractions_of(sampling.forced_singular_cyclic_params(rng, n)),
        old_forced_singular_cyclic_params),
    "random_bdsw": (sampling.random_bdsw, old_random_bdsw),
    "random_z": (sampling.random_z, old_random_z),
    "random_nonneg": (sampling.random_nonneg, old_random_nonneg),
}
for kw in ({}, {"zeros": False}, {"sign": "pos"}, {"sign": "neg"}):
    tag = ",".join(f"{k}={v}" for k, v in kw.items())
    CASES[f"random_cyclic_params({tag})"] = (
        lambda rng, n, kw=kw: fractions_of(sampling._cyclic_pairs(rng, n, **kw)),
        lambda rng, n, kw=kw: old_random_cyclic_params(rng, n, **kw))
    CASES[f"random_inverse_cyclic({tag})"] = (
        lambda rng, n, kw=kw: sampling.random_inverse_cyclic(rng, n, **kw),
        lambda rng, n, kw=kw: old_random_inverse_cyclic(rng, n, **kw))


def outcome(draw, rng, n):
    try:
        value = draw(rng, n)
    except ValueError as exc:  # the cycle samplers need order 2
        value = ("ValueError", str(exc))
    return value, rng.getstate()


@pytest.mark.parametrize("name", sorted(CASES))
def test_pair_samplers_replay_the_fraction_draws(name):
    new, old = CASES[name]
    for seed in range(40):
        for n in range(1, 8):
            key = f"{name}|{seed}|{n}"
            assert outcome(new, random.Random(key), n) == outcome(old, random.Random(key), n), key


def old_random_type_d_params(rng, n):
    # the default draw as it was, from -8..8 at every order
    while True:
        vals = sorted(rng.sample(range(-8, 9), n))
        if vals[0] != 0:
            return [Fraction(v) for v in vals]


def test_type_d_default_draws_keep_their_values_up_to_order_17():
    for seed in range(40):
        for n in range(1, 18):
            key = f"type-d|{seed}|{n}"
            assert (outcome(sampling.random_type_d_params, random.Random(key), n)
                    == outcome(old_random_type_d_params, random.Random(key), n)), key


def test_type_d_default_draws_above_order_17():
    for n in range(18, 65):
        vals = sampling.random_type_d_params(random.Random(n), n)
        assert len(vals) == n and vals[0] != 0
        assert all(a < b for a, b in zip(vals, vals[1:]))
