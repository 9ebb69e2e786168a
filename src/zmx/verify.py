"""Seeded verification campaigns behind the `verify` CLI subcommand.

Each campaign is a generator that replays a documented theorem on randomly
drawn instances and yields one (label, ok) pair per check; run_verify alone
counts the checks and collects the labels of the failed ones. Every campaign
takes (n_lo, n_hi, trials, seed, cap), but only maybee, type-d and
zclass-oracles run exponential work, so only they read cap. A nonempty
failure list is a counterexample report, never a reason to loosen the check.
Draws are reproducible: every trial reseeds from (seed, campaign, n, trial),
so campaigns can be rerun or subdivided without changing outcomes.
"""

from __future__ import annotations

import random
from collections import namedtuple

from zmx.construct import _bdsw, _cycle_walk, _type_d_report, circulant_conditions, circulant_pz, type_d
from zmx.cyclic import (
    Verdict,
    _cycle_products,
    bdsw_sign_classify,
    cyclic_det,
    cyclic_inverse,
    is_bdsw,
    is_full,
    is_inverse_cyclic,
    roundtrip_check,
)
from zmx.digraph import _maybee_inverse, digraph_of, is_irreducible, is_unipathic
from zmx.errors import ORDER_CAP, SingularMatrixError, check_order_cap
from zmx.matrix import _is_index, det, inverse
from zmx.sampling import (
    _cyclic_pairs,
    _rand_pair,
    forced_singular_cyclic_params,
    random_bdsw,
    random_circulant_alpha,
    random_inverse_cyclic,
    random_nonsingular,
    random_shifted_z,
    random_type_d_params,
    random_z,
)
from zmx.zclass import _minor_signs, is_f0, is_n, is_n0, is_nonsingular_m


class VerifySummary(namedtuple("VerifySummary", "theorem n_lo n_hi trials seed checks failures")):
    """One campaign's arguments, its check count and its failure labels, a list of str."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _rng(seed, *key) -> random.Random:
    return random.Random(f"{seed}|" + "|".join(map(str, key)))


def _det_formula(n_lo, n_hi, trials, seed, cap):
    for n in range(n_lo, n_hi + 1):
        for t in range(trials):
            rng = _rng(seed, "det-formula", n, t)
            draw = forced_singular_cyclic_params if t % 8 == 7 else _cyclic_pairs
            a = _cycle_walk(*draw(rng, n))
            d, c = _cycle_products(a._grid)
            oracle = det(a)
            yield f"det-formula n={n} trial={t}", (
                cyclic_det(a) == oracle and (d == c) == (oracle == 0)
            )


def _cycle_matrix(n_lo, n_hi, trials, seed, cap):
    for n in range(n_lo, n_hi + 1):
        for t in range(trials):
            rng = _rng(seed, "cycle-matrix", n, t)
            while True:
                a = random_inverse_cyclic(rng, n, zeros=False)
                d, c = _cycle_products(a._grid)
                if d != c:
                    break
            inv = inverse(a)
            # a_ii * b_ii = d / (d - c), cross-multiplied on the grids
            ga, gb, ratio = a._grid, inv._grid, d * a._lcm * inv._lcm
            yield f"cycle-matrix forward n={n} trial={t}", (
                is_bdsw(inv)
                and cyclic_inverse(a) == inv
                and roundtrip_check(a, inv)
                and all(ga[i][i] * gb[i][i] * (d - c) == ratio for i in range(n))
            )
            b = random_bdsw(rng, n)
            binv = inverse(b)
            yield f"cycle-matrix backward n={n} trial={t}", (
                is_full(binv) and is_inverse_cyclic(binv) and roundtrip_check(b, binv)
            )


def _draw_cyclic_signed(rng, n, sign, e_positive):
    # rejection keeps drawing until d - c lands on the requested side
    while True:
        a = random_inverse_cyclic(rng, n, sign=sign)
        d, c = _cycle_products(a._grid)
        if d != c and ((d - c > 0) == e_positive):
            return a


def _draw_cyclic_mixed(rng, n):
    while True:
        diag, hops = _cyclic_pairs(rng, n, zeros=False)
        if any(p > 0 for p, _ in diag) and any(p < 0 for p, _ in diag):
            return _cycle_walk(diag, hops)


def _bdsw_z(n_lo, n_hi, trials, seed, cap):
    orders = list(range(n_lo, n_hi + 1))
    # label, orders, sign, d - c > 0, verdict, what the inverse must be
    blocks = [
        ("pos", orders, "pos", True, Verdict.INVERSE_M, is_nonsingular_m),
        ("neg-even", [n for n in orders if n % 2 == 0], "neg", False, Verdict.INVERSE_N, is_n),
        ("neg-odd", [n for n in orders if n % 2 == 1], "neg", True, Verdict.INVERSE_N, is_n),
    ]
    for t in range(trials):
        for label, block_orders, sign, e_positive, verdict, conforms in blocks:
            if not block_orders:
                continue
            n = block_orders[t % len(block_orders)]
            a = _draw_cyclic_signed(_rng(seed, "bdsw-z", label, n, t), n, sign, e_positive)
            inv = inverse(a)
            yield f"bdsw-z {label} n={n} trial={t}", (
                bdsw_sign_classify(a) is verdict and is_bdsw(inv) and conforms(inv)
            )
        # violating parameters must land on Neither
        n = orders[t % len(orders)]
        rng = _rng(seed, "bdsw-z", "violate", n, t)
        kind = t % 3
        if kind == 2:
            ok = bdsw_sign_classify(_draw_cyclic_mixed(rng, n)) is Verdict.NEITHER
        else:
            # a positive matrix with d - c < 0, a negative one of the wrong parity
            sign, e_positive, conforms = [("pos", False, is_nonsingular_m),
                                          ("neg", n % 2 == 0, is_n)][kind]
            a = _draw_cyclic_signed(rng, n, sign, e_positive)
            inv = inverse(a)
            ok = bdsw_sign_classify(a) is Verdict.NEITHER and is_bdsw(inv) and not conforms(inv)
        yield f"bdsw-z violate kind={kind} n={n} trial={t}", ok


def _draw_z_matrix(rng, n, t, *, nonsingular=False):
    """Coverage mix for the oracle equivalences: plain random Z, shifted
    t*I - B, Z-signed bdsw patterns, and inverses of type-D matrices (which
    land in M, N, N0 and F0 depending on the parameter signs)."""
    kind = t % 4
    while True:
        if kind == 1:
            a = random_shifted_z(rng, n)
        elif kind == 2 and n >= 2:
            a = _bdsw([_rand_pair(rng, -3, 3, nonzero=True) for _ in range(n)],
                      [_rand_pair(rng, -3, -1, nonzero=True) for _ in range(n)])
        elif kind == 3 and n >= 2:
            pattern = [None, "all_negative", "top_zero", "second_zero"][(t // 4) % (4 if n >= 3 else 3)]
            a = inverse(type_d(random_type_d_params(rng, n, pattern)))
        else:
            a = random_z(rng, n)
        if not nonsingular or det(a) != 0:
            return a


def _zclass_oracles(n_lo, n_hi, trials, seed, cap):
    base = list(range(n_lo, n_hi + 1))
    at_least2 = [n for n in base if n >= 2]
    at_least3 = [n for n in base if n >= 3]
    plans = (
        ("m", base),
        ("m-irr", base),
        ("n", at_least2),
        ("n0", base),
        ("f0", at_least3),
    )
    for t in range(trials):
        for eq, orders in plans:
            if not orders:
                continue
            n = orders[t % len(orders)]
            rng = _rng(seed, "zclass", eq, n, t)
            a = _draw_z_matrix(rng, n, t, nonsingular=(eq == "f0"))
            try:
                inv = inverse(a)
            except SingularMatrixError:
                inv = None
            # the entry signs of inv, read off its grid L*inv (L > 0)
            signs = set() if inv is None else {(x > 0) - (x < 0) for r in inv._grid for x in r}
            if eq == "m":
                lhs = is_nonsingular_m(a)
                rhs = inv is not None and signs <= {0, 1}
            elif eq == "m-irr":
                lhs = is_nonsingular_m(a) and is_irreducible(digraph_of(a))
                rhs = signs == {1}
            elif eq == "n":
                lhs = is_n(a)
                rhs = signs == {-1}
            elif eq == "n0":
                lhs = is_n0(a)
                rhs = inv is not None and signs <= {-1, 0} and is_irreducible(digraph_of(a))
            else:
                lhs = is_f0(a)
                check_order_cap(n, cap)  # the oracle sweeps every minor of inv
                # det a < 0 is implied: the last minor swept is det inv = 1 / det a
                rhs = (
                    all(s <= 0 for order, s in _minor_signs(inv) if order >= 2)
                    and any(inv._grid[i][i] > 0 for i in range(n))
                )
            yield f"zclass-oracles {eq} n={n} trial={t}", lhs == rhs


def _type_d(n_lo, n_hi, trials, seed, cap):
    for n in range(n_lo, n_hi + 1):
        patterns = [None, None, "all_negative", "top_zero"]
        if n >= 3:
            patterns.append("second_zero")
        for t in range(trials):
            rng = _rng(seed, "type-d", n, t)
            pattern = patterns[t % len(patterns)]
            params = random_type_d_params(rng, n, pattern)
            s = sum(1 for x in params if x <= 0)
            rep, inv = _type_d_report(params, cap)
            expected = n if s == 0 else s - 1
            ok = rep.tridiagonal and rep.z and rep.l_index_of_inverse == expected
            if ok and pattern is not None:
                if pattern == "all_negative":
                    ok = is_n(inv)
                elif pattern == "top_zero":
                    ok = is_n0(inv) and not is_n(inv)
                else:
                    ok = is_f0(inv)
            yield f"type-d n={n} trial={t} pattern={pattern}", ok


def _circulant_inverse_conforms(a, mode):
    try:
        inv = inverse(a)
    except SingularMatrixError:
        return False
    if not is_bdsw(inv):
        return False
    return is_nonsingular_m(inv) if mode == "nonneg" else is_n(inv)


def _polyn(n_lo, n_hi, trials, seed, cap):
    orders = list(range(n_lo, n_hi + 1))
    for mode in ("nonneg", "nonpos"):
        for t in range(trials):
            n = orders[t % len(orders)]
            rng = _rng(seed, "polyn", mode, n, t)
            alpha = random_circulant_alpha(rng, n, mode, conforming=True)
            yield f"polyn {mode} conforming n={n} trial={t}", (
                circulant_conditions(alpha, mode)
                and _circulant_inverse_conforms(circulant_pz(alpha), mode)
            )
            alpha = random_circulant_alpha(rng, n, mode, conforming=False)
            yield f"polyn {mode} broken n={n} trial={t}", not (
                circulant_conditions(alpha, mode)
                or _circulant_inverse_conforms(circulant_pz(alpha), mode)
            )


def _maybee(n_lo, n_hi, trials, seed, cap):
    # the dense half stops at order 5 so that the campaign keeps its fixed sizes
    dense = list(range(n_lo, min(n_hi, 5) + 1))
    uni = list(range(n_lo, n_hi + 1))
    for t in range(trials):
        if dense:
            n = dense[t % len(dense)]
            a = random_nonsingular(_rng(seed, "maybee-dense", n, t), n)
            yield f"maybee dense n={n} trial={t}", _maybee_inverse(a, cap) == inverse(a)
        n = uni[t % len(uni)]
        b = random_bdsw(_rng(seed, "maybee-bdsw", n, t), n)
        yield f"maybee bdsw n={n} trial={t}", (
            is_unipathic(digraph_of(b)) and _maybee_inverse(b, cap) == inverse(b)
        )


CAMPAIGNS = {
    "cycle-matrix": _cycle_matrix,
    "det-formula": _det_formula,
    "bdsw-z": _bdsw_z,
    "type-d": _type_d,
    "polyn": _polyn,
    "maybee": _maybee,
    "zclass-oracles": _zclass_oracles,
}

# the lowest order each campaign's theorem covers
_LOWEST_ORDER = {
    "cycle-matrix": 2,
    "det-formula": 2,
    "bdsw-z": 2,
    "type-d": 2,
    "polyn": 3,
    "maybee": 2,
    "zclass-oracles": 1,
}


def run_verify(theorem: str, n_lo: int, n_hi: int, trials: int, seed: int, *,
               cap: int = ORDER_CAP) -> VerifySummary:
    if theorem not in CAMPAIGNS:
        known = ", ".join(sorted(CAMPAIGNS))
        raise ValueError(f"unknown theorem {theorem!r}; known ids: {known}")
    if not (_is_index(n_lo, n_hi) and _is_index(n_hi, n_hi)):
        raise ValueError(f"bad order range {n_lo!r}..{n_hi!r}")
    if not _is_index(trials, trials):
        raise ValueError(f"trials {trials!r} is not a positive integer")
    low = _LOWEST_ORDER[theorem]
    if n_hi < low:
        raise ValueError(f"campaign {theorem!r} starts at order {low}; {n_lo}..{n_hi} holds none")
    checks, failures = 0, []
    for label, ok in CAMPAIGNS[theorem](max(n_lo, low), n_hi, trials, seed, cap):
        checks += 1
        if not ok:
            failures.append(label)
    return VerifySummary(theorem, n_lo, n_hi, trials, seed, checks, failures)
