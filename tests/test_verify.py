"""Campaign runner plumbing. The heavy lifting (are the theorems true at
scale) happens in the acceptance suite; here we pin the runner's interface:
argument validation, determinism, that every registered campaign runs clean
at a small scale, and that failed checks come back as their labels, in
order."""

import inspect

import pytest

from zmx import CAMPAIGNS, ORDER_CAP, cyclic, matrix, run_verify, verify, zclass


def test_known_campaign_ids():
    assert set(CAMPAIGNS) == {
        "cycle-matrix",
        "det-formula",
        "bdsw-z",
        "type-d",
        "polyn",
        "maybee",
        "zclass-oracles",
    }


def test_unknown_theorem_is_an_error():
    with pytest.raises(ValueError) as err:
        run_verify("not-a-theorem", 2, 4, 5, 0)
    # the message should steer the caller to the available ids
    assert "det-formula" in str(err.value)


def test_argument_validation():
    with pytest.raises(ValueError):
        run_verify("det-formula", 5, 4, 5, 0)  # empty order range
    with pytest.raises(ValueError):
        run_verify("det-formula", 0, 4, 5, 0)  # orders start at 1
    with pytest.raises(ValueError):
        run_verify("det-formula", 2, 4, 0, 0)  # no trials
    # orders and trials are integers, not floats or bools
    for lo, hi, trials in ((3, 3.5, 1), (3.0, 4, 1), (True, 3, 1), (3, 4, 1.0), (3, 4, True)):
        with pytest.raises(ValueError):
            run_verify("polyn", lo, hi, trials, 0)


def test_summary_fields_and_determinism():
    a = run_verify("det-formula", 2, 4, 10, 123)
    b = run_verify("det-formula", 2, 4, 10, 123)
    assert a == b
    assert a.theorem == "det-formula"
    assert (a.n_lo, a.n_hi, a.trials, a.seed) == (2, 4, 10, 123)
    assert a.checks > 0
    assert a.failures == []
    assert a.ok
    # a different seed draws different matrices but the bookkeeping holds
    c = run_verify("det-formula", 2, 4, 10, 321)
    assert c.ok and c.checks == a.checks


@pytest.mark.parametrize("theorem", sorted(CAMPAIGNS))
def test_every_campaign_runs_clean_small(theorem):
    lo = 3 if theorem in ("type-d", "polyn") else 2
    s = run_verify(theorem, lo, lo + 2, 8, 5)
    assert s.ok and s.checks > 0 and s.failures == []


@pytest.mark.parametrize("theorem", sorted(CAMPAIGNS))
def test_every_campaign_runs_clean_above_the_default_cap_when_raised(theorem):
    # the cap reaches type_d_verify, the f0 oracle's sweep and the maybee checks
    n = ORDER_CAP + 1
    s = run_verify(theorem, n, n, 5, 5, cap=n)  # five trials reach every type-d pattern
    assert s.ok and s.checks > 0


def test_cycle_matrix_campaign_inverts_each_drawn_matrix_once(monkeypatch):
    # every check draws one matrix (a forward cyclic one or a backward bdsw
    # one); roundtrip_check reuses the inverse the campaign already holds
    inverted = []

    def counted(a):
        inverted.append(a)
        return matrix.inverse(a)

    monkeypatch.setattr(verify, "inverse", counted)
    monkeypatch.setattr(cyclic, "inverse", counted)
    s = run_verify("cycle-matrix", 2, 5, 6, 11)
    assert s.ok and s.checks == 2 * 4 * 6
    assert len(inverted) == s.checks


def _failing(monkeypatch, name, fails):
    """Patch verify.<name> to return the wrong answer on the calls fails picks."""
    real = getattr(verify, name)

    def patched(*args):
        got = real(*args)
        return (not got if isinstance(got, bool) else None) if fails(*args) else got

    monkeypatch.setattr(verify, name, patched)


def test_failure_labels_name_the_failed_checks_in_order(monkeypatch):
    # forward checks call verify.is_bdsw, backward ones do not
    _failing(monkeypatch, "is_bdsw", lambda a: True)
    s = run_verify("cycle-matrix", 2, 3, 2, 0)
    assert s.checks == 8
    assert s.failures == [f"cycle-matrix forward n={n} trial={t}" for n in (2, 3) for t in (0, 1)]

    # the violating draws of kind 2 are the only checks that skip is_bdsw
    s = run_verify("bdsw-z", 2, 3, 3, 0)
    assert s.checks == 12
    assert s.failures == [
        "bdsw-z pos n=2 trial=0", "bdsw-z neg-even n=2 trial=0", "bdsw-z neg-odd n=3 trial=0",
        "bdsw-z violate kind=0 n=2 trial=0",
        "bdsw-z pos n=3 trial=1", "bdsw-z neg-even n=2 trial=1", "bdsw-z neg-odd n=3 trial=1",
        "bdsw-z violate kind=1 n=3 trial=1",
        "bdsw-z pos n=2 trial=2", "bdsw-z neg-even n=2 trial=2", "bdsw-z neg-odd n=3 trial=2",
    ]


def test_failure_labels_of_the_dense_and_bdsw_maybee_checks(monkeypatch):
    _failing(monkeypatch, "_maybee_inverse", lambda a, cap: a.n == 5)
    s = run_verify("maybee", 4, 6, 3, 0)
    assert s.checks == 6
    assert s.failures == ["maybee dense n=5 trial=1", "maybee bdsw n=5 trial=1"]


def test_failure_labels_of_the_conforming_and_broken_polyn_checks(monkeypatch):
    # a negated verdict fails both checks, the broken one because it must
    # find the conditions false
    _failing(monkeypatch, "circulant_conditions", lambda alpha, mode: mode == "nonpos")
    s = run_verify("polyn", 3, 4, 2, 0)
    assert s.checks == 8
    assert s.failures == [
        f"polyn nonpos {kind} n={n} trial={t}"
        for t, n in ((0, 3), (1, 4))
        for kind in ("conforming", "broken")
    ]


def test_names_the_benchmark_reads_by_string():
    # perfbench/ maps campaign code objects to ids and reads the rejection
    # samplers and the sweep's max_order by name
    assert all(inspect.isgeneratorfunction(fn) for fn in CAMPAIGNS.values())
    assert set(verify._LOWEST_ORDER) == set(CAMPAIGNS)
    for name in ("_draw_cyclic_signed", "_draw_cyclic_mixed", "_draw_z_matrix"):
        assert inspect.isfunction(getattr(verify, name))
    assert "max_order" in inspect.signature(zclass._minor_signs).parameters
