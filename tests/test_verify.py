"""Campaign runner plumbing. The heavy lifting (are the theorems true at
scale) happens in the acceptance suite; here we pin the runner's interface:
argument validation, determinism, and that every registered campaign runs
clean at a small scale."""

import pytest

from zmx import CAMPAIGNS, cyclic, matrix, run_verify, verify


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
