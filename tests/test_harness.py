import pytest

from ietkhinchin import harness
from ietkhinchin.combinat import parse_permutation
from ietkhinchin.errors import AlgorithmStopped, StepBudgetExhausted

SPECS = ["1/(n*log(n+1)^2)", "1/(n*log(n+1))"]


@pytest.mark.parametrize(
    "stop, status",
    [(StepBudgetExhausted(10**6), "budget"), (AlgorithmStopped(None, "tie"), "connection")],
)
def test_stopped_rows_keep_their_status_and_leave_the_medians(monkeypatch, stop, status):
    def stopped(*args, **kwargs):
        raise stop

    monkeypatch.setattr(harness, "khinchin_count", stopped)
    report = harness.dichotomy_experiment(parse_permutation("ABCD/DCBA"), SPECS, 2, 100, 1)
    assert [row[2] for row in report["rows"]] == [status] * 4
    for family in report["families"]:
        assert family["ok_samples"] == 0 and family["discarded"] == 2


def test_budget_exhausted_by_the_kernel_is_reported_as_budget():
    perm = parse_permutation("ABCD/DCBA")
    lengths = {"A": 0.4, "B": 0.3, "C": 0.2, "D": 0.1}
    iet = harness.IET(perm, lengths, harness.FLOAT)
    with pytest.raises(StepBudgetExhausted):
        harness.khinchin_count(iet, harness.parse_phi(SPECS[1]), 10**4, step_budget=3)
    with pytest.raises(StepBudgetExhausted):
        harness.khinchin_count(iet.to_exact(), harness.parse_phi(SPECS[1]), 10**4, step_budget=3)


def test_phi_spec_round_trip():
    for text in SPECS + ["2/n^1.5", "0.25", "zero"]:
        phi = harness.parse_phi(text)
        kind, c, p = phi.kernel_spec
        assert harness.parse_phi(phi.spec()).kernel_spec == (kind, c, p)
    with pytest.raises(ValueError):
        harness.Phi("table")(3)


def test_dichotomy_rows_do_not_depend_on_workers():
    perm = parse_permutation("ABCD/DCBA")
    one = harness.dichotomy_experiment(perm, SPECS, 3, 200, 5, workers=1)
    two = harness.dichotomy_experiment(perm, SPECS, 3, 200, 5, workers=2)
    assert one == two
    assert [row[2] for row in one["rows"]] == ["ok"] * 6
