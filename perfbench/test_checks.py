"""Each output check rejects a corrupted output.

    python3 -m pytest -q perfbench/test_checks.py

The outputs come from small runs of the real workloads; each test corrupts
one of them the way a faulty program would and expects ``CheckFailed``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, ExactIET  # noqa: E402


@pytest.fixture(scope="module")
def dichotomy():
    """A workload at n_max = 2000 and the output of its first op under the
    divergent family."""
    workload = workloads.Dichotomy(seed=7, n_max=2000)
    inp = workload.round(0)[1]
    return workload, inp, workload.op(inp)


@pytest.fixture(scope="module")
def exact():
    workload = workloads.Exact(seed=7, n_max=200, steps=300)
    (inp,) = workload.round(0)
    return workload, inp, workload.op(inp)


@pytest.fixture(scope="module")
def targets():
    workload = workloads.Targets(seed=7, depth=10)
    inp = (Fraction(2, 13), "A")
    return workload, inp, workload.op(inp)


def copy_solutions(solutions):
    return {pair: dict(per_pair) for pair, per_pair in solutions.items()}


def test_dichotomy_output_passes(dichotomy):
    workload, inp, out = dichotomy
    workload.check(inp, out, full=True)


def test_dropped_solution_rejected(dichotomy):
    workload, inp, (spec, counts, lengths, solutions) = dichotomy
    solutions = copy_solutions(solutions)
    pair = next(p for p, per_pair in solutions.items() if per_pair)
    n = max(solutions[pair])
    del solutions[pair][n]
    counts = list(counts)
    counts[checks.decade_index(n)] -= 1  # keep the row consistent with the drop
    oracle = ExactIET(workload.perm.top, workload.perm.bottom, lengths)
    checks.check_rows(solutions, counts, spec, workload.n_max, set(oracle.pairs()))
    with pytest.raises(CheckFailed, match="missing"):
        checks.check_full_list(oracle, solutions, spec, workload.n_max)


def test_unreduced_solution_rejected(dichotomy):
    workload, inp, (spec, counts, lengths, solutions) = dichotomy
    oracle = ExactIET(workload.perm.top, workload.perm.bottom, lengths)
    found = None
    for beta, alpha in oracle.pairs():
        orbit = oracle.orbit(beta, workload.n_max)
        target = oracle.u_top[alpha]
        for n in range(1, workload.n_max + 1):
            gap = abs(orbit[n] - target)
            if oracle.below(gap, checks.phi_value(spec, n)) and not oracle.is_reduced(orbit[n], target, n):
                found = (beta, alpha, n, gap / oracle.scale)
                break
        if found:
            break
    assert found, "no unreduced candidate below phi to plant"
    beta, alpha, n, gap = found
    solutions = copy_solutions(solutions)
    solutions[(beta, alpha)][n] = gap
    with pytest.raises(CheckFailed, match="not reduced"):
        checks.check_each_solution(oracle, solutions, spec)
    with pytest.raises(CheckFailed, match="spurious"):
        checks.check_full_list(oracle, solutions, spec, workload.n_max)


def test_shifted_length_rejected(dichotomy):
    workload, inp, (spec, counts, lengths, solutions) = dichotomy
    shifted = dict(lengths)
    shifted["B"] += 2.0**-30
    with pytest.raises(CheckFailed):
        workload.check(inp, (spec, counts, shifted, solutions), full=True)


def test_wrong_row_counts_rejected(dichotomy):
    workload, inp, (spec, counts, lengths, solutions) = dichotomy
    counts = list(counts)
    counts[0] += 1
    with pytest.raises(CheckFailed, match="row counts"):
        workload.check(inp, (spec, counts, lengths, solutions), full=False)


def test_exact_output_passes(exact):
    workload, inp, out = exact
    workload.check(inp, out, full=True)


def test_exact_dropped_solution_rejected(exact):
    workload, inp, (solutions, detections, run) = exact
    solutions = copy_solutions(solutions)
    pair = next(p for p, per_pair in solutions.items() if per_pair)
    del solutions[pair][min(solutions[pair])]
    with pytest.raises(CheckFailed, match="differs from the oracle"):
        workload.check(inp, (solutions, detections, run), full=True)


def test_detection_off_by_one_arrow_rejected(exact):
    workload, inp, (solutions, detections, run) = exact
    oracle = ExactIET(workload.perm.top, workload.perm.bottom, inp)
    triple, kinds, q, gap = detections[0]
    with pytest.raises(CheckFailed):
        checks.check_detection(oracle, triple, kinds[:-1], q, gap)


def test_induction_shifted_length_rejected(exact):
    workload, inp, (solutions, detections, run) = exact
    kinds, top, bottom, lengths, l, h, q = run
    letter = top[0]
    shifted = dict(lengths)
    shifted[letter] += Fraction(1, 1 << workload.bits)
    with pytest.raises(CheckFailed, match="q \\* lambda"):
        checks.check_induction(workload.perm.top, workload.perm.bottom, inp, kinds, top, bottom,
                               shifted, l, h, q)


def test_induction_flipped_arrow_rejected(exact):
    workload, inp, (solutions, detections, run) = exact
    kinds, top, bottom, lengths, l, h, q = run
    flipped = kinds[:10] + ("b" if kinds[10] == "t" else "t") + kinds[11:]
    with pytest.raises(CheckFailed):
        checks.check_induction(workload.perm.top, workload.perm.bottom, inp, flipped, top, bottom,
                               lengths, l, h, q)


def test_targets_output_passes(targets):
    workload, inp, out = targets
    workload.check(inp, out, full=True)


def test_member_listed_twice_rejected(targets):
    workload, (epsilon, letter), (members, mass, complement, undecided) = targets
    with pytest.raises(CheckFailed):
        checks.check_targets(workload.perm.top, workload.perm.bottom, letter, epsilon,
                             members + members[:1], mass, complement, undecided)


def test_member_twice_with_consistent_masses_rejected():
    # On AB/BA with B avoided and 1/epsilon = 3/2, the path "b" is the one
    # member, of volume 1/2.  Listed twice, with the mass booked twice, the
    # masses still add up to 1: only the prefix test sees the overlap.
    with pytest.raises(CheckFailed, match="prefix"):
        checks.check_targets("AB", "BA", "B", Fraction(2, 3), ["b", "b"], Fraction(1), Fraction(0),
                             Fraction(0))


def test_member_cut_short_rejected(targets):
    workload, (epsilon, letter), (members, mass, complement, undecided) = targets
    cut = [members[0][:-1]] + members[1:]
    with pytest.raises(CheckFailed):
        checks.check_targets(workload.perm.top, workload.perm.bottom, letter, epsilon, cut, mass,
                             complement, undecided)


def test_masses_not_adding_up_rejected(targets):
    workload, inp, (members, mass, complement, undecided) = targets
    with pytest.raises(CheckFailed, match="add up"):
        workload.check(inp, (members, mass, complement, undecided + Fraction(1, 10**9)), full=False)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
