"""The constant-cost induction step and the table-driven map evaluation give
the same results as the plain definitions they replaced, and a long run builds
no Path and validates no IET."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from ietkhinchin import combinat, induction
from ietkhinchin import iet as iet_module
from ietkhinchin.combinat import BOTTOM, TOP, Arrow, Path, parse_permutation, path_from_types, rauzy_class
from ietkhinchin.errors import PrecisionExhausted
from ietkhinchin.iet import EXACT, FLOAT, IET, sample_iet
from ietkhinchin.induction import InductionState

PERMS = ["ABCD/DCBA", "ABCD/DBAC", "ABCDE/EDCBA"]
SEEDS = [1, 2, 3]


def loop_evaluate(iet, x):
    """The exchange by a scan of the top row (the definition)."""
    acc = 0
    for letter in iet.perm.top:
        nxt = acc + iet.lengths[letter]
        if x < nxt:
            return x - acc + iet.left_endpoints(BOTTOM)[letter]
        acc = nxt
    raise AssertionError("outside the domain")


def loop_evaluate_inverse(iet, y):
    acc = 0
    top = iet.left_endpoints(TOP)
    for letter in iet.perm.bottom:
        nxt = acc + iet.lengths[letter]
        if y < nxt:
            return y - acc + top[letter]
        acc = nxt
    raise AssertionError("outside the domain")


def same(a, b):
    """Equal values of the same type; for floats, the same bits."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


def sample(perm_text, seed, backend):
    return sample_iet(parse_permutation(perm_text), random.Random(seed), backend, bits=48)


def run(iet, steps):
    """The state after up to ``steps`` steps, and the kinds the steps returned."""
    state = InductionState(iet)
    kinds = []
    for _ in range(steps):
        try:
            kinds.append(state.rauzy_step().kind)
        except PrecisionExhausted:
            break
    return state, "".join(kinds)


def probe_points(iet, rng):
    """Piece boundaries, orbit points and random points of the domain."""
    points = list(iet.left_endpoints(TOP).values()) + list(iet.left_endpoints(BOTTOM).values())
    for start in list(points):
        x = start
        for _ in range(100):
            x = loop_evaluate(iet, x)
            points.append(x)
    total = iet.total()
    for _ in range(50):
        if iet.backend == EXACT:
            points.append(total * F(rng.randrange(1 << 40), 1 << 40))
        else:
            points.append(total * rng.random())
    return [x for x in points if 0 <= x < total]


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("perm_text", PERMS)
def test_evaluate_matches_definition(perm_text, seed, backend):
    start = sample(perm_text, seed, backend)
    state, _ = run(start, 30)
    rng = random.Random(seed)
    for iet in (start, state.current):
        points = probe_points(iet, rng)
        assert len(points) > 100
        for x in points:
            assert same(iet.evaluate(x), loop_evaluate(iet, x))
            assert same(iet.evaluate_inverse(x), loop_evaluate_inverse(iet, x))
            if backend == EXACT:
                assert iet.evaluate_inverse(iet.evaluate(x)) == x


def candidate_paths(perm):
    """Every path of length at most 3 from every vertex of the class."""
    out = []
    for vertex in rauzy_class(perm):
        frontier = [Path(vertex)]
        for _ in range(3):
            out.extend(frontier)
            frontier = [p.extended(kind) for p in frontier for kind in (TOP, BOTTOM)]
        out.extend(frontier)
    return out


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("perm_text", PERMS)
def test_ends_with_matches_path(perm_text, backend):
    start = sample(perm_text, 5, backend)
    pool = candidate_paths(start.perm)
    state = InductionState(start)
    outcomes = Counter()
    for _ in range(60):
        try:
            state.rauzy_step()
        except PrecisionExhausted:
            break
        run_path = state.path
        r = len(run_path)
        suffixes = [Path(run_path.arrows[r - m].start, run_path.arrows[r - m:]) for m in range(1, r + 1)]
        longer = path_from_types(start.perm, run_path.type_string() + TOP)
        for p in pool + suffixes + [run_path.prefix(m) for m in range(r)] + [longer]:
            expected = run_path.ends_with(p)
            assert state.ends_with(p) == expected, (run_path, p)
            outcomes[expected] += 1
    assert state.steps >= 30
    assert outcomes[True] > 0 and outcomes[False] > 0


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("perm_text", PERMS)
def test_step_output_validates(perm_text, seed, backend):
    start = sample(perm_text, seed, backend)
    state = InductionState(start)
    kinds = []
    for _ in range(200):
        try:
            kinds.append(state.rauzy_step().kind)
        except PrecisionExhausted:
            break
        current = state.current
        checked = IET(current.perm, current.lengths, backend)
        assert all(same(checked.lengths[a], current.lengths[a]) for a in current.perm.letters)
        assert list(current.lengths) == list(current.perm.letters)
    assert len(kinds) >= 30
    assert state.path == path_from_types(start.perm, "".join(kinds))
    assert state.path.end == state.current.perm


def test_long_run_builds_no_path_and_validates_no_iet(monkeypatch):
    counts = Counter()

    class CountingPath(Path):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            counts["paths"] += 1
            super().__init__(*args, **kwargs)

    class CountingArrow(Arrow):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            counts["arrows"] += 1
            super().__init__(*args, **kwargs)

    admissible = iet_module.is_admissible

    def counting_admissible(perm):
        counts["validations"] += 1
        return admissible(perm)

    perm = parse_permutation("ABCDE/EDCBA")
    class_size = len(rauzy_class(perm))
    rng = random.Random(2026)
    start = IET(perm, {a: rng.randrange(1, 1 << 1024) for a in perm.letters})
    reference = path_from_types(perm, "tb")
    monkeypatch.setattr(induction, "Path", CountingPath)
    monkeypatch.setattr(combinat, "Arrow", CountingArrow)
    monkeypatch.setattr(iet_module, "is_admissible", counting_admissible)

    state = InductionState(start)
    for _ in range(2000):
        state.rauzy_step()
        state.ends_with(reference)
    assert state.steps == 2000
    assert counts["paths"] == 0 and counts["validations"] == 0
    assert 0 < counts["arrows"] <= 2 * class_size

    assert len(state.path) == 2000
    assert len(state.path) == 2000
    assert counts["paths"] == 1
