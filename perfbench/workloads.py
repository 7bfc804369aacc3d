"""The workloads: their inputs, one op, and the checks of its output.

Each workload draws the inputs of a round from ``--seed`` and the round's
index, so one seed always gives the same inputs, and every run attempts
whole rounds.  Warm-up inputs come from a fixed seed, so set-up does the
same work on every run.

An op returns compact plain data: the program's outputs as the checks in
``checks.py`` read them.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from fractions import Fraction

from ietkhinchin import harness, triples
from ietkhinchin.combinat import parse_permutation
from ietkhinchin.iet import EXACT, IET, Triple, sample_float_lengths
from ietkhinchin.induction import InductionState

import checks
from checks import BOTTOM, TOP, ExactIET, RauzyRun
from tracing import INDUCT

CONVERGENT = "1/(n*log(n+1)^2)"
DIVERGENT = "1/(n*log(n+1))"
# The steps an IET needs before a count covers every pair have a power-law
# tail, as continued-fraction partial quotients do.  In the exact workload,
# with a quadratic induction step, one draw from the tail outweighs all the
# other ops of a run; in the dichotomy, a draw past the float kernel's
# budget of 10^6 steps fails.  Inputs past these limits are redrawn.
COVER_WITHIN = 1000
DICHOTOMY_COVER_WITHIN = 100_000


class OpFailed(Exception):
    """The program reported a status other than ok."""


def _rng(*labels) -> random.Random:
    return random.Random(":".join(str(x) for x in labels))


class Workload:
    name = ""
    full_share = 1.0  # share of ops, drawn by seed, that get the costly checks
    phase = staticmethod(lambda name: nullcontext())

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, index: int) -> list:
        """Inputs of the ops of round ``index``."""
        return self.round_from(_rng(self.name, self.seed, index))

    def round_from(self, rng: random.Random) -> list:
        raise NotImplementedError

    def warmup_round(self) -> list:
        return self.round_from(_rng(self.name, "warm-up"))

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out, full: bool) -> None:
        """Raise CheckFailed if ``out`` is wrong; ``full`` adds the costly checks."""
        raise NotImplementedError


class Dichotomy(Workload):
    """``dichotomy_experiment`` on ABCD/DCBA, one sample row per op.

    A round draws two master seeds: the first IET is counted under each phi
    family, the second under the divergent one.  A divergent row costs about
    four times a convergent one; with two in three rows divergent, the
    median op lies inside the divergent rows' spread rather than in the gap
    between the two families.  The solutions behind a row are read through
    ``khinchin_count``, the public counting function the experiment calls
    for every sample.
    """

    name = "dichotomy"
    full_share = 0.02

    def __init__(self, seed, n_max=10**4):
        super().__init__(seed)
        self.perm = parse_permutation("ABCD/DCBA")
        self.n_max = n_max
        self.params = {
            "perm": str(self.perm), "n_max": n_max, "phi": [CONVERGENT, DIVERGENT], "samples_per_op": 1,
            "workers": 1, "cover_within": DICHOTOMY_COVER_WITHIN,
        }
        self._captured = []
        count = harness.khinchin_count

        def capture(iet, *args, **kwargs):
            result = count(iet, *args, **kwargs)
            self._captured.append((iet, result))
            return result

        harness.khinchin_count = capture

    def round_from(self, rng):
        first, second = self._master(rng), self._master(rng)
        return [(first, CONVERGENT), (first, DIVERGENT), (second, DIVERGENT)]

    def _master(self, rng):
        """A master seed whose sample, drawn as ``dichotomy_experiment``
        draws it, is covered within DICHOTOMY_COVER_WITHIN steps."""
        while True:
            master = rng.getrandbits(63)
            sample = random.Random(harness.derive_seed(master, 0, 0))
            lengths = ExactIET(self.perm.top, self.perm.bottom,
                               sample_float_lengths(self.perm, sample)).lengths
            if cover_steps(self.perm.top, self.perm.bottom, lengths, self.n_max,
                           DICHOTOMY_COVER_WITHIN) is not None:
                return master

    def op(self, inp):
        master, spec = inp
        self._captured.clear()
        report = harness.dichotomy_experiment(self.perm, [spec], 1, self.n_max, master)
        (_, _, status, counts), = report["rows"]
        if status != "ok":
            raise OpFailed(f"sample status {status}")
        (iet, solutions), = self._captured
        return spec, counts, dict(iet.lengths), solutions

    def check(self, inp, out, full):
        spec, counts, lengths, solutions = out
        oracle = ExactIET(self.perm.top, self.perm.bottom, lengths)
        checks.check_rows(solutions, counts, spec, self.n_max, set(oracle.pairs()))
        if full:
            checks.check_full_list(oracle, solutions, spec, self.n_max)
            checks.check_each_solution(oracle, solutions, spec)


def cover_steps(top, bottom, lengths, n_max: int, limit: int, run_on: int = 0):
    """Induction steps on integer ``lengths`` until every pair (beta, alpha)
    has l[beta] + h[alpha] > n_max, where the count stops.  None if that
    takes more than ``limit`` steps, or if a tie comes within that many
    steps or within ``run_on`` steps."""
    pairs = [(b, a) for b in bottom[1:] for a in top[1:]]
    run = RauzyRun(top, bottom, lengths)
    covered = None
    while covered is None or run.steps < run_on:
        lt, lb = run.lengths[run.top[-1]], run.lengths[run.bottom[-1]]
        if lt == lb:
            return None
        run.step(TOP if lt > lb else BOTTOM)
        if covered is None:
            if min(run.l[b] + run.h[a] for b, a in pairs) > n_max:
                covered = run.steps
            elif run.steps >= limit:
                return None
    return covered


class Exact(Workload):
    """Exact dyadic IETs on ABCDE/EDCBA: the exact count, ``detect`` of each
    triple found, and a plain induction run, as ``ietk induct`` does."""

    name = "exact"
    bits = 256

    def __init__(self, seed, n_max=300, steps=1500):
        super().__init__(seed)
        self.perm = parse_permutation("ABCDE/EDCBA")
        self.n_max = n_max
        self.steps = steps
        self.phi = harness.parse_phi(DIVERGENT)
        self.params = {
            "perm": str(self.perm), "bits": self.bits, "n_max": n_max, "phi": DIVERGENT,
            "induction_steps": steps, "cover_within": COVER_WITHIN,
        }

    def round_from(self, rng):
        """One IET whose lengths are k / 2^bits.  Draws that meet a tie
        within twice the run's steps, or that need more than COVER_WITHIN
        steps before the count covers every pair, are redrawn (see README)."""
        while True:
            numerators = {a: rng.randrange(1, 1 << self.bits) for a in self.perm.letters}
            if cover_steps(self.perm.top, self.perm.bottom, numerators, self.n_max, COVER_WITHIN,
                           run_on=2 * self.steps) is not None:
                return [{a: Fraction(k, 1 << self.bits) for a, k in numerators.items()}]

    def op(self, lengths):
        iet = IET(self.perm, lengths, EXACT)
        solutions = harness.khinchin_count(iet, self.phi, self.n_max)
        detections = []
        for (beta, alpha), per_pair in solutions.items():
            for n in per_pair:
                found = triples.detect(iet, Triple(beta, alpha, n))
                detections.append(((beta, alpha, n), found.path.type_string(), found.q, found.gap))
        with self.phase(INDUCT):
            state = InductionState(iet)
            for _ in range(self.steps):
                state.rauzy_step()
        end = state.current
        run = (state.path.type_string(), end.perm.top, end.perm.bottom, dict(end.lengths),
               dict(state.l), dict(state.h), dict(state.q))
        return solutions, detections, run

    def check(self, lengths, out, full):
        solutions, detections, run = out
        oracle = ExactIET(self.perm.top, self.perm.bottom, lengths)
        expected = oracle.solutions(DIVERGENT, self.n_max)
        reported = {(b, a, n): gap for (b, a), per_pair in solutions.items() for n, gap in per_pair.items()}
        checks.require(set(reported) == set(expected), "the exact count differs from the oracle's")
        for key, gap in reported.items():
            checks.require(gap == float(expected[key]), f"{key}: gap {gap} is not the orbit gap")
        for triple, kinds, q, gap in detections:
            checks.check_detection(oracle, triple, kinds, q, gap)
        kinds, end_top, end_bottom, end_lengths, l, h, q = run
        checks.require(len(kinds) == self.steps, f"the run made {len(kinds)} steps")
        checks.check_induction(self.perm.top, self.perm.bottom, lengths, kinds, end_top, end_bottom,
                               end_lengths, l, h, q)


class Targets(Workload):
    """``enumerate_targets`` on ABCD/DCBA at one depth budget, as ``ietk
    targets --depth`` runs it: one op per (epsilon, avoided letter).

    The letters are A, B and C: the datum is symmetric under A <-> D,
    B <-> C, so D's families mirror A's.  A costs several times as much as B
    or C; with three A ops in nine, the median op lies inside the cheap
    group rather than between two groups of equal size.

    Each epsilon is drawn from the open interval (1/(k+1), 1/k): a return
    time is an integer, so every epsilon there gives the same tree, and a
    round costs the same on every seed.
    """

    name = "targets"
    full_share = 0.08
    ks = (4, 6, 8)
    letters = ("A", "B", "C")

    def __init__(self, seed, depth=18):
        super().__init__(seed)
        self.perm = parse_permutation("ABCD/DCBA")
        self.depth = depth
        self.params = {
            "perm": str(self.perm), "depth_budget": depth,
            "epsilon_intervals": [f"(1/{k + 1}, 1/{k})" for k in self.ks],
            "avoided": list(self.letters),
        }

    def warmup_round(self):
        """One enumeration, of the costliest kind: the smallest epsilon with
        an outer letter avoided."""
        return [(1 / (self.ks[-1] + Fraction(1, 2)), self.perm.letters[0])]

    def round_from(self, rng):
        ops = [
            (1 / (k + Fraction(rng.randrange(1, 1000), 1000)), letter)
            for k in self.ks
            for letter in self.letters
        ]
        rng.shuffle(ops)
        return ops

    def op(self, inp):
        epsilon, letter = inp
        family = triples.enumerate_targets(self.perm, letter, epsilon, self.depth)
        members = [path.type_string() for path in family.paths]
        return members, family.mass, family.complement.mass, family.undecided_mass

    def check(self, inp, out, full):
        epsilon, letter = inp
        members, mass, complement_mass, undecided = out
        checks.require(mass + complement_mass + undecided == 1, "masses do not add up to 1")
        if full:
            checks.check_targets(self.perm.top, self.perm.bottom, letter, epsilon, members, mass,
                                 complement_mass, undecided)


def make(name: str, seed: int) -> Workload:
    if name == "dichotomy":
        return Dichotomy(seed)
    if name == "exact":
        return Exact(seed)
    if name == "targets":
        return Targets(seed)
    raise ValueError(f"unknown workload {name!r}")
