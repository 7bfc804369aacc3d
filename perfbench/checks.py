"""Output checks computed apart from the program.

Nothing here imports ``ietkhinchin``.  The checks read plain data (rows as
letter sequences, arrow kinds as ``"t"``/``"b"`` strings, numbers) and work
in exact integer arithmetic:

* ``ExactIET`` scales the lengths to integers over their common denominator
  (float lengths are dyadic, so this is exact) and answers the two questions
  the dichotomy rests on straight from the definitions: the orbit gap
  |T^n u_beta^b - u_alpha^t|, and whether the triple is reduced, i.e. no
  pullback T^-k of the open interval between the two points, k = 0..n, holds
  a singularity of T or of T^-1 strictly inside.
* ``rauzy_replay`` replays arrow kinds on the rows, with the counters
  l, h, q and, when given, the lengths.

Every check raises ``CheckFailed`` with a message; none compares against a
stored copy of earlier output, so any correct program passes, whatever its
sampler or enumeration order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

TOP, BOTTOM = "t", "b"


class CheckFailed(Exception):
    """A program output contradicts the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def phi_value(spec: str, n: int) -> float:
    """The two default sequence families, evaluated from their formulas."""
    lg = math.log(n + 1)
    if spec == "1/(n*log(n+1)^2)":
        return 1.0 / (n * lg * lg)
    if spec == "1/(n*log(n+1))":
        return 1.0 / (n * lg)
    raise ValueError(f"no reference formula for phi {spec!r}")


def decade_index(n: int) -> int:
    """Index of the doubling window [2^(k-1), 2^k) that holds n >= 1."""
    return n.bit_length() - 1


def gap_tolerance(n: int) -> float:
    """Bound on the rounding a float orbit of n steps on lengths summing to
    about 1 can collect: a few units of 2^-53 per step."""
    return (n + 1) * 2.0**-50


class ExactIET:
    """An interval exchange with integer lengths L_a = lambda_a * scale."""

    def __init__(self, top, bottom, lengths):
        self.top = tuple(top)
        self.bottom = tuple(bottom)
        exact = {a: Fraction(lengths[a]) for a in self.top}
        scale = 1
        for value in exact.values():
            require(value > 0, f"length {value} is not positive")
            scale = scale * value.denominator // math.gcd(scale, value.denominator)
        self.scale = scale
        self.lengths = {a: int(v * scale) for a, v in exact.items()}
        self.u_top = self._prefix(self.top)
        self.u_bottom = self._prefix(self.bottom)
        self._top_rights, self._top_shifts = self._pieces(self.top, self.u_bottom, self.u_top)
        self._bottom_rights, self._bottom_shifts = self._pieces(
            self.bottom, self.u_top, self.u_bottom
        )
        self.singularities = sorted(
            {self.u_top[a] for a in self.top[1:]} | {self.u_bottom[b] for b in self.bottom[1:]}
        )

    def _prefix(self, row):
        out, acc = {}, 0
        for letter in row:
            out[letter] = acc
            acc += self.lengths[letter]
        return out

    def _pieces(self, row, image_start, own_start):
        rights, shifts = [], []
        for letter in row:
            rights.append(own_start[letter] + self.lengths[letter])
            shifts.append(image_start[letter] - own_start[letter])
        return rights, shifts

    def pairs(self) -> list[tuple[str, str]]:
        """(beta, alpha) with beta not first in the bottom row and alpha not
        first in the top row."""
        return [(b, a) for b in sorted(self.bottom[1:]) for a in sorted(self.top[1:])]

    def orbit(self, beta: str, n_max: int) -> list[int]:
        """[u, Tu, ..., T^n_max u] for u the bottom singularity of beta."""
        rights, shifts = self._top_rights, self._top_shifts
        x = self.u_bottom[beta]
        out = [x]
        for _ in range(n_max):
            x += shifts[bisect_right(rights, x)]
            out.append(x)
        return out

    def is_reduced(self, point: int, target: int, n: int) -> bool:
        """Pull the open interval between ``point`` = T^n u_beta^b and
        ``target`` = u_alpha^t back n times; reduced iff no pullback holds a
        singularity strictly inside.  While it holds none, the interval lies
        in one piece of T^-1, which translates it."""
        require(point != target, "the triple is a connection")
        lo, hi = min(point, target), max(point, target)
        sing = self.singularities
        rights, shifts = self._bottom_rights, self._bottom_shifts
        for k in range(n + 1):
            j = bisect_right(sing, lo)
            if j < len(sing) and sing[j] < hi:
                return False
            if k < n:
                shift = shifts[bisect_right(rights, lo)]
                lo += shift
                hi += shift
        return True

    def below(self, gap: int, phi: float) -> bool:
        """gap / scale < phi, exactly."""
        ratio = Fraction(phi)
        return gap * ratio.denominator < ratio.numerator * self.scale

    def solutions(self, phi_spec: str, n_max: int) -> dict[tuple[str, str, int], Fraction]:
        """Every reduced (beta, alpha, n), 1 <= n <= n_max, whose orbit gap
        is below phi(n), mapped to that gap."""
        thresholds = [None] + [Fraction(phi_value(phi_spec, n)) for n in range(1, n_max + 1)]
        out = {}
        orbits = {}
        for beta, alpha in self.pairs():
            if beta not in orbits:
                orbits[beta] = self.orbit(beta, n_max)
            orbit = orbits[beta]
            target = self.u_top[alpha]
            for n in range(1, n_max + 1):
                gap = abs(orbit[n] - target)
                t = thresholds[n]
                if gap * t.denominator < t.numerator * self.scale:
                    if self.is_reduced(orbit[n], target, n):
                        out[(beta, alpha, n)] = Fraction(gap, self.scale)
        return out


def check_rows(solutions, counts, phi_spec: str, n_max: int, pairs) -> None:
    """Checks that need no orbit: pair letters, 1 <= n <= n_max, the reported
    gap below phi(n), and the row's decade counts equal to the binning of
    the solutions."""
    bins = [0] * n_max.bit_length()
    for (beta, alpha), per_pair in solutions.items():
        for n, gap in per_pair.items():
            require((beta, alpha) in pairs, f"({beta}, {alpha}) is not an admissible pair")
            require(1 <= n <= n_max, f"n = {n} outside [1, {n_max}]")
            require(0 < gap < phi_value(phi_spec, n), f"gap {gap} at n = {n} not below phi(n)")
            bins[decade_index(n)] += 1
    require(list(counts) == bins, f"row counts {list(counts)} differ from the solutions {bins}")


def check_each_solution(oracle: ExactIET, solutions, phi_spec: str) -> None:
    """Each reported solution is reduced, its gap is the exact orbit gap
    within float rounding, and that exact gap is below phi(n)."""
    horizon = {}
    for (beta, _), per_pair in solutions.items():
        horizon[beta] = max([horizon.get(beta, 0), *per_pair])
    orbits = {beta: oracle.orbit(beta, n) for beta, n in horizon.items()}
    for (beta, alpha), per_pair in solutions.items():
        orbit = orbits[beta]
        target = oracle.u_top[alpha]
        for n, gap in per_pair.items():
            exact = abs(orbit[n] - target)
            require(
                abs(gap - exact / oracle.scale) <= gap_tolerance(n),
                f"({beta}, {alpha}, {n}): gap {gap} is not the orbit gap {exact / oracle.scale}",
            )
            require(oracle.below(exact, phi_value(phi_spec, n)), f"({beta}, {alpha}, {n}): gap not below phi")
            require(oracle.is_reduced(orbit[n], target, n), f"({beta}, {alpha}, {n}) is not reduced")


def check_full_list(oracle: ExactIET, solutions, phi_spec: str, n_max: int) -> None:
    """The reported triples are exactly the oracle's."""
    expected = set(oracle.solutions(phi_spec, n_max))
    reported = {(b, a, n) for (b, a), per_pair in solutions.items() for n in per_pair}
    require(
        reported == expected,
        f"missing {sorted(expected - reported)[:5]}, spurious {sorted(reported - expected)[:5]}",
    )


class RauzyRun:
    """Rows, counters l, h, q and, when given, lengths along a run of arrows."""

    def __init__(self, top, bottom, lengths=None):
        self.top, self.bottom = list(top), list(bottom)
        self.lengths = dict(lengths) if lengths is not None else None
        self.q = {a: 1 for a in self.top}
        self.l = {a: 0 for a in self.top}
        self.h = {a: 0 for a in self.top}
        self.steps = 0

    def winner(self, kind: str) -> str:
        return (self.top if kind == TOP else self.bottom)[-1]

    def step(self, kind: str) -> None:
        """One arrow: the loser is reinserted after the winner in its own
        row; with lengths, the winner must be strictly longer and is cut."""
        require(kind in (TOP, BOTTOM), f"bad arrow kind {kind!r}")
        win_row, lose_row = (self.top, self.bottom) if kind == TOP else (self.bottom, self.top)
        winner, loser = win_row[-1], lose_row[-1]
        require(winner != loser, f"step {self.steps}: rows end with the same letter")
        if self.lengths is not None:
            require(
                self.lengths[winner] > self.lengths[loser],
                f"step {self.steps}: winner {winner} is not longer than {loser}",
            )
            self.lengths[winner] -= self.lengths[loser]
        lose_row.pop()
        lose_row.insert(lose_row.index(winner) + 1, loser)
        (self.l if kind == TOP else self.h)[loser] += self.q[winner]
        self.q[loser] += self.q[winner]
        self.steps += 1


def rauzy_replay(top, bottom, kinds: str, lengths=None) -> RauzyRun:
    run = RauzyRun(top, bottom, lengths)
    for kind in kinds:
        run.step(kind)
    return run


def check_detection(oracle: ExactIET, triple, kinds: str, q, gap) -> None:
    """A detection path ends where l[beta] + h[alpha] = n, with the path's
    return times and the exact orbit gap."""
    beta, alpha, n = triple
    run = rauzy_replay(oracle.top, oracle.bottom, kinds)
    require(run.l[beta] + run.h[alpha] == n, f"{triple}: l + h = {run.l[beta] + run.h[alpha]}, not n")
    require(dict(q) == run.q, f"{triple}: return times differ from the path's")
    exact = abs(oracle.orbit(beta, n)[n] - oracle.u_top[alpha])
    require(Fraction(gap) == Fraction(exact, oracle.scale), f"{triple}: gap {gap} is not the orbit gap")


def check_induction(top, bottom, start_lengths, kinds: str, end_top, end_bottom, end_lengths, l, h, q) -> None:
    """After a run: l + h + 1 = q per letter, positive lengths, the total
    sum q_a * lambda_a preserved exactly, and a replay of the arrow kinds on
    the starting lengths (winners strictly longer) reaching the same rows,
    lengths and counters."""
    start = {a: Fraction(v) for a, v in start_lengths.items()}
    end = {a: Fraction(v) for a, v in end_lengths.items()}
    for a in top:
        require(l[a] + h[a] + 1 == q[a], f"letter {a}: l + h + 1 != q")
        require(end[a] > 0, f"letter {a}: length {end[a]} not positive")
    require(
        sum(q[a] * end[a] for a in top) == sum(start.values()),
        "sum of q * lambda differs from the starting total",
    )
    run = rauzy_replay(top, bottom, kinds, start)
    require((run.top, run.bottom) == (list(end_top), list(end_bottom)), "rows differ from the replay")
    require(run.lengths == end, "lengths differ from the replay")
    require((run.l, run.h, run.q) == (dict(l), dict(h), dict(q)), "counters differ from the replay")


def check_targets(top, bottom, avoided: str, epsilon, members, mass, complement_mass, undecided) -> None:
    """A first-crossing family: the masses add up to 1, each member never
    lets the avoided letter win and its return time for that letter first
    exceeds 1/epsilon at its last arrow, 1/prod(q) over the members sums to
    the reported mass, and no member is a prefix of another."""
    threshold = 1 / Fraction(epsilon)
    require(mass + complement_mass + undecided == 1, "masses do not add up to 1")
    total = Fraction(0)
    for kinds in members:
        require(len(kinds) > 0, "the trivial path is a member")
        run = RauzyRun(top, bottom)
        for kind in kinds:
            require(run.q[avoided] <= threshold, f"member {kinds} crosses the threshold early")
            require(run.winner(kind) != avoided, f"member {kinds}: {avoided} wins at step {run.steps}")
            run.step(kind)
        require(run.q[avoided] > threshold, f"member {kinds} ends below the threshold")
        volume = 1
        for value in run.q.values():
            volume *= value
        total += Fraction(1, volume)
    require(total == mass, f"member volumes sum to {total}, reported {mass}")
    ordered = sorted(members)
    for first, second in zip(ordered, ordered[1:]):
        require(not second.startswith(first), f"member {first} is a prefix of {second}")
