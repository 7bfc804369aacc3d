"""Detection and production of reduced triples, reference paths, and the
shrinking-target path families.

Detection runs the induction until the current pair of singularities realizes
the orbit gap of a triple; production goes the other way, reading triples off
every occurrence of an engineered reference path.  The target families are
tree enumerations of colored paths with exact mass accounting.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .combinat import (
    BOTTOM,
    TOP,
    Arrow,
    Path,
    Permutation,
    RauzyClass,
    is_neat,
    is_positive,
    path_from_types,
)
from .errors import AlgorithmStopped, ConstructionFailed, NotDetected
from .iet import EXACT, IET, Triple, is_reduced_triple, valid_pairs
from .induction import InductionState, lh_counters
from .matrices import matrix_norm, path_matrix, q_product, q_vector, solve, transpose


class DetectionResult:
    """Outcome of detecting one triple: the minimal path and the exact gap."""

    __slots__ = ("triple", "path", "gap", "last_winner", "q")

    def __init__(self, triple: Triple, path: Path, gap, last_winner: Optional[str], q: dict):
        self.triple = triple
        self.path = path
        self.gap = gap
        self.last_winner = last_winner
        self.q = q

    def __repr__(self) -> str:
        return (
            f"DetectionResult({self.triple!r}, r={len(self.path)}, gap={self.gap}, "
            f"W={self.last_winner})"
        )


def detect(iet: IET, triple: Triple, step_budget: int = 100_000) -> DetectionResult:
    """Minimal induction step realizing the triple's orbit gap.

    Scans every step (no combinatorial shortcut, so the structural statements
    about last arrows stay testable against this).  The orbit gap is computed
    exactly up front.
    """
    if iet.backend != EXACT:
        raise ValueError("detection needs the exact backend")
    perm = iet.perm
    if perm.position(BOTTOM, triple.beta) <= 1 or perm.position(TOP, triple.alpha) <= 1:
        raise ValueError("triple letters violate the position constraints")
    point = iet.left_endpoints(BOTTOM)[triple.beta]
    for _ in range(triple.n):
        point = iet.evaluate(point)
    target_gap = abs(point - iet.left_endpoints(TOP)[triple.alpha])
    if target_gap == 0:
        raise ValueError("triple is a connection")

    state = InductionState(iet)
    while True:
        if (
            state.l[triple.beta] + state.h[triple.alpha] == triple.n
            and state.current_singularity_gap(triple.beta, triple.alpha) == target_gap
        ):
            path = state.path
            last = path.arrows[-1].winner if path.arrows else None
            return DetectionResult(triple, path, target_gap, last, dict(state.q))
        if state.steps >= step_budget:
            raise NotDetected(step_budget)
        state.rauzy_step()


def property_a_search(cls: RauzyClass, beta: str, alpha: str) -> Optional[Permutation]:
    """First class element with alpha last on top and beta last on bottom."""
    _check_pair(cls, beta, alpha)
    for perm in cls.elements:
        if perm.last(TOP) == alpha and perm.last(BOTTOM) == beta:
            return perm
    return None


def _check_pair(cls: RauzyClass, beta: str, alpha: str) -> None:
    if beta == cls.letter_y():
        raise ValueError("beta is the letter fixed first in the bottom row")
    if alpha == cls.letter_x():
        raise ValueError("alpha is the letter fixed first in the top row")


def _prefix_set(perm: Permutation, kind: str, letter: str) -> frozenset[str]:
    row = perm.row(kind)
    return frozenset(row[: row.index(letter)])


def property_b_search(
    cls: RauzyClass, beta: str, alpha: str
) -> tuple[Optional[tuple[Permutation, str, str]], Optional[tuple[Permutation, str]]]:
    """First witnesses of the two bottom/top-symmetric shapes of property B.

    The first element returned is (perm, V, L) where the top ends with V, the
    bottom with alpha, and the top prefix of alpha plus V equals the bottom
    prefix of beta; L is the letter just left of beta in the bottom row.  The
    second element is the mirror witness (perm', V').
    """
    _check_pair(cls, beta, alpha)
    first: Optional[tuple[Permutation, str, str]] = None
    second: Optional[tuple[Permutation, str]] = None
    for perm in cls.elements:
        if first is None and perm.last(BOTTOM) == alpha:
            v = perm.last(TOP)
            if _prefix_set(perm, TOP, alpha) | {v} == _prefix_set(perm, BOTTOM, beta):
                ell = perm.bottom[perm.position(BOTTOM, beta) - 2]
                if perm.position(TOP, ell) < perm.position(TOP, alpha):
                    first = (perm, v, ell)
        if second is None and perm.last(TOP) == beta:
            v2 = perm.last(BOTTOM)
            if _prefix_set(perm, TOP, alpha) == _prefix_set(perm, BOTTOM, beta) | {v2}:
                second = (perm, v2)
        if first is not None and second is not None:
            break
    return first, second


class ReferencePath:
    """A neat positive path whose every occurrence in an orbit path certifies
    a produced triple for one pair."""

    __slots__ = ("path", "pair_kind", "beta", "alpha", "aux_v", "aux_l")

    def __init__(self, path, pair_kind, beta, alpha, aux_v=None, aux_l=None):
        self.path = path
        self.pair_kind = pair_kind
        self.beta = beta
        self.alpha = alpha
        self.aux_v = aux_v
        self.aux_l = aux_l

    @property
    def end(self) -> Permutation:
        return self.path.end

    def norm(self) -> int:
        return matrix_norm(path_matrix(self.path))

    def suffix_length(self) -> int:
        return 2 if self.pair_kind == "A" else 1

    def target_context(self) -> tuple[Permutation, str, str, frozenset[str]]:
        """(end vertex, V, L, colored-away letter set) for the B-side targets."""
        if self.pair_kind != "B":
            raise ValueError("target context only exists for kind B")
        pi1 = self.end
        a_set = _prefix_set(pi1, TOP, self.alpha)
        return pi1, self.aux_v, self.aux_l, a_set

    def __repr__(self) -> str:
        return (
            f"ReferencePath(kind {self.pair_kind}, ({self.beta},{self.alpha}), "
            f"{self.path.type_string()} from {self.path.start!s})"
        )


def _bfs_to_winner(
    cls: RauzyClass, source: Permutation, letter: str, forbidden: Optional[Arrow]
) -> Path:
    """Shortest path from source ending with an arrow won by ``letter``."""
    from collections import deque

    best: dict[Permutation, Path] = {source: Path(source)}
    queue = deque([source])
    while queue:
        perm = queue.popleft()
        base = best[perm]
        for kind in (TOP, BOTTOM):
            arrow = cls.arrow(perm, kind)
            if arrow == forbidden:
                continue
            if arrow.winner == letter:
                return base.then(Path(perm, [arrow]))
            if arrow.end not in best:
                best[arrow.end] = base.then(Path(perm, [arrow]))
                queue.append(arrow.end)
    raise ConstructionFailed(len(cls), f"no reachable arrow won by {letter}")


def _bfs_connector(
    cls: RauzyClass, source: Permutation, target: Permutation, forbidden: Optional[Arrow]
) -> Path:
    from collections import deque

    if source == target:
        return Path(source)
    best: dict[Permutation, Path] = {source: Path(source)}
    queue = deque([source])
    while queue:
        perm = queue.popleft()
        base = best[perm]
        for kind in (TOP, BOTTOM):
            arrow = cls.arrow(perm, kind)
            if arrow == forbidden:
                continue
            if arrow.end not in best:
                best[arrow.end] = base.then(Path(perm, [arrow]))
                if arrow.end == target:
                    return best[arrow.end]
                queue.append(arrow.end)
    raise ConstructionFailed(len(cls), "connector search failed")


def build_reference_path(
    cls: RauzyClass, start: Permutation, beta: str, alpha: str, variant_budget: int = 128
) -> ReferencePath:
    """Assemble a reference path for the pair from ``start``.

    The suffix is forced by the pair's combinatorial property; the front is a
    quota walk (every letter wins at least once, the distinguished letter
    enough times) plus a connector, retried over deterministic prefix
    variants until the whole thing is neat and positive.
    """
    witness_a = property_a_search(cls, beta, alpha)
    if witness_a is not None:
        kind = "A"
        suffix_start = witness_a
        first = Arrow(witness_a, TOP)
        if first.winner != alpha or first.loser != beta:
            raise AssertionError("property A witness out of shape")
        second = Arrow(first.end, BOTTOM)
        if second.loser != alpha:
            raise AssertionError("second suffix arrow must lose alpha")
        suffix = Path(witness_a, [first, second])
        quotas = {alpha: 2}
        aux_v = aux_l = None
    else:
        witness_b, _ = property_b_search(cls, beta, alpha)
        if witness_b is None:
            raise ConstructionFailed(len(cls), "pair satisfies neither property")
        kind = "B"
        pi_b, aux_v, aux_l = witness_b
        suffix_start = pi_b
        arrow = Arrow(pi_b, BOTTOM)
        if arrow.winner != alpha or arrow.loser != aux_v:
            raise AssertionError("property B witness out of shape")
        suffix = Path(pi_b, [arrow])
        quotas = {aux_v: pi_b.d}

    last_arrow = suffix.arrows[-1]
    variants = _variant_prefixes(variant_budget)
    for avoid_last in (last_arrow, None):
        for prefix_types in variants:
            try:
                path = _assemble(
                    cls, start, suffix_start, suffix, quotas, prefix_types, avoid_last
                )
            except ConstructionFailed:
                continue
            if is_neat(path) and is_positive(path):
                return ReferencePath(path, kind, beta, alpha, aux_v, aux_l)
    raise ConstructionFailed(variant_budget, "no neat positive assembly found")


def _variant_prefixes(budget: int) -> list[str]:
    out = [""]
    length = 1
    while len(out) < budget:
        for bits in range(1 << length):
            out.append("".join(TOP if bits >> i & 1 else BOTTOM for i in range(length)))
            if len(out) >= budget:
                break
        length += 1
    return out


def _assemble(
    cls: RauzyClass,
    start: Permutation,
    suffix_start: Permutation,
    suffix: Path,
    quotas: dict[str, int],
    prefix_types: str,
    avoid: Optional[Arrow],
) -> Path:
    path = path_from_types(start, prefix_types)
    if avoid is not None and avoid in path.arrows:
        raise ConstructionFailed(0, "variant prefix hits the avoided arrow")
    # quota walk: every letter must win at least once overall, distinguished
    # letters possibly more; suffix wins count toward the quota
    for round_count in range(3):
        wins: dict[str, int] = {a: 0 for a in cls.letters}
        for arrow in path.arrows:
            wins[arrow.winner] += 1
        for arrow in suffix.arrows:
            wins[arrow.winner] += 1
        needed = [
            letter
            for letter in cls.letters
            if wins[letter] < max(1, quotas.get(letter, 0))
        ]
        for letter in needed:
            deficit = max(1, quotas.get(letter, 0)) - wins[letter]
            for _ in range(deficit):
                path = path.then(_bfs_to_winner(cls, path.end, letter, avoid))
        path_with_suffix = path.then(
            _bfs_connector(cls, path.end, suffix_start, avoid)
        ).then(suffix)
        if is_positive(path_with_suffix):
            return path_with_suffix
        # not positive yet: force another full sweep of wins
        for letter in cls.letters:
            path = path.then(_bfs_to_winner(cls, path.end, letter, avoid))
    path = path.then(_bfs_connector(cls, path.end, suffix_start, avoid)).then(suffix)
    if not is_positive(path):
        raise ConstructionFailed(3, "positivity not reached")
    return path


def produce_triples(
    iet: IET, ref: ReferencePath, max_steps: int
) -> list[tuple[int, str, object, bool, int]]:
    """Triples read off every occurrence of the reference path.

    Emits (n, gap letter, gap value, reduced flag, step index).  The counters
    that define n are taken at the step where the suffix construction places
    the witness vertex, so a short history of snapshots is kept.
    """
    if iet.perm != ref.path.start:
        raise ValueError("the transformation must start where the reference path does")
    gap_letter = ref.alpha if ref.pair_kind == "A" else ref.aux_v
    back = ref.suffix_length()
    state = InductionState(iet)
    history = [state.snapshot_counters()]
    out = []
    for _ in range(max_steps):
        try:
            state.rauzy_step()
        except AlgorithmStopped:
            break
        history.append(state.snapshot_counters())
        if len(history) > back + 1:
            history.pop(0)
        if state.ends_with(ref.path):
            l_snap, h_snap, _ = history[-(back + 1)]
            n = l_snap[ref.beta] + h_snap[ref.alpha]
            gap = state.current.lengths[gap_letter]
            if ref.pair_kind == "A":
                flag = True
            else:
                flag = (
                    state.current.lengths[ref.aux_v] < state.current.lengths[ref.aux_l]
                )
            out.append((n, gap_letter, gap, flag, state.steps))
    return out


class TargetFamily:
    """A finitely enumerated disjoint family of paths with exact mass."""

    __slots__ = (
        "base",
        "avoided",
        "epsilon",
        "kind",
        "paths",
        "mass",
        "undecided_mass",
        "complement",
        "truncated",
        "orphaned",
    )

    def __init__(self, base, avoided, epsilon, kind, paths, mass, undecided_mass,
                 complement=None, truncated=0, orphaned=0):
        self.base = base
        self.avoided = avoided
        self.epsilon = epsilon
        self.kind = kind
        self.paths = paths
        self.mass = mass
        self.undecided_mass = undecided_mass
        self.complement = complement
        self.truncated = truncated
        self.orphaned = orphaned

    def __repr__(self) -> str:
        return (
            f"TargetFamily({self.kind}, eps={self.epsilon}, |paths|={len(self.paths)}, "
            f"mass={self.mass}, undecided={self.undecided_mass})"
        )


def _volume_from_q(q: Sequence[int]) -> Fraction:
    return Fraction(1, q_product(q))


def enumerate_targets(
    perm: Permutation,
    avoided: str,
    epsilon: Fraction,
    depth_budget: Optional[int] = None,
) -> TargetFamily:
    """The first-crossing family for one avoided letter, with its complement.

    Walks the tree of paths where the avoided letter never wins; a node whose
    return-time entry for that letter first exceeds 1/epsilon is a member, a
    branch where the letter is about to win while still below threshold ends
    in the complement family.  Branches that sit exactly on the threshold, or
    exceed the depth budget, are booked as undecided mass.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if avoided not in perm.letters:
        raise ValueError("avoided letter outside the alphabet")
    threshold = 1 / epsilon
    if depth_budget is None:
        depth_budget = int(math.ceil(1 / epsilon)) + 16 * perm.d
    letters = perm.letters
    w_index = letters.index(avoided)

    members: list[Path] = []
    complement: list[Path] = []
    mass = Fraction(0)
    complement_mass = Fraction(0)
    undecided = Fraction(0)
    truncated = 0
    orphaned = 0

    # stack entries: (vertex, q tuple, parent entry or None, arrow, depth)
    root = (perm, tuple([1] * perm.d), None, None, 0)
    stack = [root]
    while stack:
        node = stack.pop()
        vertex, q, _, _, depth = node
        if q[w_index] > threshold:
            members.append(_materialize(node))
            mass += _volume_from_q(q)
            continue
        if depth >= depth_budget:
            undecided += _volume_from_q(q)
            truncated += 1
            continue
        for kind in (TOP, BOTTOM):
            arrow = Arrow(vertex, kind)
            loser_i = letters.index(arrow.loser)
            winner_i = letters.index(arrow.winner)
            q_next = list(q)
            q_next[loser_i] += q[winner_i]
            child = (arrow.end, tuple(q_next), node, arrow, depth + 1)
            if arrow.winner == avoided:
                if q[w_index] < threshold:
                    complement.append(_materialize(child))
                    complement_mass += _volume_from_q(q_next)
                else:  # exactly on the threshold: neither family claims it
                    undecided += _volume_from_q(q_next)
                    orphaned += 1
            else:
                stack.append(child)

    family_n = TargetFamily(
        perm, avoided, epsilon, "N", complement, complement_mass, Fraction(0)
    )
    return TargetFamily(
        perm,
        avoided,
        epsilon,
        "E",
        members,
        mass,
        undecided,
        complement=family_n,
        truncated=truncated,
        orphaned=orphaned,
    )


def _materialize(node) -> Path:
    arrows = []
    cursor = node
    while cursor[3] is not None:
        arrows.append(cursor[3])
        cursor = cursor[2]
    arrows.reverse()
    return Path(cursor[0], arrows)


def check_target_shape(pi1: Permutation, v: str, ell: str, a_set: frozenset[str]) -> tuple[str, str]:
    """Validate the endpoint shape of a B-kind reference path; returns (alpha, beta)."""
    a = len(a_set)
    d = pi1.d
    if not (0 < a < d - 1):
        raise ValueError("colored-away set has impossible size")
    if set(pi1.top[:a]) != set(a_set):
        raise ValueError("top row does not start with the colored-away letters")
    alpha = pi1.top[a]
    if pi1.top[a + 1] != v:
        raise ValueError("V is not right of alpha in the top row")
    if set(pi1.bottom[: a + 1]) != set(a_set) | {v}:
        raise ValueError("bottom prefix is not the colored-away letters plus V")
    if pi1.bottom[a] != ell:
        raise ValueError("L is not just left of beta in the bottom row")
    beta = pi1.bottom[a + 1]
    return alpha, beta


def enumerate_targets_B(
    context: tuple[Permutation, str, str, frozenset[str]],
    epsilon: Fraction,
    depth_budget: Optional[int] = None,
) -> TargetFamily:
    """The refined family for a pair with the second combinatorial property.

    Extends each first-crossing member through every maximal continuation
    avoiding the colored-away letters, then appends the block of bottom
    arrows won by L that makes the V-length dominated by the L-length on the
    entire member simplex.
    """
    pi1, v, ell, a_set = context
    check_target_shape(pi1, v, ell, a_set)
    epsilon = Fraction(epsilon)
    d = pi1.d
    a = len(a_set)
    base = enumerate_targets(pi1, v, epsilon, depth_budget)
    if depth_budget is None:
        depth_budget = int(math.ceil(1 / epsilon)) + 16 * d

    members: list[Path] = []
    extras_n: list[Path] = []
    mass = Fraction(0)
    mass_n = base.complement.mass
    undecided = base.undecided_mass
    truncated = base.truncated
    orphaned = base.orphaned
    letters = pi1.letters

    for gamma in base.paths:
        if any(arrow.winner in a_set or arrow.loser in a_set for arrow in gamma.arrows):
            raise AssertionError("first-crossing member touches the colored-away letters")
        stack = [(gamma, 0)]
        while stack:
            path, extra_depth = stack.pop()
            vertex = path.end
            top_arrow = Arrow(vertex, TOP)
            bottom_arrow = Arrow(vertex, BOTTOM)
            separated = (
                top_arrow.winner not in a_set
                and top_arrow.loser not in a_set
                and bottom_arrow.winner not in a_set
                and bottom_arrow.loser not in a_set
            )
            if separated:
                if extra_depth >= depth_budget:
                    undecided += _volume_from_q(q_vector(path))
                    truncated += 1
                    continue
                stack.append((path.then(Path(vertex, [top_arrow])), extra_depth + 1))
                stack.append((path.then(Path(vertex, [bottom_arrow])), extra_depth + 1))
                continue
            # maximal continuation reached: the bottom row must end with L
            if vertex.last(BOTTOM) != ell:
                raise AssertionError("maximal continuation does not end at an L-vertex")
            block = path
            for i in range(d - a):
                eta_i = Arrow(block.end, BOTTOM)
                if eta_i.winner != ell:
                    raise AssertionError("block arrow not won by L")
                side = Arrow(block.end, TOP)
                if side.loser != ell:
                    raise AssertionError("side branch does not lose L")
                branch = block.then(Path(block.end, [side]))
                extras_n.append(branch)
                mass_n += _volume_from_q(q_vector(branch))
                block = block.then(Path(block.end, [eta_i]))
            losers = {arrow.loser for arrow in block.arrows[-(d - a):]}
            if losers != set(letters) - a_set:
                raise AssertionError("block losers do not cover the non-colored letters")
            members.append(block)
            mass += _volume_from_q(q_vector(block))

    family_n = TargetFamily(
        pi1, v, epsilon, "N^B", base.complement.paths + extras_n, mass_n, Fraction(0)
    )
    return TargetFamily(
        pi1,
        v,
        epsilon,
        "E^B",
        members,
        mass,
        undecided,
        complement=family_n,
        truncated=truncated,
        orphaned=orphaned,
    )


def psi_sequence(
    k: int, phi: Callable[[int], float], theta: float, big_m: int, d: int
) -> float:
    """Step-interpolated shrinkage schedule: theta^k phi(theta^k) / (d M).

    The interpolation spreads n phi(n) over [n, n+1), so a non-increasing
    n phi(n) gives a non-increasing schedule.
    """
    if k < 1 or theta <= 1:
        raise ValueError("need k >= 1 and theta > 1")
    t = theta**k
    n = int(math.floor(t))
    value = n * float(phi(n)) / t
    return t * value / (d * big_m)


def gap_form(path: Path, letter: str) -> tuple[int, ...]:
    """Column of the path matrix for one letter: pairing it with the endpoint
    length choice gives that letter's length at the path's start stage."""
    letters = path.start.letters
    matrix = path_matrix(path)
    j = letters.index(letter)
    return tuple(row[j] for row in matrix)


def _stabilizer_segment(
    cls: RauzyClass, start: Permutation, v: str, ell: str, depth_cap: int
) -> Optional[Path]:
    """Short walk making the L-column dominate the V-column of everything
    appended afterwards.

    Tracks the integer vector column(L) - column(V) of the walk's own matrix;
    once it is componentwise non-negative (and non-zero) it stays so under any
    further composition, which freezes the V-below-L certificate.
    """
    from collections import deque

    letters = start.letters
    d0 = {a: (1 if a == ell else (-1 if a == v else 0)) for a in letters}
    root = (start, tuple(d0[a] for a in letters))
    if all(x >= 0 for x in root[1]):
        return Path(start)
    parents: dict = {root: None}
    queue = deque([(root, 0)])
    while queue:
        node, depth = queue.popleft()
        if depth >= depth_cap:
            continue
        vertex, dvec = node
        for kind in (TOP, BOTTOM):
            arrow = Arrow(vertex, kind)
            wi = letters.index(arrow.winner)
            li = letters.index(arrow.loser)
            nxt = list(dvec)
            nxt[li] += dvec[wi]
            child = (arrow.end, tuple(nxt))
            if child in parents:
                continue
            parents[child] = (node, arrow)
            if all(x >= 0 for x in child[1]) and any(x > 0 for x in child[1]):
                arrows = []
                cursor = child
                while parents[cursor] is not None:
                    prev, a = parents[cursor]
                    arrows.append(a)
                    cursor = prev
                arrows.reverse()
                return Path(start, arrows)
            queue.append((child, depth + 1))
    return None


def liouville_builder(
    cls: RauzyClass,
    start: Permutation,
    phi: Callable[[int], float],
    rounds: int,
    step_scale: Fraction = Fraction(1, 2),
):
    """Constructive nesting of certified approximation triples.

    Each round appends a reference-path occurrence for the next pair, then
    picks a rational interior point of the refined cone whose produced triple
    has gap below phi(n); earlier rounds' gap bounds are linear forms in the
    endpoint choice, so scaling it down restores them all.  Returns the final
    rational transformation and the list of certificates
    (beta, alpha, n, gap, bound).
    """
    letters = start.letters
    d = len(letters)
    if rounds == 0:
        return IET(start, {a: Fraction(1, d) for a in letters}, EXACT), []

    pairs = valid_pairs(start)
    if not pairs:
        raise ValueError("no valid pairs for this datum")
    gamma = Path(start)
    constraints: list[dict] = []
    certificates = []

    for round_index in range(rounds):
        beta, alpha = pairs[round_index % len(pairs)]
        ref = build_reference_path(cls, gamma.end, beta, alpha)
        for arrow in ref.path.arrows:
            _push_arrow(constraints, arrow)
        gamma = gamma.then(ref.path)
        suffix_back = ref.suffix_length()
        l_cnt, h_cnt, _ = lh_counters(gamma.prefix(len(gamma) - suffix_back))
        n = l_cnt[beta] + h_cnt[alpha]
        gap_letter = ref.alpha if ref.pair_kind == "A" else ref.aux_v
        bound = _safe_lower_bound(phi(n))
        if bound <= 0:
            raise ConstructionFailed(round_index, "phi too small to certify")
        constraint = {
            "beta": beta,
            "alpha": alpha,
            "n": n,
            "column": {a: (1 if a == gap_letter else 0) for a in letters},
            "bound": bound,
            "kind": ref.pair_kind,
            "v": ref.aux_v,
            "l": ref.aux_l,
        }
        constraints.append(constraint)
        if ref.pair_kind == "B":
            seg = _stabilizer_segment(cls, gamma.end, ref.aux_v, ref.aux_l, 8 * d)
            if seg is None:
                raise ConstructionFailed(8 * d, "no dominance stabilizer found")
            for arrow in seg.arrows:
                _push_arrow(constraints, arrow)
            gamma = gamma.then(seg)

        mu = {a: Fraction(1) for a in letters}
        latest = constraints[-1]
        if latest["kind"] == "B":
            mu[latest["v"]] = min(latest["bound"], Fraction(1, 2)) * step_scale
        else:
            mu[gap_letter] = min(latest["bound"], Fraction(1, 2)) * step_scale
        for _ in range(4096):
            if all(
                sum(c["column"][a] * mu[a] for a in letters) < c["bound"]
                for c in constraints
            ):
                break
            mu = {a: value * step_scale for a, value in mu.items()}
        else:
            raise ConstructionFailed(4096, "scaling did not satisfy the gap bounds")

        lengths_vec = transpose(path_matrix(gamma))
        lam = {
            a: sum(lengths_vec[i][j] * mu[letters[j]] for j in range(d))
            for i, a in enumerate(letters)
        }
        iet = IET(start, lam, EXACT)
        for c in constraints:
            triple = Triple(c["beta"], c["alpha"], c["n"])
            if not is_reduced_triple(iet, triple):
                raise AssertionError("certificate lost reducedness")
            expected_gap = sum(c["column"][a] * mu[a] for a in letters)
            point = iet.left_endpoints(BOTTOM)[c["beta"]]
            for _ in range(c["n"]):
                point = iet.evaluate(point)
            gap = abs(point - iet.left_endpoints(TOP)[c["alpha"]])
            if gap != expected_gap:
                raise AssertionError("certificate gap mismatch")
        certificates = [
            (c["beta"], c["alpha"], c["n"],
             sum(c["column"][a] * mu[a] for a in letters), c["bound"])
            for c in constraints
        ]
    return iet, certificates


def _push_arrow(constraints: list[dict], arrow: Arrow) -> None:
    # composing on the right adds the winner's column entry to the loser's
    for c in constraints:
        c["column"][arrow.loser] += c["column"][arrow.winner]


def _safe_lower_bound(value: float) -> Fraction:
    """A rational strictly below a positive float value."""
    exact = Fraction(float(value))
    return exact * (Fraction(1) - Fraction(1, 1 << 30))


def detection_gap_form(result: DetectionResult, iet: IET):
    """Recompute the detected gap from the endpoint pairing identity."""
    from .iet import w_vectors

    perm_end = result.path.end
    _, _, w = w_vectors(perm_end, result.triple.beta, result.triple.alpha)
    matrix = path_matrix(result.path)
    pulled = solve(matrix, w)
    letters = iet.perm.letters
    lam = [iet.lengths[a] for a in letters]
    return abs(sum(x * y for x, y in zip(lam, pulled)))
