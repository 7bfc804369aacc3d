"""The induction map, its normalized and accelerated variants, and the
per-letter return-time bookkeeping carried along the generated path.

The state keeps, for every letter, the counters l and h that locate the
current singularities on the orbits of the original ones, and the return
times q.  The identity l + h + 1 = q per letter is asserted in tests after
every step.

Cost: one step of ``InductionState.rauzy_step`` costs O(d) time, whatever
the length of the run.  The arrows are appended to a list; the ``Path`` is
built (in O(r) for r steps) only when ``state.path`` is read, and per-step
callers use the returned arrow or ``state.ends_with`` instead.  Each arrow
is memoised on its start vertex (``Permutation.arrow``), so a run builds
every arrow of its Rauzy class at most once.

Validation invariant: the starting IET is validated once, by the ``IET``
constructor; every later ``state.current`` comes from ``IET._from_step``,
which does not re-validate, because the Rauzy move keeps the datum
admissible and the step stops (tie or guard band) before a length could
become non-positive.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .combinat import BOTTOM, TOP, Arrow, Path
from .errors import AlgorithmStopped, PrecisionExhausted
from .iet import EXACT, FLOAT, FLOAT_BAND, IET, iet_type
from .matrices import Matrix, identity_matrix


class InductionState:
    """Mutable single-owner state of a run of the induction on one IET."""

    __slots__ = ("start", "current", "matrix", "q", "l", "h", "steps", "_arrows", "_path")

    def __init__(self, iet: IET):
        self.start = iet
        self.current = iet
        self._arrows: list[Arrow] = []
        self._path: Optional[Path] = None
        self.matrix: Matrix = identity_matrix(iet.d)
        letters = iet.perm.letters
        self.q = {a: 1 for a in letters}
        self.l = {a: 0 for a in letters}
        self.h = {a: 0 for a in letters}
        self.steps = 0

    @property
    def path(self) -> Path:
        """The path of the run so far, built on first read after a step."""
        if self._path is None or len(self._path) != len(self._arrows):
            self._path = Path(self.start.perm, self._arrows)
        return self._path

    def ends_with(self, path: Path) -> bool:
        """``self.path.ends_with(path)`` in O(len(path)), building no Path."""
        k = len(path)
        arrows = self._arrows
        if k > len(arrows):
            return False
        if k == 0:
            return self.current.perm == path.start
        return arrows[-1] == path.arrows[-1] and tuple(arrows[-k:]) == path.arrows

    def snapshot_counters(self) -> tuple[dict, dict, dict]:
        return dict(self.l), dict(self.h), dict(self.q)

    def step_type(self) -> Optional[str]:
        if self.current.backend == FLOAT:
            lt = self.current.lengths[self.current.perm.last(TOP)]
            lb = self.current.lengths[self.current.perm.last(BOTTOM)]
            if abs(lt - lb) < FLOAT_BAND * self.current.total():
                raise PrecisionExhausted(self.steps)
            return TOP if lt > lb else BOTTOM
        return iet_type(self.current)

    def rauzy_step(self) -> Arrow:
        """One step: cut the losing interval, update path, matrix and counters.

        On a top arrow the loser's l grows by the winner's return time, on a
        bottom arrow the loser's h does; this is exactly what keeps
        l + h + 1 = q per letter.  Costs O(d): the arrow is appended, and the
        next IET is made without re-validation (see the module docstring).
        """
        kind = self.step_type()
        if kind is None:
            raise AlgorithmStopped(self.steps)
        iet = self.current
        winner = iet.perm.last(kind)
        loser = iet.perm.last(BOTTOM if kind == TOP else TOP)
        arrow = iet.perm.arrow(kind)
        new_lengths = dict(iet.lengths)
        new_lengths[winner] = new_lengths[winner] - new_lengths[loser]
        self.current = IET._from_step(arrow.end, new_lengths, iet.backend)
        self._arrows.append(arrow)
        letters = iet.perm.letters
        li = letters.index(loser)
        wi = letters.index(winner)
        rows = list(self.matrix)
        rows[li] = tuple(x + y for x, y in zip(rows[li], rows[wi]))
        self.matrix = tuple(rows)
        if kind == TOP:
            self.l[loser] += self.q[winner]
        else:
            self.h[loser] += self.q[winner]
        self.q[loser] += self.q[winner]
        self.steps += 1
        return arrow

    def q_vector(self) -> tuple[int, ...]:
        return tuple(self.q[a] for a in self.start.perm.letters)

    def current_singularity_gap(self, beta: str, alpha: str):
        """|u_beta^(r),b - u_alpha^(r),t| for the current state."""
        u_top = self.current.left_endpoints(TOP)
        u_bottom = self.current.left_endpoints(BOTTOM)
        return abs(u_bottom[beta] - u_top[alpha])


def rauzy_step(state: InductionState) -> InductionState:
    state.rauzy_step()
    return state


def iterate(iet: IET, r: int) -> InductionState:
    """Run r plain induction steps; raises AlgorithmStopped with the step
    index if the tie case occurs first."""
    state = InductionState(iet)
    for _ in range(r):
        state.rauzy_step()
    return state


def path_of(iet: IET, r: int) -> Path:
    return iterate(iet, r).path


def normalized_step(iet: IET) -> IET:
    """One induction step followed by rescaling to total length one."""
    state = InductionState(iet)
    state.rauzy_step()
    return state.current.normalized()


def zorich_step(iet: IET) -> tuple[IET, int]:
    """Iterate the normalized step until the type flips; returns the new IET
    and the number of steps consumed.

    The arrow sequence ignores scale, so the run happens unnormalized and only
    the result is rescaled.
    """
    state = InductionState(iet)
    start_type = state.step_type()
    if start_type is None:
        raise AlgorithmStopped(0)
    while True:
        state.rauzy_step()
        new_type = state.step_type()
        if new_type is None:
            raise AlgorithmStopped(state.steps)
        if new_type != start_type:
            return state.current.normalized(), state.steps


def lh_counters(path: Path) -> tuple[dict, dict, dict]:
    """Replay the counter recurrences along a path (they depend only on it)."""
    letters = path.start.letters
    q = {a: 1 for a in letters}
    l = {a: 0 for a in letters}
    h = {a: 0 for a in letters}
    for arrow in path.arrows:
        if arrow.kind == TOP:
            l[arrow.loser] += q[arrow.winner]
        else:
            h[arrow.loser] += q[arrow.winner]
        q[arrow.loser] += q[arrow.winner]
    return l, h, q


def lengths_after(path: Path, lengths: dict):
    """Exact lengths after inducing through ``path``: solve the transposed
    path-matrix system."""
    from .matrices import path_matrix, solve, transpose

    letters = path.start.letters
    vec = [lengths[a] for a in letters]
    solution = solve(transpose(path_matrix(path)), vec)
    return dict(zip(letters, solution))
