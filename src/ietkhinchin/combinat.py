"""Permutation pairs, Rauzy elementary operations, classes, and path predicates.

A combinatorial datum is a pair of orderings of a finite alphabet: the top row
gives the order of the subintervals before the exchange, the bottom row the
order after.  The two elementary operations act on admissible data and
generate the Rauzy diagram; paths in the diagram are the combinatorial
skeleton of everything else in this package.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional, Sequence

TOP = "t"
BOTTOM = "b"


def _other(kind: str) -> str:
    return BOTTOM if kind == TOP else TOP


class Permutation:
    """An ordered pair of rows over a common alphabet.

    Rows are stored as letter tuples (position 1 = index 0).  Instances are
    immutable and hashable; the canonical letter order used for matrix and
    vector indexing is the sorted alphabet.
    """

    __slots__ = (
        "top", "bottom", "letters", "_top_pos", "_bottom_pos", "_hash", "_arrows", "_vertices"
    )

    def __init__(self, top: Sequence[str], bottom: Sequence[str]):
        top = tuple(top)
        bottom = tuple(bottom)
        if len(top) < 2:
            raise ValueError("need at least two letters")
        if len(set(top)) != len(top):
            raise ValueError(f"duplicate letters in top row {top}")
        if set(top) != set(bottom):
            raise ValueError("rows must order the same alphabet")
        self.top = top
        self.bottom = bottom
        self.letters = tuple(sorted(top))
        self._top_pos = {a: i + 1 for i, a in enumerate(top)}
        self._bottom_pos = {a: i + 1 for i, a in enumerate(bottom)}
        self._hash = hash((top, bottom))
        # built by the first call of ``arrow``
        self._arrows: Optional[dict[str, "Arrow"]] = None
        self._vertices: Optional[dict["Permutation", "Permutation"]] = None

    @property
    def d(self) -> int:
        return len(self.top)

    def arrow(self, kind: str) -> "Arrow":
        """The arrow of the given type leaving this vertex, built once.

        The vertices reached from this one share one table of vertex objects,
        and the arrow's end is the table's object for that vertex, so a walk
        that follows ``arrow(...).end`` builds each arrow and each vertex of
        its (finite) Rauzy class at most once.
        """
        if self._arrows is None:
            self._arrows = {}
            if self._vertices is None:
                self._vertices = {self: self}
        arrow = self._arrows.get(kind)
        if arrow is None:
            arrow = Arrow(self, kind)
            end = self._vertices.setdefault(arrow.end, arrow.end)
            if end is arrow.end:
                end._vertices = self._vertices
            arrow.end = end
            self._arrows[kind] = arrow
        return arrow

    def row(self, kind: str) -> tuple[str, ...]:
        return self.top if kind == TOP else self.bottom

    def position(self, kind: str, letter: str) -> int:
        """1-based position of ``letter`` in the given row."""
        pos = self._top_pos if kind == TOP else self._bottom_pos
        return pos[letter]

    def last(self, kind: str) -> str:
        """The letter in position d of the given row (the row's potential winner)."""
        return self.row(kind)[-1]

    def first(self, kind: str) -> str:
        return self.row(kind)[0]

    def index(self, letter: str) -> int:
        """Index of ``letter`` in the canonical (sorted) alphabet order."""
        return self.letters.index(letter)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Permutation)
            and self.top == other.top
            and self.bottom == other.bottom
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({str(self)!r})"

    def __str__(self) -> str:
        return " ".join(self.top) + " / " + " ".join(self.bottom)


def parse_permutation(text: str) -> Permutation:
    """Parse ``"A B C / C B A"``; a row without spaces is split into characters."""
    try:
        top_text, bottom_text = text.split("/")
    except ValueError:
        raise ValueError(f"expected 'TOP / BOTTOM', got {text!r}") from None

    def parse_row(row: str) -> tuple[str, ...]:
        tokens = row.split()
        if len(tokens) == 1 and len(tokens[0]) > 1:
            return tuple(tokens[0])
        return tuple(tokens)

    return Permutation(parse_row(top_text), parse_row(bottom_text))


def is_admissible(perm: Permutation) -> bool:
    """True iff no proper prefix block is shared by both rows.

    A shared block {1..k} with k < d would split the exchange into two
    independent ones.
    """
    seen_top: set[str] = set()
    seen_bottom: set[str] = set()
    for k in range(perm.d - 1):
        seen_top.add(perm.top[k])
        seen_bottom.add(perm.bottom[k])
        if seen_top == seen_bottom:
            return False
    return True


def rauzy_op(perm: Permutation, kind: str) -> Permutation:
    """Apply the elementary operation of the given type.

    The winner is the last letter of the ``kind`` row, the loser the last
    letter of the other row; the loser is reinserted right after the winner's
    position in its own row.
    """
    winner = perm.last(kind)
    loser = perm.last(_other(kind))
    if winner == loser:
        raise ValueError("rows end with the same letter; operation undefined")
    other_row = list(perm.row(_other(kind)))
    other_row.pop()
    cut = perm.position(_other(kind), winner)
    other_row.insert(cut, loser)
    if kind == TOP:
        return Permutation(perm.top, other_row)
    return Permutation(other_row, perm.bottom)


class Arrow:
    """One elementary operation between two vertices of a Rauzy diagram."""

    __slots__ = ("start", "kind", "winner", "loser", "end", "_hash")

    def __init__(self, start: Permutation, kind: str):
        self.start = start
        self.kind = kind
        if kind == TOP:
            self.winner = start.last(TOP)
            self.loser = start.last(BOTTOM)
        else:
            self.winner = start.last(BOTTOM)
            self.loser = start.last(TOP)
        self.end = rauzy_op(start, kind)
        self._hash = hash((start, kind))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Arrow)
            and self.start == other.start
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Arrow({self.start!s} --{self.kind}--> {self.end!s})"


class Path:
    """A composable sequence of arrows; the empty sequence is the trivial path."""

    __slots__ = ("start", "arrows", "_hash")

    def __init__(self, start: Permutation, arrows: Iterable[Arrow] = ()):
        self.start = start
        self.arrows = tuple(arrows)
        prev = start
        for arrow in self.arrows:
            if arrow.start != prev:
                raise ValueError("arrows do not compose")
            prev = arrow.end
        self._hash = hash((start, tuple(a.kind for a in self.arrows)))

    @property
    def end(self) -> Permutation:
        return self.arrows[-1].end if self.arrows else self.start

    def __len__(self) -> int:
        return len(self.arrows)

    def is_trivial(self) -> bool:
        return not self.arrows

    def type_string(self) -> str:
        return "".join(a.kind for a in self.arrows)

    def vertices(self) -> list[Permutation]:
        out = [self.start]
        out.extend(a.end for a in self.arrows)
        return out

    def winners(self) -> list[str]:
        return [a.winner for a in self.arrows]

    def then(self, other: "Path") -> "Path":
        if other.start != self.end:
            raise ValueError("paths do not compose")
        return Path(self.start, self.arrows + other.arrows)

    def extended(self, kind: str) -> "Path":
        return Path(self.start, self.arrows + (Arrow(self.end, kind),))

    def prefix(self, length: int) -> "Path":
        return Path(self.start, self.arrows[:length])

    def begins_with(self, other: "Path") -> bool:
        """The ordering of the diagram: ``other`` precedes ``self``."""
        if other.start != self.start or len(other) > len(self):
            return False
        return self.arrows[: len(other)] == other.arrows

    def ends_with(self, other: "Path") -> bool:
        if len(other) > len(self):
            return False
        tail = self.arrows[len(self) - len(other):]
        return bool(tail == other.arrows and (tail[0].start if tail else self.end) == other.start)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Path)
            and self.start == other.start
            and self.arrows == other.arrows
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Path({self.start!s}; {self.type_string() or 'trivial'})"


def comparable(a: Path, b: Path) -> bool:
    """True iff one path is an initial segment of the other."""
    return a.begins_with(b) or b.begins_with(a)


def path_from_types(start: Permutation, types: str) -> Path:
    arrows = []
    vertex = start
    for kind in types:
        if kind not in (TOP, BOTTOM):
            raise ValueError(f"bad arrow type {kind!r}")
        arrow = vertex.arrow(kind)
        arrows.append(arrow)
        vertex = arrow.end
    return Path(start, arrows)


class RauzyClass:
    """The closure of one admissible datum under both elementary operations.

    ``elements`` is in breadth-first order from the seed, exploring the top
    arrow before the bottom one; all determinism guarantees ("first element
    such that ...") refer to this order.
    """

    __slots__ = ("elements", "out", "inverse", "_element_set")

    def __init__(self, seed: Permutation):
        if not is_admissible(seed):
            raise ValueError(f"seed {seed} is not admissible")
        order: list[Permutation] = [seed]
        seen = {seed}
        out: dict[Permutation, dict[str, Arrow]] = {}
        queue = deque([seed])
        while queue:
            perm = queue.popleft()
            out[perm] = {}
            for kind in (TOP, BOTTOM):
                arrow = Arrow(perm, kind)
                if not is_admissible(arrow.end):
                    raise AssertionError(
                        f"elementary operation broke admissibility at {perm}"
                    )
                out[perm][kind] = arrow
                if arrow.end not in seen:
                    seen.add(arrow.end)
                    order.append(arrow.end)
                    queue.append(arrow.end)
        inverse: dict[Permutation, dict[str, Arrow]] = {p: {} for p in order}
        for perm in order:
            for arrow in out[perm].values():
                inverse[arrow.end][arrow.kind] = arrow
        self.elements = tuple(order)
        self.out = out
        self.inverse = inverse
        self._element_set = seen

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, perm: Permutation) -> bool:
        return perm in self._element_set

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    @property
    def d(self) -> int:
        return self.elements[0].d

    @property
    def letters(self) -> tuple[str, ...]:
        return self.elements[0].letters

    def arrows(self) -> Iterator[Arrow]:
        for perm in self.elements:
            yield self.out[perm][TOP]
            yield self.out[perm][BOTTOM]

    def arrow(self, perm: Permutation, kind: str) -> Arrow:
        return self.out[perm][kind]

    def letter_x(self) -> str:
        """The letter in top position 1 (constant over the class)."""
        return self.elements[0].first(TOP)

    def letter_y(self) -> str:
        """The letter in bottom position 1 (constant over the class)."""
        return self.elements[0].first(BOTTOM)

    def shortest_path(self, source: Permutation, target: Permutation) -> Path:
        """BFS path (top arrow explored first) from source to target."""
        if source not in self or target not in self:
            raise ValueError("endpoints not in this class")
        if source == target:
            return Path(source)
        parents: dict[Permutation, Arrow] = {}
        queue = deque([source])
        while queue:
            perm = queue.popleft()
            for kind in (TOP, BOTTOM):
                arrow = self.out[perm][kind]
                if arrow.end not in parents and arrow.end != source:
                    parents[arrow.end] = arrow
                    if arrow.end == target:
                        queue.clear()
                        break
                    queue.append(arrow.end)
        if target not in parents:
            raise ValueError("target unreachable")  # cannot happen: classes are strongly connected
        chain: list[Arrow] = []
        cursor = target
        while cursor != source:
            arrow = parents[cursor]
            chain.append(arrow)
            cursor = arrow.start
        return Path(source, reversed(chain))


def rauzy_class(perm: Permutation) -> RauzyClass:
    return RauzyClass(perm)


def is_standard(perm: Permutation) -> bool:
    return perm.first(TOP) == perm.last(BOTTOM) and perm.first(BOTTOM) == perm.last(TOP)


def find_standard(cls: RauzyClass) -> Permutation:
    """First standard element in BFS order; every class contains one."""
    for perm in cls.elements:
        if is_standard(perm):
            return perm
    raise AssertionError("class without a standard element")


def is_neat(path: Path) -> bool:
    """True iff no non-trivial proper border exists.

    A border is a sub-path that is simultaneously a prefix and a suffix
    (arrows and their start vertices both matching); a path with a border can
    overlap itself inside a longer orbit path.
    """
    if path.is_trivial():
        raise ValueError("neatness is only defined for non-trivial paths")
    n = len(path)
    for m in range(1, n):
        if path.arrows[:m] == path.arrows[n - m:]:
            return False
    return True


def proper_borders(path: Path) -> list[int]:
    """Lengths m of non-trivial proper borders (prefix == suffix of length m)."""
    n = len(path)
    return [m for m in range(1, n) if path.arrows[:m] == path.arrows[n - m:]]


def is_complete(path: Path) -> bool:
    """True iff every letter of the alphabet wins in at least one arrow."""
    return set(path.winners()) == set(path.start.letters)


def is_positive(path: Path) -> bool:
    """True iff the path matrix has no zero entry (needs every letter to interact)."""
    from .matrices import path_matrix  # local import to avoid a cycle

    matrix = path_matrix(path)
    return all(entry >= 1 for row in matrix for entry in row)


def all_admissible(letters: Sequence[str]) -> list[Permutation]:
    """All admissible data over the given alphabet, in lexicographic row order."""
    from itertools import permutations as iter_perms

    letters = tuple(letters)
    out = []
    for top in iter_perms(letters):
        for bottom in iter_perms(letters):
            perm = Permutation(top, bottom)
            if is_admissible(perm):
                out.append(perm)
    return out


def all_classes(letters: Sequence[str]) -> list[RauzyClass]:
    """All Rauzy classes over the alphabet, seeds in lexicographic order."""
    classified: set[Permutation] = set()
    classes = []
    for perm in all_admissible(letters):
        if perm in classified:
            continue
        cls = RauzyClass(perm)
        classified.update(cls.elements)
        classes.append(cls)
    return classes
