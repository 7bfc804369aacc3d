"""Interval exchange transformations with exact and float backends.

The exact backend works over ``fractions.Fraction`` and is the reference for
every equality-sensitive question (connections, reduced triples, detection
gaps).  The float backend is used by the Monte Carlo drivers; comparisons
that land inside a relative guard band raise ``PrecisionExhausted`` so the
caller can escalate the sample to the exact backend.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from fractions import Fraction
from typing import Optional, Sequence

from .combinat import BOTTOM, TOP, Permutation, is_admissible, parse_permutation
from .errors import PrecisionExhausted

EXACT = "exact"
FLOAT = "float"

FLOAT_BAND = 1e-12


class Triple:
    """A candidate homogeneous approximation: hit the top singularity of
    ``alpha`` by the forward orbit of the bottom singularity of ``beta``."""

    __slots__ = ("beta", "alpha", "n")

    def __init__(self, beta: str, alpha: str, n: int):
        if n < 0:
            raise ValueError("n must be non-negative")
        self.beta = beta
        self.alpha = alpha
        self.n = n

    def as_tuple(self) -> tuple[str, str, int]:
        return (self.beta, self.alpha, self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Triple) and self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"Triple({self.beta}, {self.alpha}, {self.n})"


class IET:
    """A permutation pair plus positive lengths.

    ``backend`` is ``"exact"`` (Fraction lengths) or ``"float"``.

    The public constructor validates its input (admissible datum, lengths
    keyed by the alphabet, all positive) and converts the lengths to the
    backend's type.  ``_from_step`` skips all of that for the induction step,
    whose output is admissible and positive by construction.

    The piece tables behind ``evaluate`` and ``evaluate_inverse`` are built
    once per instance, on the first evaluation, in O(d); each evaluation then
    costs O(log d).  Instances are treated as immutable: the tables are never
    rebuilt, so ``lengths`` must not be changed in place.
    """

    __slots__ = ("perm", "lengths", "backend", "_pieces")

    def __init__(self, perm: Permutation, lengths: dict, backend: str = EXACT):
        if backend not in (EXACT, FLOAT):
            raise ValueError(f"unknown backend {backend!r}")
        if not is_admissible(perm):
            raise ValueError(f"{perm} is not admissible")
        if set(lengths) != set(perm.letters):
            raise ValueError("lengths must be keyed by the alphabet")
        convert = Fraction if backend == EXACT else float
        converted = {a: convert(lengths[a]) for a in perm.letters}
        if any(v <= 0 for v in converted.values()):
            raise ValueError("lengths must be positive")
        self.perm = perm
        self.lengths = converted
        self.backend = backend
        self._pieces: Optional[_Pieces] = None

    @classmethod
    def _from_step(cls, perm: Permutation, lengths: dict, backend: str) -> "IET":
        """The IET after one induction step, without re-validation.

        Only for ``InductionState.rauzy_step``, whose input is valid.  Two
        facts make the output valid too: the Rauzy move maps an admissible
        datum to an admissible one, and the new winner length (winner minus
        loser) stays positive, because the exact step stops on a tie
        (``AlgorithmStopped``) and the float step stops inside the guard band
        (``PrecisionExhausted``), so it only subtracts a strictly smaller
        length.  ``lengths`` already holds the backend's type, in canonical
        letter order.
        """
        self = object.__new__(cls)
        self.perm = perm
        self.lengths = lengths
        self.backend = backend
        self._pieces = None
        return self

    @property
    def d(self) -> int:
        return self.perm.d

    def total(self):
        return sum(self.lengths.values())

    def length_vector(self) -> tuple:
        """Lengths in canonical alphabet order."""
        return tuple(self.lengths[a] for a in self.perm.letters)

    def normalized(self) -> "IET":
        total = self.total()
        return IET(
            self.perm,
            {a: v / total for a, v in self.lengths.items()},
            self.backend,
        )

    def with_lengths(self, lengths: dict) -> "IET":
        return IET(self.perm, lengths, self.backend)

    def to_float(self) -> "IET":
        return IET(self.perm, {a: float(v) for a, v in self.lengths.items()}, FLOAT)

    def to_exact(self) -> "IET":
        """Bit-exact rationalization of a float backend (floats are dyadic)."""
        return IET(self.perm, {a: Fraction(v) for a, v in self.lengths.items()}, EXACT)

    def left_endpoints(self, kind: str) -> dict:
        row = self.perm.row(kind)
        out = {}
        acc = 0
        for letter in row:
            out[letter] = acc
            acc = acc + self.lengths[letter]
        return out

    def shifts(self) -> dict:
        """Per-letter translation amount (bottom start minus top start)."""
        top = self.left_endpoints(TOP)
        bottom = self.left_endpoints(BOTTOM)
        return {a: bottom[a] - top[a] for a in self.perm.letters}

    def _piece_tables(self) -> "_Pieces":
        if self._pieces is None:
            self._pieces = _Pieces(self)
        return self._pieces

    def evaluate(self, x):
        """Apply the exchange; intervals are half-open [left, right)."""
        p = self._piece_tables()
        if x < 0 or x >= p.total:
            raise ValueError(f"{x} outside the domain")
        i = bisect_right(p.top_ends, x)
        # (x - start) + image, in this order: x + (image - start) rounds
        # differently, so float orbits would change
        return x - p.top_starts[i] + p.top_images[i]

    def evaluate_inverse(self, y):
        p = self._piece_tables()
        if y < 0 or y >= p.total:
            raise ValueError(f"{y} outside the domain")
        i = bisect_right(p.bottom_ends, y)
        return y - p.bottom_starts[i] + p.bottom_images[i]

    def orbit(self, x, n: int) -> list:
        """[x, Tx, ..., T^n x]."""
        out = [x]
        for _ in range(n):
            out.append(self.evaluate(out[-1]))
        return out

    def __repr__(self) -> str:
        return f"IET({self.perm!s}; {self.lengths}; {self.backend})"

    def to_json(self) -> str:
        if self.backend == EXACT:
            lengths = {a: str(v) for a, v in self.lengths.items()}
        else:
            lengths = {a: repr(v) for a, v in self.lengths.items()}
        return json.dumps(
            {"perm": str(self.perm), "lengths": lengths, "backend": self.backend}
        )

    @staticmethod
    def from_json(text: str) -> "IET":
        data = json.loads(text)
        perm = parse_permutation(data["perm"])
        backend = data.get("backend", EXACT)
        if backend == EXACT:
            lengths = {a: Fraction(v) for a, v in data["lengths"].items()}
        else:
            lengths = {a: float(v) for a, v in data["lengths"].items()}
        return IET(perm, lengths, backend)


class _Pieces:
    """Piece tables of one IET, in row order.

    ``top_ends[i]`` is the right end of the i-th top piece, ``top_starts[i]``
    its left end and ``top_images[i]`` the left end of the same letter's
    bottom piece; the ``bottom_*`` lists are the same for the bottom row.
    Every entry is a running sum over its row, accumulated left to right as
    in ``left_endpoints``, so float entries are the same bits as the prefix
    sums of a scan of the row.
    """

    __slots__ = ("total", "top_ends", "top_starts", "top_images",
                 "bottom_ends", "bottom_starts", "bottom_images")

    def __init__(self, iet: IET):
        u_top = iet.left_endpoints(TOP)
        u_bottom = iet.left_endpoints(BOTTOM)
        top, bottom, lengths = iet.perm.top, iet.perm.bottom, iet.lengths
        self.total = iet.total()
        self.top_starts = [u_top[a] for a in top]
        self.top_ends = [u_top[a] + lengths[a] for a in top]
        self.top_images = [u_bottom[a] for a in top]
        self.bottom_starts = [u_bottom[a] for a in bottom]
        self.bottom_ends = [u_bottom[a] + lengths[a] for a in bottom]
        self.bottom_images = [u_top[a] for a in bottom]


def singularities(iet: IET) -> tuple[dict, dict]:
    """Left endpoints of the top and bottom intervals (prefix sums per row).

    Entries at row position 1 are 0 and are not discontinuities; callers that
    need only genuine singularities should drop the first letter of each row.
    """
    return iet.left_endpoints(TOP), iet.left_endpoints(BOTTOM)


def top_singularity_points(iet: IET) -> list:
    u_top = iet.left_endpoints(TOP)
    return [u_top[a] for a in iet.perm.top[1:]]


def bottom_singularity_points(iet: IET) -> list:
    u_bottom = iet.left_endpoints(BOTTOM)
    return [u_bottom[a] for a in iet.perm.bottom[1:]]


def iet_type(iet: IET) -> Optional[str]:
    """Type of the next induction step; ``None`` when the comparison ties.

    The rightmost top singularity sits at total - len(top last letter), so
    the comparison reduces to comparing the two last letters' lengths.
    """
    lt = iet.lengths[iet.perm.last(TOP)]
    lb = iet.lengths[iet.perm.last(BOTTOM)]
    if lt > lb:
        return TOP
    if lb > lt:
        return BOTTOM
    return None


def valid_pairs(perm: Permutation) -> list[tuple[str, str]]:
    """Pairs (beta, alpha) with beta not first in the bottom row and alpha not
    first in the top row, in alphabet order."""
    betas = [a for a in perm.letters if perm.position(BOTTOM, a) > 1]
    alphas = [a for a in perm.letters if perm.position(TOP, a) > 1]
    return [(b, a) for b in betas for a in alphas]


def has_connection_up_to(iet: IET, horizon: int) -> Optional[Triple]:
    """Least-n connection with n <= horizon, scanning all admissible pairs.

    Exact backend only; equality of floats is not meaningful here.
    """
    if iet.backend != EXACT:
        raise ValueError("connection detection needs the exact backend")
    u_top = iet.left_endpoints(TOP)
    u_bottom = iet.left_endpoints(BOTTOM)
    targets = {u_top[a]: a for a in iet.perm.top[1:]}
    betas = iet.perm.bottom[1:]
    points = {b: u_bottom[b] for b in betas}
    for n in range(horizon + 1):
        hits = []
        for beta in betas:
            alpha = targets.get(points[beta])
            if alpha is not None:
                hits.append(Triple(beta, alpha, n))
        if hits:
            hits.sort(key=lambda tr: (tr.beta, tr.alpha))
            return hits[0]
        if n < horizon:
            for beta in betas:
                points[beta] = iet.evaluate(points[beta])
    return None


def w_vectors(perm: Permutation, beta: str, alpha: str):
    """Indicator vectors of the prefix letter sets and their difference.

    The difference pairs with any length vector to give the signed distance
    between the bottom singularity of beta and the top singularity of alpha.
    """
    if perm.position(BOTTOM, beta) <= 1:
        raise ValueError(f"{beta} is first in the bottom row")
    if perm.position(TOP, alpha) <= 1:
        raise ValueError(f"{alpha} is first in the top row")
    letters = perm.letters
    w_beta = tuple(
        1 if perm.position(BOTTOM, x) < perm.position(BOTTOM, beta) else 0
        for x in letters
    )
    w_alpha = tuple(
        1 if perm.position(TOP, x) < perm.position(TOP, alpha) else 0 for x in letters
    )
    diff = tuple(b - a for b, a in zip(w_beta, w_alpha))
    return w_beta, w_alpha, diff


def _pullback_shift_exact(iet: IET, lo):
    """Shift applied by the inverse map to an interval whose interior meets no
    bottom singularity; the piece is the one containing the interior, which is
    the piece whose half-open [left, ...) contains lo."""
    p = iet._piece_tables()
    i = bisect_right(p.bottom_ends, lo)
    return p.bottom_images[i] - p.bottom_starts[i]


def is_reduced_triple(iet: IET, triple: Triple) -> bool:
    """Brute-force reduced test straight from the definition.

    Pull the open interval between T^n(u_beta^b) and u_alpha^t back n times;
    the triple is reduced iff no pullback contains a singularity of the map or
    of its inverse strictly inside.  Endpoint transport is done through the
    piece containing the interval's interior, so exact endpoint collisions
    with piece boundaries are handled by set semantics.  Each of the n + 1
    stages costs O(log d).
    """
    if iet.backend != EXACT:
        raise ValueError("the brute-force oracle needs the exact backend")
    perm = iet.perm
    if perm.position(BOTTOM, triple.beta) <= 1 or perm.position(TOP, triple.alpha) <= 1:
        raise ValueError("triple letters violate the position constraints")
    u_top = iet.left_endpoints(TOP)
    u_bottom = iet.left_endpoints(BOTTOM)
    target = u_top[triple.alpha]
    point = u_bottom[triple.beta]
    for _ in range(triple.n):
        point = iet.evaluate(point)
    if point == target:
        raise ValueError("triple is a connection")
    lo, hi = (point, target) if point < target else (target, point)
    sing = sorted(top_singularity_points(iet) + bottom_singularity_points(iet))
    for k in range(triple.n + 1):
        j = bisect_right(sing, lo)
        if j < len(sing) and sing[j] < hi:
            return False
        if k < triple.n:
            shift = _pullback_shift_exact(iet, lo)
            lo = lo + shift
            hi = hi + shift
    return True


def reduced_triples_brute_force(
    iet: IET, beta: str, alpha: str, n_max: int
) -> dict[int, Fraction]:
    """All reduced (beta, alpha, n) with n <= n_max, mapped to their gaps.

    Works on a common-denominator integer scaling of the exact lengths: the
    pullback loop is pure integer comparisons, with an early exit on the
    first singular hit.  Connections terminate the scan (nothing beyond the
    first connection time is reported).
    """
    if iet.backend != EXACT:
        raise ValueError("the brute-force oracle needs the exact backend")
    perm = iet.perm
    letters = perm.letters
    denom = 1
    for v in iet.lengths.values():
        denom = denom * v.denominator // _gcd(denom, v.denominator)
    scaled = {a: int(iet.lengths[a] * denom) for a in letters}

    def prefix(row: Sequence[str], letter: str) -> int:
        acc = 0
        for x in row:
            if x == letter:
                return acc
            acc += scaled[x]
        raise AssertionError

    total = sum(scaled.values())
    tops = [prefix(perm.top, a) for a in perm.top[1:]]
    bottoms = [prefix(perm.bottom, a) for a in perm.bottom[1:]]
    sing = sorted(set(tops + bottoms))
    top_breaks = []
    acc = 0
    for letter in perm.top:
        top_breaks.append((acc, acc + scaled[letter], prefix(perm.bottom, letter) - acc))
        acc += scaled[letter]
    bottom_breaks = []
    acc = 0
    for letter in perm.bottom:
        bottom_breaks.append((acc, acc + scaled[letter], prefix(perm.top, letter) - acc))
        acc += scaled[letter]

    def step(x: int) -> int:
        for left, right, shift in top_breaks:
            if left <= x < right:
                return x + shift
        raise AssertionError

    def back_shift(lo: int) -> int:
        for left, right, shift in bottom_breaks:
            if left <= lo < right:
                return shift
        raise AssertionError

    target = prefix(perm.top, alpha)
    forward = [prefix(perm.bottom, beta)]
    out: dict[int, Fraction] = {}
    for n in range(n_max + 1):
        while len(forward) <= n:
            forward.append(step(forward[-1]))
        point = forward[n]
        if point == target:
            break  # connection: later n are beyond the first hitting time
        lo, hi = (point, target) if point < target else (target, point)
        width = hi - lo
        ok = True
        for k in range(n + 1):
            bad = False
            for s in sing:
                if s >= hi:
                    break
                if s > lo:
                    bad = True
                    break
            if bad:
                ok = False
                break
            if k < n:
                shift = back_shift(lo)
                lo += shift
                hi += shift
        if ok:
            out[n] = Fraction(width, denom)
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def sample_float_lengths(perm: Permutation, rng: random.Random) -> dict:
    """Uniform point of the open standard simplex via exponential variates."""
    raw = {a: rng.expovariate(1.0) for a in perm.letters}
    total = sum(raw.values())
    return {a: v / total for a, v in raw.items()}


def sample_exact_lengths(
    perm: Permutation, rng: random.Random, bits: int = 32
) -> dict:
    """Random dyadic lengths: uniform numerators over a fixed power-of-two
    denominator."""
    denom = 1 << bits
    return {a: Fraction(rng.randrange(1, denom), denom) for a in perm.letters}


def sample_iet(
    perm: Permutation,
    rng: random.Random,
    backend: str = EXACT,
    bits: int = 32,
    normalized: bool = False,
) -> IET:
    if backend == FLOAT:
        return IET(perm, sample_float_lengths(perm, rng), FLOAT)
    iet = IET(perm, sample_exact_lengths(perm, rng, bits), EXACT)
    return iet.normalized() if normalized else iet


def sample_connection_free(
    perm: Permutation,
    rng: random.Random,
    horizon: int,
    bits: int = 32,
    max_tries: int = 64,
) -> IET:
    """Exact sample rejected until no connection exists within the horizon."""
    for _ in range(max_tries):
        iet = sample_iet(perm, rng, EXACT, bits)
        if has_connection_up_to(iet, horizon) is None:
            return iet
    raise RuntimeError(f"no connection-free sample in {max_tries} tries")
