"""The host's current speed for pure-Python work, to take its drift out of
the timings.

This machine's speed drifts with the load of its other tenants: one and the
same op ran 17% to 20% slower or faster from one 10-s window to the next
(interquartile range over median).  A fixed reference, timed between ops,
drifts with it.  Kernels of different kinds feel the load differently, so
the reference is the geometric mean of three: integer orbit and pullback
walks, a Rauzy replay on ``Fraction`` lengths, and a loop of small-integer
arithmetic with dict and list traffic.  See README.md for the spreads with
and without it.

A time t measured while the reference takes r seconds is reported as
t * REF_SECONDS / r: the time the work would take at the reference speed of
the machine the README's figures come from.  The reference code is the
benchmark's own, so a change to the program moves only t.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import checks

# The unit: a reference sample this long counts as full speed.  It is the
# median sample on the machine of the README's figures in a quiet phase, so
# reported times are close to raw times there and then.
REF_SECONDS = 0.0017


def _kernels():
    """The three reference kernels, on fixed inputs."""
    rng = random.Random("reference")
    lengths = {a: Fraction(rng.randrange(1, 1 << 128), 1 << 128) for a in "ABCDE"}
    oracle = checks.ExactIET("ABCDE", "EDCBA", lengths)
    kinds = _kinds_of(lengths, 300)

    def walks():
        oracle.solutions("1/(n*log(n+1))", 150)

    def replay():
        checks.rauzy_replay("ABCDE", "EDCBA", kinds, lengths)

    def loop():
        table, items, acc = {}, [], 0.0
        for i in range(6000):
            table[i % 61] = table.get(i % 61, 0) + i
            items.append(i * 7 % 1013)
            acc += (i % 13) * 0.5
        return acc + sum(items)

    return walks, replay, loop


def _kinds_of(lengths, steps: int) -> str:
    """Arrow kinds of the first ``steps`` induction steps on ``lengths``."""
    run = checks.RauzyRun("ABCDE", "EDCBA", lengths)
    kinds = ""
    for _ in range(steps):
        lt, lb = run.lengths[run.top[-1]], run.lengths[run.bottom[-1]]
        kinds += checks.TOP if lt > lb else checks.BOTTOM
        run.step(kinds[-1])
    return kinds


class HostSpeed:
    """Samples of the reference's duration, and times scaled by them."""

    def __init__(self):
        self._kernels = _kernels()
        self.samples: list[float] = []

    def sample(self) -> float:
        product = 1.0
        for kernel in self._kernels:
            start = time.perf_counter()
            kernel()
            product *= time.perf_counter() - start
        self.samples.append(product ** (1 / len(self._kernels)))
        return self.samples[-1]

    def factor(self, samples: list[float]) -> float:
        """REF_SECONDS over the median of ``samples``."""
        return REF_SECONDS / statistics.median(samples)
