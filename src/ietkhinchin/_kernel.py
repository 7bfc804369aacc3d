"""Pure-Python reference kernels for the float Monte Carlo inner loops.

The compiled twin ``_speedups``, built from the C source ``_speedups.c``,
mirrors these functions operation for operation (same arithmetic in the same
order), so either implementation produces bit-identical results;
``tests/test_kernel.py`` asserts it.  Everything works on letter indices and
flat lists; no package types appear here.

phi is passed as its spec ``(kind, c, p)`` and evaluated by ``phi_at`` only at
the n that is tested, so no table of phi values is built.

Both twins validate their inputs and raise ValueError on rows that are not
permutations of 0..d-1 of the length of ``lengths`` (with d >= 2) or that end
with the same letter, on letters outside 0..d-1, on n < 0 and on unknown phi
kinds.  The compiled twin also takes at most ``_speedups.MAXD`` letters.

Statuses: 0 = ok, 1 = precision exhausted (guard band hit), 2 = tie
(induction undefined), 3 = step budget exhausted; reduced_check answers
5 = reduced or 4 = not reduced.
"""

from __future__ import annotations

import math

OK = 0
PRECISION = 1
TIE = 2
BUDGET = 3

REDUCED = 5
NOT_REDUCED = 4

PHI_KINDS = ("zero", "const", "log1", "log2", "power")


def phi_at(phi, n):
    """phi(n) for the spec phi = (kind, c, p) and n >= 1."""
    kind, c, p = phi
    if kind == "zero":
        return 0.0
    if kind == "const":
        return c
    if kind == "log1":
        return c / (n * math.log(n + 1))
    if kind == "log2":
        log = math.log(n + 1)
        return c / (n * log * log)
    if kind == "power":
        return c / n**p
    raise ValueError(f"unknown phi kind {kind!r}")


def _check_datum(top, bot, lengths):
    d = len(lengths)
    if d < 2:
        raise ValueError(f"the kernel takes at least 2 letters, not {d}")
    for name, row in (("top", top), ("bot", bot)):
        if len(row) != d or sorted(row) != list(range(d)):
            raise ValueError(f"{name} is not a permutation of 0..{d - 1}")
    if top[-1] == bot[-1]:
        raise ValueError("top and bot end with the same letter")


def induction_arrows(top, bot, lengths, max_steps, band):
    """Run float induction steps, recording arrow types (0 top / 1 bottom).

    Mutates nothing; returns (types, status).
    """
    _check_datum(top, bot, lengths)
    top = list(top)
    bot = list(bot)
    lengths = list(lengths)
    total = 0.0
    for v in lengths:
        total += v
    types = []
    for _ in range(max_steps):
        lt = lengths[top[-1]]
        lb = lengths[bot[-1]]
        diff = lt - lb
        if diff < 0.0:
            diff = -diff
        if diff < band * total:
            return types, (TIE if lt == lb else PRECISION)
        if lt > lb:
            winner = top[-1]
            loser = bot[-1]
            lengths[winner] = lengths[winner] - lengths[loser]
            bot.pop()
            bot.insert(bot.index(winner) + 1, loser)
            types.append(0)
        else:
            winner = bot[-1]
            loser = top[-1]
            lengths[winner] = lengths[winner] - lengths[loser]
            top.pop()
            top.insert(top.index(winner) + 1, loser)
            types.append(1)
        total = total - lengths[loser]
    return types, OK


def scan_solutions(top, bot, lengths, n_max, phi, band, max_steps):
    """Stream candidate approximation triples out of one float induction run.

    After every step whose loser can close a triple, each admissible partner
    letter is tested: if the counter sum n is in range and the current
    singularity gap is below phi(n), evaluated from the spec phi = (kind, c,
    p), the candidate (beta_index, alpha_index, n, gap) is emitted.  A
    comparison within the guard band aborts with the precision status so the
    caller can escalate the whole sample to the exact backend.

    Returns (status, candidates, steps).
    """
    _check_datum(top, bot, lengths)
    if len(phi) != 3 or phi[0] not in PHI_KINDS:
        raise ValueError(f"phi must be a (kind, c, p) spec with kind in {PHI_KINDS}")
    d = len(lengths)
    top = list(top)
    bot = list(bot)
    lengths = list(lengths)
    beta_ok = [False] * d
    alpha_ok = [False] * d
    for i in range(1, d):
        alpha_ok[top[i]] = True
        beta_ok[bot[i]] = True
    total = 0.0
    for v in lengths:
        total += v
    l_cnt = [0] * d
    h_cnt = [0] * d
    q_cnt = [1] * d
    cands = []
    steps = 0
    u_top = [0.0] * d
    u_bot = [0.0] * d
    while True:
        min_l = None
        min_h = None
        for i in range(d):
            if beta_ok[i] and (min_l is None or l_cnt[i] < min_l):
                min_l = l_cnt[i]
            if alpha_ok[i] and (min_h is None or h_cnt[i] < min_h):
                min_h = h_cnt[i]
        if min_l is None or min_h is None or min_l + min_h > n_max:
            return OK, cands, steps
        if steps >= max_steps:
            return BUDGET, cands, steps
        lt = lengths[top[-1]]
        lb = lengths[bot[-1]]
        diff = lt - lb
        if diff < 0.0:
            diff = -diff
        if diff < band * total:
            return (TIE if lt == lb else PRECISION), cands, steps
        if lt > lb:
            winner = top[-1]
            loser = bot[-1]
            kind_top = True
        else:
            winner = bot[-1]
            loser = top[-1]
            kind_top = False
        lengths[winner] = lengths[winner] - lengths[loser]
        if kind_top:
            bot.pop()
            bot.insert(bot.index(winner) + 1, loser)
            l_cnt[loser] += q_cnt[winner]
        else:
            top.pop()
            top.insert(top.index(winner) + 1, loser)
            h_cnt[loser] += q_cnt[winner]
        q_cnt[loser] += q_cnt[winner]
        total = total - lengths[loser]
        steps += 1

        acc = 0.0
        for i in range(d):
            u_top[top[i]] = acc
            acc += lengths[top[i]]
        acc = 0.0
        for i in range(d):
            u_bot[bot[i]] = acc
            acc += lengths[bot[i]]
        if not (beta_ok if kind_top else alpha_ok)[loser]:
            continue
        # the loser closes a triple with every admissible partner letter
        for j in range(d):
            beta, alpha = (loser, j) if kind_top else (j, loser)
            if not (beta_ok[beta] and alpha_ok[alpha]):
                continue
            n = l_cnt[beta] + h_cnt[alpha]
            if n < 1 or n > n_max:
                continue
            gap = u_bot[beta] - u_top[alpha]
            if gap < 0.0:
                gap = -gap
            bound = phi_at(phi, n)
            margin = gap - bound
            if margin < 0.0:
                margin = -margin
            if margin < band * total:
                return PRECISION, cands, steps
            if gap < bound:
                cands.append((beta, alpha, n, gap))


def reduced_check(top, bot, lengths, beta, alpha, n, band):
    """Float version of the pullback test; returns (status, gap).

    status REDUCED / NOT_REDUCED on a clean decision, PRECISION whenever any
    comparison lands inside the guard band.
    """
    _check_datum(top, bot, lengths)
    d = len(lengths)
    if not (0 <= beta < d and 0 <= alpha < d and n >= 0):
        raise ValueError(f"need 0 <= beta, alpha < {d} and n >= 0")
    total = 0.0
    for v in lengths:
        total += v
    guard = band * total
    u_top = [0.0] * d
    u_bot = [0.0] * d
    acc = 0.0
    for i in range(d):
        u_top[top[i]] = acc
        acc += lengths[top[i]]
    acc = 0.0
    for i in range(d):
        u_bot[bot[i]] = acc
        acc += lengths[bot[i]]
    top_breaks = []
    acc = 0.0
    for i in range(d):
        letter = top[i]
        top_breaks.append((acc, acc + lengths[letter], u_bot[letter] - acc))
        acc += lengths[letter]
    bot_breaks = []
    acc = 0.0
    for i in range(d):
        letter = bot[i]
        bot_breaks.append((acc, acc + lengths[letter], u_top[letter] - acc))
        acc += lengths[letter]
    sing = []
    for i in range(1, d):
        sing.append(u_top[top[i]])
        sing.append(u_bot[bot[i]])

    # The pullback interval at step k has the orbit points T^(n-k) u_beta^b
    # and T^(-k) u_alpha^t as endpoints, so both orbits are tracked
    # independently; structural coincidences (an endpoint touching its own
    # defining singularity) then compare bit-equal and the guard band only
    # flags genuine near-misses.
    forward = [0.0] * (n + 1)
    forward[0] = u_bot[beta]
    for j in range(n):
        point = forward[j]
        moved = False
        for left, right, shift in top_breaks:
            if (point != left and left - guard < point < left + guard) or (
                point != right and right - guard < point < right + guard
            ):
                return PRECISION, 0.0
            if left <= point < right:
                forward[j + 1] = point + shift
                moved = True
                break
        if not moved:
            return PRECISION, 0.0
    target = u_top[alpha]
    gap = forward[n] - target
    if gap < 0.0:
        gap = -gap
    if gap < guard:
        return PRECISION, gap
    back = target
    for k in range(n + 1):
        x = forward[n - k]
        lo = x if x < back else back
        hi = back if x < back else x
        for s in sing:
            if (s != lo and s - guard < lo < s + guard) or (
                s != hi and s - guard < hi < s + guard
            ):
                return PRECISION, gap
            if lo < s < hi:
                return NOT_REDUCED, gap
        if k < n:
            moved = False
            for left, right, shift in bot_breaks:
                if (back != left and left - guard < back < left + guard) or (
                    back != right and right - guard < back < right + guard
                ):
                    return PRECISION, gap
                if left <= back < right:
                    back = back + shift
                    moved = True
                    break
            if not moved:
                return PRECISION, gap
    return REDUCED, gap
