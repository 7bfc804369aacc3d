"""Experiment drivers: solution counting, the convergent/divergent dichotomy,
volume Monte Carlo, target-measure sweeps, and growth estimates.

Everything is deterministic given (config, master seed): per-sample seeds are
stable hashes, results are merged in sample order, and worker count never
changes the output bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import kernel
from .combinat import BOTTOM, TOP, Path, Permutation, parse_permutation
from .errors import AlgorithmStopped, PrecisionExhausted, StepBudgetExhausted
from .iet import (
    EXACT,
    FLOAT,
    FLOAT_BAND,
    IET,
    Triple,
    is_reduced_triple,
    sample_float_lengths,
    valid_pairs,
)
from .induction import InductionState
from .matrices import q_vector
from .triples import ReferencePath, enumerate_targets


class Phi:
    """A positive sequence n -> phi(n), parsed from a compact spec string.

    ``kernel_spec`` is the (kind, c, p) tuple the kernels take; both kernels
    evaluate it with the same arithmetic as ``__call__``.
    """

    def __init__(self, kind: str, c: float = 1.0, p: float = 1.0):
        self.kind = kind
        self.c = c
        self.p = p

    @property
    def kernel_spec(self) -> tuple[str, float, float]:
        return (self.kind, self.c, self.p)

    def __call__(self, n: int) -> float:
        if n < 1 and self.kind not in ("zero", "const"):
            raise ValueError("log families are defined for n >= 1")
        return kernel.phi_at(self.kernel_spec, n)

    def table(self, n_max: int) -> list[float]:
        out = [0.0] * (n_max + 1)
        for n in range(1, n_max + 1):
            out[n] = self(n)
        return out

    def __repr__(self) -> str:
        return f"Phi({self.spec()})"

    def spec(self) -> str:
        if self.kind == "zero":
            return "zero"
        if self.kind == "const":
            return repr(self.c)
        if self.kind == "log1":
            return f"{self.c}/(n*log(n+1))"
        if self.kind == "log2":
            return f"{self.c}/(n*log(n+1)^2)"
        if self.kind == "power":
            return f"{self.c}/n^{self.p}"
        raise ValueError(f"unknown phi kind {self.kind}")


_PHI_LOG2 = re.compile(r"^\s*([0-9.]+)?\s*/\s*\(\s*n\s*\*\s*log\(\s*n\s*\+\s*1\s*\)\s*\^\s*2\s*\)\s*$")
_PHI_LOG1 = re.compile(r"^\s*([0-9.]+)?\s*/\s*\(\s*n\s*\*\s*log\(\s*n\s*\+\s*1\s*\)\s*\)\s*$")
_PHI_POWER = re.compile(r"^\s*([0-9.]+)?\s*/\s*n\s*\^\s*([0-9.]+)\s*$")
_PHI_CONST = re.compile(r"^\s*([0-9.]+(?:/[0-9.]+)?)\s*$")


def parse_phi(text: str) -> Phi:
    if text.strip() == "zero" or text.strip() == "0":
        return Phi("zero")
    m = _PHI_LOG2.match(text)
    if m:
        return Phi("log2", float(m.group(1) or 1.0))
    m = _PHI_LOG1.match(text)
    if m:
        return Phi("log1", float(m.group(1) or 1.0))
    m = _PHI_POWER.match(text)
    if m:
        return Phi("power", float(m.group(1) or 1.0), float(m.group(2)))
    m = _PHI_CONST.match(text)
    if m:
        token = m.group(1)
        value = (
            float(Fraction(token)) if "/" in token else float(token)
        )
        return Phi("const", value)
    raise ValueError(f"cannot parse phi spec {text!r}")


def derive_seed(master: int, *parts) -> int:
    """Stable 64-bit stream seed from the master seed and arbitrary labels."""
    text = ":".join([str(master)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _iet_arrays(iet: IET) -> tuple[list[int], list[int], list[float]]:
    letters = iet.perm.letters
    index = {a: i for i, a in enumerate(letters)}
    top = [index[a] for a in iet.perm.top]
    bot = [index[a] for a in iet.perm.bottom]
    lengths = [float(iet.lengths[a]) for a in letters]
    return top, bot, lengths


def khinchin_count(
    iet: IET,
    phi: Phi,
    n_max: int,
    band: float = FLOAT_BAND,
    step_budget: int = 1_000_000,
) -> dict[tuple[str, str], dict[int, float]]:
    """Solutions (beta, alpha, n) with a reduced triple and gap below phi(n).

    Float inputs run on the kernel fast path (candidate stream confirmed by
    the pullback oracle); any guard-band hit escalates the whole sample to
    the exact backend after bit-exact rationalization.  A tie means the
    sample has a connection and is reported via AlgorithmStopped; a run that
    spends step_budget induction steps before it covers every pair raises
    StepBudgetExhausted, a subclass of it.
    """
    if iet.backend == FLOAT:
        try:
            return _count_float(iet, phi, n_max, band, step_budget)
        except PrecisionExhausted:
            return _count_exact(iet.to_exact(), phi, n_max, step_budget)
    return _count_exact(iet, phi, n_max, step_budget)


def _count_float(iet, phi, n_max, band, step_budget):
    top, bot, lengths = _iet_arrays(iet)
    letters = iet.perm.letters
    total0 = sum(lengths)
    status, cands, steps = kernel.scan_solutions(
        top, bot, lengths, n_max, phi.kernel_spec, band, step_budget
    )
    if status == kernel.TIE:
        raise AlgorithmStopped(None, "sample has a connection")
    if status == kernel.PRECISION:
        raise PrecisionExhausted()
    if status == kernel.BUDGET:
        raise StepBudgetExhausted(steps, "step budget exhausted before coverage")
    solutions: dict[tuple[str, str], dict[int, float]] = {
        (b, a): {} for b, a in valid_pairs(iet.perm)
    }
    checked: dict[tuple[int, int, int], bool] = {}
    for beta_i, alpha_i, n, _gap in cands:
        key = (beta_i, alpha_i, n)
        if key in checked:
            continue
        status, gap = kernel.reduced_check(top, bot, lengths, beta_i, alpha_i, n, band)
        if status == kernel.PRECISION:
            raise PrecisionExhausted()
        good = status == kernel.REDUCED
        if good:
            bound = phi(n)
            if abs(gap - bound) < band * total0:
                raise PrecisionExhausted()
            good = gap < bound
        checked[key] = good
        if good:
            solutions[(letters[beta_i], letters[alpha_i])][n] = gap
    return solutions


def _count_exact(iet, phi, n_max, step_budget):
    perm = iet.perm
    pairs = valid_pairs(perm)
    solutions: dict[tuple[str, str], dict[int, float]] = {p: {} for p in pairs}
    checked: dict[tuple[str, str, int], bool] = {}
    state = InductionState(iet)
    u_bottom0 = iet.left_endpoints(BOTTOM)
    u_top0 = iet.left_endpoints(TOP)
    orbit_cache: dict[str, list] = {b: [u_bottom0[b]] for b, _ in pairs}

    def true_gap(beta: str, alpha: str, n: int):
        orbit = orbit_cache[beta]
        while len(orbit) <= n:
            orbit.append(iet.evaluate(orbit[-1]))
        return abs(orbit[n] - u_top0[alpha])

    while any(state.l[b] + state.h[a] <= n_max for b, a in pairs):
        if state.steps >= step_budget:
            raise StepBudgetExhausted(state.steps, "step budget exhausted before coverage")
        last = state.rauzy_step()
        if last.kind == TOP:
            beta = last.loser
            partners = [(beta, a) for b, a in pairs if b == beta]
        else:
            alpha = last.loser
            partners = [(b, alpha) for b, a in pairs if a == alpha]
        if not partners:
            continue
        u_top = state.current.left_endpoints(TOP)
        u_bot = state.current.left_endpoints(BOTTOM)
        for beta, alpha in partners:
            n = state.l[beta] + state.h[alpha]
            if n < 1 or n > n_max:
                continue
            key = (beta, alpha, n)
            if key in checked:
                continue
            # phi(n) is made exact only at the n tested
            value = phi(n)
            if not value > 0:
                continue
            bound = Fraction(value)
            if abs(u_bot[beta] - u_top[alpha]) >= bound:
                continue
            gap = true_gap(beta, alpha, n)
            good = gap < bound and gap > 0
            if good:
                good = is_reduced_triple(iet, Triple(beta, alpha, n))
            checked[key] = good
            if good:
                solutions[(beta, alpha)][n] = float(gap)
    return solutions


def decade_grid(n_max: int) -> list[tuple[int, int]]:
    """Doubling windows [2^(k-1), 2^k) clipped at n_max."""
    out = []
    k = 1
    while (1 << (k - 1)) <= n_max:
        lo = 1 << (k - 1)
        hi = min((1 << k) - 1, n_max)
        out.append((lo, hi))
        k += 1
    return out


def bin_by_decades(
    solutions: dict[tuple[str, str], dict[int, float]], n_max: int
) -> list[int]:
    grid = decade_grid(n_max)
    counts = [0] * len(grid)
    for per_pair in solutions.values():
        for n in per_pair:
            for i, (lo, hi) in enumerate(grid):
                if lo <= n <= hi:
                    counts[i] += 1
                    break
    return counts


def _dichotomy_row(args):
    perm_text, phi_spec, n_max, master, family_index, index = args
    perm = parse_permutation(perm_text)
    phi = parse_phi(phi_spec)
    rng = random.Random(derive_seed(master, family_index, index))
    lengths = sample_float_lengths(perm, rng)
    iet = IET(perm, lengths, FLOAT)
    try:
        solutions = khinchin_count(iet, phi, n_max)
        status = "ok"
    except StepBudgetExhausted:
        return (family_index, index, "budget", [])
    except AlgorithmStopped:
        return (family_index, index, "connection", [])
    except PrecisionExhausted:
        return (family_index, index, "precision", [])
    counts = bin_by_decades(solutions, n_max)
    return (family_index, index, status, counts)


def dichotomy_experiment(
    perm: Permutation,
    phi_specs: Sequence[str],
    samples: int,
    n_max: int,
    master_seed: int,
    workers: int = 1,
) -> dict:
    """Per-sample decade counts for each sequence family, plus summary stats.

    Deterministic for fixed (inputs, master seed), independent of workers.
    """
    grid = decade_grid(n_max)
    jobs = [
        (str(perm), spec, n_max, master_seed, fi, i)
        for fi, spec in enumerate(phi_specs)
        for i in range(samples)
    ]
    if workers > 1:
        # imported only for a pool: the import alone costs about 1 MiB of
        # resident memory, and single-worker runs never use it
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            rows = pool.map(_dichotomy_row, jobs, chunksize=8)
    else:
        rows = [_dichotomy_row(job) for job in jobs]
    rows.sort(key=lambda r: (r[0], r[1]))

    families = []
    for fi, spec in enumerate(phi_specs):
        frows = [r for r in rows if r[0] == fi and r[2] == "ok"]
        per_decade = [[r[3][k] for r in frows] for k in range(len(grid))]
        cumulative = []
        running = [0] * len(frows)
        for k in range(len(grid)):
            running = [c + new for c, new in zip(running, per_decade[k])]
            cumulative.append(list(running))
        medians = [_median(col) for col in cumulative]
        final_new = per_decade[-1] if per_decade else []
        families.append(
            {
                "spec": spec,
                "ok_samples": len(frows),
                "discarded": samples - len(frows),
                "median_cumulative": medians,
                "median_new_final": _median(final_new) if final_new else 0,
                "frac_no_new_final": (
                    sum(1 for v in final_new if v == 0) / len(final_new)
                    if final_new
                    else 1.0
                ),
                "final_median": medians[-1] if medians else 0,
            }
        )
    return {
        "grid": grid,
        "rows": rows,
        "families": families,
        "n_max": n_max,
        "samples": samples,
        "master_seed": master_seed,
    }


def _median(values: Sequence) -> float:
    values = sorted(values)
    if not values:
        return 0
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def write_dichotomy_csv(report: dict, handle) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    grid = report["grid"]
    header = ["family", "sample", "status"] + [
        f"new_{lo}_{hi}" for lo, hi in grid
    ] + ["total"]
    writer.writerow(header)
    for family_index, index, status, counts in report["rows"]:
        row = [family_index, index, status]
        if counts:
            row += counts + [sum(counts)]
        else:
            row += [""] * len(grid) + [""]
        writer.writerow(row)


def dichotomy_check(report: dict, ratio: float = 3.0) -> list[str]:
    """Failed assertions of the convergent/divergent contrast, empty if ok.

    The first family is the convergent one, the second the divergent one.
    """
    failures = []
    conv, div = report["families"][0], report["families"][1]
    if conv["median_new_final"] != 0:
        failures.append("convergent family: median new count in final decade is nonzero")
    if conv["frac_no_new_final"] < 0.9:
        failures.append("convergent family: fewer than 90% of samples stall in final decade")
    med = div["median_cumulative"]
    if not all(med[k] > med[k - 1] for k in range(1, len(med))):
        failures.append("divergent family: median cumulative count not strictly increasing")
    if not div["final_median"] >= ratio * max(conv["final_median"], 1e-9) and not (
        conv["final_median"] == 0 and div["final_median"] > 0
    ):
        failures.append("divergent family: final median not well above convergent")
    return failures


def volume_mc_many(
    start: Permutation,
    paths: Sequence[Path],
    samples: int,
    seed: int,
    band: float = FLOAT_BAND,
) -> list[dict]:
    """Empirical frequency of each path prefix against its exact volume.

    One shared stream of simplex samples drives every queried path; the
    z-score uses the binomial deviation at the exact volume.
    """
    depth = max((len(p) for p in paths), default=0)
    for p in paths:
        if p.start != start:
            raise ValueError("all paths must share the start vertex")
    letters = start.letters
    index = {a: i for i, a in enumerate(letters)}
    top = [index[a] for a in start.top]
    bot = [index[a] for a in start.bottom]
    rng = random.Random(seed)
    counts: dict[str, int] = {}
    for _ in range(samples):
        lengths = sample_float_lengths(start, rng)
        vec = [lengths[a] for a in letters]
        types, status = kernel.induction_arrows(top, bot, vec, depth, band)
        text = "".join("t" if t == 0 else "b" for t in types)
        for ell in range(1, len(text) + 1):
            prefix = text[:ell]
            counts[prefix] = counts.get(prefix, 0) + 1
    out = []
    for p in paths:
        exact = Fraction(1)
        for q in q_vector(p):
            exact /= q
        hits = counts.get(p.type_string(), 0) if len(p) else samples
        freq = hits / samples
        sigma = math.sqrt(float(exact) * (1 - float(exact)) / samples)
        z = (freq - float(exact)) / sigma if sigma > 0 else 0.0
        out.append(
            {
                "path": p.type_string() or "(trivial)",
                "volume": exact,
                "frequency": freq,
                "hits": hits,
                "z": z,
            }
        )
    return out


def volume_mc(path: Path, samples: int, seed: int = 20240601) -> dict:
    return volume_mc_many(path.start, [path], samples, seed)[0]


def target_measure_sweep(
    perm: Permutation,
    avoided: str,
    epsilons: Sequence[Fraction],
    depth_budget: Optional[int] = None,
) -> dict:
    """Exact truncated masses over an epsilon grid and the fitted constant."""
    rows = []
    for eps in epsilons:
        fam = enumerate_targets(perm, avoided, Fraction(eps), depth_budget)
        rows.append(
            {
                "epsilon": Fraction(eps),
                "mass": fam.mass,
                "undecided": fam.undecided_mass,
                "members": len(fam.paths),
                "ratio": fam.mass / Fraction(eps),
            }
        )
    c = min((r["ratio"] for r in rows), default=Fraction(0))
    return {"perm": str(perm), "avoided": avoided, "rows": rows, "constant": c}


def zorich_growth_estimate(
    ref: ReferencePath,
    samples: int,
    step_budget: int,
    seed: int,
) -> dict:
    """Empirical growth rate of the return-time norm per reference-path
    occurrence; the supremum over samples feeds the shrinkage schedule."""
    perm = ref.path.start
    rng = random.Random(seed)
    per_sample = []
    truncated = 0
    for _ in range(samples):
        lengths = sample_float_lengths(perm, rng)
        iet = IET(perm, lengths, FLOAT)
        state = InductionState(iet)
        best = 0.0
        k = 0
        try:
            for _ in range(step_budget):
                state.rauzy_step()
                if state.ends_with(ref.path):
                    k += 1
                    norm = sum(state.q.values())
                    best = max(best, norm ** (1.0 / k))
        except (PrecisionExhausted, AlgorithmStopped):
            truncated += 1
        if k:
            per_sample.append(best)
    per_sample.sort()
    return {
        "samples": len(per_sample),
        "truncated": truncated,
        "theta_sup": per_sample[-1] if per_sample else None,
        "theta_median": _median(per_sample) if per_sample else None,
    }
