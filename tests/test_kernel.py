"""The compiled kernel against its pure twin, input validation at the kernel
boundary, and the float count against the exact integer oracle.

The compiled kernel is the one importable as ``ietkhinchin._speedups`` (an
install or ``python setup.py build_ext --inplace``); without it, the fixture
builds it from ``_speedups.c`` with ``setup.py`` into a temporary directory.
"""

from __future__ import annotations

import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path

import pytest

from ietkhinchin import _kernel as pure
from ietkhinchin import harness, kernel
from ietkhinchin.combinat import parse_permutation
from ietkhinchin.iet import FLOAT, IET, reduced_triples_brute_force, sample_float_lengths, valid_pairs

ROOT = Path(__file__).resolve().parents[1]
BAND = 1e-12
PERMS = ("ABCD/DCBA", "ABCDE/EDCBA")
CONVERGENT = harness.parse_phi("1/(n*log(n+1)^2)")
DIVERGENT = harness.parse_phi("1/(n*log(n+1))")
SPECS = [
    CONVERGENT.kernel_spec,
    DIVERGENT.kernel_spec,
    harness.parse_phi("2/n^1.5").kernel_spec,
    ("const", 0.01, 1.0),
    ("zero", 1.0, 1.0),
]


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    try:
        from ietkhinchin import _speedups

        return _speedups
    except ImportError:
        pass
    if shutil.which(sysconfig.get_config_var("CC").split()[0]) is None:
        pytest.skip("no C compiler to build the compiled kernel")
    out = tmp_path_factory.mktemp("speedups")
    subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out), "--build-temp", str(out / "temp")],
        cwd=ROOT, check=True, capture_output=True,
    )
    # setup.py marks the extension optional, so a failed compile leaves no file
    (path,) = (out / "ietkhinchin").glob("_speedups*")
    spec = importlib.util.spec_from_file_location("ietkhinchin._speedups", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def datum(perm_text: str, seed: int):
    """Letter-index rows and float lengths of a seeded sample."""
    perm = parse_permutation(perm_text)
    index = {a: i for i, a in enumerate(perm.letters)}
    lengths = sample_float_lengths(perm, random.Random(seed))
    return [index[a] for a in perm.top], [index[a] for a in perm.bottom], [lengths[a] for a in perm.letters]


def same(pure_out, compiled_out):
    # repr of a float round-trips, so equal reprs mean bit-identical results
    assert repr(pure_out) == repr(compiled_out)
    return pure_out


def scan_cases():
    for perm_text in PERMS:
        for seed in range(6):
            top, bot, lengths = datum(perm_text, seed)
            for spec in SPECS:
                yield top, bot, lengths, 10_000, spec, BAND, 10**6
            yield top, bot, lengths, 10_000, DIVERGENT.kernel_spec, BAND, 7
            yield top, bot, lengths, 10_000, DIVERGENT.kernel_spec, 0.05, 10**6
        d = len(lengths)
        yield top, bot, [1.0 / d] * d, 10_000, DIVERGENT.kernel_spec, BAND, 10**6


def test_scan_solutions_bit_identical(compiled):
    statuses = set()
    for args in scan_cases():
        status, cands, steps = same(pure.scan_solutions(*args), compiled.scan_solutions(*args))
        statuses.add(status)
    assert statuses == {pure.OK, pure.PRECISION, pure.TIE, pure.BUDGET}


def test_scan_precision_on_phi_margin(compiled):
    """A gap equal to phi(n) lands in the guard band around phi(n)."""
    for perm_text in PERMS:
        top, bot, lengths = datum(perm_text, 11)
        status, cands, _ = pure.scan_solutions(top, bot, lengths, 1000, ("const", 1.0, 1.0), BAND, 10**6)
        assert status == pure.OK and cands
        gap = cands[len(cands) // 2][3]
        args = (top, bot, lengths, 1000, ("const", gap, 1.0), BAND, 10**6)
        status, _, _ = same(pure.scan_solutions(*args), compiled.scan_solutions(*args))
        assert status == pure.PRECISION


def test_reduced_check_bit_identical(compiled):
    statuses = set()
    for perm_text in PERMS:
        for seed in range(4):
            top, bot, lengths = datum(perm_text, seed)
            for spec, n_max in ((DIVERGENT.kernel_spec, 10_000), (("const", 1.0, 1.0), 500)):
                _, cands, _ = pure.scan_solutions(top, bot, lengths, n_max, spec, BAND, 10**6)
                for beta, alpha, n, _ in cands[:25]:
                    for band in (BAND, 1e-3):
                        args = (top, bot, lengths, beta, alpha, n, band)
                        status, _ = same(pure.reduced_check(*args), compiled.reduced_check(*args))
                        statuses.add(status)
    assert statuses == {pure.REDUCED, pure.NOT_REDUCED, pure.PRECISION}


def test_induction_arrows_bit_identical(compiled):
    statuses = set()
    for perm_text in PERMS:
        for seed in range(6):
            top, bot, lengths = datum(perm_text, seed)
            for args in ((top, bot, lengths, 200, BAND), (top, bot, lengths, 200, 0.05)):
                types, status = same(pure.induction_arrows(*args), compiled.induction_arrows(*args))
                statuses.add(status)
        d = len(lengths)
        args = (top, bot, [1.0 / d] * d, 200, BAND)
        statuses.add(same(pure.induction_arrows(*args), compiled.induction_arrows(*args))[1])
    assert statuses == {pure.OK, pure.PRECISION, pure.TIE}


TOP, BOT, LENGTHS = [0, 1, 2, 3], [3, 2, 1, 0], [0.4, 0.3, 0.2, 0.1]
BAD_DATA = {
    "short top": ([0, 1, 2], BOT, LENGTHS),
    "short lengths": (TOP, BOT, LENGTHS[:3]),
    "repeated letter": (TOP, [3, 2, 2, 0], LENGTHS),
    "letter too large": ([0, 1, 2, 4], BOT, LENGTHS),
    "negative letter": (TOP, [3, 2, -1, 0], LENGTHS),
    "same last letter": (TOP, [2, 1, 0, 3], LENGTHS),
    "one letter": ([0], [0], [1.0]),
}


def entry_calls(top, bot, lengths):
    return {
        "induction_arrows": lambda k: k.induction_arrows(top, bot, lengths, 10, BAND),
        "scan_solutions": lambda k: k.scan_solutions(top, bot, lengths, 100, DIVERGENT.kernel_spec, BAND, 100),
        "reduced_check": lambda k: k.reduced_check(top, bot, lengths, 0, 1, 5, BAND),
    }


@pytest.mark.parametrize("which", ["pure", "compiled"])
@pytest.mark.parametrize("case", sorted(BAD_DATA))
def test_malformed_datum_rejected(compiled, which, case):
    impl = pure if which == "pure" else compiled
    for call in entry_calls(*BAD_DATA[case]).values():
        with pytest.raises(ValueError):
            call(impl)


@pytest.mark.parametrize("which", ["pure", "compiled"])
def test_malformed_arguments_rejected(compiled, which):
    impl = pure if which == "pure" else compiled
    for beta, alpha, n in ((4, 1, 5), (-1, 1, 5), (0, 4, 5), (0, -1, 5), (0, 1, -1)):
        with pytest.raises(ValueError):
            impl.reduced_check(TOP, BOT, LENGTHS, beta, alpha, n, BAND)
    for spec in (("table", 1.0, 1.0), ("log1", 1.0)):
        with pytest.raises(ValueError):
            impl.scan_solutions(TOP, BOT, LENGTHS, 100, spec, BAND, 100)


def test_compiled_rejects_too_many_letters(compiled):
    d = compiled.MAXD + 1
    top, bot, lengths = list(range(d)), list(range(d))[::-1], [1.0 / d] * d
    for call in entry_calls(top, bot, lengths).values():
        with pytest.raises(ValueError):
            call(compiled)


@pytest.mark.parametrize("perm_text", PERMS)
def test_float_count_matches_oracle(compiled, monkeypatch, perm_text):
    """khinchin_count on float lengths, on either kernel, finds exactly the
    reduced triples with gap below phi(n) that the integer oracle finds."""
    n_max = 300
    perm = parse_permutation(perm_text)
    for seed in (1, 2, 3, 4):
        lengths = sample_float_lengths(perm, random.Random(seed))
        exact = IET(perm, lengths, FLOAT).to_exact()
        oracle = {
            pair: reduced_triples_brute_force(exact, *pair, n_max) for pair in valid_pairs(perm)
        }
        for phi in (CONVERGENT, DIVERGENT):
            expected = {
                pair: {n for n, gap in table.items() if n >= 1 and gap < Fraction(phi(n))}
                for pair, table in oracle.items()
            }
            for impl in (pure, compiled):
                monkeypatch.setattr(kernel, "scan_solutions", impl.scan_solutions)
                monkeypatch.setattr(kernel, "reduced_check", impl.reduced_check)
                found = harness.khinchin_count(IET(perm, lengths, FLOAT), phi, n_max)
                assert {pair: set(per_pair) for pair, per_pair in found.items()} == expected
                for pair, per_pair in found.items():
                    for n, gap in per_pair.items():
                        assert gap == pytest.approx(float(oracle[pair][n]), abs=1e-12)
            if perm_text == PERMS[0]:
                found = harness.khinchin_count(exact, phi, n_max)
                assert {pair: set(per_pair) for pair, per_pair in found.items()} == expected
