"""Kernel selection: compiled extension when available, pure Python otherwise.

The compiled kernel ``_speedups`` is built from the hand-written C source
``_speedups.c`` by ``setup.py`` (``python setup.py build_ext --inplace``, or
any install) whenever a C compiler is present; without one the build skips it
and the pure-Python ``_kernel`` runs.  Set ``IETKHINCHIN_PURE=1`` to force the
pure kernel.  Both implementations perform identical floating-point
operations, so the choice never changes results, only speed;
``tests/test_kernel.py`` asserts it.

phi is passed to ``scan_solutions`` as its spec ``(kind, c, p)`` (see
``Phi.kernel_spec``) and evaluated only at the n tested.  Both kernels
validate their inputs and raise ValueError on malformed rows, letters, n or
phi specs.
"""

from __future__ import annotations

import os

from . import _kernel as _pure

OK = _pure.OK
PRECISION = _pure.PRECISION
TIE = _pure.TIE
BUDGET = _pure.BUDGET
REDUCED = _pure.REDUCED
NOT_REDUCED = _pure.NOT_REDUCED

phi_at = _pure.phi_at

if os.environ.get("IETKHINCHIN_PURE") == "1":
    _impl = _pure
    BACKEND = "pure"
else:
    try:
        from . import _speedups as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        _impl = _pure
        BACKEND = "pure"

induction_arrows = _impl.induction_arrows
scan_solutions = _impl.scan_solutions
reduced_check = _impl.reduced_check

pure = _pure


def implementations():
    """(name, module) pairs of every available kernel implementation."""
    out = [("pure", _pure)]
    try:
        from . import _speedups

        out.append(("compiled", _speedups))
    except ImportError:
        pass
    return out
