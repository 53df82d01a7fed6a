"""The one result type of every check, and the one rule that turns
residual arrays into it.

A check hands its residual array, with the sample points it was taken
at, to ``CheckPart.of``, the only constructor of a part outside this
module.  It reduces the array with ``worst``, judges that value against
the tolerance, and names the sample it came from as the part's witness.
A report judges an expected outcome with ``meets``.  No other module
compares a residual with its tolerance.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["CheckPart", "FAIL_FLOOR", "worst", "meets"]

# a residual above the tolerance but at or below this floor sits in the
# dead zone between rounding-level PASS and O(1) FAIL
FAIL_FLOOR = 1e-3


def worst(residuals):
    """(value, flat index) of the first maximum of ``residuals``.

    argmax lands on the first NaN, so a non-finite residual is never
    lost; an inf that precedes it does not hide it.
    """
    flat = np.ravel(residuals)
    i = int(np.argmax(flat))
    return float(flat[i]), i


def meets(part, expected):
    """Whether ``part`` meets an expected PASS (True) or FAIL (False).

    An expected FAIL is met only by a residual above ``FAIL_FLOOR`` (inf
    included): one in the dead zone is neither outcome, and NaN meets no
    expectation.
    """
    if expected:
        return part.passed
    return not part.passed and part.residual > FAIL_FLOOR


@dataclass(frozen=True)
class CheckPart:
    """One judged comparison: its flag, its worst residual, the sample
    ``(t, (x1, x2, x3))`` of that residual or None, and notes."""

    passed: bool
    residual: float
    witness: Optional[Tuple[float, Tuple[float, float, float]]] = None
    notes: Tuple[str, ...] = ()

    @classmethod
    def of(cls, residuals, tol, points=None, notes=()):
        """Judge the worst of ``residuals``: PASS only when it is finite
        and at most ``tol``.

        With ``points`` = (t, x) of n samples, the flat index i of the
        worst residual names sample i % n as the witness.
        """
        residual, i = worst(residuals)
        witness = None
        if points is not None:
            t, x = points
            k = i % len(t)
            witness = (float(t[k]), tuple(map(float, x[:, k])))
        return cls(passed=bool(math.isfinite(residual) and residual <= tol),
                   residual=residual, witness=witness, notes=tuple(notes))
