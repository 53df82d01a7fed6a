"""Classification records shared by every checker, and the one rule that
turns residuals into verdicts.

Every check reduces its residual array with ``worst`` and judges the
result with ``CheckPart.of``; a report judges an expected outcome with
``meets``.  No other module compares a residual with its tolerance.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = ["CheckPart", "Verdict", "FAIL_FLOOR", "worst", "meets"]

# a residual above the tolerance but at or below this floor sits in the
# dead zone between rounding-level PASS and O(1) FAIL
FAIL_FLOOR = 1e-3

_PART_NAMES = ("tensor", "objective", "relative_objective", "symmetry")


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
    passed: bool
    residual: float

    @classmethod
    def of(cls, residual, tol):
        """PASS only when ``residual`` is finite and at most ``tol``."""
        residual = float(residual)
        return cls(passed=bool(math.isfinite(residual) and residual <= tol),
                   residual=residual)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one invariance check.

    Each optional part carries its own pass/fail flag and max residual;
    ``witness`` is the worst sample point (t, (x1, x2, x3)).
    """

    tolerance: float
    witness: Optional[Tuple[float, Tuple[float, float, float]]] = None
    tensor: Optional[CheckPart] = None
    objective: Optional[CheckPart] = None
    relative_objective: Optional[CheckPart] = None
    symmetry: Optional[CheckPart] = None
    notes: Tuple[str, ...] = field(default_factory=tuple)

    def parts(self):
        """{name: CheckPart} of the parts this verdict carries."""
        return {name: getattr(self, name) for name in _PART_NAMES
                if getattr(self, name) is not None}
