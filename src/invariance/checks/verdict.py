"""Classification records shared by every checker."""

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["CheckPart", "Verdict", "FAIL_FLOOR"]

# a residual above the tolerance but at or below this floor sits in the
# dead zone between rounding-level PASS and O(1) FAIL
FAIL_FLOOR = 1e-3


@dataclass(frozen=True)
class CheckPart:
    passed: bool
    residual: float

    def as_dict(self):
        return {"pass": self.passed, "residual": self.residual}


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

    def as_dict(self):
        out = {"tolerance": self.tolerance}
        if self.witness is not None:
            out["witness"] = {"t": self.witness[0],
                              "x": list(self.witness[1])}
        for name in ("tensor", "objective", "relative_objective", "symmetry"):
            part = getattr(self, name)
            if part is not None:
                out[name] = part.as_dict()
        if self.notes:
            out["notes"] = list(self.notes)
        return out
