"""The raw form-invariance defect of a quantity: its value in the rotated
frame minus the homogeneous rule's prediction, with the rank's shape and a
trailing point axis.  ``classify`` reduces this difference to a residual;
the tests read it whole, to witness an exact inhomogeneous offset such as
the vorticity's -Omega against ``frame_oracle.spin``.
"""

from invariance.checks.classify import (
    _differences, _rotation_bindings, _tensor_pair)
from invariance.expr import evaluate_many
from invariance.sampling import sample_points


def form_invariance_defect(q, spec, seed, n_points=200, base_spin=None):
    """The tensor comparison of ``classify`` at one rotation ``spec``, as
    the array of its differences at ``n_points`` samples."""
    t, x = sample_points(n_points, seed)
    (diff,), _ = _differences((_tensor_pair(q, base_spin),))
    return evaluate_many(diff, t, x, _rotation_bindings(spec))
