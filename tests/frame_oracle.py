"""Numpy closed forms of a uniform rotation, written independently of
``invariance.frames``: the oracle that the derived Q, Qdot, Qddot and
spin are checked against.

Q(t) = I + sin(th) K + (1 - cos(th)) K^2 with th = rate t + phase and K
the cross-product matrix of the normalised axis.
"""

import numpy as np


def axis_cross(axis):
    """[axis]x of the normalised axis."""
    a1, a2, a3 = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return np.array([[0.0, -a3, a2], [a3, 0.0, -a1], [-a2, a1, 0.0]])


def _combine(a, b, k, t):
    """a(t) K + b(t) K^2, with a trailing time axis for array ``t``."""
    k2 = k @ k
    if np.ndim(t) == 0:
        return a * k + b * k2
    return a * k[:, :, None] + b * k2[:, :, None]


def rotation(axis, rate, phase, t):
    """(Q, Qdot, Qddot) at ``t``: (3, 3) each for a scalar, (3, 3, N)
    for (N,) times."""
    t = np.asarray(t, dtype=float)
    k = axis_cross(axis)
    th = rate * t + phase
    s, c = np.sin(th), np.cos(th)
    eye = np.eye(3) if t.ndim == 0 else np.eye(3)[:, :, None]
    return (eye + _combine(s, 1.0 - c, k, t),
            _combine(rate * c, rate * s, k, t),
            _combine(-rate ** 2 * s, rate ** 2 * c, k, t))


def matrix(spec, t):
    """Q(t) of a ``RotationSpec``."""
    return rotation(spec.axis, spec.rate, spec.phase, t)[0]


def spin(spec):
    """Omega = Q Qdot^T = -rate [axis]x, constant."""
    return -spec.rate * axis_cross(spec.axis)
