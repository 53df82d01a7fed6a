"""Reynolds-decomposed ensembles of solenoidal wave modes.

Each realization is a single divergence-free trigonometric mode; the
pointwise sample mean is subtracted so the fluctuation average vanishes
identically, and the second-moment tensor transforms by exact algebraic
rules under every listed symmetry.
"""

from dataclasses import dataclass

import numpy as np

from ..checks.verdict import CheckPart
from ..frames import at_times
from ..sampling import blocks, sample_points

__all__ = ["Ensemble", "reynolds_tau", "check_decomposed_symmetry"]

# doubles in one (points, 3, members) block of the decomposed check
_BLOCK_DOUBLES = 2 ** 15


@dataclass(frozen=True)
class Ensemble:
    """wave vectors k (3,N), amplitudes a (3,N), phases (N,)."""

    k: np.ndarray
    amp: np.ndarray
    phase: np.ndarray

    @classmethod
    def random(cls, n_members, seed):
        rng = np.random.default_rng(seed)
        k = rng.uniform(-3.0, 3.0, size=(3, n_members))
        a = rng.normal(size=(3, n_members))
        # amp = k x a is orthogonal to k, so each mode is solenoidal;
        # np.cross gives a strided view, and every product would inherit it
        amp = np.ascontiguousarray(np.cross(k, a, axis=0))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=n_members)
        return cls(k=k, amp=amp, phase=phase)

    @property
    def n_members(self):
        return self.k.shape[1]

    def fluctuations(self, x_arr):
        """Mean-subtracted member velocities, shape (P, 3, N)."""
        arg = x_arr.T @ self.k + self.phase                 # (P, N)
        fluct = self.amp * np.cos(arg, out=arg)[:, None, :]
        fluct -= fluct.mean(axis=2, keepdims=True)
        return fluct


def reynolds_tau(fluct):
    """Second-moment tensor <u' u'^T> from fluctuations (P,3,N) -> (P,3,3)."""
    return np.einsum("pin,pjn->pij", fluct, fluct) / fluct.shape[2]


def _fluctuation_action(spec, t_arr):
    """(M at the sample times (P, 3, 3), s): the symmetry's velocity action
    without its offsets, which move only the mean flow."""
    return np.moveaxis(at_times(spec.frame.matrix(), t_arr), 2, 0), spec.s


def check_decomposed_symmetry(ensemble, spec, tol, seed, n_points=200):
    """Transform the members, re-average, and compare with the tensor rule.

    The transformed second moment must equal scale^2 * M tau M^T exactly:
    averaging commutes with any linear member-wise action.  The sample
    points are walked in blocks of about ``_BLOCK_DOUBLES / (3 * members)``
    points, so no (points, 3, members) array outgrows one block, and every
    average sums the members along the contiguous axis.  Each point's
    residual and mean equal those of one pass over all points bit for bit,
    since ``blocks`` leaves no block of one point.
    """
    t, x = sample_points(n_points, seed)
    mat, scale = _fluctuation_action(spec, t)
    step = max(2, _BLOCK_DOUBLES // (3 * ensemble.n_members))
    residual, mean_abs = np.empty((2, n_points))
    for lo, hi in blocks(n_points, step):
        fluct = ensemble.fluctuations(x[:, lo:hi])
        m = mat[lo:hi]
        moved = m @ fluct
        moved *= scale
        tau_rule = scale * scale * (m @ reynolds_tau(fluct)
                                    @ m.transpose(0, 2, 1))
        residual[lo:hi] = np.max(np.abs(reynolds_tau(moved) - tau_rule),
                                 axis=(1, 2))
        mean_abs[lo:hi] = np.max(np.abs(fluct.mean(axis=2)), axis=1)
    return CheckPart.of(residual, tol, points=(t, x),
                        notes=("fluctuation mean max-norm %.3e"
                               % np.max(mean_abs),))
