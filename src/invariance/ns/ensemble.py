"""Reynolds-decomposed ensembles of solenoidal wave modes.

Each realization is a single divergence-free trigonometric mode; the
pointwise sample mean is subtracted so the fluctuation average vanishes
identically, and the second-moment tensor transforms by exact algebraic
rules under every listed symmetry.
"""

from dataclasses import dataclass

import numpy as np

from .. import expr as ex
from ..checks.verdict import CheckPart, Verdict
from ..sampling import sample_points

__all__ = ["Ensemble", "reynolds_tau", "check_decomposed_symmetry"]

DEFAULT_MEMBERS = 4096
DEFAULT_ENSEMBLE_SEED = 0xBEEF


@dataclass(frozen=True)
class Ensemble:
    """wave vectors k (3,N), amplitudes a (3,N), phases (N,)."""

    k: np.ndarray
    amp: np.ndarray
    phase: np.ndarray

    @classmethod
    def random(cls, n_members=DEFAULT_MEMBERS, seed=DEFAULT_ENSEMBLE_SEED):
        rng = np.random.default_rng(seed)
        k = rng.uniform(-3.0, 3.0, size=(3, n_members))
        a = rng.normal(size=(3, n_members))
        # amp = k x a is orthogonal to k, so each mode is solenoidal
        amp = np.cross(k, a, axis=0)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=n_members)
        return cls(k=k, amp=amp, phase=phase)

    @property
    def n_members(self):
        return self.k.shape[1]

    def fluctuations(self, x_arr):
        """Mean-subtracted member velocities, shape (N, 3, P)."""
        arg = self.k.T @ x_arr + self.phase[:, None]       # (N, P)
        raw = self.amp.T[:, :, None] * np.cos(arg)[:, None, :]
        return raw - raw.mean(axis=0, keepdims=True)

    def divergence(self, x_arr):
        """Member-wise div u' (exact formula), shape (N, P)."""
        arg = self.k.T @ x_arr + self.phase[:, None]
        coef = np.einsum("in,in->n", self.k, self.amp)
        return -coef[:, None] * np.sin(arg)


def reynolds_tau(fluct):
    """Second-moment tensor <u' u'^T> from fluctuations (N,3,P) -> (3,3,P)."""
    return np.einsum("nip,njp->ijp", fluct, fluct) / fluct.shape[0]


def _fluctuation_action(spec, t_arr):
    """(M at the sample times (3, 3, P), s): the symmetry's velocity action
    without its offsets, which move only the mean flow."""
    t_arr = np.atleast_1d(t_arr)
    m = ex.evaluate_many(spec.matrix(), t_arr, np.zeros((3, t_arr.size)))
    return m, spec.s


def _apply(mat, fluct):
    return np.einsum("ijp,njp->nip", mat, fluct)


def _conjugate(mat, tau):
    return np.einsum("iap,abp,jbp->ijp", mat, tau, mat)


def check_decomposed_symmetry(ensemble, spec, n_points=200, tol=1e-12,
                              seed=None):
    """Transform the members, re-average, and compare with the tensor rule.

    The transformed second moment must equal scale^2 * M tau M^T exactly:
    averaging commutes with any linear member-wise action.
    """
    kw = {} if seed is None else {"seed": seed}
    t, x = sample_points(n_points, **kw)
    fluct = ensemble.fluctuations(x)
    tau = reynolds_tau(fluct)

    mat, scale = _fluctuation_action(spec, t)
    tau_direct = reynolds_tau(scale * _apply(mat, fluct))
    tau_rule = scale * scale * _conjugate(mat, tau)

    mean_norm = float(np.max(np.abs(fluct.mean(axis=0))))
    return Verdict(tolerance=tol, symmetry=CheckPart.of(
        np.max(np.abs(tau_direct - tau_rule)), tol),
                   notes=("fluctuation mean max-norm %.3e" % mean_norm,))
