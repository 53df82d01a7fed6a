"""Deterministic low-discrepancy sample points shared by all checks.

The points are a scrambled Halton sequence in bases 2, 3, 5 and 7: each
coordinate is a van der Corput radical inverse whose every digit position
has its own random permutation of the digits (A. B. Owen, "A randomized
Halton algorithm in R", arXiv:1706.02808).  The permutations come from one
``numpy.random.default_rng(seed)`` stream, base by base, and a draw after
the first continues the sequence where the previous one stopped.
``tests/test_sampling.py`` pins the first points of two seeds.
"""

import functools
import math

import numpy as np

__all__ = ["sample_points", "blocks", "DEFAULT_SEED", "EXCLUSION_RADIUS"]

DEFAULT_SEED = 0xC0FFEE
EXCLUSION_RADIUS = 0.1
BASES = (2, 3, 5, 7)


def _permutations(rng, base):
    """One shuffled ``arange(base)`` per digit position that a double can
    resolve: ``base**-k > 2**-54``."""
    count = math.ceil(54 / math.log2(base)) - 1
    perms = np.repeat(np.arange(base)[None], count, axis=0)
    for row in perms:
        rng.shuffle(row)
    return perms


def _radical_inverse(index, base, perms):
    """Scrambled van der Corput points of the integer array ``index``.

    Every permutation row is applied, also to the leading zero digits.
    """
    q, top = index, int(index.max())
    v = np.zeros(index.shape)
    w = 1.0 / base
    for row in perms:
        if top:
            q, digit = np.divmod(q, base)
            v += row[digit] * w
            top //= base
        else:                       # only leading zero digits are left
            v += float(row[0]) * w
        w /= base
    return v


@functools.lru_cache(maxsize=32)
def _points(n, seed, exclude_origin):
    rng = np.random.default_rng(seed)
    perms = [_permutations(rng, base) for base in BASES]
    t_out = np.empty(0)
    x_out = np.empty((3, 0))
    start = 0
    while t_out.shape[0] < n:
        index = np.arange(start, start + 2 * n)
        start += 2 * n
        raw = np.array([_radical_inverse(index, base, p)
                        for base, p in zip(BASES, perms)])
        x = 2.0 * raw[:3] - 1.0
        t = raw[3]
        if exclude_origin:
            keep = np.linalg.norm(x, axis=0) >= EXCLUSION_RADIUS
            x, t = x[:, keep], t[keep]
        t_out = np.concatenate([t_out, t])
        x_out = np.concatenate([x_out, x], axis=1)
    return t_out[:n], x_out[:, :n]


def sample_points(n=200, seed=DEFAULT_SEED, exclude_origin=True):
    """Low-discrepancy points in [-1,1]^3 x [0,1].

    Returns (t, x) with t of shape (n,) and x of shape (3, n).  A ball of
    radius 0.1 around x=0 is excluded so that isotropic fields ``phi(|x|)``
    and their derivatives stay smooth at every sample.  The points are
    drawn once per ``(n, seed, exclude_origin)``; each call returns fresh
    copies.
    """
    t, x = _points(n, seed, exclude_origin)
    return t.copy(), x.copy()


def blocks(n, size):
    """(start, stop) of consecutive blocks of ``size`` points covering
    ``n``.  A one-point tail joins the block before it: numpy rounds a
    one-point block on other paths than a wider one, so a blocked check
    would not give the bits of one pass over all points."""
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        del starts[-1]
    return zip(starts, starts[1:] + [n])
