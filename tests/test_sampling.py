"""Tests for the scrambled Halton sample points."""

import numpy as np
import pytest

from invariance import sampling
from invariance.sampling import DEFAULT_SEED, EXCLUSION_RADIUS, sample_points


# The first four points, recorded once.  They pin the sequence
# independently of any other implementation, and they also catch a change
# in numpy's Generator stream.
PINNED = {
    DEFAULT_SEED: (
        [0.7648055926158455, 0.05051987833013141, 0.19337702118727426,
         0.3362341640444171],
        [[-0.4336534408826651, 0.5663465591173349, -0.9336534408826651,
          0.06634655911733489],
         [-0.6351755608565315, 0.6981577724768018, 0.03149110581013548,
          -0.8573977830787536],
         [-0.9908326013796637, -0.19083260137966374, 0.2091673986203364,
          -0.5908326013796636]]),
    2024: (
        [0.39492380410707667, 0.6806380898213624, 0.8234952326785052,
         0.9663523755356481],
        [[0.6769936379669583, -0.32300636203304167, 0.17699363796695833,
          -0.8230063620330417],
         [0.6484293669893368, -0.6849039663439963, -0.018237299677329566,
          0.42620714476711496],
         [0.28403161376309827, -0.915968386236902, -0.11596838623690209,
          -0.515968386236902]]),
}


@pytest.fixture
def fresh_cache():
    sampling._points.cache_clear()
    yield
    sampling._points.cache_clear()


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_first_points_are_pinned(seed):
    t, x = sample_points(4, seed)
    t_ref, x_ref = PINNED[seed]
    assert t.tolist() == t_ref
    assert x.tolist() == x_ref


def scipy_points(n, seed, exclude_origin=True):
    """The points as drawn with ``scipy.stats.qmc.Halton``, and the number
    of draws of ``2 n`` that were needed."""
    from scipy.stats import qmc
    sampler = qmc.Halton(d=4, seed=seed)
    t_out, x_out, draws = np.empty(0), np.empty((3, 0)), 0
    while t_out.shape[0] < n:
        raw = sampler.random(2 * n)
        draws += 1
        x, t = (2.0 * raw[:, :3] - 1.0).T, raw[:, 3]
        if exclude_origin:
            keep = np.linalg.norm(x, axis=0) >= sampling.EXCLUSION_RADIUS
            x, t = x[:, keep], t[keep]
        t_out = np.concatenate([t_out, t])
        x_out = np.concatenate([x_out, x], axis=1)
    return t_out[:n], x_out[:, :n], draws


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 0, 7, 101, 123456])
@pytest.mark.parametrize("n", [1, 50, 200])
def test_equals_scipy_halton(seed, n, fresh_cache):
    pytest.importorskip("scipy")
    for exclude_origin in (True, False):
        t, x = sample_points(n, seed, exclude_origin)
        t_ref, x_ref, _ = scipy_points(n, seed, exclude_origin)
        assert t.tobytes() == t_ref.tobytes()
        assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("radius", [1.1, 1.3])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 101])
@pytest.mark.parametrize("n", [7, 200])
def test_later_draws_continue_the_sequence(radius, seed, n, monkeypatch,
                                           fresh_cache):
    # a ball that covers most of the cube forces several draws of 2 n
    pytest.importorskip("scipy")
    monkeypatch.setattr(sampling, "EXCLUSION_RADIUS", radius)
    t, x = sample_points(n, seed)
    t_ref, x_ref, draws = scipy_points(n, seed)
    assert draws >= 2
    assert t.tobytes() == t_ref.tobytes()
    assert x.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 0x0B0E, 99])
def test_points_in_domain_outside_exclusion_ball(seed):
    t, x = sample_points(500, seed)
    assert t.shape == (500,) and x.shape == (3, 500)
    assert np.all((t >= 0.0) & (t < 1.0))
    assert np.all(np.abs(x) <= 1.0)
    assert np.all(np.linalg.norm(x, axis=0) >= EXCLUSION_RADIUS)


def test_returned_arrays_do_not_alias_the_cache():
    t, x = sample_points(30, 4242)
    t_ref, x_ref = t.copy(), x.copy()
    t[:] = np.nan
    x[:] = np.nan
    t2, x2 = sample_points(30, 4242)
    assert np.array_equal(t2, t_ref) and np.array_equal(x2, x_ref)
    assert not np.shares_memory(t2, sample_points(30, 4242)[0])
