import importlib

import numpy as np
import pytest

from invariance import checks as ck
from invariance import expr as ex
from invariance import frames as fr
from invariance import report
from invariance.sampling import sample_points

import frame_oracle as oracle

# the module, not the ``classify`` function that ``invariance.checks``
# re-exports under the same name
classify_module = importlib.import_module("invariance.checks.classify")

SPECS = ck.random_rotations(10, seed=0xA11CE)
BASE_SPIN = fr.RotationSpec(axis=(1.0, -1.0, 2.0), rate=0.8)


def verdict_for(factory, **kw):
    return ck.classify(factory(), SPECS, **kw)


def loop_scan(specs, comparisons, n_points, seed):
    """Oracle for the batched scan: the plain per-rotation loop.

    Each comparison is evaluated with one ``evaluate_many`` call per
    rotation and expression at ``n_points``, the rotation parameters bound
    as scalars, and the points are mapped through the same rotation
    declaration one rotation at a time; the witness is the first maximum
    (or first NaN) over rotations, then points.
    """
    kw = {} if seed is None else {"seed": seed}
    t, x = sample_points(n_points, **kw)
    out = []
    for ea, ma, eb, mb in comparisons:
        worsts, witnesses = [], []
        for spec in specs:
            bind = {"rot_a1": spec.axis[0], "rot_a2": spec.axis[1],
                    "rot_a3": spec.axis[2], "rot_w": spec.rate,
                    "rot_ph": spec.phase}
            q, c = classify_module._FRAME.at(t, 0, bind)
            xt = fr.rotate(q, x) + c
            va = ex.evaluate_many(ea, t, xt if ma else x, bind)
            vb = ex.evaluate_many(eb, t, xt if mb else x, bind)
            total = np.abs(va - vb).reshape(-1, n_points).max(axis=0)
            i = int(np.argmax(total))
            worsts.append(total[i])
            witnesses.append((float(t[i]), tuple(x[:, i])))
        k = int(np.argmax(worsts))
        out.append((float(worsts[k]), witnesses[k]))
    return out


def bits(found):
    """(residual, witness) pairs, or a verdict, as exact hex floats."""
    def witness(w):
        return float(w[0]).hex(), tuple(float(c).hex() for c in w[1])
    if isinstance(found, list):
        return [(float(r).hex(), witness(w)) for r, w in found]
    parts = tuple((name, part.passed, float(part.residual).hex())
                  for name in ("tensor", "objective", "relative_objective")
                  for part in [getattr(found, name)] if part is not None)
    return parts, witness(found.witness), found.notes


class TestClassificationMatrix:
    def test_isotropic_scalar_tensor_and_objective(self):
        v = verdict_for(ck.scalar_quantity)
        assert v.tensor.passed and v.tensor.residual < 1e-9
        assert v.objective.passed and v.objective.residual < 1e-9

    def test_generic_gradient_tensor_not_objective(self):
        v = verdict_for(ck.gradient_quantity)
        assert v.tensor.passed
        assert not v.objective.passed and v.objective.residual > 1e-3

    def test_isotropic_gradient_objective(self):
        v = ck.classify(ck.gradient_quantity(ck.ISOTROPIC_SCALAR), SPECS)
        assert v.tensor.passed and v.objective.passed

    def test_hessian_tensor_not_objective(self):
        v = verdict_for(ck.rank2_quantity)
        assert v.tensor.passed
        assert not v.objective.passed and v.objective.residual > 1e-3

    def test_velocity_not_tensor(self):
        v = verdict_for(ck.velocity_quantity)
        assert not v.tensor.passed and v.tensor.residual > 1e-3
        assert not v.objective.passed

    def test_relative_velocity_tensor_not_absolutely_objective(self):
        v = verdict_for(ck.velocity_relative_quantity)
        assert v.tensor.passed and v.tensor.residual < 1e-9
        assert not v.objective.passed and v.objective.residual > 1e-3
        assert v.relative_objective.passed

    def test_strain_rate_tensor_and_objective(self):
        v = verdict_for(ck.strain_rate_quantity)
        assert v.tensor.passed and v.objective.passed
        assert max(v.tensor.residual, v.objective.residual) < 1e-9

    def test_vorticity_not_tensor(self):
        v = verdict_for(ck.vorticity_quantity)
        assert not v.tensor.passed and v.tensor.residual > 1e-3

    def test_relative_vorticity_tensor_and_relatively_objective(self):
        v = verdict_for(ck.vorticity_relative_quantity)
        assert v.tensor.passed and v.tensor.residual < 1e-9
        assert not v.objective.passed
        assert v.relative_objective.passed
        assert v.relative_objective.residual < 1e-9

    def test_z_tensor_tensor_not_objective(self):
        v = verdict_for(ck.z_tensor_quantity)
        assert v.tensor.passed and v.tensor.residual < 1e-9
        assert not v.objective.passed and v.objective.residual > 1e-3

    def test_composite_norm_explicit_vs_full(self):
        q = ck.composite_norm_quantity()
        explicit = ck.check_objectivity(q, SPECS, mode="explicit")
        assert explicit.objective.passed
        full = ck.check_objectivity(q, SPECS, mode="full")
        assert not full.objective.passed and full.objective.residual > 1e-3


class TestVorticityDefect:
    def test_defect_equals_minus_spin(self):
        # the inhomogeneous term of the vorticity transformation is
        # exactly -Omega, not merely nonzero
        q = ck.vorticity_quantity()
        for spec in SPECS[:5]:
            diff = ck.form_invariance_defect(q, spec, n_points=50)
            omega = oracle.spin(spec)
            assert np.max(np.abs(diff + omega[:, :, None])) < 1e-10

    def test_defect_zero_for_strain_rate(self):
        q = ck.strain_rate_quantity()
        for spec in SPECS[:3]:
            diff = ck.form_invariance_defect(q, spec, n_points=50)
            assert np.max(np.abs(diff)) < 1e-12


class TestRelativeObjectivity:
    def test_two_part_verdict(self):
        q = ck.velocity_relative_quantity()
        v = ck.check_relative_objectivity(q, SPECS, BASE_SPIN)
        assert not v.objective.passed          # absolute frame-dependence
        assert v.relative_objective.passed     # same form in both frames

    def test_nonspinning_base_frame_removes_absolute_dependence(self):
        q = ck.velocity_relative_quantity()
        still = fr.RotationSpec(axis=(0.0, 0.0, 1.0), rate=0.0)
        v = ck.check_relative_objectivity(q, SPECS, still)
        assert v.objective.passed
        assert v.relative_objective.passed

    def test_rejects_non_relative_quantity(self):
        with pytest.raises(ValueError):
            ck.check_relative_objectivity(ck.strain_rate_quantity(),
                                          SPECS, BASE_SPIN)

    def test_objectivity_rejects_relative_quantity(self):
        with pytest.raises(ValueError):
            ck.check_objectivity(ck.velocity_relative_quantity(), SPECS)


class TestImplicationAudit:
    def test_objective_implies_tensor(self):
        # no verdict may claim objectivity without form-invariance
        factories = [ck.scalar_quantity, ck.gradient_quantity,
                     ck.rank2_quantity, ck.velocity_quantity,
                     ck.velocity_relative_quantity, ck.strain_rate_quantity,
                     ck.vorticity_quantity, ck.vorticity_relative_quantity,
                     ck.z_tensor_quantity]
        for factory in factories:
            v = verdict_for(factory)
            assert not (v.objective.passed and not v.tensor.passed)

    def test_residual_dead_zone(self):
        # every verdict sits clearly on one side of the tolerance band
        for factory in (ck.scalar_quantity, ck.velocity_quantity,
                        ck.strain_rate_quantity, ck.vorticity_quantity):
            v = verdict_for(factory)
            for part in (v.tensor, v.objective):
                assert part.residual < 1e-9 or part.residual > 1e-3


class TestOracles:
    def test_strain_rate_matches_manual_rotation_oracle(self):
        # independent finite-rotation oracle: evaluate S from the raw
        # velocity samples on both sides of one explicit rotation
        spec = fr.RotationSpec(axis=(0.0, 0.0, 1.0), rate=1.3, phase=0.4)
        t, x = sample_points(40, seed=0x0B0E)
        grad_u = ex.expand_derivatives(ex.grad(ck.GENERIC_VELOCITY))
        l_val = ex.evaluate_many(grad_u, t, x)
        s_val = 0.5 * (l_val + np.transpose(l_val, (1, 0, 2)))
        for n in range(0, 40, 8):
            q = oracle.matrix(spec, t[n])
            omega = oracle.spin(spec)
            # velocity gradient in the rotated frame: Q L Q^T - Omega
            l_tilde = q @ l_val[:, :, n] @ q.T - omega
            s_tilde = 0.5 * (l_tilde + l_tilde.T)
            assert np.max(np.abs(s_tilde - q @ s_val[:, :, n] @ q.T)) < 1e-12

    def test_witness_is_reported(self):
        v = verdict_for(ck.velocity_quantity)
        t_w, x_w = v.witness
        assert np.isfinite(t_w) and len(x_w) == 3

    def test_nonfinite_residual_fails_with_witness(self):
        # exp(800 x1) overflows where x1 > 0.89; inf - inf is NaN, and
        # NaN must fail the tensor part and carry its witness point
        q = ck.scalar_quantity(ex.parse_field_expr("exp(800*comp(x,1))"))
        with pytest.warns(RuntimeWarning):
            v = ck.check_form_invariance(q, SPECS[:3])
        assert not v.tensor.passed
        assert not np.isfinite(v.tensor.residual)
        assert v.witness is not None

        # full mode compares phi(Q^T x) with phi(x) at the raw points.
        # Half-turns about e3 send x1 to about -x1, so the first ten
        # rotations (one batch) overflow only one side: inf, not NaN.
        # The eleventh turns about e1 and keeps x1, so both sides
        # overflow and the first NaN falls in the second batch.
        half_turns = [fr.RotationSpec(axis=(0.0, 0.0, 1.0), rate=0.0,
                                      phase=2.7 + 0.08 * k)
                      for k in range(10)]
        about_e1 = fr.RotationSpec(axis=(1.0, 0.0, 0.0), rate=1.1, phase=0.5)
        assert len(half_turns) == classify_module._BATCH
        with pytest.warns(RuntimeWarning):
            first = ck.check_objectivity(q, half_turns, mode="full")
            v = ck.check_objectivity(q, half_turns + [about_e1], mode="full")
            concrete, moved = classify_module._built_full(q)
            want = loop_scan(half_turns + [about_e1],
                             [(moved, False, concrete, False)], 200, None)
        assert first.objective.residual == np.inf
        assert np.isnan(v.objective.residual) and not v.objective.passed
        assert v.witness == want[0][1] and v.witness[1][0] > 0.88

    def test_joined_parts_keep_a_nan(self):
        # Python's max drops a NaN in second position and reported a
        # rounding-level residual for a failed part
        w = (0.0, (0.0, 0.0, 0.0))
        v = classify_module._objectivity_verdict([(1e-15, w), (np.nan, w)],
                                                 1e-9, "explicit")
        assert v.tensor.passed
        assert not v.objective.passed and np.isnan(v.objective.residual)


class TestRandomRotations:
    def test_stream_matches_the_choice_draws(self):
        # the sign is drawn with integers(0, 2); the rotations must stay
        # those that rng.choice([-1.0, 1.0]) drew
        for seed in list(range(20)) + [0x507A, 0xA11CE]:
            rng = np.random.default_rng(seed)
            want = []
            for _ in range(50):
                axis = rng.normal(size=3)
                rate = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
                phase = rng.uniform(0.3, 3.0)
                want.append(fr.RotationSpec(axis=axis, rate=rate,
                                            phase=phase))
            assert ck.random_rotations(50, seed=seed) == want


class TestBatchInvariance:
    """Batched rotations give the per-rotation loop's bits.

    13 rotations is not a multiple of the batch size, so the last batch
    is short; every check and ``classify`` must report the oracle's
    residuals and witness exactly.
    """

    @pytest.mark.parametrize("seed", [1, 0x5EED])
    @pytest.mark.parametrize("name", sorted(report.QUANTITIES))
    def test_checks_equal_the_per_rotation_loop(self, name, seed,
                                                monkeypatch):
        q = report.QUANTITIES[name]()
        specs = ck.random_rotations(13, seed=seed)
        assert len(specs) % classify_module._BATCH
        if q.relative:
            pairs = (classify_module._relative_pairs(q, BASE_SPIN)
                     + [classify_module._tensor_pair(q, None)])
            runs = [
                lambda: ck.check_form_invariance(q, specs, seed=seed),
                lambda: ck.check_relative_objectivity(q, specs, BASE_SPIN,
                                                      seed=seed),
                lambda: ck.classify(q, specs, seed=seed, base_spin=BASE_SPIN),
            ]
        else:
            pairs = (classify_module._objectivity_pairs(q, "explicit", None)
                     + classify_module._objectivity_pairs(q, "full", None))
            runs = [
                lambda: ck.check_form_invariance(q, specs, seed=seed),
                lambda: ck.check_objectivity(q, specs, seed=seed),
                lambda: ck.check_objectivity(q, specs, seed=seed,
                                             mode="full"),
                lambda: ck.classify(q, specs, seed=seed),
            ]
        got_scan = classify_module._scan(specs, pairs, 200, seed)
        got = [run() for run in runs]
        want_scan = loop_scan(specs, pairs, 200, seed)
        monkeypatch.setattr(classify_module, "_scan", loop_scan)
        want = [run() for run in runs]
        assert bits(got_scan) == bits(want_scan)
        for verdict, oracle in zip(got, want):
            assert bits(verdict) == bits(oracle)
