from dataclasses import replace

import numpy as np
import pytest

from invariance import expr as ex
from invariance import frames as fr
from invariance import report
from invariance.checks import classify as ck
from invariance.checks.verdict import CheckPart
from invariance.sampling import DEFAULT_SEED, sample_points

import frame_oracle as oracle
from defect_oracle import form_invariance_defect

SPECS = ck.random_rotations(10, seed=0xA11CE)
BASE_SPIN = fr.RotationSpec(axis=(1.0, -1.0, 2.0), rate=0.8)
TOL = 1e-9


def verdict_for(factory, **kw):
    return ck.classify(factory(), SPECS, TOL, DEFAULT_SEED, **kw)


def loop_scan(specs, comparisons, n_points, seed, tol):
    """Oracle for the batched scan: the plain per-rotation loop.

    Each comparison is evaluated with one ``evaluate_many`` call per
    rotation and expression at ``n_points``, the rotation parameters bound
    as scalars, and the points are mapped through the same rotation
    declaration one rotation at a time; the witness is the first maximum
    (or first NaN) over rotations, then points.  Each part is built
    field by field, not through ``CheckPart.of``.
    """
    t, x = sample_points(n_points, seed)
    out = []
    for ea, ma, eb, mb in comparisons:
        worsts, witnesses = [], []
        for spec in specs:
            bind = {"rot_a1": spec.axis[0], "rot_a2": spec.axis[1],
                    "rot_a3": spec.axis[2], "rot_w": spec.rate,
                    "rot_ph": spec.phase}
            q, c = (ex.evaluate_many(e, t, x, bind)
                    for e in ck._FRAME.exprs(0))
            xt = fr.rotate(q, x) + c
            va = ex.evaluate_many(ea, t, xt if ma else x, bind)
            vb = ex.evaluate_many(eb, t, xt if mb else x, bind)
            total = np.abs(va - vb).reshape(-1, n_points).max(axis=0)
            i = int(np.argmax(total))
            worsts.append(total[i])
            witnesses.append((float(t[i]), tuple(x[:, i])))
        k = int(np.argmax(worsts))
        top = float(worsts[k])
        out.append(CheckPart(passed=bool(np.isfinite(top) and top <= tol),
                             residual=top, witness=witnesses[k]))
    return out


def bits(found):
    """A list or a {name: part} dict of parts, with residuals and
    witnesses as exact hex floats."""
    def part_bits(part):
        w = part.witness
        return (part.passed, float(part.residual).hex(),
                (float(w[0]).hex(), tuple(float(c).hex() for c in w[1])),
                part.notes)
    if isinstance(found, list):
        return [part_bits(part) for part in found]
    return [(name, part_bits(part)) for name, part in found.items()]


class TestClassificationMatrix:
    def test_isotropic_scalar_tensor_and_objective(self):
        v = verdict_for(ck.scalar_quantity)
        assert v["tensor"].passed and v["tensor"].residual < 1e-9
        assert v["objective"].passed and v["objective"].residual < 1e-9

    def test_generic_gradient_tensor_not_objective(self):
        v = verdict_for(ck.gradient_quantity)
        assert v["tensor"].passed
        assert not v["objective"].passed and v["objective"].residual > 1e-3

    def test_isotropic_gradient_objective(self):
        v = verdict_for(lambda: ck.gradient_quantity(ck.ISOTROPIC_SCALAR))
        assert v["tensor"].passed and v["objective"].passed

    def test_hessian_tensor_not_objective(self):
        v = verdict_for(ck.rank2_quantity)
        assert v["tensor"].passed
        assert not v["objective"].passed and v["objective"].residual > 1e-3

    def test_velocity_not_tensor(self):
        v = verdict_for(ck.velocity_quantity)
        assert not v["tensor"].passed and v["tensor"].residual > 1e-3
        assert not v["objective"].passed

    def test_relative_velocity_tensor_not_absolutely_objective(self):
        v = verdict_for(ck.velocity_relative_quantity)
        assert v["tensor"].passed and v["tensor"].residual < 1e-9
        assert not v["objective"].passed and v["objective"].residual > 1e-3
        assert v["relative_objective"].passed

    def test_strain_rate_tensor_and_objective(self):
        v = verdict_for(ck.strain_rate_quantity)
        assert v["tensor"].passed and v["objective"].passed
        assert max(v["tensor"].residual, v["objective"].residual) < 1e-9

    def test_vorticity_not_tensor(self):
        v = verdict_for(ck.vorticity_quantity)
        assert not v["tensor"].passed and v["tensor"].residual > 1e-3

    def test_relative_vorticity_tensor_and_relatively_objective(self):
        v = verdict_for(ck.vorticity_relative_quantity)
        assert v["tensor"].passed and v["tensor"].residual < 1e-9
        assert not v["objective"].passed
        assert v["relative_objective"].passed
        assert v["relative_objective"].residual < 1e-9

    def test_z_tensor_tensor_not_objective(self):
        v = verdict_for(ck.z_tensor_quantity)
        assert v["tensor"].passed and v["tensor"].residual < 1e-9
        assert not v["objective"].passed and v["objective"].residual > 1e-3

    def test_composite_norm_explicit_vs_full(self):
        explicit = verdict_for(ck.composite_norm_quantity,
                               objectivity_mode="explicit")
        assert explicit["tensor"].passed and explicit["objective"].passed
        full = verdict_for(ck.composite_norm_quantity,
                           objectivity_mode="full")
        assert full["tensor"].passed
        assert not full["objective"].passed
        assert full["objective"].residual > 1e-3

    def test_rejects_an_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be"):
            verdict_for(ck.strain_rate_quantity, objectivity_mode="partial")


class TestVorticityDefect:
    def test_defect_equals_minus_spin(self):
        # the inhomogeneous term of the vorticity transformation is
        # exactly -Omega, not merely nonzero
        q = ck.vorticity_quantity()
        for spec in SPECS[:5]:
            diff = form_invariance_defect(q, spec, DEFAULT_SEED,
                                          n_points=50)
            omega = oracle.spin(spec)
            assert np.max(np.abs(diff + omega[:, :, None])) < 1e-10

    def test_defect_zero_for_strain_rate(self):
        q = ck.strain_rate_quantity()
        for spec in SPECS[:3]:
            diff = form_invariance_defect(q, spec, DEFAULT_SEED,
                                          n_points=50)
            assert np.max(np.abs(diff)) < 1e-12


class TestRelativeObjectivity:
    def test_two_part_verdict(self):
        v = verdict_for(ck.velocity_relative_quantity, base_spin=BASE_SPIN)
        assert not v["objective"].passed          # absolute frame-dependence
        assert v["relative_objective"].passed     # same form in both frames

    def test_nonspinning_base_frame_removes_absolute_dependence(self):
        still = fr.RotationSpec(axis=(0.0, 0.0, 1.0), rate=0.0)
        v = verdict_for(ck.velocity_relative_quantity, base_spin=still)
        assert v["objective"].passed
        assert v["relative_objective"].passed


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
            assert not (v["objective"].passed and not v["tensor"].passed)

    def test_a_broken_implication_is_an_execution_error(self, monkeypatch,
                                                         tmp_path):
        # a tensor part that fails while the explicit objectivity part
        # passes must stop the check with exit 3, also under ``python -O``.
        # classify judges the tensor part first and the objectivity part
        # second; this broken judge fails every first one at a residual
        # of -inf, so the worse-of rule keeps the objectivity part.
        judged = []

        class FailsTheTensorPart(CheckPart):
            @classmethod
            def of(cls, residuals, tol, points=None, notes=()):
                judged.append(CheckPart.of(residuals, tol, points, notes))
                if len(judged) % 2:
                    return replace(judged[-1], passed=False,
                                   residual=-np.inf)
                return judged[-1]

        monkeypatch.setattr(ck, "CheckPart", FailsTheTensorPart)
        with pytest.raises(RuntimeError, match="form-invariance failed"):
            verdict_for(ck.strain_rate_quantity)
        path = tmp_path / "strain_rate.json"
        path.write_text('{"schema": 1, "name": "strain_rate", "kind": '
                        '"objectivity", "payload": {"quantity": '
                        '"strain_rate", "rotations": 10}}')
        got, code = report.run_scenario(path, None, None, no_timestamp=True)
        assert code == 3 and got["error_kind"] == "execution"

    def test_residual_dead_zone(self):
        # every verdict sits clearly on one side of the tolerance band
        for factory in (ck.scalar_quantity, ck.velocity_quantity,
                        ck.strain_rate_quantity, ck.vorticity_quantity):
            v = verdict_for(factory)
            for part in (v["tensor"], v["objective"]):
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
        for part in v.values():
            t_w, x_w = part.witness
            assert np.isfinite(t_w) and len(x_w) == 3

    def test_nonfinite_residual_fails_with_witness(self):
        # exp(800 x1) overflows where x1 > 0.89; inf - inf is NaN, and
        # NaN must fail the tensor part and carry its witness point
        q = ck.scalar_quantity(ex.parse_field_expr("exp(800*comp(x,1))"))
        with pytest.warns(RuntimeWarning):
            v = ck.classify(q, SPECS[:3], TOL, DEFAULT_SEED)
        assert not v["tensor"].passed
        assert not np.isfinite(v["tensor"].residual)
        assert v["tensor"].witness is not None

        # full mode compares phi(Q^T x) with phi(x) at the raw points.
        # Half-turns about e3 send x1 to about -x1, so the first ten
        # rotations (one batch) overflow only one side: inf, not NaN.
        # The eleventh turns about e1 and keeps x1, so both sides
        # overflow and the first NaN falls in the second batch.
        half_turns = [fr.RotationSpec(axis=(0.0, 0.0, 1.0), rate=0.0,
                                      phase=2.7 + 0.08 * k)
                      for k in range(10)]
        about_e1 = fr.RotationSpec(axis=(1.0, 0.0, 0.0), rate=1.1, phase=0.5)
        assert len(half_turns) == ck._BATCH
        full = [ck._pairs(q, "full", None)[1]]
        with pytest.warns(RuntimeWarning):
            first, = ck._scan(half_turns, full, 200, DEFAULT_SEED, TOL)
            got, = ck._scan(half_turns + [about_e1], full, 200,
                            DEFAULT_SEED, TOL)
            want, = loop_scan(half_turns + [about_e1], full, 200,
                              DEFAULT_SEED, TOL)
        assert first.residual == np.inf
        assert np.isnan(got.residual) and not got.passed
        assert got.witness == want.witness and got.witness[1][0] > 0.88

    def test_joined_parts_keep_a_nan(self, monkeypatch):
        # Python's max drops a NaN in second position and reported a
        # rounding-level residual for a failed part
        monkeypatch.setattr(
            ck, "_scan",
            lambda specs, pairs, n, seed, tol: [CheckPart.of(r, tol)
                                                for r in (1e-15, np.nan)])
        v = verdict_for(ck.strain_rate_quantity, objectivity_mode="explicit")
        assert v["tensor"].passed
        assert not v["objective"].passed and np.isnan(v["objective"].residual)

    def test_each_part_carries_its_own_witness(self):
        # each part's witness is its own comparison's worst sample; the
        # explicit objectivity part judges the worse of its own and the
        # tensor comparison, and carries that one's witness
        still = fr.RotationSpec(axis=(0.0, 0.0, 1.0), rate=0.0)
        specs = ck.random_rotations(10, seed=7)
        for q, spin in [(ck.z_tensor_quantity(), None),
                        (ck.velocity_quantity(), None),
                        (ck.strain_rate_quantity(), None),
                        (ck.velocity_relative_quantity(), BASE_SPIN),
                        (ck.velocity_relative_quantity(), still)]:
            found = ck._scan(specs, ck._pairs(q, "explicit", spin), 200, 7,
                             1e-9)
            v = ck.classify(q, specs, TOL, 7, base_spin=spin)
            if not q.relative:
                found[1] = max(found, key=lambda part: part.residual)
            assert [part.witness for part in v.values()] == [
                part.witness for part in found]
            if q.name == "z_tensor":
                # the tensor residual is rounding noise at another point
                assert [part.passed for part in v.values()] == [True, False]
                assert found[0].witness != found[1].witness
            if q.relative and spin is BASE_SPIN:
                # the relative part reports a witness of its own
                assert v["relative_objective"].witness != \
                    v["objective"].witness


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


def test_a_scan_is_one_evaluator_call_per_batch(monkeypatch):
    # the comparisons and the point map of a batch share one tape
    q = ck.z_tensor_quantity()
    pairs = ck._pairs(q, "explicit", None) + ck._pairs(q, "full", None)
    specs = ck.random_rotations(13, seed=3)
    calls = []
    evaluate_many, at = ck.evaluate_many, fr.FrameChange.at

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(ck, "evaluate_many",
                        counted("evaluate_many", evaluate_many))
    monkeypatch.setattr(fr.FrameChange, "at", counted("at", at))
    found = ck._scan(specs, pairs, 200, 3, 1e-9)
    assert len(found) == 4 and found[0] == found[2]
    assert calls == ["evaluate_many"] * 2


class TestBatchInvariance:
    """Batched rotations give the per-rotation loop's bits.

    13 rotations is not a multiple of the batch size, so the last batch
    is short; ``classify`` must report the oracle's residuals and witness
    exactly under each objectivity mode, or each base spin of a relative
    quantity.
    """

    @pytest.mark.parametrize("seed", [1, 0x5EED])
    @pytest.mark.parametrize("name", sorted(report.QUANTITIES))
    def test_checks_equal_the_per_rotation_loop(self, name, seed,
                                                monkeypatch):
        q = report.QUANTITIES[name]()
        specs = ck.random_rotations(13, seed=seed)
        assert len(specs) % ck._BATCH
        if q.relative:
            still = fr.RotationSpec(axis=(0.0, 0.0, 1.0), rate=0.0)
            kws = [{"base_spin": spin} for spin in (BASE_SPIN, still)]
        else:
            kws = [{"objectivity_mode": mode} for mode in ("explicit", "full")]
        pairs = [pair for kw in kws for pair in ck._pairs(
            q, kw.get("objectivity_mode"), kw.get("base_spin"))]
        runs = [lambda kw=kw: ck.classify(q, specs, TOL, seed, **kw)
                for kw in kws]
        got_scan = ck._scan(specs, pairs, 200, seed, 1e-9)
        got = [run() for run in runs]
        want_scan = loop_scan(specs, pairs, 200, seed, 1e-9)
        monkeypatch.setattr(ck, "_scan", loop_scan)
        want = [run() for run in runs]
        assert bits(got_scan) == bits(want_scan)
        for verdict, oracle in zip(got, want):
            assert bits(verdict) == bits(oracle)
