import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from invariance import expr as ex
from invariance import report
from invariance.checks import geometry
from invariance.checks.geometry import (
    CHARTS, christoffel_transform, closed_form_christoffel,
    check_christoffel_transform, check_covariant_derivative,
    geometric_invariance_suite,
)
from invariance.checks.verdict import meets
from invariance.sampling import DEFAULT_SEED

SCENARIO = Path(str(resources.files("invariance") / "scenarios"
                    / "geometric_suite.json"))
FRAME_DEPENDENT = ("curvilinear_point", "time_dependent_3d_differential")


def finite_difference_christoffel(chart, pts, h=1e-5):
    """Independent oracle: build Gamma from numerically differentiated
    Jacobians instead of the symbolic second derivatives."""
    n = pts.shape[1]
    out = np.empty((3, 3, 3, n))
    b = chart.at(pts)[1]
    a = np.moveaxis(np.linalg.inv(np.moveaxis(b, 2, 0)), 0, 2)
    d2 = np.empty((3, 3, 3, n))
    for j in range(3):
        plus, minus = pts.copy(), pts.copy()
        plus[j] += h
        minus[j] -= h
        d2[:, :, j] = (chart.at(plus)[1] - chart.at(minus)[1]) / (2 * h)
    for m in range(3):
        out[m] = np.einsum("vn,vabn->abn", a[m], d2)
    return out


class TestChristoffel:
    @pytest.mark.parametrize("name", ["spherical", "cylindrical"])
    def test_matches_closed_form(self, name):
        chart = CHARTS[name]
        pts = chart.sample(50, DEFAULT_SEED)
        got = christoffel_transform(*chart.at(pts)[1:])
        ref = closed_form_christoffel(name, pts)
        assert np.max(np.abs(got - ref)) < 1e-9

    @pytest.mark.parametrize("name", ["spherical", "cylindrical",
                                      "rotation_frozen"])
    def test_matches_finite_difference_oracle(self, name):
        chart = CHARTS[name]
        pts = chart.sample(20, DEFAULT_SEED)
        got = christoffel_transform(*chart.at(pts)[1:])
        ref = finite_difference_christoffel(chart, pts)
        assert np.max(np.abs(got - ref)) < 1e-5

    def test_flat_charts_give_zero_connection(self):
        for name in ("identity", "rotation_frozen"):
            chart = CHARTS[name]
            pts = chart.sample(20, DEFAULT_SEED)
            got = christoffel_transform(*chart.at(pts)[1:])
            assert np.max(np.abs(got)) < 1e-12

    def test_symmetry_in_lower_indices(self):
        chart = CHARTS["spherical"]
        pts = chart.sample(20, DEFAULT_SEED)
        g = christoffel_transform(*chart.at(pts)[1:])
        assert np.max(np.abs(g - np.transpose(g, (0, 2, 1, 3)))) < 1e-12

    @pytest.mark.parametrize("scenario", ["christoffel_cylindrical",
                                          "christoffel_spherical",
                                          "covariant_derivative_spherical"])
    def test_a_witness_is_a_cartesian_position(self, scenario):
        got, code = report.run_scenario(
            SCENARIO.with_name(scenario + ".json"), None, None)
        assert code == 0
        payload = json.loads(SCENARIO.with_name(scenario + ".json")
                             .read_text())["payload"]
        chart = CHARTS[payload["chart"]]
        pts = chart.sample(payload["points"], got["seed"])
        r = pts[0]
        if payload["chart"] == "spherical":
            want = [r * np.sin(pts[1]) * np.cos(pts[2]),
                    r * np.sin(pts[1]) * np.sin(pts[2]), r * np.cos(pts[1])]
        else:
            want = [r * np.cos(pts[1]), r * np.sin(pts[1]), pts[2]]
        cart = chart.at(pts)[0]
        np.testing.assert_allclose(cart, want, rtol=0.0, atol=1e-12)
        assert got["details"]["witness"]
        for w in got["details"]["witness"].values():
            assert w["t"] == 0.0
            assert any(w["x"] == list(cart[:, k])
                       for k in range(cart.shape[1]))


class TestOneEvaluation:
    """A chart's position, Jacobian and second derivatives are one
    evaluation, and the covariant-derivative check adds one for its
    compared expressions and the field."""

    @pytest.mark.parametrize("check, calls", [
        (lambda chart: check_christoffel_transform(chart, 20, 1e-9, 1), 1),
        (lambda chart: check_covariant_derivative(
            ex.parse_field_expr("dot(x, x)"), chart, 20, 1e-9, 1), 2),
    ], ids=["transform", "covariant_derivative"])
    def test_evaluator_calls(self, monkeypatch, check, calls):
        made = []

        def counted(*args, **kwargs):
            made.append(args)
            return ex.evaluate_many(*args, **kwargs)

        monkeypatch.setattr(geometry, "evaluate_many", counted)
        check(CHARTS["spherical"])
        assert len(made) == calls

    def test_chart_compiles_its_tape_once(self, monkeypatch):
        built, build = [], ex._build_tape
        # counted without holding the root, which would keep its tape alive
        monkeypatch.setattr(ex, "_build_tape",
                            lambda root: built.append(1) or build(root))
        chart = CHARTS["spherical"]
        pts = chart.sample(20, 1)
        for _ in range(3):
            chart.at(pts)
        # none when an earlier test already compiled it
        assert len(built) <= 1


class TestCovariantDerivative:
    def test_covariant_passes_partial_fails_on_curved_chart(self):
        phi = ex.parse_field_expr("dot(x, x) + sin(comp(x, 1))")
        for name in ("spherical", "cylindrical"):
            out = check_covariant_derivative(phi, CHARTS[name], 50, 1e-9,
                                             DEFAULT_SEED)
            assert out["covariant"].passed
            assert out["covariant"].residual < 1e-9
            assert not out["partial"].passed
            assert out["partial"].residual - out["covariant"].residual > 1e-3

    @pytest.mark.parametrize("field", ["power(-8, 0.5)",
                                       "dot(x, x) + power(-8, 0.5)"])
    def test_a_field_that_cannot_be_evaluated_is_an_error(self, tmp_path,
                                                          field):
        # its gradient alone is zero and evaluates: the field must be
        # evaluated for the domain error to show
        doc = json.loads(SCENARIO.with_name(
            "covariant_derivative_spherical.json").read_text())
        doc["payload"]["field"] = field
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        got, code = report.run_scenario(path, None, None)
        assert code == 3 and got["error_kind"] == "execution"
        assert "domain error" in got["error"]

    def test_both_pass_on_identity_chart(self):
        phi = ex.parse_field_expr("dot(x, x)")
        out = check_covariant_derivative(phi, CHARTS["identity"], 50,
                                         1e-9, DEFAULT_SEED)
        assert out["covariant"].passed and out["partial"].passed


class TestGeometricSuite:
    def test_all_cases_behave_as_stated(self):
        expect = json.loads(SCENARIO.read_text())["expect"]
        parts = geometric_invariance_suite(100, 1e-10, DEFAULT_SEED)
        assert set(parts) == set(expect)
        assert all(meets(parts[case], want) for case, want in expect.items())

    def test_expected_case_table(self):
        expected = {
            "curvilinear_point": False,
            "curvilinear_differential": True,
            "time_dependent_3d_differential": False,
            "time_dependent_3d_defect_identity": True,
            "four_d_velocity_tensor": True,
        }
        parts = geometric_invariance_suite(100, 1e-10, DEFAULT_SEED)
        assert set(parts) == set(expected)
        for name, invariant in expected.items():
            assert parts[name].passed == invariant
        assert json.loads(SCENARIO.read_text())["expect"] == expected

    def test_four_d_velocity_tensor_tolerance(self):
        parts = geometric_invariance_suite(100, 1e-10, DEFAULT_SEED)
        assert parts["four_d_velocity_tensor"].residual < 1e-10

    def test_non_invariant_cases_fail_loudly(self):
        parts = geometric_invariance_suite(100, 1e-10, DEFAULT_SEED)
        for name in FRAME_DEPENDENT:
            assert parts[name].residual > 1e-3

    def test_report_parts_are_the_verdicts(self):
        # a part is false exactly where the case is frame-dependent, and
        # the expectation lives in the scenario, not in the part
        got, code = report.run_scenario(SCENARIO, None, None,
                                        no_timestamp=True)
        assert code == 0 and got["expectation_met"]
        assert tuple(sorted(case for case, ok in got["parts"].items()
                            if not ok)) == FRAME_DEPENDENT
        assert set(got["details"]["witness"]) == set(got["parts"])
        assert got["details"]["notes"] == {}
