import numpy as np
import pytest
import scipy.stats

from condreg import (
    Dataset,
    FittedModel,
    ModelSpec,
    Term,
    boundary,
    classify_action,
    ellipse,
    fit,
)
from condreg.defaults import MAX_PLOT_POINTS
from condreg.errors import (
    AssignmentError,
    DegenerateColumnError,
    DegenerateEllipseError,
    InsufficientDataError,
    ModelError,
    ScopeError,
)

CROSS_SPEC = ModelSpec(
    "Y", (Term.linear("f1"), Term.linear("f2"), Term.cross("f1", "f2"))
)


def published(coef):
    return FittedModel.from_coefficients(CROSS_SPEC, coef)


class TestEllipse:
    def test_threshold_against_quantile_oracle(self, rng):
        d = Dataset({"a": rng.normal(size=50), "b": rng.normal(size=50)})
        e = ellipse(d, "a", "b", 0.95)
        assert e.threshold == pytest.approx(5.991, abs=0.001)
        assert e.threshold == pytest.approx(float(scipy.stats.chi2.ppf(0.95, 2)), abs=1e-6)

    def test_uncorrelated_columns_give_diagonal_shape(self, rng):
        a = rng.normal(size=200)
        raw = rng.normal(size=200)
        # orthogonalize against a (and the mean) so the sample covariance
        # is exactly diagonal
        ac = a - a.mean()
        b = raw - raw.mean() - (raw @ ac / (ac @ ac)) * ac
        e = ellipse(Dataset({"a": a, "b": b}), "a", "b", 0.9)
        assert abs(e.shape[0, 1]) < 1e-10

    def test_elongation_grows_with_correlation(self, rng):
        def axis_ratio(r):
            z1 = rng.normal(size=4000)
            z2 = rng.normal(size=4000)
            x = z1
            y = r * z1 + np.sqrt(1 - r * r) * z2
            e = ellipse(Dataset({"x": x, "y": y}), "x", "y", 0.95)
            eig = np.linalg.eigvalsh(e.shape)
            return eig[1] / eig[0]

        assert axis_ratio(0.9) > axis_ratio(0.729) > axis_ratio(0.2)

    def test_perfectly_correlated_pair_degenerate(self, rng):
        x = rng.normal(size=20)
        with pytest.raises(DegenerateEllipseError):
            ellipse(Dataset({"x": x, "y": 2.0 * x + 1.0}), "x", "y", 0.95)

    def test_every_exactly_linear_pair_is_degenerate(self):
        # y = a x + b rounds each y, and centring and the Gram sums round
        # too, so about 4 in 10 of these determinants come out above 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=int(rng.integers(3, 201)))
            for a, b in [(2.0, 1.0), (-3.0, 0.5), (0.1, 7.0)]:
                with pytest.raises(DegenerateEllipseError, match="perfectly correlated"):
                    ellipse(Dataset({"x": x, "y": a * x + b}), "x", "y", 0.95)

    @pytest.mark.parametrize("n", [3, 50, 100_000])
    def test_nearly_linear_pair_keeps_its_ellipse(self, rng, n):
        r = 0.999999
        x, z = rng.normal(size=(2, n))
        x -= x.mean()
        z -= z.mean()
        z -= (z @ x) / (x @ x) * x
        x, z = x / np.linalg.norm(x), z / np.linalg.norm(z)
        e = ellipse(Dataset({"x": x, "y": r * x + np.sqrt(1.0 - r * r) * z}), "x", "y", 0.95)
        assert e.shape[0, 1] / np.sqrt(e.shape[0, 0] * e.shape[1, 1]) == pytest.approx(r, abs=1e-12)

    def test_center_and_shape_match_numpy(self, rng):
        a = rng.normal(size=40) + 7.0
        b = 0.4 * a + rng.normal(size=40)
        e = ellipse(Dataset({"a": a, "b": b}), "a", "b", 0.95)
        np.testing.assert_allclose(e.center, [a.mean(), b.mean()], rtol=1e-15)
        np.testing.assert_allclose(e.shape, np.cov(a, b), rtol=1e-13)

    @pytest.mark.parametrize("value", [0.1, 1.0])
    def test_constant_column_is_a_degenerate_column(self, rng, value):
        d = Dataset({"x": rng.normal(size=7), "k": np.full(7, value)})
        for pair in (("x", "k"), ("k", "x")):
            with pytest.raises(DegenerateColumnError, match="column 'k' has zero variance"):
                ellipse(d, *pair, 0.95)

    def test_covariance_within_range_does_not_overflow_on_the_way(self, rng):
        # the unscaled products (about 1e306 each) would overflow their sum
        a, b = rng.normal(size=(2, 2000))
        b += 0.5 * a
        e = ellipse(Dataset({"a": 1e153 * a, "b": 1e153 * b}), "a", "b", 0.95)
        np.testing.assert_allclose(e.shape, 1e306 * np.cov(a, b), rtol=1e-13)

    def test_needs_three_points(self):
        d = Dataset({"x": [1.0, 2.0], "y": [0.0, 1.0]})
        with pytest.raises(InsufficientDataError):
            ellipse(d, "x", "y", 0.95)

    def test_boundary_points_lie_on_threshold(self, rng):
        x = rng.normal(size=100)
        y = 0.6 * x + rng.normal(size=100)
        e = ellipse(Dataset({"x": x, "y": y}), "x", "y", 0.75)
        pts = boundary(e, 360)
        assert pts.shape == (360, 2)
        for point in pts[::30]:
            assert e.mahalanobis_sq(point) == pytest.approx(e.threshold, rel=1e-9)

    @pytest.mark.parametrize("points", [0, -3])
    def test_boundary_needs_a_point(self, rng, points):
        e = ellipse(Dataset({"x": rng.normal(size=20), "y": rng.normal(size=20)}), "x", "y", 0.95)
        with pytest.raises(DegenerateEllipseError, match="at least 1 point"):
            boundary(e, points)

    def test_boundary_points_are_capped(self, rng):
        e = ellipse(Dataset({"x": rng.normal(size=20), "y": rng.normal(size=20)}), "x", "y", 0.95)
        assert boundary(e, MAX_PLOT_POINTS).shape == (MAX_PLOT_POINTS, 2)
        with pytest.raises(DegenerateEllipseError, match=f"at most {MAX_PLOT_POINTS} points, got 10"):
            boundary(e, 10**15)


class TestClassifyPoint:
    """A point is inside the ellipse (interpolation) iff
    ``e.mahalanobis_sq(point) <= e.threshold``."""

    def test_center_inside_for_every_level(self, rng):
        d = Dataset({"x": rng.normal(size=30), "y": rng.normal(size=30)})
        for level in (0.5, 0.75, 0.95, 0.999):
            e = ellipse(d, "x", "y", level)
            assert e.mahalanobis_sq(e.center) <= e.threshold

    def test_point_just_past_threshold_along_principal_axis(self, rng):
        x = rng.normal(size=80)
        y = 0.5 * x + rng.normal(size=80)
        e = ellipse(Dataset({"x": x, "y": y}), "x", "y", 0.95)
        # eigen-decomposition oracle: walk out the major axis exactly to
        # the boundary, then nudge past it
        eigvals, eigvecs = np.linalg.eigh(e.shape)
        direction = eigvecs[:, -1]
        reach = np.sqrt(e.threshold * eigvals[-1])
        assert e.mahalanobis_sq(e.center + 0.999 * reach * direction) <= e.threshold
        assert e.mahalanobis_sq(e.center + 1.001 * reach * direction) > e.threshold

    def test_unobserved_combination_is_extrapolation(self, rng):
        # strong positive correlation: low-x1 with high-x2 never occurs
        z = rng.normal(size=200)
        x1 = 1.0 + 0.3 * z + 0.1 * rng.normal(size=200)
        x2 = 1.2 + 0.5 * z + 0.15 * rng.normal(size=200)
        d = Dataset({"x1": x1, "x2": x2})
        e = ellipse(d, "x1", "x2", 0.95)
        low_x1, high_x2 = x1.min(), x2.max()
        assert e.mahalanobis_sq((low_x1, high_x2)) > e.threshold

    def test_coverage_fraction_matches_level(self):
        rng = np.random.default_rng(424242)
        n = 10_000
        z1 = rng.normal(size=n)
        z2 = rng.normal(size=n)
        x = 2.0 + z1
        y = -1.0 + 0.729 * z1 + np.sqrt(1 - 0.729**2) * z2
        d = Dataset({"x": x, "y": y})
        e = ellipse(d, "x", "y", 0.95)
        pts = np.column_stack([x, y])
        delta = pts - e.center
        inv = np.linalg.inv(e.shape)
        d2 = np.einsum("ij,jk,ik->i", delta, inv, delta)
        fraction = float((d2 <= e.threshold).mean())
        assert fraction == pytest.approx(0.95, abs=0.02)

    def test_affine_invariance(self, rng):
        x = rng.normal(size=60)
        y = 0.4 * x + rng.normal(size=60)
        d = Dataset({"x": x, "y": y})
        e = ellipse(d, "x", "y", 0.9)
        A = np.array([[2.0, 0.7], [-0.3, 1.4]])
        shift = np.array([5.0, -2.0])
        transformed = np.column_stack([x, y]) @ A.T + shift
        dt = Dataset({"x": transformed[:, 0], "y": transformed[:, 1]})
        et = ellipse(dt, "x", "y", 0.9)
        probes = np.column_stack([x, y])[::7] * 1.7 + 0.3
        for point in probes:
            inside = e.mahalanobis_sq(point) <= e.threshold
            assert inside == (et.mahalanobis_sq(A @ point + shift) <= et.threshold)


class TestClassifyAction:
    def test_antagonism_pattern(self):
        model = published([693.0, -4.70, 4.49, 43.92])
        result = classify_action(model, "f1", "f2")
        assert result.label == "antagonism"
        assert result.effect_1 < 0 and result.effect_2 < 0
        assert result.cross_coef > 0
        assert abs(result.joint_effect) < 5.0

    def test_less_than_additive_pattern(self):
        model = published([204.0, 1674.0, 36.0, -413.0])
        result = classify_action(model, "f1", "f2")
        assert result.label == "less-than-additive"

    def test_greater_than_additive_pattern(self):
        model = published([0.0, 1.0, 1.0, 0.4])
        result = classify_action(model, "f1", "f2")
        assert result.label == "greater-than-additive"

    def test_insignificant_cross_is_additive(self):
        rng = np.random.default_rng(555)
        f1 = rng.normal(size=200)
        f2 = rng.normal(size=200)
        y = 1.0 + 2.0 * f1 - 1.0 * f2 + rng.normal(size=200)
        d = Dataset({"Y": y, "f1": f1, "f2": f2})
        m = fit(d, CROSS_SPEC)
        cross_p = float(m.p[m.term_index(Term.cross("f1", "f2"))])
        assert cross_p > 0.05  # seed chosen so the gate is exercised
        assert classify_action(m, "f1", "f2", alpha=0.05).label == "additive"

    def test_no_single_factor_effect_is_additive(self):
        # b1 = b2 = b12 cancels both isolated effects at the coded levels,
        # so only the joint corner moves
        result = classify_action(published([0.0, 1.0, 1.0, 1.0]), "f1", "f2")
        assert result.effect_1 == result.effect_2 == 0.0
        assert result.joint_effect == 4.0
        assert result.label == "additive"

    @pytest.mark.parametrize(
        "coef, effects, label",
        [
            ([0.0, 3.0, -1.0, 0.5], (5.0, -3.0), "greater-than-additive"),
            ([0.0, 1.0, -3.0, 0.5], (1.0, -7.0), "less-than-additive"),
        ],
    )
    def test_opposite_effects_take_the_larger_ones_direction(self, coef, effects, label):
        # the same cross term (gap +2) reinforces the larger effect when it
        # is positive and opposes it when it is negative
        result = classify_action(published(coef), "f1", "f2")
        assert (result.effect_1, result.effect_2) == effects
        assert result.label == label

    def test_missing_cross_term_is_scope_error(self):
        spec = ModelSpec("Y", (Term.linear("f1"), Term.linear("f2")))
        m = FittedModel.from_coefficients(spec, [0.0, 1.0, 1.0])
        with pytest.raises(ScopeError):
            classify_action(m, "f1", "f2")

    def test_extra_predictors_need_fixing(self):
        spec = ModelSpec(
            "Y",
            (
                Term.linear("f1"),
                Term.linear("f2"),
                Term.linear("z"),
                Term.cross("f1", "f2"),
            ),
        )
        m = FittedModel.from_coefficients(spec, [0.0, 1.0, 1.0, 2.0, 0.4])
        with pytest.raises(AssignmentError):
            classify_action(m, "f1", "f2")
        result = classify_action(m, "f1", "f2", fixed={"z": 0.0})
        assert result.label == "greater-than-additive"

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, float("nan")])
    def test_alpha_outside_unit_interval_is_refused(self, alpha):
        with pytest.raises(ModelError, match=r"alpha must lie in \(0, 1\)"):
            classify_action(published([0.0, 1.0, 1.0, 0.4]), "f1", "f2", alpha=alpha)

    @pytest.mark.parametrize("tolerance", [-0.01, float("nan")])
    def test_negative_or_nan_control_tolerance_is_refused(self, tolerance):
        with pytest.raises(ModelError, match="control tolerance must be >= 0"):
            classify_action(
                published([693.0, -4.70, 4.49, 43.92]), "f1", "f2", control_tolerance=tolerance
            )

    @pytest.mark.parametrize("pair", [(float("nan"), 1.0), (-1.0, float("inf"))])
    def test_non_finite_levels_are_refused(self, pair):
        with pytest.raises(AssignmentError, match="levels of 'f2' must be finite numbers"):
            classify_action(published([0.0, 1.0, 1.0, 0.4]), "f1", "f2", levels={"f2": pair})

    def test_levels_of_a_name_that_is_no_factor_are_refused(self):
        with pytest.raises(AssignmentError, match=r"level assignment has superfluous entries: \['x9'\]"):
            classify_action(published([0.0, 1.0, 1.0, 0.4]), "f1", "f2", levels={"x9": (0.0, 1.0)})

    def test_equal_low_and_high_levels_are_refused(self):
        with pytest.raises(AssignmentError, match=r"levels of 'f1' must differ, got \[1.0, 1.0\]"):
            classify_action(published([693.0, -4.70, 4.49, 43.92]), "f1", "f2", levels={"f1": (1.0, 1.0)})

    def test_custom_levels(self):
        model = published([693.0, -4.70, 4.49, 43.92])
        # shrinking the evaluation range toward zero keeps the pattern
        result = classify_action(
            model, "f1", "f2", levels={"f1": (-0.5, 0.5), "f2": (-0.5, 0.5)}
        )
        assert result.label in ("antagonism", "less-than-additive")

    def test_label_invariant_under_response_rescaling(self):
        base = published([693.0, -4.70, 4.49, 43.92])
        scaled = published([c * 12.5 for c in [693.0, -4.70, 4.49, 43.92]])
        assert (
            classify_action(base, "f1", "f2").label
            == classify_action(scaled, "f1", "f2").label
        )

    def test_raw_doses_with_levels_match_coded_doses(self):
        # a replicated 2x2 design read on raw doses through ``levels``
        # gives the reading of the same data coded to -1/+1
        rng = np.random.default_rng(20200219)
        ranges = {"f1": (0.0, 0.05), "f2": (0.0, 2.0)}
        means = {(0, 0): 737.0, (1, 0): 640.0, (0, 1): 658.0, (1, 1): 737.0}
        cells = [cell for cell in means for _ in range(3)]
        raw = {
            name: np.array([ranges[name][cell[k]] for cell in cells])
            for k, name in enumerate(("f1", "f2"))
        }
        y = np.array([means[cell] for cell in cells]) + rng.normal(scale=5.0, size=len(cells))
        coded = {
            name: 2.0 * (raw[name] - lo) / (hi - lo) - 1.0 for name, (lo, hi) in ranges.items()
        }
        on_raw = classify_action(
            fit(Dataset({"Y": y, **raw}), CROSS_SPEC), "f1", "f2", levels=ranges
        )
        on_coded = classify_action(fit(Dataset({"Y": y, **coded}), CROSS_SPEC), "f1", "f2")
        assert on_raw.label == on_coded.label
        for field in ("effect_1", "effect_2", "joint_effect", "cross_p"):
            assert getattr(on_raw, field) == pytest.approx(getattr(on_coded, field), rel=1e-9)
        half_ranges = [(hi - lo) / 2.0 for lo, hi in ranges.values()]
        assert on_raw.cross_coef * half_ranges[0] * half_ranges[1] == pytest.approx(
            on_coded.cross_coef, rel=1e-9
        )
