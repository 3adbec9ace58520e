import io

import numpy as np
import pytest

from condreg import dataset, stats
from condreg import (
    Dataset,
    centered_moments,
    correlation_p_value,
    load_csv,
    pearson_matrix,
    quartiles,
    resolve_assignment,
)
from condreg.errors import (
    CsvParseError,
    DegenerateColumnError,
    EmptyDataError,
    InsufficientDataError,
    NonFiniteDataError,
    SchemaError,
    UnknownColumnError,
)


class TestDatasetConstruction:
    def test_basic(self):
        d = Dataset({"y": [1.0, 3.0], "x": [2.0, 4.0]})
        assert d.n == 2
        assert d.names == ["y", "x"]
        np.testing.assert_allclose(d.column("x"), [2.0, 4.0])

    def test_columns_are_read_only(self):
        d = Dataset({"y": [1.0, 2.0]})
        with pytest.raises(ValueError):
            d.column("y")[0] = 9.9

    def test_rejects_length_mismatch(self):
        with pytest.raises(SchemaError):
            Dataset({"a": [1.0, 2.0], "b": [1.0]})

    def test_rejects_duplicate_names(self):
        with pytest.raises(SchemaError):
            Dataset([("a", [1.0]), ("a", [2.0])])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteDataError):
            Dataset({"a": [1.0, float("nan")]})
        with pytest.raises(NonFiniteDataError):
            Dataset({"a": [1.0, float("inf")]})

    def test_rejects_empty(self):
        with pytest.raises(EmptyDataError):
            Dataset({})
        with pytest.raises(EmptyDataError):
            Dataset({"a": []})

    def test_unknown_column(self):
        d = Dataset({"a": [1.0]})
        with pytest.raises(UnknownColumnError):
            d.column("b")


class TestLoadCsv:
    def test_three_line_csv(self):
        d, dropped = load_csv(b"y,x\n1,2\n3,4")
        assert d.n == 2
        assert dropped == 0
        np.testing.assert_allclose(d.column("y"), [1.0, 3.0])
        np.testing.assert_allclose(d.column("x"), [2.0, 4.0])

    def test_single_bad_row_leaves_nothing(self):
        with pytest.raises(EmptyDataError) as err:
            load_csv(b"y,x\n1,NA")
        assert "1 dropped" in str(err.value)

    def test_drops_and_counts_bad_rows(self):
        d, dropped = load_csv(b"y,x\n1,2\n,3\n4,oops\n5,6\nnan,7\n")
        assert d.n == 2
        assert dropped == 3

    def test_example_shaped_file(self):
        # 19 rows, morbidity plus 12 pollutant columns
        rng = np.random.default_rng(19)
        names = ["Y"] + [f"p{i}" for i in range(1, 13)]
        lines = [",".join(names)]
        for _ in range(19):
            lines.append(",".join(f"{v:.4f}" for v in rng.uniform(0.1, 3.0, size=13)))
        d, dropped = load_csv("\n".join(lines).encode())
        assert d.n == 19
        assert len(d.names) == 13
        assert dropped == 0

    def test_duplicate_header(self):
        with pytest.raises(SchemaError):
            load_csv(b"y,y\n1,2\n")

    def test_ragged_row_is_structural(self):
        with pytest.raises(CsvParseError) as err:
            load_csv(b"y,x\n1,2\n3\n")
        assert err.value.line == 3

    def test_unclosed_quote_reports_line(self):
        with pytest.raises(CsvParseError):
            load_csv(b'y,x\n"1,2\n')

    def test_headerless_mode(self):
        d, _ = load_csv(b"1,2\n3,4\n", header=False)
        assert d.names == ["x1", "x2"]
        assert d.n == 2

    def test_custom_delimiter(self):
        d, _ = load_csv(b"y;x\n1;2\n", delimiter=";")
        assert d.names == ["y", "x"]

    def test_accepts_text_stream(self):
        d, _ = load_csv(io.StringIO("y\n1\n2\n"))
        assert d.n == 2


class TestPearson:
    def test_table_values(self):
        assert correlation_p_value(0.578, 19) == pytest.approx(0.010, abs=0.001)
        assert correlation_p_value(0.121, 19) == pytest.approx(0.622, abs=0.002)

    def test_matrix_shape_and_diagonal(self, rng):
        d = Dataset({k: rng.normal(size=12) for k in ("a", "b", "c")})
        rep = pearson_matrix(d)
        assert rep.names == ("a", "b", "c")
        np.testing.assert_allclose(np.diag(rep.r), 1.0)
        np.testing.assert_allclose(np.diag(rep.p), 1.0)
        np.testing.assert_allclose(rep.r, rep.r.T)
        np.testing.assert_allclose(rep.p, rep.p.T)
        assert np.all((rep.p > 0.0) & (rep.p <= 1.0))

    def test_matches_scipy(self, rng):
        import scipy.stats

        a = rng.normal(size=25)
        b = a * 0.5 + rng.normal(size=25)
        d = Dataset({"a": a, "b": b})
        rep = pearson_matrix(d)
        ref = scipy.stats.pearsonr(a, b)
        assert rep.r[0, 1] == pytest.approx(ref.statistic, rel=1e-12)
        assert rep.p[0, 1] == pytest.approx(ref.pvalue, rel=1e-9)

    def test_row_permutation_invariance(self, rng):
        data = rng.normal(size=(15, 2))
        perm = rng.permutation(15)
        d1 = Dataset({"a": data[:, 0], "b": data[:, 1]})
        d2 = Dataset({"a": data[perm, 0], "b": data[perm, 1]})
        np.testing.assert_allclose(
            pearson_matrix(d1).r, pearson_matrix(d2).r, atol=1e-12
        )

    def test_affine_rescaling(self, rng):
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        base = pearson_matrix(Dataset({"a": a, "b": b}))
        scaled = pearson_matrix(Dataset({"a": 3.0 * a + 7.0, "b": b}))
        np.testing.assert_allclose(scaled.r, base.r, atol=1e-12)
        flipped = pearson_matrix(Dataset({"a": -2.0 * a + 1.0, "b": b}))
        assert flipped.r[0, 1] == pytest.approx(-base.r[0, 1], rel=1e-12)
        assert flipped.p[0, 1] == pytest.approx(base.p[0, 1], rel=1e-12)

    def test_p_strictly_decreasing_in_abs_r(self):
        values = [correlation_p_value(r, 19) for r in np.linspace(0.0, 0.99, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_p_is_one_tail_call_over_the_upper_triangle(self, rng, monkeypatch):
        """Perf guard: 40 columns, 780 pairs, one Student t tail call."""
        d = Dataset({f"c{i}": rng.normal(size=50) for i in range(40)})
        report = pearson_matrix(d)
        calls = []

        def counted(t, dof):
            calls.append((np.shape(t), dof))
            return stats.student_t_two_sided_p(t, dof)

        monkeypatch.setattr(dataset, "student_t_two_sided_p", counted)
        p = report.p
        assert calls == [((780,), 48)]
        monkeypatch.undo()
        # every 13th pair against a one-element call, bit for bit
        pairs = tuple(index[::13] for index in np.triu_indices(40, 1))
        singles = [correlation_p_value(float(r), d.n) for r in report.r[pairs]]
        assert (p[pairs].view(np.int64) == np.array(singles).view(np.int64)).all()
        np.testing.assert_array_equal(p, p.T)
        np.testing.assert_array_equal(np.diag(p), 1.0)

    def test_p_value_of_an_array_of_r(self):
        r = np.array([[0.0, 0.3, -0.999], [1.0, -1.0, 1e-12]])
        p = correlation_p_value(r, 12)
        assert p.shape == (2, 3)
        assert p.tolist() == [[correlation_p_value(float(v), 12) for v in row] for row in r]
        assert p[1, 0] == p[1, 1] == 5e-324
        assert type(correlation_p_value(np.float64(0.3), 12)) is float
        assert correlation_p_value(np.array([]), 12).shape == (0,)

    @pytest.mark.parametrize("bad", [1.5, -1.0000001, np.nan])
    def test_p_value_rejects_r_outside_the_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"correlation must lie in \[-1, 1\], got"):
            correlation_p_value(np.array([0.1, bad, 0.2]), 12)
        with pytest.raises(ValueError, match=rf"got {bad}$"):
            correlation_p_value(bad, 12)

    def test_zero_variance_column(self):
        d = Dataset({"a": [1.0, 1.0, 1.0], "b": [1.0, 2.0, 3.0]})
        with pytest.raises(DegenerateColumnError) as err:
            pearson_matrix(d)
        assert "'a'" in str(err.value)

    def test_needs_three_rows(self):
        d = Dataset({"a": [1.0, 2.0], "b": [2.0, 1.0]})
        with pytest.raises(InsufficientDataError):
            pearson_matrix(d)


class TestCenteredMoments:
    def test_slopes_and_correlations_match_oracles(self, rng):
        data = rng.normal(size=(30, 3)) @ (np.eye(3) + 0.5 * rng.normal(size=(3, 3)))
        d = Dataset({name: data[:, j] for j, name in enumerate("abc")})
        r, norms = centered_moments(d, ["a", "b", "c"])
        np.testing.assert_allclose(r, np.corrcoef(data, rowvar=False), rtol=1e-12)
        centered = data - data.mean(axis=0)
        np.testing.assert_allclose(norms, np.sqrt((centered**2).sum(axis=0)), rtol=1e-13)
        for i in range(3):
            for j in range(3):
                slope = np.polyfit(data[:, j], data[:, i], 1)[0]
                assert r[i, j] * norms[i] / norms[j] == pytest.approx(slope, rel=1e-10)

    def test_power_of_two_scaling_is_exact(self, rng):
        a, b = rng.normal(size=(2, 20))
        r, norms = centered_moments(Dataset({"a": a, "b": b}), ["a", "b"])
        for k in (-600, -3, 5, 600):
            scaled = Dataset({"a": np.ldexp(a, k), "b": b})
            r_k, norms_k = centered_moments(scaled, ["a", "b"])
            assert np.array_equal(r_k, r)
            assert np.array_equal(norms_k, [np.ldexp(norms[0], k), norms[1]])

    def test_zero_variance_names_the_column(self):
        d = Dataset({"a": [1.0, 2.0, 4.0], "k": [3.0, 3.0, 3.0]})
        with pytest.raises(DegenerateColumnError, match="column 'k' has zero variance"):
            centered_moments(d, ["a", "k"])


class TestQuartiles:
    def test_symmetric_sequence(self):
        q = quartiles(Dataset({"a": [1, 2, 3, 4, 5]}))["a"]
        assert (q.min, q.q25, q.mean, q.q75, q.max) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_constant_column(self):
        q = quartiles(Dataset({"a": [7.0, 7.0, 7.0]}))["a"]
        assert (q.min, q.q25, q.mean, q.q75, q.max) == (7.0,) * 5

    def test_round_trip_through_target_order_statistics(self):
        # with 5 points the type-7 quartiles land exactly on the 2nd and
        # 4th order statistics, so a column built from target summary
        # values reproduces them
        column = [39.3, 57.8, 63.8, 69.3, 80.7]
        q = quartiles(Dataset({"x1": column}))["x1"]
        assert q.min == pytest.approx(39.3)
        assert q.q25 == pytest.approx(57.8)
        assert q.q75 == pytest.approx(69.3)
        assert q.max == pytest.approx(80.7)

    def test_reverse_invariance(self, rng):
        col = rng.normal(size=17)
        q_fwd = quartiles(Dataset({"a": col}))["a"]
        q_rev = quartiles(Dataset({"a": col[::-1]}))["a"]
        assert q_fwd.q25 == pytest.approx(q_rev.q25, rel=1e-12)
        assert q_fwd.q75 == pytest.approx(q_rev.q75, rel=1e-12)

    def test_ordering_invariant(self, rng):
        col = rng.normal(size=30)
        q = quartiles(Dataset({"a": col}))["a"]
        assert q.min <= q.q25 <= q.q75 <= q.max
        assert q.min <= q.mean <= q.max

    def test_preset_lookup(self):
        summary = quartiles(Dataset({"a": [1, 2, 3, 4, 5]}))
        assert resolve_assignment({"a": "q25"}, summary) == {"a": 2.0}
        with pytest.raises(UnknownColumnError):
            resolve_assignment({"zz": "mean"}, summary)


class TestColumnStats:
    def test_two_point_formula(self):
        s = quartiles(Dataset({"a": [2.0, 4.0]}))["a"]
        assert s.mean == 3.0
        assert s.variance == 2.0

    def test_singleton_flagged(self):
        s = quartiles(Dataset({"a": [5.0]}))["a"]
        assert s.mean == 5.0
        assert s.variance == 0.0

    def test_closed_form_oracle(self):
        # 1..n: mean (n+1)/2, sample variance n(n+1)/12
        s = quartiles(Dataset({"a": np.arange(1.0, 101.0)}))["a"]
        assert s.mean == pytest.approx(50.5, rel=1e-14)
        assert s.variance == pytest.approx(100 * 101 / 12.0, rel=1e-14)

    def test_permutation_invariance(self, rng):
        col = rng.normal(size=23)
        s1 = quartiles(Dataset({"a": col}))["a"]
        s2 = quartiles(Dataset({"a": rng.permutation(col)}))["a"]
        assert s1.mean == pytest.approx(s2.mean, rel=1e-12)
        assert s1.variance == pytest.approx(s2.variance, rel=1e-12)
