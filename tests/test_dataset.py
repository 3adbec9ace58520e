import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condreg import dataset, geometry, stats
from condreg.defaults import ROW_BLOCK_BYTES
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

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 3000),
        exponents=st.lists(st.integers(-300, 300), min_size=1, max_size=6),
    )
    def test_bit_identical_to_the_elementwise_expressions(self, seed, n, exponents):
        """The largest magnitude as max(max, -min) and the squared norms as
        squares in place give the bits of abs(c).max() and (c**2).sum()."""
        rng = np.random.default_rng(seed)
        scales = 10.0 ** np.array(exponents, dtype=float)
        data = (rng.standard_normal((n, len(exponents))) + rng.uniform(-3.0, 3.0, len(exponents))) * scales
        names = [f"c{j}" for j in range(len(exponents))]
        d = Dataset({name: data[:, j] for j, name in enumerate(names)})
        centered = data.copy()
        exps = np.frexp(np.abs(centered).max(axis=0))[1]
        np.ldexp(centered, -exps, out=centered)
        centered -= centered.mean(axis=0)
        scaled_norms = np.sqrt((centered**2).sum(axis=0))
        expected = np.clip((centered.T @ centered) / np.outer(scaled_norms, scaled_norms), -1.0, 1.0)
        np.fill_diagonal(expected, 1.0)
        r, norms = centered_moments(d, names)
        assert r.tobytes() == expected.tobytes()
        assert norms.tobytes() == np.ldexp(scaled_norms, exps).tobytes()

    def test_zero_variance_names_the_column(self):
        d = Dataset({"a": [1.0, 2.0, 4.0], "k": [3.0, 3.0, 3.0]})
        with pytest.raises(DegenerateColumnError, match="column 'k' has zero variance"):
            centered_moments(d, ["a", "k"])

    def test_a_norm_past_the_double_range_is_inf_without_a_warning(self):
        """r is scale free and stays exact; only the norm leaves the range."""
        d = Dataset({"a": [1e308, -1e308, 1e308, -1e308], "b": [1.0, -1.0, 1.0, -1.0]})
        r, norms = centered_moments(d, ["a", "b"])
        np.testing.assert_array_equal(r, np.ones((2, 2)))
        assert norms.tolist() == [np.inf, 2.0]


def _stacked_moments(d, names):
    """centered_moments as it was when it stacked all n rows of the columns."""
    centered = np.column_stack([d.column(name) for name in names])
    exponents = np.frexp(np.maximum(centered.max(axis=0), -centered.min(axis=0)))[1]
    np.ldexp(centered, -exponents, out=centered)
    centered -= centered.mean(axis=0)
    gram = centered.T @ centered
    scaled_norms = np.sqrt(np.square(centered, out=centered).sum(axis=0))
    r = np.clip(gram / np.outer(scaled_norms, scaled_norms), -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r, np.ldexp(scaled_norms, exponents)


def _chunk_rows(k):
    return ROW_BLOCK_BYTES // (8 * k)


class TestChunkedMoments:
    """centered_moments accumulates over row chunks of ROW_BLOCK_BYTES."""

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_one_chunk_is_bit_identical_to_the_stack(self, rng, k):
        for n in (2, 37, _chunk_rows(k)):
            data = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-5, 6, k) + rng.uniform(-3, 3, k)
            names = [f"c{j}" for j in range(k)]
            d = Dataset({name: data[:, j] for j, name in enumerate(names)})
            r, norms = centered_moments(d, names)
            expected_r, expected_norms = _stacked_moments(d, names)
            assert r.tobytes() == expected_r.tobytes()
            assert norms.tobytes() == expected_norms.tobytes()

    @pytest.mark.parametrize("k", [2, 5])
    def test_several_chunks_match_corrcoef(self, rng, k):
        n = 2 * _chunk_rows(k) + 1237
        data = rng.normal(size=(n, k)) @ (np.eye(k) + 0.6 * rng.normal(size=(k, k))) + 50.0
        names = [f"c{j}" for j in range(k)]
        r, norms = centered_moments(Dataset({name: data[:, j] for j, name in enumerate(names)}), names)
        np.testing.assert_allclose(r, np.corrcoef(data, rowvar=False), rtol=0, atol=1e-13)
        centered = data - data.mean(axis=0)
        np.testing.assert_allclose(norms, np.sqrt((centered**2).sum(axis=0)), rtol=1e-13)

    def test_zero_variance_across_chunks_names_the_column(self, rng):
        n = 3 * _chunk_rows(3) + 5
        d = Dataset({"a": rng.normal(size=n), "k": np.full(n, 3.5), "b": rng.normal(size=n)})
        with pytest.raises(DegenerateColumnError, match="column 'k' has zero variance"):
            centered_moments(d, ["a", "k", "b"])

    def test_huge_columns_do_not_overflow_across_chunks(self, rng):
        n = 2 * _chunk_rows(2) + 999
        a, b = rng.normal(size=(2, n))
        b += 0.5 * a
        r, norms = centered_moments(Dataset({"a": a, "b": b}), ["a", "b"])
        with np.errstate(over="raise"):
            r_big, norms_big = centered_moments(Dataset({"a": 1e300 * a, "b": -1e300 * b}), ["a", "b"])
        assert np.isfinite(r_big).all() and np.isfinite(norms_big).all()
        assert r_big[0, 1] == pytest.approx(-r[0, 1], rel=1e-14)
        np.testing.assert_allclose(norms_big, 1e300 * norms, rtol=1e-14)


class TestMomentsEngine:
    """One engine gives every centred moment and decides constancy."""

    def test_every_moment_reader_reaches_the_engine(self, monkeypatch, rng):
        engine, calls = dataset._moments, []

        def counted(d, names, **kwargs):
            calls.append(tuple(names))
            return engine(d, names, **kwargs)

        def no_cov(*args, **kwargs):
            raise AssertionError("numpy.cov called")

        monkeypatch.setattr(dataset, "_moments", counted)
        monkeypatch.setattr(geometry, "_moments", counted)
        monkeypatch.setattr(np, "cov", no_cov)
        d = Dataset({"a": rng.normal(size=20), "b": rng.normal(size=20)})
        pearson_matrix(d)
        assert calls == [("a", "b")]
        geometry.ellipse(d, "b", "a", 0.95)
        assert calls[1:] == [("b", "a")]
        quartiles(d)
        assert calls[2:] == [("a",), ("b",)]

    @pytest.mark.parametrize("value", [0.1, 1.0, -3e-300, 7e300])
    def test_a_constant_column_centres_to_exact_zeros(self, rng, value):
        n = 2 * _chunk_rows(2) + 7  # two chunks and a tail
        d = Dataset({"a": rng.normal(size=n), "k": np.full(n, value)})
        mean, gram, squares, exponents = dataset._moments(d, ["a", "k"], constant_ok=True)
        assert np.ldexp(mean[1], exponents[1]) == value
        assert squares[1] == gram[0, 1] == gram[1, 0] == gram[1, 1] == 0.0
        assert squares[0] > 0.0
        with pytest.raises(DegenerateColumnError, match="column 'k' has zero variance"):
            dataset._moments(d, ["a", "k"])

    def test_a_column_one_ulp_from_constant_varies(self):
        column = np.full(9, 0.1)
        column[4] = np.nextafter(0.1, 1.0)
        squares = dataset._moments(Dataset({"a": column}), ["a"])[2]
        assert squares[0] > 0.0


def _summed_gram_moments(d, names):
    """centered_moments as it was when each chunk's Gram product was added
    into a new array and r was formed from new arrays: the oracle for r and
    the norms formed in place."""
    exponents, _ = dataset.column_scales(d, names)
    data = np.ldexp(np.column_stack([d.column(name) for name in names]), -exponents)
    rows = max(_chunk_rows(len(names)), 1)
    mean = sum(data[s : s + rows].sum(axis=0) for s in range(0, d.n, rows)) / d.n
    gram, squares = 0.0, 0.0
    for s in range(0, d.n, rows):
        c = data[s : s + rows] - mean
        gram = gram + c.T @ c
        squares = squares + np.square(c).sum(axis=0)
    scaled_norms = np.sqrt(squares)
    r = np.clip(gram / np.outer(scaled_norms, scaled_norms), -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r, np.ldexp(scaled_norms, exponents)


def _triangle_p(report):
    """CorrelationReport.p as it was: one call over np.triu_indices' gather."""
    p = np.ones((len(report.names),) * 2)
    upper = np.triu_indices(len(report.names), 1)
    p[upper] = p[upper[::-1]] = correlation_p_value(report.r[upper], report.n)
    return p


def _with_exact_correlations(rng, n, k):
    """k columns over n rows (n a multiple of 4) whose r holds exact -1, +1
    and 0 entries besides random ones."""
    data = rng.normal(size=(n, k)) @ (np.eye(k) + 0.4 * rng.normal(size=(k, k)))
    data[:, 1] = -data[:, 0]  # r = -1
    data[:, 2] = 4.0 * data[:, 0] + 3.0  # r = +1 within rounding, clipped
    data[:, 3] = np.resize([1.0, -1.0], n)
    data[:, 4] = np.resize([1.0, 1.0, -1.0, -1.0], n)  # r = 0 with column 3
    return Dataset({f"c{j}": data[:, j] for j in range(k)})


class TestInPlaceReference:
    """r, the norms and p, formed in place and by row bands, equal what the
    summed Gram expression and the np.triu_indices gather gave, bit for bit."""

    @pytest.mark.parametrize("k", [5, 6, 40])
    @pytest.mark.parametrize("chunks", [1, 3])
    def test_r_and_norms_equal_the_summed_gram(self, rng, k, chunks):
        n = 4 * ((chunks - 1) * _chunk_rows(k) // 4 + 3)  # a multiple of 4, into the last chunk
        d = _with_exact_correlations(rng, n, k)
        r, norms = centered_moments(d, d.names)
        expected_r, expected_norms = _summed_gram_moments(d, d.names)
        assert r.tobytes() == expected_r.tobytes()
        assert norms.tobytes() == expected_norms.tobytes()
        assert r[3, 4] == 0.0
        assert r[0, 1] == pytest.approx(-1.0, abs=1e-13) and r[0, 2] == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("block", [1, 2, 7, "k - 2", None])
    def test_p_equals_the_triangle_gather(self, rng, monkeypatch, block):
        k = 13
        if block is not None:
            monkeypatch.setattr(stats, "_BLOCK", k - 2 if block == "k - 2" else block)
        r = np.triu(rng.uniform(-1.0, 1.0, (k, k)), 1)
        r += r.T
        np.fill_diagonal(r, 1.0)
        for i, j, value in [(0, 1, 1.0), (0, 2, -1.0), (0, 3, 0.0), (0, 4, -0.0), (5, 9, -0.0), (5, 12, 1.0)]:
            r[i, j] = r[j, i] = value
        report = dataset.CorrelationReport(names=tuple(f"c{j}" for j in range(k)), r=r, n=30)
        assert report.p.tobytes() == _triangle_p(report).tobytes()
        data_report = pearson_matrix(_with_exact_correlations(rng, 40, k))
        assert data_report.p.tobytes() == _triangle_p(data_report).tobytes()

    @pytest.mark.parametrize(
        "k, block, calls",
        [(2, 1, 1), (3, 2, 2), (3, 4, 1), (13, 12, 9), (13, 25, 4), (13, 1000, 1), (40, 39, 27), (40, 117, 9),
         (40, 780, 2), (213, None, 1), (214, None, 2)],
    )
    def test_p_takes_the_upper_triangle_in_row_order_at_most_a_block_a_call(self, monkeypatch, k, block, calls):
        """Each correlation_p_value call of p takes one band: whole rows, as
        many as fit one block at the length of the first; up to 213
        columns, one call."""
        if block is not None:
            monkeypatch.setattr(stats, "_BLOCK", block)
        seen = []

        def recorded(r, n):
            seen.append(r.tolist())
            return correlation_p_value(r, n)

        monkeypatch.setattr(dataset, "correlation_p_value", recorded)
        i, j = np.triu_indices(k, 1)
        r = np.eye(k)
        r[i, j] = r[j, i] = np.ldexp(i * k + j, -20)  # each pair's position, exactly
        dataset.CorrelationReport(names=tuple(f"c{j}" for j in range(k)), r=r, n=30).p
        assert len(seen) == calls
        assert all(0 < len(call) <= stats._BLOCK for call in seen)
        assert np.ldexp(sum(seen, []), 20).tolist() == (i * k + j).tolist()

    def test_p_holds_r_p_and_one_slab(self):
        """Under tracemalloc, reading p of 300 columns (44,850 pairs, two
        bands of at most one block) peaks below r + p + 20 blocks of the tail (16.2 measured); the
        triangle gather and the tail's copies it replaced took 22.7."""
        d = Dataset({f"c{j}": np.random.default_rng(j).normal(size=60) for j in range(300)})
        report = pearson_matrix(d)
        tracemalloc.start()
        try:
            report.p
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < report.r.nbytes + report.p.nbytes + 20 * 8 * stats._BLOCK


class TestQuartiles:
    def test_symmetric_sequence(self):
        q = quartiles(Dataset({"a": [1, 2, 3, 4, 5]}))["a"]
        assert (q.min, q.q25, q.mean, q.q75, q.max) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_constant_column(self):
        q = quartiles(Dataset({"a": [7.0, 7.0, 7.0]}))["a"]
        assert (q.min, q.q25, q.mean, q.q75, q.max) == (7.0,) * 5
        # seven 0.1s have a float mean of 0.09999999999999999
        for value in (0.1, 1.0):
            q = quartiles(Dataset({"a": np.full(7, value)}))["a"]
            assert (q.min, q.q25, q.mean, q.q75, q.max, q.variance) == (value,) * 5 + (0.0,)

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

    @settings(max_examples=300)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e300, 1.7e308]),
                st.floats(-1e-307, 1e-307),  # subnormals and their neighbours
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @example([-0.0])
    @example([0.0, -0.0])
    @example([-0.0, 0.0, -0.0])
    @example([5e-324, -5e-324, 5e-324])
    @example([1e300, -1e300, 1e300, 1e300])
    @example([0.0] * 5 + [-0.0] * 9)  # without 0 and -1 among its kth, partition leaves the other zero
    def test_quartiles_are_numpys_bit_for_bit(self, values):
        """n = 1, 2 and 3, ties, both zeros, subnormals and magnitudes near
        1e300: every q25 and q75 has the bits of np.quantile's."""
        col = np.array(values)
        q = quartiles(Dataset({"a": col}))["a"]
        with np.errstate(over="ignore", invalid="ignore"):  # b - a may overflow, as in quartiles
            expected = np.quantile(col, [0.25, 0.75])
        assert np.array([q.q25, q.q75]).tobytes() == expected.tobytes()

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

    def test_variance_within_range_does_not_overflow_on_the_way(self, rng):
        col = rng.normal(size=2000)
        s = quartiles(Dataset({"a": 1e153 * col}))["a"]
        assert s.variance == pytest.approx(1e306 * col.var(ddof=1), rel=1e-13)
        assert s.mean == pytest.approx(1e153 * col.mean(), rel=1e-12)

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
