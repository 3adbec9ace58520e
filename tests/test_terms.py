import re

import numpy as np
import pytest

from condreg import (
    ModelSpec,
    Term,
    check_hierarchy,
    full_quadratic_terms,
)
from condreg.errors import DuplicateTermError, ResponseTermError, SchemaError
from condreg.terms import anchored_predictors


class TestTermAlgebra:
    def test_repeated_predictor_merges_to_power(self):
        assert Term.cross("x1", "x1") == Term.power("x1", 2)
        assert Term([("x1", 1), ("x1", 2)]) == Term.power("x1", 3)

    def test_commutative_equality(self):
        assert Term.cross("x1", "x2") == Term.cross("x2", "x1")

    def test_degree(self):
        assert Term.linear("a").degree == 1
        assert Term([("a", 2), ("b", 1)]).degree == 3

    def test_labels(self):
        assert Term.linear("x1").label == "x1"
        assert Term.power("x1", 2).label == "x1^2"
        assert Term.cross("x2", "x1").label == "x1:x2"
        assert Term([("b", 1), ("a", 2)]).label == "a^2:b"

    def test_rejects_bad_powers(self):
        with pytest.raises(ValueError):
            Term([("x", 0)])
        with pytest.raises(ValueError):
            Term([])

    def test_value_at(self):
        t = Term([("a", 2), ("b", 1)])
        assert t.column({"a": 3.0, "b": 2.0}) == 18.0

    def test_column_of_a_product(self):
        values = {"x1": np.array([2.0, 0.0, 1.0, 1.0]), "x2": np.array([3.0, 0.0, 1.0, 2.0])}
        np.testing.assert_array_equal(Term.cross("x1", "x2").column(values), [6.0, 0.0, 1.0, 2.0])

    def test_column_of_an_even_power(self):
        column = Term.power("x1", 2).column({"x1": np.array([-1.0, 2.0])})
        np.testing.assert_array_equal(column, [1.0, 4.0])


class TestModelSpec:
    def test_duplicate_terms_rejected(self):
        with pytest.raises(DuplicateTermError):
            ModelSpec("Y", (Term.linear("x"), Term.linear("x")))

    def test_duplicate_after_merge_rejected(self):
        with pytest.raises(DuplicateTermError):
            ModelSpec("Y", (Term.cross("a", "a"), Term.power("a", 2)))

    def test_duplicate_message_names_the_first_repeat(self):
        terms = (Term.linear("b"), Term.power("a", 2), Term.linear("c"), Term.cross("a", "a"), Term.linear("b"))
        with pytest.raises(DuplicateTermError, match=r"^duplicate term 'a\^2'$"):
            ModelSpec("Y", terms)

    @pytest.mark.parametrize("term", [Term.linear("Y"), Term.power("Y", 2), Term.cross("x", "Y")])
    def test_term_using_the_response_is_refused(self, term):
        with pytest.raises(ResponseTermError, match=rf"^term '{re.escape(term.label)}' uses the response 'Y'$"):
            ModelSpec("Y", (Term.linear("x"), term))

    def test_terms_are_hashed_once_each(self, monkeypatch):
        hashes = []
        term_hash = Term.__hash__

        def counted(term):
            hashes.append(term)
            return term_hash(term)

        monkeypatch.setattr(Term, "__hash__", counted)
        terms = tuple(Term.linear(f"x{i}") for i in range(6))
        ModelSpec("Y", terms)
        assert hashes == list(terms)

    def test_predictors_in_first_appearance_order(self):
        spec = ModelSpec("Y", (Term.linear("b"), Term.cross("a", "b")))
        assert spec.predictors == ("b", "a")

    def test_degree_in(self):
        spec = ModelSpec("Y", tuple(full_quadratic_terms(["u", "v"])))
        assert spec.degree_in("u") == 2
        assert spec.degree_in("w") == 0


class TestFullQuadratic:
    def test_two_predictors(self):
        terms = full_quadratic_terms(["x1", "x2"])
        assert [t.label for t in terms] == ["x1", "x2", "x1:x2", "x1^2", "x2^2"]

    def test_single_predictor(self):
        terms = full_quadratic_terms(["x1"])
        assert [t.label for t in terms] == ["x1", "x1^2"]

    def test_term_count_formula(self):
        for k in range(1, 7):
            names = [f"x{i}" for i in range(k)]
            assert len(full_quadratic_terms(names)) == k * (k + 3) // 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            full_quadratic_terms(["a", "a"])


class TestHierarchy:
    def test_hierarchical_model(self):
        spec = ModelSpec(
            "Y", (Term.linear("x1"), Term.linear("x2"), Term.cross("x1", "x2"))
        )
        assert check_hierarchy(spec) == []

    def test_bare_cross_term(self):
        spec = ModelSpec("Y", (Term.cross("x1", "x2"),))
        assert check_hierarchy(spec) == ["x1", "x2"]

    def test_triple_product_with_one_linear(self):
        spec = ModelSpec("Y", (Term.linear("x1"), Term.cross("x1", "x2", "x3")))
        assert check_hierarchy(spec) == ["x2", "x3"]

    def test_anchored_predictors_are_those_of_higher_order_terms(self):
        # the one rule behind check_hierarchy and stepwise's removability
        spec = ModelSpec(
            "Y", (Term.linear("x1"), Term.linear("x4"), Term.cross("x1", "x2"), Term.power("x3", 2))
        )
        assert anchored_predictors(spec) == {"x1", "x2", "x3"}
        assert check_hierarchy(spec) == ["x2", "x3"]

    def test_square_counts_as_higher_order(self):
        spec = ModelSpec("Y", (Term.power("x1", 2),))
        assert check_hierarchy(spec) == ["x1"]

