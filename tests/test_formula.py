import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from condreg import ModelSpec, Term, full_quadratic_terms, parse_formula, parse_terms, print_formula
from condreg.errors import FormulaError


class TestParse:
    def test_basic_terms(self):
        spec = parse_formula("Y ~ x1 + x2 + x1:x2 + x1^2")
        assert spec.response == "Y"
        assert spec.intercept is True
        assert [t.label for t in spec.terms] == ["x1", "x2", "x1:x2", "x1^2"]

    def test_term_order_preserved(self):
        spec = parse_formula("Y ~ x2 + x1")
        assert [t.label for t in spec.terms] == ["x2", "x1"]

    def test_product_normalizes(self):
        spec = parse_formula("Y ~ x2:x1")
        assert spec.terms[0] == Term.cross("x1", "x2")

    def test_self_product_merges_to_power(self):
        spec = parse_formula("Y ~ x1:x1")
        assert spec.terms[0] == Term.power("x1", 2)

    def test_quad_shorthand(self):
        spec = parse_formula("Y ~ quad(x1,x2)")
        assert [t.label for t in spec.terms] == ["x1", "x2", "x1:x2", "x1^2", "x2^2"]

    def test_intercept_suppression(self):
        spec = parse_formula("Y ~ 0 + x1")
        assert spec.intercept is False
        assert [t.label for t in spec.terms] == ["x1"]

    def test_explicit_intercept_token(self):
        spec = parse_formula("Y ~ 1 + x1")
        assert spec.intercept is True

    def test_intercept_only(self):
        spec = parse_formula("Y ~ 1")
        assert spec.terms == ()
        assert spec.intercept is True

    def test_degree_three_allowed(self):
        spec = parse_formula("Y ~ x1 + x1^3 + x1:x2:x3 + x1^2:x2")
        assert {t.label for t in spec.terms} == {"x1", "x1^3", "x1:x2:x3", "x1^2:x2"}

    @pytest.mark.parametrize(
        "text",
        [
            "Y ~ x1 + x1",  # duplicate term
            "Y ~ x2:x1 + x1:x2",  # duplicate after normalization
            "Y ~ x1^4",  # power above the cap
            "Y ~ x1^2:x2^2",  # total degree above the cap
            "Y ~ x1^0",
            "Y ~ x1 +",
            "Y ~",
            "Y ~ 0",
            "Y x1 + x2",
            "Y ~ x1 ~ x2",
            "Y ~ quad()",
            "Y ~ quad(x1",
            "Y ~ quad(x1,x1)",
            "2y ~ x1",
            "Y ~ x-1",
        ],
    )
    def test_rejected_formulas(self, text):
        with pytest.raises(FormulaError):
            parse_formula(text)


class TestRoundTrip:
    def test_print_formats(self):
        spec = parse_formula("Y ~ x1 + x1:x2 + x2^2")
        assert print_formula(spec) == "Y ~ x1 + x1:x2 + x2^2"
        spec = parse_formula("Y ~ 0 + x1")
        assert print_formula(spec) == "Y ~ 0 + x1"
        assert print_formula(parse_formula("Y ~ 1")) == "Y ~ 1"

    def test_generated_corpus_round_trips(self):
        # every spec built from small term vocabularies survives
        # parse(print(spec)) exactly
        vocabulary = [
            Term.linear("a"),
            Term.linear("b2"),
            Term.power("a", 2),
            Term.power("b2", 3),
            Term.cross("a", "b2"),
            Term([("a", 2), ("b2", 1)]),
            Term.cross("a", "b2", "c"),
        ]
        count = 0
        for size in (1, 2, 3):
            for combo in itertools.combinations(vocabulary, size):
                for intercept in (True, False):
                    spec = ModelSpec("resp", combo, intercept=intercept)
                    assert parse_formula(print_formula(spec)) == spec
                    count += 1
        assert count == (7 + 21 + 35) * 2


NAMES = ["a", "b2", "x_1", "Zed"]
# A term of degree at most the cap: one to three factors with powers.
TERMS = st.lists(st.tuples(st.sampled_from(NAMES), st.integers(1, 3)), min_size=1, max_size=3).map(Term).filter(
    lambda term: term.degree <= 3
)
# One summand of a formula: a term, or quad() of distinct names.
CHUNKS = st.one_of(
    TERMS.map(lambda term: (term.label, [term])),
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True).map(
        lambda names: (f"quad({','.join(names)})", full_quadratic_terms(names))
    ),
)


@given(chunks=st.lists(CHUNKS, min_size=1, max_size=4), intercept=st.booleans())
def test_printed_spec_parses_back_to_itself(chunks, intercept):
    """parse(print(spec)) == spec, for specs written with quad() and ``0 +``."""
    parts, terms = [] if intercept else ["0"], []
    for text, chunk in chunks:
        if not set(chunk) & set(terms):  # a repeated term is a formula error
            parts.append(text)
            terms.extend(chunk)
    spec = parse_formula(f"resp ~ {' + '.join(parts)}")
    assert spec == ModelSpec("resp", tuple(terms), intercept=intercept)
    assert parse_formula(print_formula(spec)) == spec


class TestParseTerms:
    def test_comma_separated_terms(self):
        terms = parse_terms(" x1, x2:x1 ,x1^2,, ")
        assert terms == [Term.linear("x1"), Term.cross("x1", "x2"), Term.power("x1", 2)]

    def test_same_syntax_as_formula_terms(self):
        text = "a, a:b, b^3"
        assert parse_terms(text) == list(parse_formula("Y ~ " + text.replace(",", " +")).terms)

    @pytest.mark.parametrize("text", ["", " , ", "x1, 2x", "x1^4"])
    def test_rejects_empty_and_bad_terms(self, text):
        with pytest.raises(FormulaError):
            parse_terms(text)
