"""Formula AST, parser, renderer, and evaluation semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (FormulaError, SignatureError, Structure, eval_formula,
                       eval_on_tuple, eval_term, formula_arity,
                       free_variables, linear_order, parse_formula,
                       parse_term, render_formula, render_term)
from ramseykit.formulas import MAX_DEPTH

from conftest import CONST_SIG, graph


@pytest.fixture()
def chain():
    # partial s, constant e = 0, edge 0-1
    return Structure(CONST_SIG, 3, {"E": {(0, 1), (1, 0)}},
                     {"s": {(0,): 1, (1,): 2}}, {"e": 0})


class TestParsing:
    @pytest.mark.parametrize("text", [
        "E(x0, x1)",
        "<(x0, x1)",
        "x0 = x1",
        "s(x0) = x1",
        "~E(x0, x0)",
        "E(x0, x1) & E(x1, x2)",
        "E(x0, x1) | ~E(x1, x0)",
        "E(x0, x1) -> E(x1, x0)",
        "forall x0. exists x1. E(x0, x1)",
        "(E(x0, x1) -> E(x1, x2)) -> E(x0, x2)",
        "s(s(x0)) = e",
    ])
    def test_round_trip(self, text):
        phi = parse_formula(text)
        assert parse_formula(render_formula(phi)) == phi

    def test_implication_right_associative(self):
        a = parse_formula("E(x0, x0) -> E(x1, x1) -> E(x2, x2)")
        b = parse_formula("E(x0, x0) -> (E(x1, x1) -> E(x2, x2))")
        assert a == b

    def test_trailing_input_rejected(self):
        with pytest.raises(FormulaError):
            parse_formula("E(x0, x1) E(x1, x2)")

    def test_bare_name_is_constant(self):
        t = parse_term("e")
        assert not free_variables(parse_formula("e = e"))
        assert t == parse_term("e")

    def test_arity_is_max_variable_plus_one(self):
        assert formula_arity(parse_formula("E(x0, x2)")) == 3
        assert formula_arity(parse_formula("e = e")) == 0
        assert formula_arity(parse_formula("forall x1. E(x0, x1)")) == 1


class TestEvaluation:
    def test_atoms(self, chain):
        assert eval_on_tuple(chain, parse_formula("E(x0, x1)"), (0, 1))
        assert not eval_on_tuple(chain, parse_formula("E(x0, x1)"), (0, 2))
        assert eval_on_tuple(chain, parse_formula("x0 = x0"), (2,))

    def test_function_terms(self, chain):
        assert eval_on_tuple(chain, parse_formula("s(x0) = x1"), (0, 1))
        assert eval_on_tuple(chain, parse_formula("s(s(x0)) = x1"), (0, 2))
        assert not eval_on_tuple(chain, parse_formula("s(x0) = x1"), (1, 1))

    def test_undefined_terms_make_atoms_false(self, chain):
        # s(2) is undefined: the atom is false, its negation true
        phi = parse_formula("s(x0) = x0")
        assert not eval_on_tuple(chain, phi, (2,))
        assert eval_on_tuple(chain, parse_formula("~(s(x0) = x0)"), (2,))
        # undefined on both sides still compares false
        assert not eval_on_tuple(chain, parse_formula("s(x0) = s(x0)"), (2,))

    def test_constants(self, chain):
        assert eval_on_tuple(chain, parse_formula("e = x0"), (0,))
        assert eval_on_tuple(chain, parse_formula("s(e) = x0"), (1,))

    def test_connectives(self, chain):
        assert eval_on_tuple(chain, parse_formula("E(x0, x1) & ~E(x0, x2)"),
                             (0, 1, 2))
        assert eval_on_tuple(chain, parse_formula("E(x0, x2) | E(x0, x1)"),
                             (0, 1, 2))
        assert eval_on_tuple(chain, parse_formula("E(x0, x2) -> E(x2, x0)"),
                             (0, 1, 2))

    def test_quantifiers_range_over_domain(self, chain):
        assert eval_formula(chain, parse_formula("exists x0. E(x0, e)"), {})
        assert not eval_formula(chain, parse_formula("forall x0. E(x0, e)"), {})
        lo = linear_order(4)
        assert eval_formula(
            lo, parse_formula("forall x0. forall x1. "
                              "(<(x0, x1) -> exists x2. ~(x2 = x0))"), {})

    def test_unbound_variable_error(self, chain):
        with pytest.raises(FormulaError):
            eval_formula(chain, parse_formula("E(x0, x1)"), {0: 0})

    def test_unknown_symbol_error(self, chain):
        with pytest.raises(SignatureError):
            eval_on_tuple(chain, parse_formula("R(x0)"), (0,))

    def test_eval_term_undefined_is_none(self, chain):
        assert eval_term(chain, parse_term("s(s(s(e)))"), {}) is None
        assert eval_term(chain, parse_term("s(s(e))"), {}) == 2


class TestSemanticsProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 1))
    def test_order_totality_sentence(self, n, flip):
        lo = linear_order(n)
        total = parse_formula(
            "forall x0. forall x1. (x0 = x1 | (<(x0, x1) | <(x1, x0)))")
        irref = parse_formula("forall x0. ~<(x0, x0)")
        assert eval_formula(lo, total if flip else irref, {})

    def test_triangle_free_sentence(self):
        phi = parse_formula(
            "forall x0. forall x1. forall x2. "
            "~(E(x0, x1) & (E(x1, x2) & E(x0, x2)))")
        assert eval_formula(graph(4, [(0, 1), (1, 2), (2, 3)]), phi, {})
        assert not eval_formula(graph(3, [(0, 1), (1, 2), (0, 2)]), phi, {})


class TestRejections:
    def test_text_past_an_unreadable_character_is_not_dropped(self):
        # `;` is no token: the formula must not be cut to `x0 = x0`
        with pytest.raises(FormulaError, match="';' at position 8"):
            parse_formula("x0 = x0 ; <(x0, x1)")
        with pytest.raises(FormulaError):
            parse_term("s(x0) @")

    @pytest.mark.parametrize("text", ["x0 = )", "x0 = (", "R(x0, .)",
                                      "s(&) = x0", "x0 = ->"])
    def test_punctuation_is_not_a_name(self, text):
        with pytest.raises(FormulaError, match="expected a name"):
            parse_formula(text)

    @pytest.mark.parametrize("text", [")", ",", "s(x0, =)"])
    def test_punctuation_is_not_a_term(self, text):
        with pytest.raises(FormulaError, match="expected a name"):
            parse_term(text)

    def test_missing_close_paren_is_reported(self):
        with pytest.raises(FormulaError, match="expected '\\)'"):
            parse_formula("(E(x0, x1)")
        with pytest.raises(FormulaError, match="expected '\\)', found 'E'"):
            parse_formula("~(E(x0, x1) E(x1, x0))")

    def test_keywords_are_names_in_term_position(self):
        assert parse_term("forall") == parse_formula("x0 = forall").right


# one nesting construct each, n levels deep
NESTINGS = {
    "negation": lambda n: "~" * n + "x0 = x0",
    "parentheses": lambda n: "(" * n + "x0 = x0" + ")" * n,
    "conjunction": lambda n: " & ".join(["x0 = x0"] * n),
    "implication": lambda n: " -> ".join(["x0 = x0"] * n),
    "quantifier": lambda n: "forall x0. " * n + "x0 = x0",
    "function": lambda n: "s(" * n + "x0" + ")" * n + " = x0",
}


class TestNestingBound:
    @pytest.mark.parametrize("kind", sorted(NESTINGS))
    def test_deep_nesting_raises_instead_of_recursing(self, kind):
        with pytest.raises(FormulaError, match=f"deeper than {MAX_DEPTH} levels"):
            parse_formula(NESTINGS[kind](3000))

    @pytest.mark.parametrize("kind", sorted(NESTINGS))
    def test_the_deepest_accepted_formula_renders_and_parses_back(self, kind):
        n = 1
        while n < 3000:
            try:
                parse_formula(NESTINGS[kind](n + 1))
            except FormulaError:
                break
            n += 1
        assert n >= MAX_DEPTH - 2
        phi = parse_formula(NESTINGS[kind](n))
        assert parse_formula(render_formula(phi)) == phi

    def test_deep_terms_raise(self):
        with pytest.raises(FormulaError, match="deeper than"):
            parse_term("s(" * 3000 + "x0" + ")" * 3000)


# tokens, with and without a trailing space; `-` and `0` make tokens only
# next to `>` and after a name, and no token holds a JUNK character
TOKENS = ["x0", "x1", "x12", "e", "s", "E", "forall", "exists", "<", "<=",
          ">", ">=", "(", ")", "=", ",", ".", "~", "&", "|", "->", "-", "0"]
JUNK = ["@", ";", "é", "\t$"]
texts = st.lists(st.sampled_from(TOKENS + [t + " " for t in TOKENS] + JUNK),
                 max_size=14).map("".join)


@settings(max_examples=400, deadline=None)
@given(texts)
def test_formula_text_raises_or_round_trips(text):
    try:
        phi = parse_formula(text)
    except FormulaError:
        return
    assert not any(junk in text for junk in JUNK)
    assert parse_formula(render_formula(phi)) == phi


@settings(max_examples=400, deadline=None)
@given(texts)
def test_term_text_raises_or_round_trips(text):
    try:
        t = parse_term(text)
    except FormulaError:
        return
    assert not any(junk in text for junk in JUNK)
    assert parse_term(render_term(t)) == t
