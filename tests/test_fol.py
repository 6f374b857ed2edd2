import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_formula
from proofplan.fol import (
    ArityMismatch,
    Atom,
    Constant,
    Exists,
    ForAll,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    And,
    SymbolTable,
    UndeclaredSymbol,
    Variable,
    free_vars,
    parse_formula,
    render_formula,
)


def test_parse_universal_implication():
    f = parse_formula("∀x (Human(x) → Mammal(x))")
    assert f == ForAll(
        "x",
        Implies(Atom("Human", (Variable("x"),)), Atom("Mammal", (Variable("x"),))),
    )


def test_parse_existential_atom():
    assert parse_formula("∃x A(x)") == Exists("x", Atom("A", (Variable("x"),)))


def test_unbalanced_paren_reports_byte_offset():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("Human(x")
    assert exc.value.offset == 7


def test_byte_offset_counts_utf8_bytes_not_chars():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("∀x (P(x")
    assert exc.value.position == 7
    assert exc.value.offset == len("∀x (P(x".encode("utf-8"))


def test_quantifier_without_space():
    assert parse_formula("∀x(Human(x) → Mammal(x))") == parse_formula("∀x (Human(x) → Mammal(x))")


def test_equality_round_trip():
    f = parse_formula("∀x (x = tom → Cat(x))")
    assert render_formula(f) == "∀x (x = tom → Cat(x))"
    assert parse_formula(render_formula(f)) == f


@pytest.mark.parametrize(
    "unicode_text,ascii_text",
    [
        ("∀x (Human(x) → Mammal(x))", "forall x (Human(x) -> Mammal(x))"),
        ("∃x A(x)", "exists x A(x)"),
        ("¬P(a)", "not P(a)"),
        ("¬P(a)", "~P(a)"),
        ("P(a) ∧ Q(a)", "P(a) & Q(a)"),
        ("P(a) ∨ Q(a)", "P(a) | Q(a)"),
        ("P(a) ↔ Q(a)", "P(a) <-> Q(a)"),
    ],
)
def test_ascii_aliases_build_identical_asts(unicode_text, ascii_text):
    assert parse_formula(unicode_text) == parse_formula(ascii_text)


def test_precedence_and_associativity():
    f = parse_formula("¬A(x) ∧ B(x) ∨ C(x) → D(x) ↔ E(x)")
    assert isinstance(f, Iff)
    assert isinstance(f.left, Implies)
    assert isinstance(f.left.antecedent, Or)
    assert isinstance(f.left.antecedent.items[0], And)
    assert isinstance(f.left.antecedent.items[0].items[0], Not)

    g = parse_formula("A(a) → B(a) → C(a)")
    assert isinstance(g, Implies) and isinstance(g.consequent, Implies)


def test_quantifier_binds_tightly():
    f = parse_formula("∀x P(x) ∧ Q(tom)")
    assert isinstance(f, And)
    assert isinstance(f.items[0], ForAll)


def test_trailing_boolean_folds_into_polarity():
    assert parse_formula("Chases(lion, dog, True)") == Atom(
        "Chases", (Constant("lion"), Constant("dog"))
    )
    assert parse_formula("Sees(mouse, lion, False)") == Not(
        Atom("Sees", (Constant("mouse"), Constant("lion")))
    )
    assert parse_formula("not(Sees(mouse, lion, True))") == Not(
        Atom("Sees", (Constant("mouse"), Constant("lion")))
    )


def test_single_letter_lowercase_defaults_to_variable():
    f = parse_formula("Likes(x, tom)")
    assert f.args == (Variable("x"), Constant("tom"))


def test_bound_name_shadows_constant_heuristic():
    f = parse_formula("∀tom P(tom)")
    assert f == ForAll("tom", Atom("P", (Variable("tom"),)))


def test_table_enforces_declaredness_and_arity():
    table = SymbolTable(predicates={"Cat": 1, "Likes": 2}, constants=frozenset({"tom"}))
    parse_formula("Likes(tom, tom)", table)
    with pytest.raises(ArityMismatch):
        parse_formula("Likes(tom)", table)
    with pytest.raises(UndeclaredSymbol):
        parse_formula("Dog(tom)", table)
    with pytest.raises(UndeclaredSymbol):
        parse_formula("Cat(jerry)", table)
    # single-letter lowercase still reads as a variable under a table
    assert parse_formula("Cat(x)", table).args == (Variable("x"),)


def test_symbol_table_rejects_bad_declarations():
    with pytest.raises(ValueError):
        SymbolTable(predicates={"P": 0})
    with pytest.raises(ValueError):
        SymbolTable(predicates={"P": 1}, constants=frozenset({"P"}))


def test_depth_limit():
    ok = "¬" * 63 + "P(a)"
    parse_formula(ok)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("¬" * 70 + "P(a)")


def test_reserved_boolean_words_rejected_elsewhere():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("True(a)")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("P(True, a)")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("P(True)")


@pytest.mark.parametrize(
    "ast,text",
    [
        (
            ForAll("x", Implies(Atom("Cat", (Variable("x"),)), Atom("Mammal", (Variable("x"),)))),
            "∀x (Cat(x) → Mammal(x))",
        ),
        (Atom("Mammal", (Constant("tom"),)), "Mammal(tom)"),
        (Not(Atom("Sees", (Constant("mouse"), Constant("lion")))), "¬Sees(mouse, lion)"),
    ],
)
def test_render_examples(ast, text):
    assert render_formula(ast) == text


def test_render_parenthesizes_nested_connectives():
    inner = And((Atom("P", (Constant("tom"),)), Atom("Q", (Constant("tom"),))))
    assert render_formula(Not(inner)) == "¬(P(tom) ∧ Q(tom))"
    nested = And((inner, Atom("R", (Constant("tom"),))))
    assert parse_formula(render_formula(nested)) == nested


def test_free_vars():
    assert free_vars(parse_formula("∀x P(x)")) == set()
    assert free_vars(parse_formula("P(x)")) == {"x"}
    assert free_vars(parse_formula("∃x (P(x) ∧ Q(y))")) == {"y"}


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6))
def test_render_parse_round_trip(seed, depth):
    rng = random.Random(seed)
    f = random_formula(rng, depth)
    assert parse_formula(render_formula(f)) == f
