import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofplan.errors import SchemaError
from proofplan.fol import SymbolTable, parse_formula
from proofplan.structured import (
    ArityConflict,
    BuildError,
    EmptyNL,
    build_repr,
    deserialize_repr,
    is_ground_literal,
    repr_to_doc,
    serialize_repr,
    validate_static,
)


def test_build_classifies_rule_and_infers_table():
    r = build_repr([("Humans are mammals.", "∀x (Human(x) → Mammal(x))")])
    assert len(r.rules) == 1 and not r.facts
    assert r.table.predicates == {"Human": 1, "Mammal": 1}


def test_build_classifies_ground_atom_as_fact():
    r = build_repr([("Tom is a mammal.", "Mammal(tom)")])
    assert len(r.facts) == 1 and not r.rules
    assert "tom" in r.table.constants


def test_build_rejects_empty_nl():
    with pytest.raises(EmptyNL) as exc:
        build_repr([("", "P(a)")])
    assert exc.value.index == 0


def test_build_reports_offending_pair_index():
    with pytest.raises(BuildError) as exc:
        build_repr([("fine.", "P(a)"), ("broken.", "Q(a")])
    assert exc.value.index == 1


def test_build_rejects_arity_conflict():
    with pytest.raises(ArityConflict):
        build_repr([("one.", "P(a)"), ("two.", "P(a, b)")])


def test_statement_ids_are_contiguous():
    r = build_repr(
        [("one.", "P(ada)"), ("two.", "∀x (P(x) → Q(x))")],
        questions=[("three?", "Q(ada)")],
    )
    assert [s.id for s in r.statements()] == [1, 2, 3]
    assert r.questions[0].id == 3


def test_validate_static_flags_undeclared_constant():
    r = build_repr([("rule.", "∀y (Sell(y, oneMillionCopies) → Selected(y))")])
    strict = SymbolTable(predicates={"Sell": 2, "Selected": 1}, constants=frozenset())
    report = validate_static(r, strict)
    assert [(f.kind, f.detail) for f in report.findings] == [
        ("undeclared-constant", "oneMillionCopies")
    ]


def test_validate_static_clean_on_full_declarations():
    r = build_repr([("All cats are mammals.", "∀x (Cat(x) → Mammal(x))"), ("fact.", "Mammal(tom)")])
    assert validate_static(r, r.table).ok


def test_validate_static_flags_non_ground_fact_and_open_rule():
    # Bypass build classification to place bad statements directly.
    from proofplan.structured import AlignedStatement, StructuredRepr

    table = SymbolTable(predicates={"P": 1, "Q": 1}, constants=frozenset({"ada"}))
    bad = StructuredRepr(
        table=table,
        facts=(AlignedStatement(1, "fact.", parse_formula("P(x)")),),
        rules=(AlignedStatement(2, "rule.", parse_formula("P(x) → Q(x)")),),
        questions=(),
    )
    kinds = [f.kind for f in validate_static(bad, table).findings]
    assert kinds == ["non-ground-fact", "open-rule"]


def test_validate_static_flags_arity_and_predicate():
    r = build_repr([("fact.", "Likes(tom, jerry)")])
    strict = SymbolTable(predicates={"Likes": 1}, constants=frozenset({"tom", "jerry"}))
    kinds = {f.kind for f in validate_static(r, strict).findings}
    assert kinds == {"arity-mismatch"}
    strict2 = SymbolTable(predicates={}, constants=frozenset({"tom", "jerry"}))
    kinds2 = {f.kind for f in validate_static(r, strict2).findings}
    assert kinds2 == {"undeclared-predicate"}


def test_validate_static_sort_mismatch():
    r = build_repr([("fact.", "Weighs(tom, oneKilogram)")])
    strict = SymbolTable(
        predicates={"Weighs": 2},
        constants=frozenset({"tom", "oneKilogram"}),
        predicate_sorts={"Weighs": ("animal", "animal")},
        constant_sorts={"tom": "animal", "oneKilogram": "quantity"},
    )
    kinds = [f.kind for f in validate_static(r, strict).findings]
    assert kinds == ["sort-mismatch"]


def test_validate_static_monotone_under_added_declarations():
    r = build_repr([("fact.", "Likes(tom, jerry)"), ("rule.", "∀x (Likes(x, jerry) → Happy(x))")])
    sparse = SymbolTable(predicates={"Likes": 2}, constants=frozenset({"tom"}))
    findings_sparse = set(validate_static(r, sparse).findings)
    richer = SymbolTable(
        predicates={"Likes": 2, "Happy": 1}, constants=frozenset({"tom", "jerry"})
    )
    findings_rich = set(validate_static(r, richer).findings)
    assert findings_rich <= findings_sparse


def test_inferred_table_is_self_consistent():
    r = build_repr(
        [("a.", "∀x (Cat(x) → Mammal(x))"), ("b.", "Cat(tom)"), ("c.", "Likes(tom, jerry)")],
        questions=[("q?", "∃x Mammal(x)")],
    )
    report = validate_static(r, r.table)
    assert not [f for f in report.findings if f.kind.startswith("undeclared")]


def test_serialize_round_trip_document_shape():
    r = build_repr(
        [
            ("Humans are mammals.", "∀x (Human(x) → Mammal(x))"),
            ("Tom is a human.", "Human(tom)"),
        ],
        questions=[("There is an animal.", "∃x Animal(x)")],
    )
    data = serialize_repr(r)
    doc = json.loads(data)
    assert set(doc) == {"Predicates", "Constants", "Premises", "Proposition"}
    assert doc["Premises"][0] == {
        "statement": "Humans are mammals.",
        "symbol": "∀x (Human(x) → Mammal(x))",
    }
    assert deserialize_repr(data) == r


def test_repr_renderings_are_kept_and_repr_to_doc_stays_fresh():
    r = build_repr(
        [("Tom is a human.", "Human(tom)"), ("Humans are mammals.", "∀x (Human(x) → Mammal(x))")],
        questions=[("Is Tom a mammal?", "Mammal(tom)")],
    )
    first = repr_to_doc(r)
    first["Premises"].clear()
    assert repr_to_doc(r) is not first and repr_to_doc(r)["Premises"]
    assert r.doc is r.doc and r.doc == repr_to_doc(r)
    assert r.text is r.text
    assert serialize_repr(r) == json.dumps(repr_to_doc(r), ensure_ascii=False, indent=2).encode("utf-8")


def test_empty_repr_round_trips():
    r = build_repr([])
    doc = json.loads(serialize_repr(r))
    assert doc["Premises"] == [] and doc["Proposition"] == []
    assert deserialize_repr(serialize_repr(r)) == r


def test_missing_symbol_key_reports_pointer():
    doc = {"Premises": [{"statement": "x."}], "Proposition": []}
    with pytest.raises(SchemaError) as exc:
        deserialize_repr(json.dumps(doc))
    assert exc.value.pointer == "/Premises/0/symbol"


def test_unknown_field_rejected_in_strict_mode():
    doc = {"Premises": [], "Proposition": [], "Extra": 1}
    with pytest.raises(SchemaError) as exc:
        deserialize_repr(json.dumps(doc))
    assert exc.value.pointer == "/Extra"


def test_proposition_accepts_single_object():
    doc = {
        "Premises": [{"statement": "f.", "symbol": "P(ada)"}],
        "Proposition": {"statement": "q?", "symbol": "P(ada)"},
    }
    r = deserialize_repr(json.dumps(doc))
    assert len(r.questions) == 1


def test_declared_blocks_round_trip_sorts():
    doc = {
        "Predicates": {"Weighs": {"arity": 2, "sorts": ["animal", "quantity"]}},
        "Constants": {"tom": {"sort": "animal"}, "oneKilogram": {"sort": "quantity"}},
        "Premises": [{"statement": "f.", "symbol": "Weighs(tom, oneKilogram)"}],
        "Proposition": [],
    }
    r = deserialize_repr(json.dumps(doc))
    assert r.table.predicate_sorts["Weighs"] == ("animal", "quantity")
    assert deserialize_repr(serialize_repr(r)) == r


def test_is_ground_literal():
    assert is_ground_literal(parse_formula("P(ada)"))
    assert is_ground_literal(parse_formula("¬P(ada)"))
    assert not is_ground_literal(parse_formula("P(x)"))
    assert not is_ground_literal(parse_formula("∀x P(x)"))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-5, max_value=5) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=10), children, max_size=3),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_doc_to_repr_total_on_arbitrary_json(doc):
    from proofplan.structured import doc_to_repr

    try:
        doc_to_repr(doc)
    except SchemaError:
        pass


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_serialize_round_trip_generated(seed):
    rng = random.Random(seed)
    facts = [(f"fact {i}.", f"{rng.choice('PQR')}(tom{rng.randint(1, 3)})") for i in range(rng.randint(0, 4))]
    rules = [
        (f"rule {i}.", f"∀x ({rng.choice('PQR')}(x) → {rng.choice('PQR')}(x))")
        for i in range(rng.randint(0, 3))
    ]
    questions = [("q?", "∃x P(x)")] if rng.random() < 0.5 else []
    r = build_repr(facts + rules, questions=questions)
    assert deserialize_repr(serialize_repr(r)) == r
    doc = repr_to_doc(r)
    assert deserialize_repr(json.dumps(doc)) == r
