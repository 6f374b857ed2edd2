import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import formatted_findings, reference_infer_table, reference_validate_static
from proofplan.backends import ScriptedBackend, SolverStubBackend
from proofplan.errors import SchemaError
from proofplan.fol import FolError, SymbolTable, parse_formula
from proofplan.harness import load_dataset
from proofplan.pipeline import Problem, translate_stage
from proofplan.structured import (
    build_repr,
    deserialize_repr,
    doc_to_repr,
    is_ground_literal,
    repr_to_doc,
)

DATA = Path(__file__).parent / "data"
FIXTURES = Path(__file__).parent / "fixtures"


def test_build_classifies_rule_and_infers_table():
    r = build_repr([("Humans are mammals.", "∀x (Human(x) → Mammal(x))")])
    assert len(r.rules) == 1 and not r.facts
    assert r.table.predicates == {"Human": 1, "Mammal": 1}


def test_build_classifies_ground_atom_as_fact():
    r = build_repr([("Tom is a mammal.", "Mammal(tom)")])
    assert len(r.facts) == 1 and not r.rules
    assert "tom" in r.table.constants


def test_build_rejects_empty_nl():
    with pytest.raises(SchemaError) as exc:
        build_repr([("", "P(a)")])
    assert exc.value.pointer == "/Premises/0/statement"
    assert exc.value.message == "empty natural-language statement"


def test_build_reports_offending_pair_index():
    with pytest.raises(SchemaError) as exc:
        build_repr([("fine.", "P(a)"), ("broken.", "Q(a")])
    assert exc.value.pointer == "/Premises/1/symbol"
    assert not exc.value.message.startswith("statement")
    with pytest.raises(SchemaError) as exc:
        build_repr([("fine.", "P(a)")], questions=[("fine.", "P(a)"), ("", "P(a)")])
    assert exc.value.pointer == "/Proposition/1/statement"
    with pytest.raises(SchemaError) as exc:
        build_repr([("fine.", "P(a)")], questions=[("broken.", "P(a")])
    assert exc.value.pointer == "/Proposition/0/symbol"


def test_build_rejects_arity_conflict():
    with pytest.raises(SchemaError) as exc:
        build_repr([("one.", "P(a)"), ("two.", "P(a, b)")])
    assert exc.value.pointer == "/Premises"
    assert exc.value.message == "predicate P used with conflicting arities [1, 2]"


def test_build_reports_a_later_syntax_error_before_an_arity_conflict():
    # arities are compared only once every statement has parsed
    with pytest.raises(SchemaError) as exc:
        build_repr([("one.", "P(a)"), ("two.", "P(a, b)"), ("three.", "Q(a")])
    assert exc.value.pointer == "/Premises/2/symbol"


def test_statement_ids_are_contiguous():
    r = build_repr(
        [("one.", "P(ada)"), ("two.", "∀x (P(x) → Q(x))")],
        questions=[("three?", "Q(ada)")],
    )
    assert [s.id for s in r.statements()] == [1, 2, 3]
    assert r.questions[0].id == 3


def test_validate_static_clean_on_full_declarations():
    r = build_repr([("All cats are mammals.", "∀x (Cat(x) → Mammal(x))"), ("fact.", "Mammal(tom)")])
    assert r.warnings == ()


def test_validate_static_flags_non_ground_fact_and_open_rule():
    # A non-ground premise is filed as a rule, so it warns as an open rule.
    r = build_repr([("fact.", "P(x)"), ("rule.", "P(x) → Q(x)"), ("closed.", "∀y (P(y) → Q(y))")])
    assert r.facts == ()
    assert r.warnings == ("open-rule (statement 1): x", "open-rule (statement 2): x")
    assert r.warnings is r.warnings


@pytest.mark.parametrize(
    "symbol, message",
    [
        ("Likes(tom, rex)", "undeclared constant: rex"),
        ("Hates(tom, jerry)", "undeclared predicate: Hates"),
        ("Likes(tom)", "predicate Likes declared with arity 2, used with 1"),
    ],
    ids=["undeclared-constant", "undeclared-predicate", "arity-mismatch"],
)
def test_declared_table_rejects_undeclared_symbols_and_wrong_arity(symbol, message):
    doc = {
        "Predicates": {"Likes": {"arity": 2}},
        "Constants": {"tom": {}, "jerry": {}},
        "Premises": [{"statement": "a.", "symbol": "Likes(tom, jerry)"}, {"statement": "b.", "symbol": symbol}],
        "Proposition": [],
    }
    with pytest.raises(SchemaError) as exc:
        doc_to_repr(doc)
    assert exc.value.pointer == "/Premises/1/symbol"
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "predicates, constants, pointer, message",
    [
        ({}, ["tom-1"], "/Constants/0", "invalid constant name: 'tom-1'"),
        ({}, {"tom-1": {}}, "/Constants/tom-1", "invalid constant name: 'tom-1'"),
        ({"cat-x": {"arity": 1}}, [], "/Predicates/cat-x", "invalid predicate name: 'cat-x'"),
        ({"Cat": {"arity": 1, "sorts": ["a", "b"]}}, [], "/Predicates/Cat/sorts", "expected 1 sorts"),
        ({"Cat": {"arity": 1}}, ["tom", "Cat"], "/Constants/1", "Cat is declared as both a predicate and a constant"),
        ({"Cat": {"arity": 1}}, {"Cat": {}}, "/Constants/Cat", "Cat is declared as both a predicate and a constant"),
    ],
    ids=["constant-list", "constant-object", "predicate", "sorts-length", "clash-list", "clash-object"],
)
def test_declaration_errors_point_at_the_entry(predicates, constants, pointer, message):
    doc = {"Predicates": predicates, "Constants": constants, "Premises": [], "Proposition": []}
    with pytest.raises(SchemaError) as exc:
        doc_to_repr(doc)
    assert exc.value.pointer == pointer
    assert message in str(exc.value)


def test_validate_static_sort_mismatch():
    strict = SymbolTable(
        predicates={"Weighs": 2},
        constants=frozenset({"tom", "oneKilogram"}),
        predicate_sorts={"Weighs": ("animal", "animal")},
        constant_sorts={"tom": "animal", "oneKilogram": "quantity"},
    )
    r = build_repr([("fact.", "Weighs(tom, oneKilogram)")], declared=strict)
    assert r.warnings == ("sort-mismatch (statement 1): Weighs arg 2 wants animal, oneKilogram is quantity",)


def test_inferred_table_is_self_consistent():
    r = build_repr(
        [("a.", "∀x (Cat(x) → Mammal(x))"), ("b.", "Cat(tom)"), ("c.", "Likes(tom, jerry)")],
        questions=[("q?", "∃x Mammal(x)")],
    )
    assert r.warnings == ()
    assert reference_validate_static(r, r.table).ok


def _random_document(rng: random.Random, inferred: bool = False) -> dict:
    """A translate reply with optional declarations, sorts, equalities and free variables.

    With `inferred`, it declares nothing, its atoms may keep only some of
    their arguments (an arity conflict, or a syntax error when none is left)
    and end in a dataset-style `True`/`False`, and its quantifiers may bind
    `A` or `tom` as well as `x`. Without it, no extra values are drawn from
    `rng`, so each seed gives the document the warning tests check.
    """
    arities = {name: rng.randint(1, 2) for name in rng.sample(("P", "Q", "Likes", "Owns"), rng.randint(1, 4))}
    constants = rng.sample(("tom", "jerry", "rex", "ada"), rng.randint(1, 4))
    tags = ("animal", "thing", "")

    def term(bound: tuple[str, ...]) -> str:
        roll = rng.random()
        if roll < 0.1:
            return "z"  # never bound: a free variable
        return rng.choice(bound) if bound and roll < 0.6 else rng.choice(constants)

    def atom(bound: tuple[str, ...] = ()) -> str:
        if rng.random() < 0.15:
            return f"{term(bound)} = {term(bound)}"
        name = rng.choice(sorted(arities))
        args = [term(bound) for _ in range(arities[name])]
        if inferred and rng.random() < 0.15:  # maybe cut to fewer arguments, maybe add a boolean
            args = args[: rng.randint(0, len(args))] + rng.choice(([], ["True"], ["False"]))
        text = f"{name}({', '.join(args)})"
        return f"¬{text}" if rng.random() < 0.2 else text

    def variable() -> str:
        return rng.choice(("x", "A", "tom")) if inferred else "x"

    def statement() -> str:
        roll = rng.random()
        if roll < 0.4:
            return atom()
        var = variable()
        body = f"{atom((var,))} → {atom((var,))}"
        return body if roll < 0.55 else f"∀{var} ({body})"

    var = variable()
    doc: dict = {
        "Premises": [{"statement": f"p{i}.", "symbol": statement()} for i in range(rng.randint(0, 5))],
        "Proposition": [{"statement": "q?", "symbol": rng.choice([atom(), f"∃{var} {atom((var,))}"])}],
    }
    if inferred or rng.random() < 0.3:
        return doc  # the table is inferred
    doc["Predicates"] = {}
    for name, arity in arities.items():
        entry: dict = {"arity": arity}
        if rng.random() < 0.7:
            entry["sorts"] = [rng.choice(tags) for _ in range(arity)]
        doc["Predicates"][name] = entry
    if rng.random() < 0.2:
        doc["Constants"] = list(constants)
    else:
        doc["Constants"] = {c: ({"sort": rng.choice(tags[:2])} if rng.random() < 0.7 else {}) for c in constants}
    return doc


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_warnings_match_reference_validator_on_generated_documents(seed):
    r = doc_to_repr(_random_document(random.Random(seed)))
    assert r.warnings == formatted_findings(reference_validate_static(r, r.table))


def test_generated_documents_raise_both_warning_kinds():
    kinds = {w.split(" ")[0] for seed in range(200) for w in doc_to_repr(_random_document(random.Random(seed))).warnings}
    assert kinds == {"open-rule", "sort-mismatch"}


def _reference_outcome(pairs, questions):
    """The table `build_repr` infers for these pairs, or its SchemaError as (pointer, message),
    from `parse_formula` on each statement and then `reference_infer_table`."""
    formulas = []
    for index, (_, text) in enumerate([*pairs, *questions]):
        try:
            formulas.append(parse_formula(text))
        except FolError as err:
            pointer = f"/Premises/{index}" if index < len(pairs) else f"/Proposition/{index - len(pairs)}"
            return f"{pointer}/symbol", str(err)
    try:
        return reference_infer_table(formulas)
    except SchemaError as err:
        return err.pointer, err.message


def test_inferred_table_matches_the_reference_on_generated_documents():
    kinds, texts = set(), []
    for seed in range(500):
        doc = _random_document(random.Random(seed), inferred=True)
        pairs = [(item["statement"], item["symbol"]) for item in doc["Premises"]]
        questions = [(item["statement"], item["symbol"]) for item in doc["Proposition"]]
        try:
            got = build_repr(pairs, questions).table
        except SchemaError as err:
            got = err.pointer, err.message
        assert got == _reference_outcome(pairs, questions), doc
        kinds.add("table" if isinstance(got, SymbolTable) else got[0].rsplit("/", 1)[-1])
        texts += [text for _, text in pairs + questions]
    # every outcome and every case the inference must get right occurs
    assert kinds == {"table", "Premises", "symbol"}
    for case in (" = ", ", True)", ", False)", "∀x", "∀A", "∀tom", "∃A"):
        assert any(case in text for text in texts), case


def test_warnings_match_reference_validator_on_bundled_instances():
    checked = 0
    for path in sorted(DATA.glob("*.json")):
        for instance in load_dataset(path):
            # a dataset's recorded replies, if any, are in the traces file of its name
            scripted = FIXTURES / f"{path.stem}.jsonl"
            backend = ScriptedBackend(scripted) if scripted.is_file() else SolverStubBackend()
            problem = Problem(id=instance.id, premises=instance.premises, question=instance.question)
            r = translate_stage(backend, problem)
            assert r.warnings == formatted_findings(reference_validate_static(r, r.table))
            checked += 1
    assert checked >= 6


def test_serialize_round_trip_document_shape():
    r = build_repr(
        [
            ("Humans are mammals.", "∀x (Human(x) → Mammal(x))"),
            ("Tom is a human.", "Human(tom)"),
        ],
        questions=[("There is an animal.", "∃x Animal(x)")],
    )
    data = r.text.encode("utf-8")
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
    assert r.text.encode("utf-8") == json.dumps(repr_to_doc(r), ensure_ascii=False).encode("utf-8")


def test_repr_text_is_compact_json_that_reads_back():
    contexts = [
        translate_stage(SolverStubBackend(), Problem(i.id, i.premises, i.question))
        for name in ("fig1b.json", "batch3.json")
        for i in load_dataset(DATA / name)
    ]
    declared = {
        "Predicates": {"Wiegt": {"arity": 2, "sorts": ["Tier", ""]}},
        "Constants": {"mieze": {"sort": "Tier"}, "kilo": {}},
        "Premises": [{"statement": "Das Kätzchen wiegt ein Kilo.", "symbol": "Wiegt(mieze, kilo)"}],
        "Proposition": [{"statement": "Wiegt es nichts?", "symbol": "¬Wiegt(mieze, kilo)"}],
    }
    contexts.append(deserialize_repr(json.dumps(declared)))
    for r in contexts:
        assert r.text == json.dumps(r.doc, ensure_ascii=False)
        assert deserialize_repr(r.text) == r


def test_empty_repr_round_trips():
    r = build_repr([])
    doc = json.loads(r.text.encode("utf-8"))
    assert doc["Premises"] == [] and doc["Proposition"] == []
    assert deserialize_repr(r.text.encode("utf-8")) == r


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
    assert deserialize_repr(r.text.encode("utf-8")) == r


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
    assert deserialize_repr(r.text.encode("utf-8")) == r
    doc = repr_to_doc(r)
    assert deserialize_repr(json.dumps(doc)) == r
