import json
import random
from dataclasses import replace

import pytest

from helpers import ground_literal_queries, random_horn_kb
from proofplan.fol import SymbolTable, parse_formula
from proofplan.solver import (
    DomainTooLarge,
    KnowledgeBase,
    Literal,
    StepRecord,
    TooManyAtoms,
    UnsupportedFragment,
    UnsupportedQuestion,
    brute_force_entails,
    decide,
    fire_rounds,
    forward_chain,
    ground_rules,
    kb_from_repr,
    literal_from_formula,
    step_record_from_doc,
    step_record_to_doc,
)
from proofplan.structured import build_repr


def make_kb(facts, rules, predicates, constants, cwa=False):
    table = SymbolTable(predicates=predicates, constants=frozenset(constants))
    literals = frozenset(literal_from_formula(parse_formula(f)) for f in facts)
    return KnowledgeBase(
        table=table,
        literals=literals,
        rules=tuple(parse_formula(r) for r in rules),
        cwa=cwa,
    )


def fig1b_repr():
    return build_repr(
        [
            ("The lion chases the dog.", "Chases(lion, dog)"),
            ("The lion chases the mouse.", "Chases(lion, mouse)"),
            ("The tiger sees the lion.", "Sees(tiger, lion)"),
            ("Whatever chases the dog is round.", "∀x (Chases(x, dog) → Round(x))"),
            ("A round chaser of the mouse makes it kind.", "∀x (Round(x) ∧ Chases(x, mouse) → Kind(mouse))"),
            ("Kind things chase the dog.", "∀x (Kind(x) → Chases(x, dog))"),
            ("Round things see the lion.", "∀x (Round(x) → Sees(x, lion))"),
        ]
    )


def task_definition_repr():
    return build_repr(
        [
            ("All cats are mammals.", "∀x (Cat(x) → Mammal(x))"),
            ("Tom is a mammal.", "Mammal(tom)"),
        ]
    )


def test_ground_rules_single_constant():
    kb = make_kb([], ["∀x (Cat(x) → Mammal(x))"], {"Cat": 1, "Mammal": 1}, {"tom"})
    grounded = ground_rules(kb)
    assert len(grounded) == 1
    assert grounded[0].premises == (Literal(True, "Cat", ("tom",)),)
    assert grounded[0].conclusion == Literal(True, "Mammal", ("tom",))


def test_ground_rules_counts_instantiations():
    kb = make_kb(
        [],
        ["∀x ∀y (Likes(x, y) → Knows(x, y))"],
        {"Likes": 2, "Knows": 2},
        {"a1", "a2", "a3"},
    )
    assert len(ground_rules(kb)) == 9


def test_ground_rules_rejects_existential_rule():
    kb = make_kb([], ["∃x P(x)"], {"P": 1}, {"tom"})
    with pytest.raises(UnsupportedFragment):
        ground_rules(kb)


def test_ground_rules_rejects_disjunctive_consequent():
    kb = make_kb([], ["∀x (P(x) → Q(x) ∨ R(x))"], {"P": 1, "Q": 1, "R": 1}, {"tom"})
    with pytest.raises(UnsupportedFragment):
        ground_rules(kb)


def test_ground_rules_domain_bound():
    kb = make_kb(
        [],
        ["∀x ∀y (Likes(x, y) → Knows(x, y))"],
        {"Likes": 2, "Knows": 2},
        {"a1", "a2", "a3"},
    )
    with pytest.raises(DomainTooLarge):
        ground_rules(kb, max_instantiations=8)


def test_ground_rules_bound_counts_bindings_enumerated():
    # 3 constants and two quantified variables: 9 bindings, but y is unused,
    # so only 3 distinct ground rules.
    kb = make_kb([], ["∀x ∀y (P(x) → Q(x))"], {"P": 1, "Q": 1}, {"a1", "a2", "a3"})
    assert len(ground_rules(kb, max_instantiations=9)) == 3
    with pytest.raises(DomainTooLarge):
        ground_rules(kb, max_instantiations=5)


def test_forward_chain_fig1b_reaches_expected_fixpoint():
    kb = forward_chain(kb_from_repr(fig1b_repr()))
    names = {str(lit) for lit in kb.literals}
    assert {
        "Round(lion)",
        "Kind(mouse)",
        "Chases(mouse, dog)",
        "Round(mouse)",
        "Sees(mouse, lion)",
    } <= names
    assert not kb.contradiction


def test_forward_chain_empty_rules_is_identity_on_facts():
    kb = make_kb(["P(tom)"], [], {"P": 1}, {"tom"})
    out = forward_chain(kb)
    assert out.literals == kb.literals


def test_forward_chain_idempotent():
    kb = forward_chain(kb_from_repr(fig1b_repr()))
    again = forward_chain(kb)
    assert again.literals == kb.literals
    assert again.derivations == kb.derivations


def test_forward_chain_sets_contradiction_flag():
    kb = make_kb(
        ["P(tom)", "¬Q(tom)"],
        ["∀x (P(x) → Q(x))"],
        {"P": 1, "Q": 1},
        {"tom"},
    )
    out = forward_chain(kb)
    assert out.contradiction


def test_forward_chain_order_independent():
    # Closed-world matching is not monotone, so only round-based firing keeps
    # its fixpoint independent of rule order; order-dependent firing shows in
    # about 1% of shuffled theories, hence the sample size.
    rng = random.Random(4242)
    for _ in range(600):
        kb = random_horn_kb(rng)
        rules = list(kb.rules)
        rng.shuffle(rules)
        for cwa in (False, True):
            baseline = forward_chain(replace(kb, cwa=cwa)).literals
            permuted = KnowledgeBase(table=kb.table, literals=kb.literals, rules=tuple(rules), cwa=cwa)
            assert forward_chain(permuted).literals == baseline


def test_forward_chain_fires_in_rounds():
    kb = make_kb(
        ["P(tom)"],
        ["∀x (P(x) → Q(x))", "∀x (Q(x) → R(x))", "∀x (P(x) → S(x))"],
        {"P": 1, "Q": 1, "R": 1, "S": 1},
        {"tom"},
    )
    assert [str(g.conclusion) for g in forward_chain(kb).derivations] == ["Q(tom)", "S(tom)", "R(tom)"]


def test_step_record_codec_round_trips_fired_rules():
    rng = random.Random(23)
    fired_any = 0
    for index in range(200):
        kb = random_horn_kb(rng)
        grounded = ground_rules(kb)
        literals = set(kb.literals)
        records = [StepRecord(1, "Collect the initial facts.", derived=tuple(sorted(kb.literals)))]
        for step_id, max_rounds in enumerate((1, None), start=2):
            fired = fire_rounds(literals, grounded, cwa=index % 2 == 1, max_rounds=max_rounds)
            derived = tuple(g.conclusion for g in fired)
            records.append(StepRecord(step_id, f"fire {max_rounds}", "ok", derived, tuple(fired)))
            fired_any += bool(fired)
        for record in records:
            doc = json.loads(json.dumps(step_record_to_doc(record), ensure_ascii=False))
            assert step_record_from_doc(doc) == record
    assert fired_any


def test_decide_supports_a_long_derivation_chain():
    steps = 1500
    rules = [f"∀x (P{i}(x) → P{i + 1}(x))" for i in range(steps)]
    predicates = {f"P{i}": 1 for i in range(steps + 1)}
    for ordered in (rules, rules[::-1]):
        kb = make_kb(["P0(tom)"], ordered, predicates, {"tom"})
        verdict = decide(kb, parse_formula(f"P{steps}(tom)"))
        assert verdict.label == "T"
        assert [str(g.conclusion) for g in verdict.support] == [f"P{i}(tom)" for i in range(1, steps + 1)]


def test_decide_task_definition_unknown():
    verdict = decide(kb_from_repr(task_definition_repr()), parse_formula("Cat(tom)"))
    assert verdict.label == "U"


def test_decide_fig1b_false_with_support():
    verdict = decide(kb_from_repr(fig1b_repr()), parse_formula("¬Sees(mouse, lion)"))
    assert verdict.label == "F"
    conclusions = [str(g.conclusion) for g in verdict.support]
    for expected in ("Round(lion)", "Kind(mouse)", "Chases(mouse, dog)", "Round(mouse)", "Sees(mouse, lion)"):
        assert expected in conclusions


def test_decide_membership_has_empty_rule_support():
    kb = make_kb(["Mammal(tom)"], [], {"Mammal": 1}, {"tom"})
    verdict = decide(kb, parse_formula("Mammal(tom)"))
    assert verdict.label == "T" and verdict.support == ()


def test_decide_existential():
    kb = kb_from_repr(task_definition_repr())
    assert decide(kb, parse_formula("∃x Mammal(x)")).label == "T"
    unknown = decide(kb, parse_formula("∃x Cat(x)"))
    assert unknown.label == "U" and unknown.notes


def test_decide_contradiction_yields_note_not_label():
    kb = make_kb(["P(tom)", "¬P(tom)"], [], {"P": 1}, {"tom"})
    verdict = decide(kb, parse_formula("P(tom)"))
    assert verdict.label == "U"
    assert any("contradiction" in note for note in verdict.notes)


def test_decide_rejects_unsupported_question():
    kb = make_kb(["P(tom)"], [], {"P": 1, "Q": 1}, {"tom"})
    with pytest.raises(UnsupportedQuestion):
        decide(kb, parse_formula("∀x P(x)"))
    with pytest.raises(UnsupportedQuestion):
        decide(kb, parse_formula("P(tom) ∧ Q(tom)"))


def test_negative_antecedent_requires_explicit_negative_literal():
    rules = ["∀x (¬Flies(x) → Grounded(x))"]
    open_world = make_kb(["Bird(tweety)"], rules, {"Flies": 1, "Grounded": 1, "Bird": 1}, {"tweety"})
    assert decide(open_world, parse_formula("Grounded(tweety)")).label == "U"
    explicit = make_kb(
        ["Bird(tweety)", "¬Flies(tweety)"],
        rules,
        {"Flies": 1, "Grounded": 1, "Bird": 1},
        {"tweety"},
    )
    assert decide(explicit, parse_formula("Grounded(tweety)")).label == "T"


def test_closed_world_antecedent_matching_is_opt_in():
    rules = ["∀x (¬Flies(x) → Grounded(x))"]
    closed = make_kb(
        ["Bird(tweety)"],
        rules,
        {"Flies": 1, "Grounded": 1, "Bird": 1},
        {"tweety"},
        cwa=True,
    )
    assert decide(closed, parse_formula("Grounded(tweety)")).label == "T"


def test_brute_force_examples():
    td = kb_from_repr(task_definition_repr())
    assert brute_force_entails(td, parse_formula("Cat(tom)")) == "U"

    kb = make_kb(["P(ada)"], [], {"P": 1}, {"ada"})
    assert brute_force_entails(kb, parse_formula("P(ada)")) == "T"

    kb2 = make_kb(["P(ada)"], ["∀x (P(x) → R(x))"], {"P": 1, "R": 1}, {"ada"})
    assert brute_force_entails(kb2, parse_formula("¬R(ada)")) == "F"


def test_brute_force_handles_existential_refutation():
    kb = make_kb(
        ["¬P(ada)"],
        [],
        {"P": 1},
        {"ada"},
    )
    assert brute_force_entails(kb, parse_formula("∃x P(x)")) == "F"


def test_brute_force_atom_limit():
    kb = make_kb(
        [],
        ["∀x ∀y (Likes(x, y) → Likes(y, x))"],
        {"Likes": 2},
        {"a1", "a2", "a3", "a4", "a5", "a6"},
    )
    with pytest.raises(TooManyAtoms):
        brute_force_entails(kb, parse_formula("Likes(a1, a2)"), atom_limit=24)


def test_fixpoint_literals_are_semantically_entailed():
    rng = random.Random(777)
    from proofplan.solver import literal_to_formula

    for _ in range(25):
        kb = random_horn_kb(rng)
        chained = forward_chain(kb)
        if chained.contradiction:
            continue
        for lit in sorted(chained.literals)[:4]:
            assert brute_force_entails(kb, literal_to_formula(lit)) == "T"


def test_definite_monotonicity_adding_facts_never_drops_truth():
    rng = random.Random(2024)
    for _ in range(30):
        kb = random_horn_kb(rng, allow_negation=False)
        queries = ground_literal_queries(rng, kb, count=3)
        extra_name = sorted(kb.table.predicates)[0]
        extra = Literal(
            True,
            extra_name,
            tuple(sorted(kb.table.constants)[:1] * kb.table.predicates[extra_name]),
        )
        bigger = KnowledgeBase(
            table=kb.table, literals=kb.literals | {extra}, rules=kb.rules
        )
        for query in queries:
            if not query.positive:
                continue
            from proofplan.solver import literal_to_formula

            before = decide(kb, literal_to_formula(query)).label
            after = decide(bigger, literal_to_formula(query)).label
            if before == "T":
                assert after == "T"
