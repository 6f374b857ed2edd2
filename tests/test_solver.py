import json
import random
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from helpers import ground_literal_queries, random_horn_kb, reference_fire_rounds, reference_ground_rules
from proofplan.errors import SchemaError
from proofplan.fol import Atom, Constant, Exists, ForAll, Not, SymbolTable, Variable, parse_formula
from proofplan.solver import (
    DEFAULT_GROUNDING_BOUND,
    DomainTooLarge,
    KnowledgeBase,
    Literal,
    StepRecord,
    TooManyAtoms,
    UnsupportedFragment,
    brute_force_entails,
    decide,
    fire_rounds,
    forward_chain,
    index_literals,
    kb_from_repr,
    literal_from_formula,
    literal_to_formula,
    rule_templates,
    step_record_from_doc,
    step_record_to_doc,
)
from proofplan.harness import load_dataset
from proofplan.pipeline import _literal_table
from proofplan.structured import build_repr, doc_to_repr


def make_kb(facts, rules, predicates, constants):
    table = SymbolTable(predicates=predicates, constants=frozenset(constants))
    literals = frozenset(literal_from_formula(parse_formula(f)) for f in facts)
    return KnowledgeBase(
        table=table,
        literals=literals,
        rules=tuple((i, parse_formula(r)) for i, r in enumerate(rules, start=len(facts) + 1)),
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
    kb = make_kb(["Cat(tom)"], ["∀x (Cat(x) → Mammal(x))"], {"Cat": 1, "Mammal": 1}, {"tom"})
    (ground,) = forward_chain(kb).derivations
    assert ground.binding == (("x", "tom"),)
    assert ground.premises == (Literal(True, "Cat", ("tom",)),)
    assert ground.conclusion == Literal(True, "Mammal", ("tom",))


def test_ground_rules_counts_instantiations():
    kb = make_kb(
        [],
        ["∀x ∀y (Likes(x, y) → Knows(x, y))"],
        {"Likes": 2, "Knows": 2},
        {"a1", "a2", "a3"},
    )
    (rule,) = rule_templates(kb)
    assert rule.used == ("x", "y") and len(reference_ground_rules(kb)) == 9


def test_ground_rules_rejects_existential_rule():
    kb = make_kb([], ["∃x P(x)"], {"P": 1}, {"tom"})
    with pytest.raises(UnsupportedFragment):
        rule_templates(kb)
    with pytest.raises(UnsupportedFragment):
        forward_chain(kb)


def test_ground_rules_rejects_disjunctive_consequent():
    kb = make_kb([], ["∀x (P(x) → Q(x) ∨ R(x))"], {"P": 1, "Q": 1, "R": 1}, {"tom"})
    with pytest.raises(UnsupportedFragment):
        rule_templates(kb)
    with pytest.raises(UnsupportedFragment):
        forward_chain(kb)


def _constants(count):
    return {f"c{i:04d}" for i in range(count)}


def test_ground_rules_domain_bound():
    # Two quantified variables over 1,000 constants enumerate exactly
    # DEFAULT_GROUNDING_BOUND bindings; one more constant is past it.
    rule = "∀x ∀y (Likes(x, y) → Knows(x, y))"
    assert 1000**2 == DEFAULT_GROUNDING_BOUND
    kb = make_kb([], [rule], {"Likes": 2, "Knows": 2}, _constants(1000))
    assert len(rule_templates(kb)) == 1
    kb = make_kb([], [rule], {"Likes": 2, "Knows": 2}, _constants(1001))
    with pytest.raises(DomainTooLarge):
        rule_templates(kb)
    with pytest.raises(DomainTooLarge):
        forward_chain(kb)
    with pytest.raises(DomainTooLarge):
        decide(kb, parse_formula("Knows(c0000, c0001)"))


def test_ground_rules_bound_counts_bindings_enumerated():
    # 3 constants and two quantified variables: 9 bindings count against the
    # bound, but y is unused, so there are only 3 distinct ground rules, and
    # each fires with y bound to the least constant.
    rule = "∀x ∀y (P(x) → Q(x))"
    kb = make_kb(["P(a1)", "P(a3)"], [rule], {"P": 1, "Q": 1}, {"a1", "a2", "a3"})
    (template,) = rule_templates(kb)
    assert template.used == ("x",) and len(reference_ground_rules(kb)) == 3
    assert [g.binding for g in forward_chain(kb).derivations] == [
        (("x", "a1"), ("y", "a1")),
        (("x", "a3"), ("y", "a1")),
    ]
    # Over 1,000 constants the unused y still counts: exactly 1,000,000
    # bindings pass, though only 1,000 ground rules are distinct.
    kb = make_kb(["P(c0007)"], [rule], {"P": 1, "Q": 1}, _constants(1000))
    assert [g.binding for g in forward_chain(kb).derivations] == [(("x", "c0007"), ("y", "c0000"))]
    kb = make_kb(["P(c0007)"], [rule], {"P": 1, "Q": 1}, _constants(1001))
    with pytest.raises(DomainTooLarge):
        rule_templates(kb)
    with pytest.raises(DomainTooLarge):
        forward_chain(kb)
    with pytest.raises(DomainTooLarge):
        decide(kb, parse_formula("Q(c0007)"))


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
    # A theory with no rules is its own fixpoint, under either setting.
    assert out is kb and forward_chain(kb, cwa=True) is kb


def test_forward_chain_idempotent():
    kb = forward_chain(kb_from_repr(fig1b_repr()))
    again = forward_chain(kb)
    assert again.literals == kb.literals
    assert again.derivations == kb.derivations
    # Derivations given as a list are kept as a tuple, so chaining can extend them.
    listed = replace(kb_from_repr(fig1b_repr()), derivations=[kb.derivations[0]])
    assert listed.derivations == kb.derivations[:1]
    assert forward_chain(listed).derivations[0] == kb.derivations[0]


def test_chaining_is_idempotent_and_decide_judges_a_fixpoint_alike():
    rng = random.Random(515)
    supported = 0
    for _ in range(1500):
        kb = random_horn_kb(rng)
        queries = [literal_to_formula(q) for q in ground_literal_queries(rng, kb, count=3)]
        for cwa in (False, True):
            once = forward_chain(kb, cwa=cwa)
            twice = forward_chain(once, cwa=cwa)
            assert twice.literals == once.literals
            assert twice.derivations == once.derivations
            for question in queries:
                verdict = decide(kb, question, cwa=cwa)
                assert decide(once, question, cwa=cwa) == verdict
                supported += bool(verdict.support)
    assert supported


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
            baseline = forward_chain(kb, cwa=cwa).literals
            permuted = KnowledgeBase(table=kb.table, literals=kb.literals, rules=tuple(rules))
            assert forward_chain(permuted, cwa=cwa).literals == baseline


def test_forward_chain_fires_in_rounds():
    kb = make_kb(
        ["P(tom)"],
        ["∀x (P(x) → Q(x))", "∀x (Q(x) → R(x))", "∀x (P(x) → S(x))"],
        {"P": 1, "Q": 1, "R": 1, "S": 1},
        {"tom"},
    )
    assert [str(g.conclusion) for g in forward_chain(kb).derivations] == ["Q(tom)", "S(tom)", "R(tom)"]


def _with_idle_variable_and_stray_constant(kb):
    """`kb` with an outer quantified variable no literal mentions on every
    other rule, and a fact about a constant the table does not declare."""
    rules = tuple((i, ForAll("w", rule) if n % 2 == 0 else rule) for n, (i, rule) in enumerate(kb.rules))
    name, arity = sorted(kb.table.predicates.items())[0]
    stray = Literal(True, name, ("zz",) * arity)
    return replace(kb, rules=rules, literals=kb.literals | {stray})


def test_fire_rounds_matches_the_reference_engine():
    rng = random.Random(606)
    fired_any = idle = resumed = 0
    for index in range(2000):
        kb = random_horn_kb(rng)
        if index % 4 == 3:
            kb = _with_idle_variable_and_stray_constant(kb)
        rules = rule_templates(kb)
        grounded = reference_ground_rules(kb)
        used = {rule.rule_id: rule.used for rule in rules}
        idle += any(len(g.binding) > len(used[g.rule_id]) for g in grounded)
        for cwa in (False, True):
            for cut in sorted({1, len(rules) // 2 + 1, len(rules)}):
                # A prefix of the rules, then all of them on the same index,
                # as the stub's steps resume; the reference keeps one set.
                got, want = index_literals(kb.literals), set(kb.literals)
                fired = fire_rounds(got, rules[:cut], kb.table.constants, cwa)
                prefix = {rule.rule_id for rule in rules[:cut]}
                assert fired == reference_fire_rounds(want, [g for g in grounded if g.rule_id in prefix], cwa)
                assert got == index_literals(want)
                fired_any += bool(fired)
                more = fire_rounds(got, rules, kb.table.constants, cwa)
                assert more == reference_fire_rounds(want, grounded, cwa)
                assert got == index_literals(want)
                resumed += bool(more) and cut < len(rules)
    assert fired_any and idle and resumed


def test_quantified_rules_have_no_instances_without_constants():
    # The table declares no constants, so only the unquantified rule has an
    # instance, even though the quantified rule never mentions its variable.
    kb = make_kb(["P(tom)"], ["∀x (P(tom) → Q(tom))", "P(tom) → R(tom)"], {"P": 1, "Q": 1, "R": 1}, set())
    quantified, plain = rule_templates(kb)
    derivations = forward_chain(kb).derivations
    assert [str(g.conclusion) for g in derivations] == ["R(tom)"]
    assert list(derivations) == reference_fire_rounds(set(kb.literals), reference_ground_rules(kb))
    cited = derivations[0]
    assert plain.has_instance(cited.premises, cited.conclusion, kb.table.constants)
    assert not quantified.has_instance(cited.premises, Literal(True, "Q", ("tom",)), kb.table.constants)


def test_forward_chain_joins_150_constants_quickly():
    constants = [f"c{i:03d}" for i in range(150)]
    predicates = {f"A{i}": 1 for i in range(51)} | {f"B{k}": 1 for k in range(10)} | {"R": 2}
    facts = {Literal(True, "A0", (c,)) for c in constants[:40]}
    facts |= {Literal(True, "R", (a, b)) for a, b in zip(constants, constants[1:])}
    rules = [f"∀x (A{i}(x) → A{i + 1}(x))" for i in range(50)]
    rules += [f"∀x ∀y (R(x, y) ∧ A{5 * k}(y) → B{k}(x))" for k in range(10)]
    kb = KnowledgeBase(
        table=SymbolTable(predicates=predicates, constants=frozenset(constants)),
        literals=frozenset(facts),
        rules=tuple((i, parse_formula(rule)) for i, rule in enumerate(rules, start=len(facts) + 1)),
    )
    # Enumerating every binding would build 50 * 150 + 10 * 150 ** 2 ground
    # rules; the join touches only the matches.
    start = time.perf_counter()
    out = forward_chain(kb)
    assert time.perf_counter() - start < 0.5
    assert len(out.derivations) == 40 * 50 + 10 * 39
    assert Literal(True, "B9", ("c000",)) in out.literals


def test_step_record_codec_round_trips_fired_rules():
    rng = random.Random(23)
    fired_any = 0
    for number in range(200):
        kb = random_horn_kb(rng)
        rules = rule_templates(kb)
        index = index_literals(kb.literals)
        records = [StepRecord(1, "Collect the initial facts.", derived=tuple(sorted(kb.literals)))]
        for step_id, cut in enumerate((1, None), start=2):
            fired = fire_rounds(index, rules[:cut], kb.table.constants, cwa=number % 2 == 1)
            derived = tuple(g.conclusion for g in fired)
            records.append(StepRecord(step_id, f"fire rules[:{cut}]", "ok", derived, tuple(fired)))
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


def test_decide_existential_witness_is_the_least_binding():
    # Reference: the first binding, in quantifier order over the sorted
    # constants, whose instance is derived; a variable quantified twice takes
    # the inner quantifier's value.
    rng = random.Random(88)
    witnessed = 0
    for _ in range(300):
        kb = forward_chain(random_horn_kb(rng))
        if kb.contradiction:
            continue
        domain = sorted(kb.table.constants)
        name, arity = rng.choice(sorted(kb.table.predicates.items()))
        args = tuple(rng.choice(["x", "y", "x", domain[0]]) for _ in range(arity))
        variables = rng.choice([("x", "y"), ("y", "x"), ("x", "y", "z"), ("x", "y", "x")])
        atom = Atom(name, tuple(Variable(a) if a in "xy" else Constant(a) for a in args))
        body = atom if rng.random() < 0.7 else Not(atom)
        question = body
        for variable in reversed(variables):
            question = Exists(variable, question)
        expected = None
        for values in product(domain, repeat=len(variables)):
            binding = dict(zip(variables, values))
            candidate = Literal(body is atom, name, tuple(binding.get(a, a) for a in args))
            if candidate in kb.literals:
                expected = candidate
                break
        verdict = decide(kb, question)
        if expected is None:
            assert verdict.label == "U"
        else:
            witnessed += 1
            reference = decide(kb, literal_to_formula(expected))
            assert (verdict.label, verdict.support) == ("T", reference.support)
    assert witnessed


def test_decide_existential_requantified_variable_takes_the_inner_value():
    kb = make_kb(
        ["P(ann)", "Q(bob)"],
        ["∀x (P(x) → R(x, bob))", "∀x (Q(x) → R(x, ann))"],
        {"P": 1, "Q": 1, "R": 2},
        {"ann", "bob"},
    )
    # Bindings run x, y, x; the first with a derived instance is
    # (ann, ann, bob), which reads R(bob, ann) because the inner x wins.
    verdict = decide(kb, parse_formula("∃x ∃y ∃x R(x, y)"))
    assert [str(g.conclusion) for g in verdict.support] == ["R(bob, ann)"]
    verdict = decide(kb, parse_formula("∃x ∃y R(x, y)"))
    assert [str(g.conclusion) for g in verdict.support] == ["R(ann, bob)"]


def test_decide_contradiction_yields_note_not_label():
    kb = make_kb(["P(tom)", "¬P(tom)"], [], {"P": 1}, {"tom"})
    verdict = decide(kb, parse_formula("P(tom)"))
    assert verdict.label == "U"
    assert any("contradiction" in note for note in verdict.notes)


def test_decide_rejects_unsupported_question():
    kb = make_kb(["P(tom)"], [], {"P": 1, "Q": 1}, {"tom"})
    with pytest.raises(UnsupportedFragment):
        decide(kb, parse_formula("∀x P(x)"))
    with pytest.raises(UnsupportedFragment):
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
    kb = make_kb(["Bird(tweety)"], rules, {"Flies": 1, "Grounded": 1, "Bird": 1}, {"tweety"})
    question = parse_formula("Grounded(tweety)")
    assert decide(kb, question).label == "U"
    assert decide(kb, question, cwa=True).label == "T"
    assert Literal(True, "Grounded", ("tweety",)) in forward_chain(kb, cwa=True).literals
    assert forward_chain(kb).literals == kb.literals


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
        brute_force_entails(kb, parse_formula("Likes(a1, a2)"))


def wide_kb(rules):
    """Atoms 0-9 are facts, atoms 10-17 a free disjunction, and `rules` add atoms 18 up."""
    facts = [f"P{i:02d}(ada)" for i in range(10)]
    free = " ∨ ".join(f"R{i}(ada)" for i in range(10, 18))
    return make_kb(facts, [free, *rules], {}, {"ada"})


BEYOND_ONE_CHUNK = [" ∨ ".join(f"Q{i}(ada)" for i in range(18, 24))]


@pytest.mark.parametrize(
    "rules, question, label",
    [
        (["P09(ada) → Q18(ada)"], "Q18(ada)", "T"),
        (["P09(ada) → Q18(ada)"], "¬Q18(ada)", "F"),
        (["P09(ada) → Q18(ada)"], "Q19(ada)", "U"),
        (["R17(ada) ↔ Q18(ada)"], "Q18(ada) → R17(ada)", "T"),
        (["R17(ada) ↔ Q18(ada)"], "Q18(ada)", "U"),
        (["Q18(ada) ↔ ¬Q19(ada)", "Q20(ada) → Q19(ada)"], "Q18(ada) ∧ Q19(ada)", "F"),
        (["Q18(ada) ↔ ¬Q19(ada)", "Q20(ada) → Q19(ada)"], "Q20(ada) → ¬Q18(ada)", "T"),
        (["Q18(ada) ↔ ¬Q19(ada)", "Q20(ada) → Q19(ada)"], "Q20(ada)", "U"),
        (BEYOND_ONE_CHUNK, "Q23(ada)", "U"),
        (BEYOND_ONE_CHUNK, BEYOND_ONE_CHUNK[0], "T"),
        (BEYOND_ONE_CHUNK, " ∧ ".join(f"¬Q{i}(ada)" for i in range(18, 24)), "F"),
    ],
)
def test_brute_force_enumerates_atoms_beyond_the_first_chunk(rules, question, label):
    # Atoms 18 and up vary from one 2^18-assignment chunk to the next.
    assert brute_force_entails(wide_kb(rules), parse_formula(question)) == label


def test_brute_force_atom_limit_counts_the_question_atoms():
    kb = wide_kb(BEYOND_ONE_CHUNK)
    assert brute_force_entails(kb, parse_formula("Q18(ada) ∨ ¬Q18(ada)")) == "T"
    with pytest.raises(TooManyAtoms, match="25 ground atoms"):
        brute_force_entails(kb, parse_formula("Q24(ada)"))


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


def _declared_context():
    texts = ("Big(ann)", "¬Big(B)", "Likes(ann, a)", "¬Likes(a, B)", "∀x (Big(x) → Tall(x))")
    return doc_to_repr(
        {
            "Premises": [{"statement": text, "symbol": text} for text in texts],
            "Proposition": [],
            "Predicates": {"Big": {"arity": 1}, "Likes": {"arity": 2}, "Tall": {"arity": 1}},
            "Constants": ["ann", "B", "a"],
        }
    )


def test_solver_form_seeds_every_stated_fact():
    # `a` is a declared constant; parse_formula alone would read it as a variable
    assert _literal_table(_declared_context()) == {
        "Big(ann)": Literal(True, "Big", ("ann",)),
        "¬Big(B)": Literal(False, "Big", ("B",)),
        "Likes(ann, a)": Literal(True, "Likes", ("ann", "a")),
        "¬Likes(a, B)": Literal(False, "Likes", ("a", "B")),
    }


def test_step_record_from_doc_reads_every_cited_argument_as_a_constant():
    doc = {
        "step": 1,
        "derived": ["P(a)", "¬Likes(x, bob)"],
        "derivations": [{"rule": 1, "binding": {"x": "a"}, "premises": ["P(a)"], "literal": "Q(a)"}],
    }
    record = step_record_from_doc(doc)
    assert record.derived == (Literal(True, "P", ("a",)), Literal(False, "Likes", ("x", "bob")))
    assert record.derivations[0].premises == (Literal(True, "P", ("a",)),)
    assert record.derivations[0].conclusion == Literal(True, "Q", ("a",))
    assert step_record_from_doc(step_record_to_doc(record)) == record
    for text in ("P(a) ∧ Q(a)", "∀x P(x)", "¬¬P(a)", "a = b"):
        with pytest.raises(SchemaError, match="not a ground literal"):
            step_record_from_doc({"derived": [text]})


@pytest.mark.parametrize("name", ["fig1b.json", "batch3.json", "task_definition.json"])
def test_solver_form_seeds_strings_that_parse_to_their_literal(name):
    for instance in load_dataset(Path(__file__).parent / "data" / name):
        literals = _literal_table(build_repr([(text, text) for text in instance.premises]))
        assert literals
        for text, lit in literals.items():
            assert literal_from_formula(parse_formula(text)) == lit
