import gc
import hashlib
import json
import random
import re
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    CannedBackend,
    ground_literal_queries,
    plan_from_matrix,
    random_horn_kb,
    reachability_by_squaring,
    reference_diagnose,
    reference_ground_rules,
    successors,
)
from proofplan import pipeline
from proofplan import plan as planmod
from proofplan import solver as solvermod
from proofplan import structured
from proofplan.backends import ScriptedBackend, SolverStubBackend
from proofplan.fol import parse_formula, render_formula
from proofplan.harness import HarnessConfig, Instance, evaluate, load_dataset
from proofplan.pipeline import (
    Diagnosis,
    PipelineConfig,
    Problem,
    RawContext,
    StageParseError,
    StepRecord,
    Trace,
    _parse_solve_doc,
    diagnose,
    extract_json,
    normalize_label,
    plan_stage,
    render_prompt,
    replan_stage,
    run_pipeline,
    solve_stage,
    trace_to_doc,
    translate_stage,
)
from proofplan.plan import CycleError, PlanStep, plan_to_json
from proofplan.solver import (
    GroundRule,
    Literal,
    Verdict,
    decide,
    forward_chain,
    kb_from_repr,
    literal_from_formula,
    literal_to_formula,
)
from proofplan.structured import StructuredRepr, build_repr, repr_to_doc

DATA = Path(__file__).parent / "data"
FIXTURES = Path(__file__).parent / "fixtures"

FIG1B_PREMISES = (
    "Chases(lion, dog)",
    "Chases(lion, mouse)",
    "Sees(tiger, lion)",
    "∀x (Chases(x, dog) → Round(x))",
    "∀x (Round(x) ∧ Chases(x, mouse) → Kind(mouse))",
    "∀x (Kind(x) → Chases(x, dog))",
    "∀x (Round(x) → Sees(x, lion))",
)

WALKTHROUGH = Problem(
    id="walkthrough",
    premises=("Humans are mammals.", "Mammals are animals.", "Tom is a human."),
    question="There is an animal.",
)


def scripted():
    return ScriptedBackend(FIXTURES / "scripted")


def fig1b_problem():
    return Problem(id="fig1b", premises=FIG1B_PREMISES, question="¬Sees(mouse, lion)")


def taskdef_problem():
    return Problem(
        id="task-definition",
        premises=("∀x (Cat(x) → Mammal(x))", "Mammal(tom)"),
        question="Cat(tom)",
    )


# ---------------------------------------------------------------------------
# Reply handling
# ---------------------------------------------------------------------------


def test_extract_json_takes_first_well_formed_fence():
    text = "noise\n```json\n{broken\n```\nmore\n```\n{\"a\": 1}\n```\n"
    assert extract_json(text, "solve") == {"a": 1}


def test_extract_json_accepts_bare_document():
    assert extract_json('{"a": 1}', "solve") == {"a": 1}


def test_extract_json_rejects_prose():
    with pytest.raises(StageParseError):
        extract_json("the answer is clearly true", "solve")


@pytest.mark.parametrize(
    "reply", ["[" * 100000, "```json\n" + "[" * 100000 + "\n```"], ids=["bare", "fenced"]
)
def test_extract_json_deep_nesting_is_a_parse_error(reply):
    with pytest.raises(StageParseError):
        extract_json(reply, "solve")


HUGE_INT = "9" * 5000  # past Python's default limit on integer digits


def test_extract_json_skips_a_fence_holding_a_huge_integer():
    text = f"```json\n{{\"a\": {HUGE_INT}}}\n```\n```json\n{{\"a\": 1}}\n```\n"
    assert extract_json(text, "solve") == {"a": 1}


def test_extract_json_huge_integer_reply_is_a_parse_error():
    with pytest.raises(StageParseError):
        extract_json(HUGE_INT, "solve")


UNCLOSED_OPENERS = {"brace": "{", "key": '{"a"', "colon": '{"a":', "fence": "```\n{"}


@pytest.mark.parametrize(
    "reply",
    [pytest.param(unit * (80000 // len(unit)), id=name) for name, unit in UNCLOSED_OPENERS.items()]
    # a fence opener followed by a long run of blank lines
    + [pytest.param("```" + "\n" * 40000, id="fence-newlines"), pytest.param("```" + " \n" * 40000, id="fence-blanks")],
)
def test_extract_json_is_linear_in_unclosed_openers(reply):
    start = time.perf_counter()
    with pytest.raises(StageParseError):
        extract_json(reply, "solve")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("T (True)", "T"),
        ("True", "T"),
        ("F (False)", "F"),
        ("false", "F"),
        ("Unknown", "U"),
        ("U", "U"),
        ("(A)", "A"),
        ("b", "B"),
        ("maybe", None),
        ("", None),
    ],
)
def test_normalize_label(raw, expected):
    assert normalize_label(raw) == expected


def test_render_prompt_leaves_other_braces_alone():
    out = render_prompt('{"x": 1} {question}', {"question": "Q?"})
    assert out == '{"x": 1} Q?'


# ---------------------------------------------------------------------------
# Stages against scripted fixtures
# ---------------------------------------------------------------------------


def test_translate_stage_parses_walkthrough_fixture():
    context, _ = translate_stage(scripted(), WALKTHROUGH)
    assert isinstance(context, StructuredRepr)
    rendered = [str(s.symbol) for s in context.rules]
    assert any("Human" in r and "Mammal" in r for r in rendered)
    assert context.questions[0].nl == "There is an animal."


def test_translate_stage_rejects_prose():
    backend = CannedBackend("I could not produce JSON, sorry.")
    with pytest.raises(StageParseError):
        translate_stage(backend, WALKTHROUGH)


def test_translate_stage_rejects_arity_conflict():
    doc = {
        "Premises": [
            {"statement": "a.", "symbol": "P(tom)"},
            {"statement": "b.", "symbol": "P(tom, jerry)"},
        ],
        "Proposition": [],
    }
    backend = CannedBackend(json.dumps(doc))
    with pytest.raises(StageParseError):
        translate_stage(backend, WALKTHROUGH)


def test_plan_stage_accepts_walkthrough_fixture():
    context, _ = translate_stage(scripted(), WALKTHROUGH)
    plan, _ = plan_stage(scripted(), context, problem=WALKTHROUGH)
    assert plan.size == 11
    assert successors(plan, 1) == {2, 3, 4, 5, 6, 7, 8}


def test_plan_stage_shape_mismatch():
    doc = {
        "Plan": {str(i): {"content": f"s{i}"} for i in range(1, 4)},
        "Matrix": [[0] * 4 for _ in range(4)],
    }
    backend = CannedBackend(json.dumps(doc))
    with pytest.raises(StageParseError, match="/Matrix: 4 rows for 3 steps"):
        plan_stage(backend, RawContext("ctx"))


def test_plan_stage_rejects_nonbinary_matrix():
    doc = {"Plan": {"1": {"content": "a"}, "2": {"content": "b"}}, "Matrix": [[0, 2], [0, 0]]}
    backend = CannedBackend(json.dumps(doc))
    with pytest.raises(StageParseError):
        plan_stage(backend, RawContext("ctx"))


def test_plan_stage_rejects_cycle_without_normalizing():
    doc = {"Plan": {"1": {"content": "a"}, "2": {"content": "b"}}, "Matrix": [[0, 1], [1, 0]]}
    backend = CannedBackend(json.dumps(doc))
    with pytest.raises(CycleError):
        plan_stage(backend, RawContext("ctx"))


@pytest.mark.parametrize("matrix", [[[0, 1], [1, 0]], [[1, 0], [0, 0]]], ids=["two-cycle", "diagonal"])
def test_plan_stage_linearizes_a_cyclic_or_diagonal_matrix_under_the_mp_ablation(matrix):
    doc = {"Plan": {"1": {"content": "a"}, "2": {"content": "b", "kind": "judgment"}}, "Matrix": matrix}
    config = PipelineConfig(disable_matrix_plan=True)
    plan, _ = plan_stage(CannedBackend(json.dumps(doc)), RawContext("ctx"), config)
    assert plan.edges() == [(1, 2)] and plan.steps[1].kind == "judgment"


def test_plan_stage_scores_a_diagonal_entry_as_format_not_cycle():
    doc = {"Plan": {"1": {"content": "a"}, "2": {"content": "b"}}, "Matrix": [[1, 1], [0, 0]]}
    with pytest.raises(StageParseError, match="plan stage: diagonal entry at step 1 must be zero"):
        plan_stage(CannedBackend(json.dumps(doc)), RawContext("ctx"))


def test_solve_stage_stub_task_definition_unknown():
    backend = SolverStubBackend()
    problem = taskdef_problem()
    context, _ = translate_stage(backend, problem)
    plan, _ = plan_stage(backend, context, problem=problem)
    trace = solve_stage(backend, context, plan, problem=problem)
    assert trace.provisional.label == "U"


def test_solve_stage_stub_fig1b_false_after_fixpoint():
    backend = SolverStubBackend()
    problem = fig1b_problem()
    context, _ = translate_stage(backend, problem)
    plan, _ = plan_stage(backend, context, problem=problem)
    trace = solve_stage(backend, context, plan, problem=problem)
    assert trace.provisional.label == "F"
    fix_record = next(r for r in trace.records if "fixpoint" in r.text.lower())
    assert Literal(True, "Sees", ("mouse", "lion")) in fix_record.derived


def test_solve_stage_scripted_walkthrough_true():
    context, _ = translate_stage(scripted(), WALKTHROUGH)
    plan, _ = plan_stage(scripted(), context, problem=WALKTHROUGH)
    trace = solve_stage(scripted(), context, plan, problem=WALKTHROUGH)
    assert trace.provisional.label == "T"


def test_solve_stage_string_array_log_maps_onto_execution_order():
    doc = {
        "Execution log": ["did the first step", "did the second step"],
        "Final answer": "U",
    }
    backend = CannedBackend(json.dumps(doc))
    steps = (PlanStep(1, "first"), PlanStep(2, "second"))
    plan = plan_from_matrix(((0, 1), (0, 0)), steps)
    trace = solve_stage(backend, RawContext("ctx"), plan)
    assert [r.step_id for r in trace.records] == [1, 2]
    assert trace.records[0].text == "did the first step"


def test_solve_stage_rejects_a_log_field_that_is_not_an_array():
    doc = {"Execution log": [{"step": 1, "derived": "P(tom)"}], "Final answer": "U"}
    plan = plan_from_matrix(((0,),), (PlanStep(1, "judge"),))
    with pytest.raises(StageParseError) as exc:
        solve_stage(CannedBackend(json.dumps(doc)), RawContext("ctx"), plan)
    assert "/Execution log/0/derived: expected array" in str(exc.value)


def test_solve_stage_missing_final_answer():
    backend = CannedBackend(json.dumps({"Execution log": "thinking"}))
    plan = plan_from_matrix(((0,),), (PlanStep(1, "judge"),))
    with pytest.raises(StageParseError) as exc:
        solve_stage(backend, RawContext("ctx"), plan)
    assert "Final answer" in str(exc.value)


TWO_STEP_PLAN = plan_from_matrix(((0, 1), (0, 0)), (PlanStep(1, "apply the rules"), PlanStep(2, "judge")))


def test_parse_solve_doc_malformed_repeated_literal_names_its_first_occurrence():
    derivation = {"literal": "Q(tom", "rule": 1, "binding": {"x": "tom"}, "premises": ["P(tom)"]}
    doc = {
        "Execution log": [
            {"step": 1, "derived": ["P(tom)"], "derivations": [derivation]},
            {"step": 2, "derived": ["Q(tom"]},
        ],
        "Final answer": "T",
    }
    with pytest.raises(StageParseError) as exc:
        _parse_solve_doc(doc, TWO_STEP_PLAN, "solve", "raw", {})
    assert exc.value.__cause__.pointer == "/Execution log/0/derivations/0/literal"


def test_parse_solve_doc_repeated_literals_decode_equal_and_keep_polarity(monkeypatch):
    derivation = {"literal": "Q(tom)", "rule": 1, "binding": {"x": "tom"}, "premises": ["P(tom)", "¬R(tom)"]}
    doc = {
        "Execution log": [
            {"step": 1, "derived": ["P(tom)", "¬P(tom)", "Q(tom)"], "derivations": [derivation]},
            {"step": 2, "derived": ["Q(tom)", "P(tom)", "¬R(tom)"]},
        ],
        "Final answer": "T",
    }
    parsed = []
    monkeypatch.setattr(solvermod, "parse_formula", lambda text: parsed.append(text) or parse_formula(text))
    records, label = _parse_solve_doc(doc, TWO_STEP_PLAN, "solve", "raw", {})
    assert sorted(parsed) == ["P(tom)", "Q(tom)", "¬P(tom)", "¬R(tom)"]
    p, not_p, q = lit("P(tom)"), lit("¬P(tom)"), lit("Q(tom)")
    assert label == "T" and p != not_p
    assert records[0].derived == (p, not_p, q)
    assert records[0].derivations == (GroundRule(1, (("x", "tom"),), (p, lit("¬R(tom)")), q),)
    assert records[1].derived == (q, p, lit("¬R(tom)"))


def test_run_pipeline_decodes_a_declared_one_letter_constant():
    # parse_formula alone reads the declared constant `a` as a variable, so the
    # stub's replies citing P(a) and Q(a) must still decode as ground literals
    doc = {
        "Predicates": {"P": {"arity": 1}, "Q": {"arity": 1}},
        "Constants": ["a", "bob"],
        "Premises": [{"statement": "P(a)", "symbol": "P(a)"}, {"statement": "rule", "symbol": "∀x (P(x) → Q(x))"}],
        "Proposition": [{"statement": "Q(a)", "symbol": "Q(a)"}],
    }

    class TranslatedStub(SolverStubBackend):
        def complete(self, prompt, params):
            if params.meta.stage == "translate":
                return json.dumps(doc)
            return super().complete(prompt, params)

    result = run_pipeline(TranslatedStub(), Problem(id="a", premises=("P(a)",), question="Q(a)"))
    assert result.final.label == "T"
    derived = {lit for trace in result.traces for record in trace.records for lit in record.derived}
    assert derived == {Literal(True, "P", ("a",)), Literal(True, "Q", ("a",))}


# ---------------------------------------------------------------------------
# Diagnosis
# ---------------------------------------------------------------------------


FIG1B_QUESTION = ("¬Sees(mouse, lion)", "¬Sees(mouse, lion)")


def fig1b_context():
    return build_repr([(text, text) for text in FIG1B_PREMISES])


def four_step_plan():
    steps = (
        PlanStep(1, "Collect the initial facts from the premises."),
        PlanStep(2, "Apply the rules."),
        PlanStep(3, "Judge the question against the derived facts."),
    )
    return plan_from_matrix(((0, 1, 0), (0, 0, 1), (0, 0, 0)), steps)


def lit(text):
    return literal_from_formula(parse_formula(text))


def make_trace(records, plan=None, context=None):
    return Trace(
        context=context or fig1b_context(),
        plan=plan or four_step_plan(),
        records=tuple(records),
        provisional=Verdict("U"),
        raw={},
    )


def facts_record():
    facts = [lit("Chases(lion, dog)"), lit("Chases(lion, mouse)"), lit("Sees(tiger, lion)")]
    return StepRecord(step_id=1, text="collect facts", derived=tuple(facts))


def test_diagnose_premature_termination_on_single_pass():
    derivation = GroundRule(
        rule_id=1,
        binding=(("x", "lion"),),
        premises=(lit("Chases(lion, dog)"),),
        conclusion=lit("Round(lion)"),
    )
    trace = make_trace(
        [
            facts_record(),
            StepRecord(step_id=2, text="apply once", derived=(lit("Round(lion)"),), derivations=(derivation,)),
            StepRecord(step_id=3, text="judge", status="ok"),
        ]
    )
    report = diagnose(trace)
    assert "premature-termination" in report.labels


def test_diagnose_rule_misuse_on_flipped_arguments():
    doctored = GroundRule(
        rule_id=1,
        binding=(("x", "lion"),),
        premises=(lit("Chases(dog, lion)"),),  # argument order flipped
        conclusion=lit("Round(lion)"),
    )
    trace = make_trace(
        [
            facts_record(),
            StepRecord(step_id=2, text="apply", derived=(lit("Round(lion)"),), derivations=(doctored,)),
        ]
    )
    report = diagnose(trace)
    assert "rule-misuse" in report.labels


def test_diagnose_missing_prerequisites():
    valid_but_unsupported = GroundRule(
        rule_id=1,
        binding=(("x", "mouse"),),
        premises=(lit("Chases(mouse, dog)"),),  # never derived
        conclusion=lit("Round(mouse)"),
    )
    trace = make_trace(
        [
            facts_record(),
            StepRecord(
                step_id=2,
                text="apply",
                derived=(lit("Round(mouse)"),),
                derivations=(valid_but_unsupported,),
            ),
        ]
    )
    report = diagnose(trace)
    assert "missing-prerequisites" in report.labels
    assert "rule-misuse" not in report.labels


def test_run_pipeline_closed_world_diagnosis_accepts_negative_premise():
    problem = Problem(
        id="tweety",
        premises=("Bird(tweety)", "∀x (¬Flies(x) → Grounded(x))"),
        question="Grounded(tweety)",
    )
    # The config is the one closed-world switch, for the stub as for diagnose.
    assert run_pipeline(SolverStubBackend(), problem).final.label == "U"
    result = run_pipeline(SolverStubBackend(), problem, PipelineConfig(cwa=True))
    assert result.final.label == "T"
    assert "missing-prerequisites" not in result.diagnoses[0].labels
    # Open-world diagnosis of the same trace still flags the unsupported premise.
    assert "missing-prerequisites" in diagnose(result.traces[0]).labels


def test_diagnose_closed_world_still_flags_contradicted_negative_premise():
    derivation = GroundRule(
        rule_id=5,
        binding=(("x", "lion"),),
        premises=(lit("¬Chases(lion, dog)"),),  # its positive counterpart is a fact
        conclusion=lit("Round(lion)"),
    )
    trace = make_trace(
        [
            facts_record(),
            StepRecord(step_id=2, text="apply", derived=(lit("Round(lion)"),), derivations=(derivation,)),
        ],
        context=build_repr([(t, t) for t in (*FIG1B_PREMISES, "∀x (¬Chases(x, dog) → Round(x))")]),
    )
    report = diagnose(trace, cwa=True)
    assert "missing-prerequisites" in report.labels


def test_diagnose_reports_premature_termination_at_a_judgment_step_in_mid_plan():
    context = build_repr([(text, text) for text in FIG1B_PREMISES], [FIG1B_QUESTION])
    steps = (
        PlanStep(1, "Collect the initial facts from the premises.", uses=(1, 2, 3)),
        PlanStep(2, "Weigh what is known so far.", kind="judgment"),  # no judge word in its wording
        PlanStep(3, "Run the rules to a fixpoint.", uses=(4, 5, 6, 7)),
    )
    plan = planmod.linear_chain(steps)
    trace = solve_stage(SolverStubBackend(), context, plan)
    assert trace.provisional.label == "U"  # judged before the rules ran
    [item] = [e for e in diagnose(trace).evidence if e.label == "premature-termination"]
    assert item.step_id == 2


def test_diagnose_falls_back_to_the_last_step_in_execution_order():
    # 2 -> 3 -> 1: step 1 runs last, so it is the judgment, not step 3
    steps = (PlanStep(1, "State the answer."), PlanStep(2, "Collect."), PlanStep(3, "Apply rule 1 once."))
    plan = plan_from_matrix(((0, 0, 0), (0, 0, 1), (1, 0, 0)), steps)
    assert plan.judgment == 1
    once = GroundRule(1, (("x", "lion"),), (lit("Chases(lion, dog)"),), lit("Round(lion)"))
    records = [
        replace(facts_record(), step_id=2),
        StepRecord(step_id=3, text="apply", derived=(lit("Round(lion)"),), derivations=(once,)),
        StepRecord(step_id=1, text="answer"),
    ]
    trace = make_trace(records, plan=plan)
    [item] = [e for e in diagnose(trace).evidence if e.label == "premature-termination"]
    assert item.step_id == 1 and "Kind(mouse)" in item.note
    assert diagnose(trace) == reference_diagnose(trace)


def test_diagnose_redundant_edges():
    steps = (PlanStep(1, "a"), PlanStep(2, "b"), PlanStep(3, "c"))
    dense = plan_from_matrix(((0, 1, 1), (0, 0, 1), (0, 0, 0)), steps)
    trace = make_trace([StepRecord(step_id=0, text="free text")], plan=dense)
    report = diagnose(trace)
    assert report.labels == {"redundancy"}
    assert any(e.edge == (1, 3) for e in report.evidence)


def test_diagnose_clean_stub_trace_is_empty():
    backend = SolverStubBackend()
    problem = taskdef_problem()
    context, _ = translate_stage(backend, problem)
    plan, _ = plan_stage(backend, context, problem=problem)
    trace = solve_stage(backend, context, plan, problem=problem)
    report = diagnose(trace)
    assert report.labels == frozenset()


def test_diagnose_is_reproducible_from_stored_trace():
    backend = SolverStubBackend(degrade_initial_plan=True)
    problem = fig1b_problem()
    context, _ = translate_stage(backend, problem)
    plan, _ = plan_stage(backend, context, problem=problem)
    trace = solve_stage(backend, context, plan, problem=problem)
    first = diagnose(trace)
    second = diagnose(trace)
    assert first == second


def _mutated_derivations(rng, ground, pool, rule_count):
    """`ground` as cited, and cited with one part changed: the binding (never
    consulted), the rule id, a premise, the premise count or the conclusion."""
    yield ground
    yield replace(ground, binding=(("x", "nobody"),))
    yield replace(ground, rule_id=rng.choice([0, -1, rule_count + 1, rng.randint(1, rule_count)]))
    if ground.premises:
        premises = list(ground.premises)
        premises[rng.randrange(len(premises))] = rng.choice(pool)
        yield replace(ground, premises=tuple(premises))
        yield replace(ground, premises=ground.premises[1:])
    yield replace(ground, premises=ground.premises + (rng.choice(pool),))
    yield replace(ground, conclusion=rng.choice(pool))


def test_diagnose_rule_misuse_agrees_with_reference_grounding():
    rng = random.Random(57)
    verdicts = set()
    for _ in range(150):
        kb = random_horn_kb(rng)
        premises = [str(fact) for fact in sorted(kb.literals)] + [render_formula(rule) for rule in kb.rules]
        context = build_repr([(text, text) for text in premises])
        grounded = reference_ground_rules(kb_from_repr(context))
        valid = {(g.rule_id, g.premises, g.conclusion) for g in grounded}
        pool = sorted({lit for g in grounded for lit in (*g.premises, g.conclusion)})
        pool += [lit.negated() for lit in pool[:3]] + [Literal(True, "P", ("zz",))]
        pool += [replace(lit, args=lit.args * 2) for lit in pool[:3]]  # wrong arity
        for ground in rng.sample(grounded, min(4, len(grounded))):
            for cited in _mutated_derivations(rng, ground, pool, len(kb.rules)):
                trace = make_trace([StepRecord(step_id=1, text="apply", derivations=(cited,))], context=context)
                misuse = "rule-misuse" in diagnose(trace).labels
                assert misuse == ((cited.rule_id, cited.premises, cited.conclusion) not in valid)
                verdicts.add(misuse)
    assert verdicts == {True, False}


def test_diagnose_flags_a_step_that_only_rederives_earlier_steps_facts():
    round_lion, kind_mouse = lit("Round(lion)"), lit("Kind(mouse)")
    trace = make_trace(
        [
            facts_record(),
            StepRecord(step_id=2, text="apply", derived=(round_lion,)),
            # derives one new literal, so it is not redundant
            StepRecord(step_id=2, text="apply again", derived=(round_lion, kind_mouse)),
            StepRecord(step_id=3, text="repeat", derived=(kind_mouse, lit("Chases(lion, dog)"))),
        ]
    )
    redundant = [e for e in diagnose(trace).evidence if e.label == "redundancy"]
    assert [(e.step_id, e.edge, e.note) for e in redundant] == [(3, None, "step only re-derives known facts")]


def _with_an_implied_edge(rng, plan):
    """`plan` plus one edge (i, j) it lacks whose step j is reachable from
    step i, or `plan` itself when no such edge exists."""
    reach = reachability_by_squaring(plan.matrix)
    n = plan.size
    implied = [(i, j) for i in range(n) for j in range(n) if i != j and reach[i][j] and not plan.matrix[i][j]]
    if not implied:
        return plan
    i, j = rng.choice(implied)
    matrix = [list(row) for row in plan.matrix]
    matrix[i][j] = 1
    return plan_from_matrix(matrix, plan.steps)


def _record_variants(rng, records, pool, rule_count):
    """`records`, and reversed, shuffled (derivations too), truncated, with a
    record duplicated or turned into free text, with a derivation mutated, or
    all free text."""
    records = list(records)
    yield records
    yield records[::-1]
    shuffled = rng.sample(records, len(records))
    yield [replace(r, derivations=tuple(rng.sample(r.derivations, len(r.derivations)))) for r in shuffled]
    yield records[: rng.randrange(len(records) + 1)]
    if records:
        k, m = rng.randrange(len(records)), rng.randrange(len(records) + 1)
        yield records[:m] + [records[k]] + records[m:]
        yield records[:k] + [replace(records[k], derived=(), derivations=())] + records[k + 1 :]
    cited = [(i, j) for i, record in enumerate(records) for j in range(len(record.derivations))]
    if cited:
        i, j = rng.choice(cited)
        for derivation in _mutated_derivations(rng, records[i].derivations[j], pool, rule_count):
            derivations = list(records[i].derivations)
            derivations[j] = derivation
            yield records[:i] + [replace(records[i], derivations=tuple(derivations))] + records[i + 1 :]
    yield [replace(r, derived=(), derivations=()) for r in records]
    yield [StepRecord(step_id=0, text="free text")]


def test_diagnose_agrees_with_the_reference_on_mutated_stub_traces():
    rng = random.Random(61)
    problems = [fig1b_problem(), Problem(id="deep", premises=DEEP_PREMISES, question="¬Weak(n8)")]
    for index in range(40):
        kb = random_horn_kb(rng)
        premises = [str(fact) for fact in sorted(kb.literals)] + [render_formula(rule) for rule in kb.rules]
        query = ground_literal_queries(rng, kb, count=1)[0]
        problems.append(Problem(id=f"horn-{index}", premises=tuple(premises), question=str(query)))
    labels = Counter()
    for problem, cwa in [(p, cwa) for p in problems for cwa in (False, True)]:
        result = run_pipeline(SolverStubBackend(degrade_initial_plan=True), problem, PipelineConfig(cwa=cwa))
        rule_count = len(result.traces[0].context.templates)
        for trace in result.traces:  # the degraded plan, then the full one
            pool = sorted({literal for r in trace.records for literal in r.derived})
            pool += [literal.negated() for literal in pool[:3]] + [Literal(True, "P", ("zz",))]
            plan = _with_an_implied_edge(rng, trace.plan) if rng.random() < 0.5 else trace.plan
            for records in _record_variants(rng, trace.records, pool, rule_count):
                variant = replace(trace, plan=plan, records=tuple(records))
                for audit_cwa in (False, True):
                    want = reference_diagnose(variant, cwa=audit_cwa)
                    assert diagnose(variant, cwa=audit_cwa) == want
                    labels.update(want.labels)
    assert set(labels) == {"missing-prerequisites", "rule-misuse", "premature-termination", "redundancy"}


# ---------------------------------------------------------------------------
# Replanning
# ---------------------------------------------------------------------------

SOLVE_REPLY = json.dumps({"Execution log": "ran the revised plan", "Final answer": "T"})


def test_replan_stage_scripted_returns_four_step_plan():
    context, _ = translate_stage(scripted(), WALKTHROUGH)
    plan, _ = plan_stage(scripted(), context, problem=WALKTHROUGH)
    trace = solve_stage(scripted(), context, plan, problem=WALKTHROUGH)
    report = diagnose(trace)
    backend = RecordingBackend(scripted())
    revised = replan_stage(backend, trace, report, problem=WALKTHROUGH)
    assert revised.plan.size == 4
    assert revised.plan.matrix == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))
    # the reply embeds its re-execution, so no solve call runs
    [(meta, _, reply)] = backend.calls
    assert meta.stage == "replan" and revised.round == 1 and revised.records is not trace.records
    assert revised.raw == {"replan": reply}


def test_replan_stage_reads_the_round_state_from_the_trace():
    edits = json.dumps({"Edits": [{"op": "AddEdge", "i": 1, "j": 3}]})
    backend = RecordingBackend(CannedBackend(edits, SOLVE_REPLY))
    unlinked = plan_from_matrix(((0, 0, 0),) * 3, four_step_plan().steps)
    trace = replace(make_trace([facts_record()], plan=unlinked), provisional=Verdict("F"), round=2)
    revised = replan_stage(backend, trace, Diagnosis(()))
    [(meta, prompt, _), (solve_meta, _, _)] = backend.calls
    assert meta.stage == "replan" and meta.round == trace.round + 1
    assert meta.payload["provisional"] == trace.provisional.label == "F"
    assert meta.payload["context"] is trace.context and meta.payload["plan"] is trace.plan
    assert "Provisional answer:\nF\n" in prompt and trace.plan.text in prompt
    assert revised.plan != trace.plan and revised.plan.edges() == [(1, 3)]
    # the changed plan is solved in the same round
    assert solve_meta.stage == "solve" and solve_meta.round == revised.round == trace.round + 1
    assert solve_meta.payload["plan"] is revised.plan


@pytest.mark.parametrize(
    "edits",
    [[{"op": "AddEdge", "i": 3, "j": 1}], [{"op": "DelEdge", "i": 1, "j": 2}, {"op": "AddEdge", "i": 2, "j": 2}]],
    ids=["closes-a-cycle", "self-loop"],
)
def test_replan_stage_refuses_an_edit_list_that_closes_a_cycle(edits):
    plan = four_step_plan()
    reply = json.dumps({"Edits": edits, "Rationale": "loop back", "Final answer": "not a label"})
    trace = make_trace([facts_record()], plan=plan)
    kept = replan_stage(CannedBackend(reply), trace, Diagnosis(()))
    # the plan is kept whole, and the embedded answer goes unread with the rest of the revision
    assert kept == replace(trace, round=1, raw={"replan": reply}) and kept.plan is plan
    assert kept.records is trace.records and kept.provisional is trace.provisional


def test_replan_stage_out_of_range_edit():
    plan = four_step_plan()
    reply = json.dumps({"Edits": [{"op": "AddEdge", "i": 9, "j": 1}]})
    backend = CannedBackend(reply)
    trace = make_trace([facts_record()], plan=plan)
    with pytest.raises(StageParseError, match=re.escape("replan stage: /Edits/0/i: step index 9 out of range 1..3")):
        replan_stage(backend, trace, Diagnosis(()))


@pytest.mark.parametrize("revised", [False, True], ids=["edits-only", "with-revised-plan"])
@pytest.mark.parametrize("end, value", [("i", 0), ("j", 4), ("j", 99)])
def test_replan_stage_bounds_checks_edit_indices_against_the_plan(revised, end, value):
    # a revised plan wins over the edits, but their indices must still name steps of the plan
    plan = four_step_plan()
    edit = {"op": "DelEdge", "i": 1, "j": 2, end: value}
    reply = {"Edits": [{"op": "AddEdge", "i": 1, "j": 3}, edit]}
    if revised:
        reply["Revised plan"] = {"Corrected_plan": plan_to_json(plan)["Plan"], "Matrix": [[0, 1, 1], [0, 0, 0], [0, 0, 0]]}
    message = f"replan stage: /Edits/1/{end}: step index {value} out of range 1..3"
    with pytest.raises(StageParseError, match=re.escape(message)):
        replan_stage(CannedBackend(json.dumps(reply)), make_trace([facts_record()], plan=plan), Diagnosis(()))


@pytest.mark.parametrize(
    "uses, message",
    [
        (True, "/Plan/1/uses: expected array"),
        ([True], "/Plan/1/uses/0: statement ids must be integers >= 1"),
        ([1, 0], "/Plan/1/uses/1: statement ids must be integers >= 1"),
        (["4"], "/Plan/1/uses/0: statement ids must be integers >= 1"),
        ([4, 8], "/Plan/1/uses/1: statement 8 is not a fact or rule"),  # the question
        ([99], "/Plan/1/uses/0: statement 99 is not a fact or rule"),
    ],
)
def test_plan_and_replan_stages_reject_a_bad_or_foreign_citation(uses, message):
    context = build_repr([(text, text) for text in FIG1B_PREMISES], [FIG1B_QUESTION])
    steps = {"1": {"content": "Apply the rules.", "uses": uses}, "2": {"content": "Judge.", "kind": "judgment"}}
    matrix = [[0, 1], [0, 0]]
    planned = json.dumps({"Plan": steps, "Matrix": matrix})
    with pytest.raises(StageParseError, match=re.escape(f"plan stage: {message}")):
        plan_stage(CannedBackend(planned), context)
    # a revised plan's pointer names where the value sits in the replan reply
    replanned = json.dumps({"Revised plan": {"Corrected_plan": steps, "Matrix": matrix}})
    revised_message = message.replace("/Plan/", "/Revised plan/Corrected_plan/")
    with pytest.raises(StageParseError, match=re.escape(f"replan stage: {revised_message}")):
        replan_stage(CannedBackend(replanned), make_trace([], context=context), Diagnosis(()))
    # a raw context has no statement ids, so only the shape of a citation is checked
    if "not a fact or rule" in message:
        assert plan_stage(CannedBackend(planned), RawContext(context.text))[0].steps[0].uses == tuple(uses)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[0, 2], [0, 0]], "/Revised plan/Matrix/0/1: entries must be the integers 0 or 1"),
        ([[0, 1], [False, 0]], "/Revised plan/Matrix/1/0: entries must be the integers 0 or 1"),
        ([[0, 1], 0], "/Revised plan/Matrix/1: expected array"),
        ([[0, 1]], "/Revised plan/Matrix: 1 rows for 2 steps"),
    ],
)
def test_replan_stage_points_a_bad_matrix_entry_into_the_revised_plan(matrix, message):
    steps = {"1": {"content": "Apply the rules."}, "2": {"content": "Judge.", "kind": "judgment"}}
    reply = json.dumps({"Revised plan": {"Corrected_plan": steps, "Matrix": matrix}})
    with pytest.raises(StageParseError, match=re.escape(f"replan stage: {message}")):
        replan_stage(CannedBackend(reply), make_trace([facts_record()]), Diagnosis(()))


def test_plan_and_replan_stages_handle_a_dense_cyclic_plan_at_the_step_limit():
    n = planmod.MAX_STEPS
    steps = {str(i): {"content": f"Step {i}."} for i in range(1, n + 1)}
    matrix = [[int(i != j) for j in range(n)] for i in range(n)]  # every pair of steps, both ways
    context = fig1b_context()
    started = time.perf_counter()
    with pytest.raises(CycleError):  # the harness scores it as `cycle`
        plan_stage(CannedBackend(json.dumps({"Plan": steps, "Matrix": matrix})), context)
    assert time.perf_counter() - started < 1.0
    started = time.perf_counter()
    reply = json.dumps({"Revised plan": {"Corrected_plan": steps, "Matrix": matrix}})
    trace = make_trace([], context=context)
    revised = replan_stage(CannedBackend(reply), trace, Diagnosis(())).plan
    assert time.perf_counter() - started < 1.0
    assert revised is trace.plan  # the cyclic revision is refused, and the round keeps its plan


def _prompt_example(stage):
    """The fenced JSON example in the stage's prompt template, as text."""
    [example] = re.findall(r"```json\n(.*?)```", pipeline.load_template(stage), re.DOTALL)
    return example


def test_each_prompt_example_is_accepted_by_its_stage():
    context = fig1b_context()
    plan, _ = plan_stage(CannedBackend(_prompt_example("plan")), context)
    assert any(step.uses for step in plan.steps)
    assert plan.steps[plan.judgment - 1].kind == "judgment"
    assert solve_stage(CannedBackend(_prompt_example("solve")), context, plan).provisional.label == "T"
    # the example embeds its re-execution, so the canned backend needs no solve reply
    replanned = replan_stage(CannedBackend(_prompt_example("replan")), make_trace([], context=context), Diagnosis(()))
    revised = replanned.plan
    assert any(step.uses for step in revised.steps) and revised.steps[revised.judgment - 1].kind == "judgment"
    assert replanned.provisional.label == "T" and sorted(replanned.raw) == ["replan"]


def test_replan_stage_requires_plan_or_edits():
    plan = four_step_plan()
    backend = CannedBackend(json.dumps({"Rationale": "nothing to change"}))
    trace = make_trace([facts_record()], plan=plan)
    with pytest.raises(StageParseError):
        replan_stage(backend, trace, Diagnosis(()))


def test_replan_stage_ablate_matrix_plan_chains_the_revised_plan():
    plan = four_step_plan()  # the chain 1 -> 2 -> 3
    plan_doc = plan_to_json(plan)["Plan"]
    dag = json.dumps({"Revised plan": {"Corrected_plan": plan_doc, "Matrix": [[0, 1, 1], [0, 0, 0], [0, 0, 0]]}})
    cut = json.dumps({"Edits": [{"op": "DelEdge", "i": 2, "j": 3}]})
    trace = make_trace([facts_record()], plan=plan)
    for reply in (dag, cut):
        assert replan_stage(CannedBackend(reply, SOLVE_REPLY), trace, Diagnosis(())).plan != plan
        # the chain is the plan itself, so nothing is re-executed
        ablated = replan_stage(CannedBackend(reply), trace, Diagnosis(()), PipelineConfig(disable_matrix_plan=True))
        assert ablated.plan is plan and ablated.records is trace.records


@pytest.mark.parametrize(
    "edit, embedded, kept, stages",
    [
        ({"op": "AddEdge", "i": 3, "j": 1}, True, True, ["replan"]),  # closes a cycle
        ({"op": "AddEdge", "i": 1, "j": 3}, False, True, ["replan"]),  # implied by 1 -> 2 -> 3, so reduced away
        ({"op": "AddEdge", "i": 1, "j": 3}, True, False, ["replan"]),
        ({"op": "DelEdge", "i": 2, "j": 3}, False, False, ["replan", "solve"]),
    ],
    ids=["refused", "unchanged", "embedded", "changed"],
)
def test_replan_stage_returns_the_next_rounds_trace(edit, embedded, kept, stages):
    plan = four_step_plan()  # the chain 1 -> 2 -> 3
    reply = {"Edits": [edit]}
    if embedded:
        reply |= {"Updated Execution log": "ran the plan again", "Final answer": "T"}
    reply = json.dumps(reply)
    backend = CannedBackend(reply, SOLVE_REPLY)
    trace = replace(make_trace([facts_record()], plan=plan), raw={"solve": "round 1"}, round=1)
    got = replan_stage(backend, trace, Diagnosis(()))
    assert [stage for stage, _ in backend.calls] == stages
    assert got.round == 2 and got.context is trace.context
    if kept:
        assert got.records is trace.records and got.provisional is trace.provisional
    else:
        assert got.records is not trace.records and got.provisional.label == "T"
    assert (got.plan is plan) == ("solve" not in stages)
    assert got.raw == ({"replan": reply, "solve": SOLVE_REPLY} if "solve" in stages else {"replan": reply})


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def test_run_pipeline_scripted_walkthrough():
    result = run_pipeline(scripted(), WALKTHROUGH)
    assert result.final.label == "T"
    assert len(result.traces) == 2
    assert result.traces[1].plan.size == 4
    assert result.rounds_used == 1


def test_run_pipeline_trace_output_is_byte_identical():
    first = run_pipeline(scripted(), WALKTHROUGH)
    second = run_pipeline(scripted(), WALKTHROUGH)
    blob1 = "\n".join(json.dumps(trace_to_doc(t, WALKTHROUGH.id), ensure_ascii=False) for t in first.traces)
    blob2 = "\n".join(json.dumps(trace_to_doc(t, WALKTHROUGH.id), ensure_ascii=False) for t in second.traces)
    assert blob1.encode("utf-8") == blob2.encode("utf-8")


def test_run_pipeline_zero_rounds_returns_provisional():
    result = run_pipeline(SolverStubBackend(), taskdef_problem(), PipelineConfig(max_replan_rounds=0))
    assert result.final.label == "U"
    assert len(result.traces) == 1 and result.rounds_used == 0


def test_run_pipeline_repairs_premature_termination():
    backend = SolverStubBackend(degrade_initial_plan=True)
    result = run_pipeline(backend, fig1b_problem())
    assert result.traces[0].provisional.label == "U"
    assert "premature-termination" in result.diagnoses[0].labels
    assert result.final.label == "F"
    contents = [s.content.lower() for s in result.traces[1].plan.steps]
    assert any("fixpoint" in c for c in contents)


def test_run_pipeline_cwa_diagnoses_premature_termination_closed_world():
    # the rule needs ¬Flies(tweety), which only closed-world matching supplies
    premises = ("Bird(tweety)", "∀x (Bird(x) ∧ ¬Flies(x) → Grounded(x))")
    problem = Problem(id="tweety", premises=premises, question="Grounded(tweety)")
    closed = run_pipeline(SolverStubBackend(degrade_initial_plan=True), problem, PipelineConfig(cwa=True))
    assert [t.provisional.label for t in closed.traces] == ["U", "T"]
    [item] = closed.diagnoses[0].evidence
    assert (item.label, item.step_id) == ("premature-termination", 2)
    assert item.note.startswith("Grounded(tweety) ")
    opened = run_pipeline(SolverStubBackend(degrade_initial_plan=True), problem, PipelineConfig())
    assert [t.provisional.label for t in opened.traces] == ["U", "U"]
    assert opened.diagnoses[0].evidence == ()


class RecordingBackend:
    """Passes each call to `inner` and keeps (meta, prompt, reply)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def complete(self, prompt, params):
        reply = self.inner.complete(prompt, params)
        self.calls.append((params.meta, prompt, reply))
        return reply


def test_run_pipeline_stage_calls_carry_their_meta():
    backend = RecordingBackend(SolverStubBackend(degrade_initial_plan=True))
    result = run_pipeline(backend, fig1b_problem())
    assert [(m.stage, m.round, m.instance_id, sorted(m.payload)) for m, _, _ in backend.calls] == [
        ("translate", 0, "fig1b", ["premises", "question"]),
        ("plan", 0, "fig1b", ["context"]),
        ("solve", 0, "fig1b", ["context", "cwa", "plan"]),
        ("replan", 1, "fig1b", ["context", "diagnosis", "plan", "provisional"]),
        ("solve", 1, "fig1b", ["context", "cwa", "plan"]),
    ]
    first, *others = (m.payload["context"] for m, _, _ in backend.calls if m.stage != "translate")
    assert all(context is first for context in others) and first is result.traces[0].context
    # the replan call carries the typed diagnosis that led to it, with its evidence
    [replan_meta] = [m for m, _, _ in backend.calls if m.stage == "replan"]
    assert replan_meta.payload["diagnosis"] is result.diagnoses[0] and result.diagnoses[0].evidence


# A theory of the bench's `stub-deep` shape: ten constants, two-variable rules
# and derivations up to nine rounds deep.
DEEP_CONSTANTS = tuple(f"n{i}" for i in range(10))
DEEP_PREMISES = (
    *(f"Edge({a}, {b})" for a, b in zip(DEEP_CONSTANTS, DEEP_CONSTANTS[1:])),
    "Start(n0)",
    "Big(n3)",
    "Big(n7)",
    "¬Red(n4)",
    "∀x ∀y (Start(x) ∧ Edge(x, y) → Reached(y))",
    "∀x ∀y (Reached(x) ∧ Edge(x, y) → Reached(y))",
    "∀x (Reached(x) ∧ Big(x) → Strong(x))",
    "∀x ∀y (Strong(x) ∧ Edge(x, y) → ¬Weak(y))",
    "∀x (¬Weak(x) ∧ ¬Red(x) → Calm(x))",
)


def _cited_literals(replies):
    """Every literal string the execution logs of `replies` cite."""
    cited = []
    for reply in replies:
        for entry in json.loads(reply)["Execution log"]:
            cited += entry["derived"]
            for derivation in entry["derivations"]:
                cited += [derivation["literal"], *derivation["premises"]]
    return cited


@pytest.mark.parametrize(
    "problem",
    [fig1b_problem(), Problem(id="deep", premises=DEEP_PREMISES, question="¬Weak(n8)")],
    ids=["fig1b", "deep"],
)
def test_run_pipeline_decodes_rules_once_and_each_literal_once_per_reply(problem, monkeypatch):
    templates, parsed = [], []
    rule_templates, parse = solvermod.rule_templates, solvermod.parse_formula
    monkeypatch.setattr(solvermod, "rule_templates", lambda kb, *a: templates.append(kb) or rule_templates(kb, *a))
    monkeypatch.setattr(solvermod, "parse_formula", lambda text: parsed.append(text) or parse(text))
    backend = RecordingBackend(SolverStubBackend(degrade_initial_plan=True))
    result = run_pipeline(backend, problem)
    assert result.final.label == ("T" if problem.id == "deep" else "F")
    # two solve calls and one diagnosis share one set of rule templates
    assert len(templates) == 1
    cited = _cited_literals(reply for meta, _, reply in backend.calls if meta.stage == "solve")
    assert len(cited) > len(set(cited))
    # stated facts come seeded into each reply's literal table; every other string a
    # reply cites is parsed once for that reply, and only the second reply cites any
    assert set(cited) & set(problem.premises)
    assert sorted(parsed) == sorted(set(cited) - set(problem.premises))


def test_run_pipeline_parses_a_literal_two_solve_replies_cite_once_per_reply(monkeypatch):
    recorded = RecordingBackend(SolverStubBackend(degrade_initial_plan=True))
    run_pipeline(recorded, fig1b_problem())
    assert [meta.stage for meta, _, _ in recorded.calls] == ["translate", "plan", "solve", "replan", "solve"]
    replies = [reply for _, _, reply in recorded.calls]
    replies[2] = replies[4]  # both solve replies now cite the literals the rules derive
    derived = set(_cited_literals([replies[4]])) - set(FIG1B_PREMISES)
    parsed = []
    parse = solvermod.parse_formula
    monkeypatch.setattr(solvermod, "parse_formula", lambda text: parsed.append(text) or parse(text))
    result = run_pipeline(CannedBackend(*replies), fig1b_problem())
    assert "Round(lion)" in derived and sorted(parsed) == sorted([*derived, *derived])
    first, second = result.traces
    assert first.plan != second.plan and first.records == second.records


def test_run_pipeline_fig1b_parses_only_the_cited_literals_it_was_not_told(monkeypatch):
    parsed = []
    parse = solvermod.parse_formula
    monkeypatch.setattr(solvermod, "parse_formula", lambda text: parsed.append(text) or parse(text))
    assert run_pipeline(SolverStubBackend(), fig1b_problem()).final.label == "F"
    # the replies also cite the three stated facts Chases(lion, dog), Chases(lion, mouse), Sees(tiger, lion)
    assert sorted(parsed) == [
        "Chases(mouse, dog)",
        "Kind(mouse)",
        "Round(lion)",
        "Round(mouse)",
        "Sees(lion, lion)",
        "Sees(mouse, lion)",
    ]


def test_evaluate_decodes_each_instance_on_its_own(monkeypatch):
    parsed = []
    parse = solvermod.parse_formula
    monkeypatch.setattr(solvermod, "parse_formula", lambda text: parsed.append(text) or parse(text))
    instances = [
        Instance(id=f"copy{i}", premises=FIG1B_PREMISES, question="¬Sees(mouse, lion)", gold="F") for i in (1, 2)
    ]
    report = evaluate(instances, SolverStubBackend(degrade_initial_plan=True), HarnessConfig(concurrency=1))
    assert report.correct == 2
    # the instances cite the same strings, and each parses every one of them once
    assert parsed and set(Counter(parsed).values()) == {2}


# sha256 of every stage prompt, reply and trace line the degraded solver stub
# produces on a dataset; the prompts and traces must not change when the
# stage glue is rewritten.
STUB_TRANSCRIPT_SHA256 = {
    ("fig1b.json", "default"): "291625c93082bc36708ae5bc2e41255f7ea38bd18b0c5bc82394b1f9d55043fd",
    ("fig1b.json", "mp"): "8384907e91e6798d677ccc30c4e71be5058ae4548e39e174de724c7d84b56a15",
    ("fig1b.json", "srm"): "db7d5dc8eb061f8ecb8d38c0caee5d76f744701601c32c928906d9c5718bd5fc",
    ("batch3.json", "default"): "90429c96017830ff2ec09a26f7e3ebffe8035ad1a464f35d4895fffa04ba4c90",
    ("batch3.json", "mp"): "e8158a6c5d1fb6bdd82d71f000869ebab295a968129cad7c9478baff75a3c74d",
    ("batch3.json", "srm"): "3a0b184f9ab7192c36e99b504fe49e43e54a068ba2639d9bdf45846695754dc6",
}

TRANSCRIPT_CONFIGS = {
    "default": PipelineConfig(max_replan_rounds=2),
    "mp": PipelineConfig(max_replan_rounds=1, disable_matrix_plan=True),
    "srm": PipelineConfig(max_replan_rounds=1, disable_structured_repr=True),
}


@pytest.mark.parametrize("dataset, mode", sorted(STUB_TRANSCRIPT_SHA256))
def test_run_pipeline_stub_prompts_and_replies_are_pinned(dataset, mode):
    digest = hashlib.sha256()
    for instance in load_dataset(DATA / dataset):
        problem = Problem(id=instance.id, premises=instance.premises, question=instance.question)
        backend = RecordingBackend(SolverStubBackend(degrade_initial_plan=True))
        result = run_pipeline(backend, problem, TRANSCRIPT_CONFIGS[mode])
        assert result.rounds_used >= 1
        for meta, prompt, reply in backend.calls:
            digest.update(f"{meta.stage}/{meta.round}\0{prompt}\0{reply}\0".encode("utf-8"))
        for trace in result.traces:
            digest.update(json.dumps(trace_to_doc(trace, instance.id), ensure_ascii=False).encode("utf-8"))
    assert digest.hexdigest() == STUB_TRANSCRIPT_SHA256[dataset, mode]


@pytest.mark.parametrize("mode", ["default", "srm"])
def test_solver_stub_replies_carry_no_indentation(mode):
    stages = set()
    for name in ("fig1b.json", "batch3.json"):
        for instance in load_dataset(DATA / name):
            problem = Problem(id=instance.id, premises=instance.premises, question=instance.question)
            backend = RecordingBackend(SolverStubBackend(degrade_initial_plan=True))
            run_pipeline(backend, problem, TRANSCRIPT_CONFIGS[mode])
            for meta, _, reply in backend.calls:
                stages.add(meta.stage)
                assert "\n  " not in reply
    assert stages == {"translate", "plan", "solve", "replan"}


def test_run_pipeline_leaves_no_cyclic_garbage():
    # What a context keeps (its knowledge base, rule templates and, for a raw
    # context, its decoded representation) must not refer back to it.
    problems = [
        Problem(id=instance.id, premises=instance.premises, question=instance.question)
        for name in ("fig1b.json", "batch3.json")
        for instance in load_dataset(DATA / name)
    ]
    configs = [PipelineConfig(), PipelineConfig(disable_structured_repr=True), PipelineConfig(cwa=True)]
    gc.collect()
    gc.disable()
    try:
        for config in configs:
            for degraded in (False, True):
                for problem in problems:
                    result = run_pipeline(SolverStubBackend(degrade_initial_plan=degraded), problem, config)
                    assert all(trace_to_doc(trace, problem.id) for trace in result.traces)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_trace_to_doc_encodes_each_derivation_once(monkeypatch):
    encoded = []  # keeps every encoded object alive, so their ids stay distinct
    derivation_to_doc = solvermod.derivation_to_doc
    monkeypatch.setattr(solvermod, "derivation_to_doc", lambda g: encoded.append(g) or derivation_to_doc(g))
    result = run_pipeline(SolverStubBackend(), fig1b_problem(), PipelineConfig(max_replan_rounds=2))
    docs = [trace_to_doc(trace, "fig1b") for trace in result.traces]
    # the replan keeps the plan, so the unchanged round shares round 0's records tuple
    assert result.traces[0].records is result.traces[1].records
    kept = {id(d) for trace in result.traces for record in trace.records for d in record.derivations}
    assert kept and kept <= {id(g) for g in encoded}
    assert len({id(g) for g in encoded}) == len(encoded)
    assert docs[0]["records"] == docs[1]["records"]


def test_run_pipeline_ends_on_a_replan_that_keeps_the_plan():
    backend = RecordingBackend(SolverStubBackend())
    result = run_pipeline(backend, fig1b_problem(), PipelineConfig(max_replan_rounds=3))
    assert [m.stage for m, _, _ in backend.calls] == ["translate", "plan", "solve", "replan"]
    assert result.rounds_used == 1 and len(result.diagnoses) == 1
    first, second = result.traces
    assert second.plan is first.plan and second.records is first.records
    assert second.provisional == first.provisional and second.round == 1
    assert sorted(second.raw) == ["replan"]


def test_run_pipeline_solves_a_changed_plan_and_then_ends():
    backend = RecordingBackend(SolverStubBackend(degrade_initial_plan=True))
    result = run_pipeline(backend, fig1b_problem(), PipelineConfig(max_replan_rounds=3))
    stages = [m.stage for m, _, _ in backend.calls]
    assert stages == ["translate", "plan", "solve", "replan", "solve", "replan"]
    assert result.rounds_used == 2 and len(result.diagnoses) == 2
    assert result.traces[2].plan is result.traces[1].plan and result.final.label == "F"


def test_run_pipeline_uses_an_embedded_re_execution_of_an_unchanged_plan():
    translate_doc = {
        "Premises": [{"statement": "Cat(tom)", "symbol": "Cat(tom)"}],
        "Proposition": [{"statement": "Cat(tom)", "symbol": "Cat(tom)"}],
    }
    steps = {"1": {"content": "Judge the question.", "kind": "judgment"}}
    plan_doc = {"Plan": steps, "Matrix": [[0]]}
    revised = {"Corrected_plan": steps, "Matrix": [[0]]}
    backend = CannedBackend(
        json.dumps(translate_doc),
        json.dumps(plan_doc),
        json.dumps({"Execution log": "no look", "Final answer": "U"}),
        json.dumps({"Revised plan": revised, "Updated Execution log": "Cat(tom) is stated", "Final answer": "T"}),
        json.dumps({"Revised plan": revised}),
    )
    problem = Problem(id="cat", premises=("Cat(tom)",), question="Cat(tom)")
    result = run_pipeline(backend, problem, PipelineConfig(max_replan_rounds=3))
    assert [stage for stage, _ in backend.calls] == ["translate", "plan", "solve", "replan", "replan"]
    assert [t.provisional.label for t in result.traces] == ["U", "T", "T"]
    assert all(t.plan is result.traces[0].plan for t in result.traces)
    assert result.traces[1].records[0].text == "Cat(tom) is stated"
    assert result.rounds_used == 2 and result.final.label == "T"


CAT = Problem(id="cat", premises=("Cat(tom)",), question="Cat(tom)")
_TWO_STEPS = {"1": {"content": "Collect the facts."}, "2": {"content": "Judge the question.", "kind": "judgment"}}
_CYCLIC_REVISIONS = {
    # the self-loop sits on a 2-cycle; the embedded answer differs from round 0's
    "self-loop-and-two-cycle": {"Revised plan": {"Corrected_plan": _TWO_STEPS, "Matrix": [[1, 1], [1, 0]]}},
    "two-cycle": {"Revised plan": {"Corrected_plan": _TWO_STEPS, "Matrix": [[0, 1], [1, 0]]}},
    "edit-closes-a-cycle": {"Edits": [{"op": "AddEdge", "i": 2, "j": 1}]},
    "edit-self-loop": {"Edits": [{"op": "AddEdge", "i": 1, "j": 1}]},
}


def _cat_replies(replan_doc):
    """Round 0 on `CAT` answers U through the chain 1 -> 2; then the replan reply,
    which embeds a re-execution that answers T."""
    translate_doc = {
        "Premises": [{"statement": "Cat(tom)", "symbol": "Cat(tom)"}],
        "Proposition": [{"statement": "Cat(tom)", "symbol": "Cat(tom)"}],
    }
    return (
        json.dumps(translate_doc),
        json.dumps({"Plan": _TWO_STEPS, "Matrix": [[0, 1], [0, 0]]}),
        json.dumps({"Execution log": "no look", "Final answer": "U"}),
        json.dumps({**replan_doc, "Updated Execution log": "Cat(tom) is stated", "Final answer": "T"}),
    )


@pytest.mark.parametrize("revision", list(_CYCLIC_REVISIONS.values()), ids=list(_CYCLIC_REVISIONS))
def test_run_pipeline_refuses_a_cyclic_revision_and_keeps_the_round(revision):
    replies = _cat_replies(revision)
    backend = CannedBackend(*replies)
    result = run_pipeline(backend, CAT, PipelineConfig(max_replan_rounds=3))
    # the refused revision leaves the plan as it was, so the loop ends there
    assert [stage for stage, _ in backend.calls] == ["translate", "plan", "solve", "replan"]
    first, last = result.traces
    assert result.final.label == first.provisional.label == "U" and result.rounds_used == 1
    assert last.plan is first.plan and last.records is first.records
    assert last.raw == {"replan": replies[-1]}
    # nothing is scored as a failure: the instance stands on round 0's verdict
    [record] = evaluate([Instance("cat", CAT.premises, CAT.question, "U")], CannedBackend(*replies)).records
    assert record.failure_kind is None and record.correct and record.rounds_used == 1


@pytest.mark.parametrize("revision", list(_CYCLIC_REVISIONS.values()), ids=list(_CYCLIC_REVISIONS))
def test_run_pipeline_accepts_a_cyclic_revision_as_the_chain_under_the_mp_ablation(revision):
    # the ablation ignores the revised matrix, as it ignores the planned one, so nothing is refused
    result = run_pipeline(CannedBackend(*_cat_replies(revision)), CAT, PipelineConfig(disable_matrix_plan=True))
    first, last = result.traces
    assert last.plan is first.plan and last.plan.edges() == [(1, 2)]
    assert last.records[0].text == "Cat(tom) is stated"
    assert result.final.label == "T" and result.rounds_used == 1


def test_run_pipeline_keeps_replanning_after_rounds_that_log_nothing():
    # every empty log decodes to the one empty tuple, so the loop's stop test cannot read records
    empty = json.dumps({"Execution log": [], "Final answer": "U"})
    translate, plan = _cat_replies({})[:2]
    cut, relink = ({"Edits": [{"op": op, "i": 1, "j": 2}]} for op in ("DelEdge", "AddEdge"))
    backend = CannedBackend(translate, plan, empty, json.dumps(cut), empty, json.dumps(relink), empty)
    result = run_pipeline(backend, CAT, PipelineConfig(max_replan_rounds=2))
    assert [stage for stage, _ in backend.calls] == ["translate", "plan", "solve", *["replan", "solve"] * 2]
    assert [t.plan.edges() for t in result.traces] == [[(1, 2)], [], [(1, 2)]]
    assert result.rounds_used == 2 and all(t.records == () for t in result.traces)


def test_run_pipeline_renders_the_context_and_each_plan_once(monkeypatch):
    docs, plans = [], []
    monkeypatch.setattr(structured, "repr_to_doc", lambda r: docs.append(r) or repr_to_doc(r))
    monkeypatch.setattr(planmod, "plan_to_json", lambda p: plans.append(p) or plan_to_json(p))
    backend = SolverStubBackend(degrade_initial_plan=True)
    result = run_pipeline(backend, fig1b_problem(), PipelineConfig(max_replan_rounds=2))
    for trace in result.traces:
        trace_to_doc(trace, "fig1b")
    assert docs == [result.traces[0].context]
    # one `doc` per distinct plan serves its prompt text and every trace that
    # records it; the replan of round 2 returns round 1's plan unchanged
    assert result.traces[1].plan is result.traces[2].plan
    assert [sum(q is t.plan for q in plans) for t in result.traces] == [1, 1, 1]


def test_run_pipeline_solves_and_decodes_each_distinct_plan_once(monkeypatch):
    callers, parsed = [], []
    fire_rounds, parse_solve_doc = solvermod.fire_rounds, pipeline._parse_solve_doc

    def counting_fire_rounds(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return fire_rounds(*args, **kwargs)

    monkeypatch.setattr(solvermod, "fire_rounds", counting_fire_rounds)
    monkeypatch.setattr(pipeline, "_parse_solve_doc", lambda *a: parsed.append(a[3]) or parse_solve_doc(*a))
    backend = SolverStubBackend(degrade_initial_plan=True)
    result = run_pipeline(backend, fig1b_problem(), PipelineConfig(max_replan_rounds=2))
    # round 2's replan keeps round 1's full plan, so round 2 makes no solve call;
    # only the full plan has a step that cites rules
    assert len({t.plan for t in result.traces}) == 2
    assert callers.count("proofplan.backends") == 1
    assert callers.count("proofplan.pipeline") == 2  # one diagnose per replan round
    assert parsed == [result.traces[0].raw["solve"], result.traces[1].raw["solve"]]
    assert sorted(result.traces[2].raw) == ["replan"]
    assert result.traces[2].records is result.traces[1].records


def test_replan_stage_keeps_the_plan_object_only_when_the_plan_is_unchanged():
    full, _ = plan_stage(SolverStubBackend(), fig1b_context())
    degraded, _ = plan_stage(SolverStubBackend(degrade_initial_plan=True), fig1b_context())
    clean = Diagnosis(())
    assert replan_stage(SolverStubBackend(), make_trace([], plan=full), clean).plan is full
    # the stub solves the changed plan, which needs the question
    context = build_repr([(text, text) for text in FIG1B_PREMISES], [FIG1B_QUESTION])
    backend = RecordingBackend(SolverStubBackend())
    revised = replan_stage(backend, make_trace([], plan=degraded, context=context), clean).plan
    assert revised is not degraded and revised == full and revised is not full
    assert [meta.stage for meta, _, _ in backend.calls] == ["replan", "solve"]


def test_solve_stage_numbers_records_by_the_execution_order_and_rejects_a_bad_reply():
    log = [{"note": "collect"}, {"note": "apply", "derived": ["Round(lion)"]}, {"note": "judge"}]
    first = json.dumps({"Execution log": log, "Final answer": "T"})
    second = json.dumps({"Execution log": log[:1], "Final answer": "F"})
    backend = CannedBackend(first, second, first, first, "no JSON here", "no JSON here")
    plan = four_step_plan()
    swapped = plan_from_matrix(((0, 0, 1), (0, 0, 0), (0, 1, 0)), plan.steps)  # runs 1, 3, 2
    rounds = [solve_stage(backend, fig1b_context(), p, round=i) for i, p in enumerate([plan, plan])]
    assert [t.provisional.label for t in rounds] == ["T", "F"]
    assert [len(t.records) for t in rounds] == [3, 1]
    # the same reply under another execution order numbers its steps by that order
    assert [r.step_id for r in solve_stage(backend, fig1b_context(), swapped).records] == [1, 3, 2]
    assert [r.step_id for r in solve_stage(backend, fig1b_context(), plan).records] == [1, 2, 3]
    for _ in range(2):
        with pytest.raises(StageParseError):
            solve_stage(backend, fig1b_context(), plan)


def test_solver_stub_decodes_an_unstructured_context_once_per_instance(monkeypatch):
    decoded, decomposed = [], []
    doc_to_repr, rule_templates = structured.doc_to_repr, solvermod.rule_templates
    monkeypatch.setattr(structured, "doc_to_repr", lambda doc: decoded.append(doc) or doc_to_repr(doc))
    monkeypatch.setattr(solvermod, "rule_templates", lambda kb: decomposed.append(kb) or rule_templates(kb))
    config = PipelineConfig(disable_structured_repr=True)
    result = run_pipeline(SolverStubBackend(degrade_initial_plan=True), fig1b_problem(), config)
    assert result.traces[0].plan != result.traces[1].plan  # two solve calls, for two plans
    assert len(decoded) == len(decomposed) == 1


def test_run_pipeline_trace_raw_holds_each_rounds_replies():
    result = run_pipeline(SolverStubBackend(degrade_initial_plan=True), fig1b_problem())
    assert sorted(result.traces[0].raw) == ["plan", "solve", "translate"]
    assert sorted(result.traces[1].raw) == ["replan", "solve"]


def test_run_pipeline_context_unchanged_across_rounds():
    backend = SolverStubBackend(degrade_initial_plan=True)
    result = run_pipeline(backend, fig1b_problem())
    assert all(t.context == result.traces[0].context for t in result.traces)
    assert result.traces[0].context.text.encode("utf-8") == result.traces[-1].context.text.encode("utf-8")


def test_run_pipeline_ablate_matrix_plan_uses_linear_chain():
    config = PipelineConfig(disable_matrix_plan=True)
    result = run_pipeline(scripted(), WALKTHROUGH, config)
    first = result.traces[0].plan
    expected = tuple(
        tuple(1 if j == i + 1 else 0 for j in range(first.size)) for i in range(first.size)
    )
    assert first.matrix == expected


def test_run_pipeline_ablate_replanner():
    config = PipelineConfig(max_replan_rounds=0)
    result = run_pipeline(SolverStubBackend(), taskdef_problem(), config)
    assert result.rounds_used == 0


def test_run_pipeline_ablate_structured_repr_passes_raw_text():
    config = PipelineConfig(disable_structured_repr=True)
    result = run_pipeline(scripted(), WALKTHROUGH, config)
    assert isinstance(result.traces[0].context, RawContext)
    assert result.final.label == "T"


def test_run_pipeline_surfaces_static_findings_as_warnings():
    translate_doc = {
        "Premises": [{"statement": "odd premise.", "symbol": "P(x)"}],
        "Proposition": [{"statement": "q?", "symbol": "∃x P(x)"}],
    }
    plan_doc = {"Plan": {"1": {"content": "Judge the question."}}, "Matrix": [[0]]}
    solve_doc = {"Execution log": "nothing to derive", "Final answer": "U"}
    backend = CannedBackend(json.dumps(translate_doc), json.dumps(plan_doc), json.dumps(solve_doc))
    result = run_pipeline(
        backend,
        Problem(id="w", premises=("odd premise.",), question="q?"),
        PipelineConfig(max_replan_rounds=0),
    )
    assert any(w.startswith("open-rule") for w in result.traces[0].context.warnings)
    doc = trace_to_doc(result.traces[0], "w")
    assert doc["warnings"]


def test_run_pipeline_stub_answers_match_direct_solver():
    backend = SolverStubBackend()
    result = run_pipeline(backend, fig1b_problem())
    assert result.final.label == "F"
    assert result.traces[0].provisional.label == "F"


def test_run_pipeline_stub_answers_like_decide_on_random_theories():
    rng = random.Random(31)
    contradictory = closed_world_changed = 0
    for index in range(150):
        kb = random_horn_kb(rng)
        premises = [str(lit) for lit in sorted(kb.literals)] + [render_formula(rule) for rule in kb.rules]
        query = ground_literal_queries(rng, kb, count=1)[0]
        problem = Problem(id=f"horn-{index}", premises=tuple(premises), question=str(query))
        labels = []
        for cwa in (False, True):
            result = run_pipeline(SolverStubBackend(), problem, PipelineConfig(cwa=cwa))
            chained = forward_chain(kb_from_repr(result.traces[0].context), cwa=cwa)
            labels.append(decide(chained, literal_to_formula(query), cwa=cwa).label)
            assert result.final.label == labels[-1]
            contradictory += chained.contradiction
        closed_world_changed += labels[0] != labels[1]
    assert contradictory and closed_world_changed


# ---------------------------------------------------------------------------
# Robustness: malformed backend replies fail with the contracted error only
# ---------------------------------------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-5, max_value=5) | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=200))
def test_translate_stage_total_on_garbage_text(text):
    backend = CannedBackend(text)
    try:
        translate_stage(backend, WALKTHROUGH)
    except StageParseError:
        pass


@settings(max_examples=150, deadline=None)
@given(_json_values)
def test_plan_stage_total_on_arbitrary_json(doc):
    backend = CannedBackend(json.dumps(doc))
    try:
        plan_stage(backend, RawContext("ctx"))
    except (StageParseError, CycleError):
        pass


_indices = st.integers(min_value=-1, max_value=6)
_edit_docs = st.fixed_dictionaries(
    {"op": st.sampled_from(["AddEdge", "DelEdge", "Merge", "InsertGuard", "Swap"]) | _json_values},
    optional={
        **{name: _indices | _json_values for name in ("i", "j", "p", "q", "k")},
        "content": st.text(max_size=8) | _json_values,
    },
)
_revised_plans = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "Corrected_plan": st.fixed_dictionaries({str(i): st.just({"content": f"s{i}"}) for i in range(1, n + 1)}),
            "Matrix": st.lists(
                st.lists(st.integers(min_value=0, max_value=1), min_size=n - 1, max_size=n + 1),
                min_size=n - 1,
                max_size=n + 1,
            ),
        }
    )
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_edit_docs, max_size=4), st.none() | _revised_plans | _json_values)
@example([{"op": "Merge", "p": 2, "q": 2}], None)
@example([{"op": []}], None)
@example([{"op": "AddEdge", "i": 9, "j": 1}], None)
@example([], {"Corrected_plan": {"1": {"content": "a"}}, "Matrix": [[0], [0]]})
def test_replan_stage_total_on_arbitrary_edits_and_plans(edits, revised):
    reply = {"Edits": edits} if revised is None else {"Edits": edits, "Revised plan": revised}
    try:
        replan_stage(CannedBackend(json.dumps(reply), SOLVE_REPLY), make_trace([facts_record()]), Diagnosis(()))
    except StageParseError:
        pass


@settings(max_examples=150, deadline=None)
@given(_json_values)
def test_solve_stage_total_on_arbitrary_json(doc):
    backend = CannedBackend(json.dumps(doc))
    plan = plan_from_matrix(((0,),), (PlanStep(1, "judge"),))
    try:
        solve_stage(backend, RawContext("ctx"), plan)
    except StageParseError:
        pass
