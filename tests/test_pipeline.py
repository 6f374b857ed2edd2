import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CannedBackend, ground_literal_queries, random_horn_kb, reference_ground_rules, successors
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
from proofplan.plan import CycleError, MatrixShapeMismatch, Plan, PlanStep, plan_to_json
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


@pytest.mark.parametrize("unit", ["{", '{"a"', '{"a":', "```\n{"], ids=["brace", "key", "colon", "fence"])
def test_extract_json_is_linear_in_unclosed_openers(unit):
    reply = unit * (80000 // len(unit))
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
    with pytest.raises(MatrixShapeMismatch):
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
    plan = Plan(steps, ((0, 1), (0, 0)))
    trace = solve_stage(backend, RawContext("ctx"), plan)
    assert [r.step_id for r in trace.records] == [1, 2]
    assert trace.records[0].text == "did the first step"


def test_solve_stage_rejects_a_log_field_that_is_not_an_array():
    doc = {"Execution log": [{"step": 1, "derived": "P(tom)"}], "Final answer": "U"}
    plan = Plan((PlanStep(1, "judge"),), ((0,),))
    with pytest.raises(StageParseError) as exc:
        solve_stage(CannedBackend(json.dumps(doc)), RawContext("ctx"), plan)
    assert "/Execution log/0/derived: expected array" in str(exc.value)


def test_solve_stage_missing_final_answer():
    backend = CannedBackend(json.dumps({"Execution log": "thinking"}))
    plan = Plan((PlanStep(1, "judge"),), ((0,),))
    with pytest.raises(StageParseError) as exc:
        solve_stage(backend, RawContext("ctx"), plan)
    assert "Final answer" in str(exc.value)


TWO_STEP_PLAN = Plan((PlanStep(1, "apply the rules"), PlanStep(2, "judge")), ((0, 1), (0, 0)))


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


# ---------------------------------------------------------------------------
# Diagnosis
# ---------------------------------------------------------------------------


def fig1b_context():
    return build_repr([(text, text) for text in FIG1B_PREMISES])


def four_step_plan():
    steps = (
        PlanStep(1, "Collect the initial facts from the premises."),
        PlanStep(2, "Apply the rules."),
        PlanStep(3, "Judge the question against the derived facts."),
    )
    matrix = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    return Plan(steps, matrix)


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


def test_diagnose_redundant_edges():
    steps = (PlanStep(1, "a"), PlanStep(2, "b"), PlanStep(3, "c"))
    dense = Plan(steps, ((0, 1, 1), (0, 0, 1), (0, 0, 0)))
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


# ---------------------------------------------------------------------------
# Replanning
# ---------------------------------------------------------------------------


def test_replan_stage_scripted_returns_four_step_plan():
    context, _ = translate_stage(scripted(), WALKTHROUGH)
    plan, _ = plan_stage(scripted(), context, problem=WALKTHROUGH)
    trace = solve_stage(scripted(), context, plan, problem=WALKTHROUGH)
    report = diagnose(trace)
    outcome = replan_stage(scripted(), trace, report, problem=WALKTHROUGH)
    assert outcome.plan.size == 4
    assert outcome.plan.matrix == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))
    embedded = outcome.embedded_trace
    assert embedded is not None and embedded.plan == outcome.plan and embedded.round == 1
    assert embedded.raw == {"replan": outcome.raw}


def test_replan_stage_reads_the_round_state_from_the_trace():
    backend = RecordingBackend(CannedBackend(json.dumps({"Edits": [{"op": "InsertGuard", "k": 1}]})))
    trace = replace(make_trace([facts_record()]), provisional=Verdict("F"), round=2)
    outcome = replan_stage(backend, trace, Diagnosis(frozenset(), ()))
    [(meta, prompt, _)] = backend.calls
    assert meta.stage == "replan" and meta.round == trace.round + 1
    assert meta.payload["provisional"] == trace.provisional.label == "F"
    assert meta.payload["context"] is trace.context and meta.payload["plan"] is trace.plan
    assert "Provisional answer:\nF\n" in prompt and trace.plan.text in prompt
    assert outcome.plan.size == trace.plan.size + 1


def test_replan_stage_edit_list_with_cycle_gets_normalized():
    plan = four_step_plan()
    reply = json.dumps({"Edits": [{"op": "AddEdge", "i": 3, "j": 1}], "Rationale": "loop back"})
    backend = CannedBackend(reply)
    trace = make_trace([facts_record()], plan=plan)
    outcome = replan_stage(backend, trace, Diagnosis(frozenset(), ()))
    from proofplan.plan import validate_dag

    validate_dag(outcome.plan)
    assert outcome.edits


def test_replan_stage_out_of_range_edit():
    from proofplan.pipeline import InvalidEdit

    plan = four_step_plan()
    reply = json.dumps({"Edits": [{"op": "AddEdge", "i": 9, "j": 1}]})
    backend = CannedBackend(reply)
    trace = make_trace([facts_record()], plan=plan)
    with pytest.raises(InvalidEdit):
        replan_stage(backend, trace, Diagnosis(frozenset(), ()))


def test_replan_stage_requires_plan_or_edits():
    plan = four_step_plan()
    backend = CannedBackend(json.dumps({"Rationale": "nothing to change"}))
    trace = make_trace([facts_record()], plan=plan)
    with pytest.raises(StageParseError):
        replan_stage(backend, trace, Diagnosis(frozenset(), ()))


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
    run_pipeline(backend, fig1b_problem())
    assert [(m.stage, m.round, m.instance_id, sorted(m.payload)) for m, _, _ in backend.calls] == [
        ("translate", 0, "fig1b", ["premises", "question"]),
        ("plan", 0, "fig1b", ["context"]),
        ("solve", 0, "fig1b", ["context", "cwa", "plan", "solver"]),
        ("replan", 1, "fig1b", ["context", "diagnosis", "plan", "provisional"]),
        ("solve", 1, "fig1b", ["context", "cwa", "plan", "solver"]),
    ]
    first, second = (m.payload["solver"] for m, _, _ in backend.calls if m.stage == "solve")
    assert first is second


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
def test_run_pipeline_decodes_rules_and_each_reply_literal_once_per_instance(problem, monkeypatch):
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
    # stated facts come seeded into the literal table; every other cited string is parsed once
    assert set(cited) & set(problem.premises)
    assert sorted(parsed) == sorted(set(cited) - set(problem.premises))


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
    ("fig1b.json", "default"): "12dee0157a91db2226318620da3bae401c2d44435dbadec1c85805d3a25550a3",
    ("fig1b.json", "mp"): "524089985397a4ba7f2a54de9a36c9111a4440ce11ddc22c88b2167065c7efc8",
    ("fig1b.json", "srm"): "5b56c8d689e1be4cafecb41b974211ab56f4e08482bcffb4688ceb5e9ccff973",
    ("batch3.json", "default"): "be7401b273f40731047845793c2be8eb641c8f2a6fd69483a2d0733d22e5dc69",
    ("batch3.json", "mp"): "0a3a1eece9d0574b8fb2521f8e3111e3983775211df496b8d5184729e1e40a10",
    ("batch3.json", "srm"): "8933cd7d1cd27d29b5da9a2fd68b538a3584fc0788f7f86c5f0893dc73ac5a11",
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


def test_run_pipeline_renders_the_context_and_each_plan_once(monkeypatch):
    docs, plans = [], []
    monkeypatch.setattr(structured, "repr_to_doc", lambda r: docs.append(r) or repr_to_doc(r))
    monkeypatch.setattr(planmod, "plan_to_json", lambda p: plans.append(p) or plan_to_json(p))
    backend = SolverStubBackend(degrade_initial_plan=True)
    result = run_pipeline(backend, fig1b_problem(), PipelineConfig(max_replan_rounds=2))
    for trace in result.traces:
        trace_to_doc(trace, "fig1b")
    assert docs == [result.traces[0].context]
    # once for the prompt text and once for the trace that records the plan
    assert [sum(q is t.plan for q in plans) for t in result.traces] == [2, 2, 2]


def test_run_pipeline_trace_raw_holds_each_rounds_replies():
    result = run_pipeline(SolverStubBackend(degrade_initial_plan=True), fig1b_problem())
    assert sorted(result.traces[0].raw) == ["plan", "solve", "translate"]
    assert sorted(result.traces[1].raw) == ["replan", "solve"]


def test_run_pipeline_context_unchanged_across_rounds():
    from proofplan.structured import serialize_repr

    backend = SolverStubBackend(degrade_initial_plan=True)
    result = run_pipeline(backend, fig1b_problem())
    assert all(t.context == result.traces[0].context for t in result.traces)
    assert serialize_repr(result.traces[0].context) == serialize_repr(result.traces[-1].context)


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
    assert any(w.startswith("open-rule") for w in result.traces[0].warnings)
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
            chained = forward_chain(kb_from_repr(result.traces[0].context, cwa=cwa))
            labels.append(decide(chained, literal_to_formula(query)).label)
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
    from proofplan.errors import SchemaError
    from proofplan.plan import ShapeError

    backend = CannedBackend(json.dumps(doc))
    try:
        plan_stage(backend, RawContext("ctx"))
    except (StageParseError, MatrixShapeMismatch, CycleError, SchemaError, ShapeError):
        pass


@settings(max_examples=150, deadline=None)
@given(_json_values)
def test_solve_stage_total_on_arbitrary_json(doc):
    backend = CannedBackend(json.dumps(doc))
    plan = Plan((PlanStep(1, "judge"),), ((0,),))
    try:
        solve_stage(backend, RawContext("ctx"), plan)
    except StageParseError:
        pass
