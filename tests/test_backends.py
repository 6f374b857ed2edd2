import json
import random
from pathlib import Path

import pytest

from helpers import plan_from_matrix, random_horn_kb, reference_fire_rounds, reference_ground_rules, write_traces
from proofplan import solver as solvermod
from proofplan.backends import (
    API_KEY_ENV,
    BackendError,
    GenerationParams,
    LiveBackend,
    ScriptedBackend,
    SolverStubBackend,
    StageMeta,
)
from proofplan.fol import parse_formula, render_formula
from proofplan.pipeline import RawContext
from proofplan.plan import PlanStep
from proofplan.solver import decide, forward_chain, kb_from_repr, step_record_from_doc
from proofplan.structured import build_repr, repr_to_doc


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("no JSON")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def completion(text):
    return FakeResponse(payload={"choices": [{"message": {"content": text}}]})


def params(stage="solve"):
    return GenerationParams(meta=StageMeta(stage=stage))


def test_live_backend_requires_key(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    with pytest.raises(BackendError):
        LiveBackend(base_url="http://example.test/v1", model="m", session=FakeSession([]))


def test_live_backend_posts_chat_request(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sekrit")
    session = FakeSession([completion("hello")])
    backend = LiveBackend(base_url="http://example.test/v1/", model="m", session=session)
    out = backend.complete("prompt text", GenerationParams(temperature=0.5, max_tokens=10))
    assert out == "hello"
    request = session.requests[0]
    assert request["url"] == "http://example.test/v1/chat/completions"
    assert request["json"]["messages"] == [{"role": "user", "content": "prompt text"}]
    assert request["json"]["temperature"] == 0.5
    assert request["headers"]["Authorization"] == "Bearer sekrit"


def test_live_backend_retries_transient_failures(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "k")
    monkeypatch.setattr("proofplan.backends.time.sleep", lambda s: None)
    session = FakeSession([FakeResponse(status_code=500), completion("recovered")])
    backend = LiveBackend(base_url="http://x/v1", model="m", session=session)
    assert backend.complete("p", params()) == "recovered"


def test_live_backend_gives_up_after_retries(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "k")
    monkeypatch.setattr("proofplan.backends.time.sleep", lambda s: None)
    session = FakeSession([FakeResponse(status_code=500)] * 3)
    backend = LiveBackend(base_url="http://x/v1", model="m", session=session)
    with pytest.raises(BackendError):
        backend.complete("p", params())


@pytest.mark.parametrize(
    "retry_after, sleeps",
    [
        ("7", [7.0, 7.0]),
        ("86400", [30.0, 30.0]),  # capped at the request timeout
        ("Wed, 21 Oct 2026 07:28:00 GMT", [1, 2]),  # an HTTP-date: exponential delay
        ("nan", [1, 2]),
        (None, [1, 2]),
    ],
)
def test_live_backend_honours_numeric_retry_after(monkeypatch, retry_after, sleeps):
    monkeypatch.setenv(API_KEY_ENV, "k")
    slept = []
    monkeypatch.setattr("proofplan.backends.time.sleep", slept.append)
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    busy = [FakeResponse(status_code=429, headers=headers), FakeResponse(status_code=503, headers=headers)]
    session = FakeSession([*busy, completion("ok")])
    backend = LiveBackend(base_url="http://x/v1", model="m", session=session, timeout_s=30.0)
    assert backend.complete("p", params()) == "ok"
    assert slept == sleeps


def test_live_backend_rejects_empty_completion(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "k")
    session = FakeSession([completion("")])
    backend = LiveBackend(base_url="http://x/v1", model="m", session=session)
    with pytest.raises(BackendError):
        backend.complete("p", params())


def test_live_backend_rejects_malformed_payload(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "k")
    session = FakeSession([FakeResponse(payload={"nope": []})])
    backend = LiveBackend(base_url="http://x/v1", model="m", session=session)
    with pytest.raises(BackendError):
        backend.complete("p", params())


def _call(backend, instance_id, stage, round):
    return backend.complete("p", GenerationParams(meta=StageMeta(stage=stage, round=round, instance_id=instance_id)))


def test_scripted_backend_replays_round_and_failure_records(tmp_path):
    traces = write_traces(
        tmp_path / "t.jsonl",
        {"instance": "a", "round": 0, "raw": {"plan": "a plan", "translate": "a translation"}},
        {"instance": "a", "round": 1, "raw": {"replan": "a revision"}},
        {"instance": "b", "failure_kind": "format", "error": "e", "replies": [
            {"round": 0, "stage": "translate", "reply": "b translation"}, {"round": 0, "stage": "plan", "reply": "{"}]},
    )
    backend = ScriptedBackend(traces)
    assert _call(backend, "a", "translate", 0) == "a translation"
    assert _call(backend, "a", "plan", 0) == "a plan"
    assert _call(backend, "a", "replan", 1) == "a revision"
    assert _call(backend, "b", "translate", 0) == "b translation"
    assert _call(backend, "b", "plan", 0) == "{"
    with pytest.raises(BackendError, match="metadata"):
        backend.complete("p", GenerationParams())


def test_scripted_backend_replays_a_reply_byte_for_byte(tmp_path):
    # U+2028, U+0085 and a lone CR end a line for str.splitlines, but not inside a traces line
    reply = "line\u2028sep\u0085next\rcr\r\nend \u00e9\U0001F600"
    traces = write_traces(tmp_path / "t.jsonl", {"instance": "a", "round": 0, "raw": {"solve": reply}})
    assert "\u2028" in traces.read_text(encoding="utf-8")  # written unescaped, as ensure_ascii=False leaves it
    assert _call(ScriptedBackend(traces), "a", "solve", 0) == reply


@pytest.mark.parametrize("instance_id, stage, round", [("b", "solve", 0), ("a", "solve", 1), ("a", "plan", 0)])
def test_scripted_backend_names_a_call_it_has_no_reply_for(tmp_path, instance_id, stage, round):
    traces = write_traces(tmp_path / "t.jsonl", {"instance": "a", "round": 0, "raw": {"solve": "x"}})
    expected = f"no recorded reply for instance '{instance_id}', stage {stage}, round {round}"
    with pytest.raises(BackendError, match=f"^{expected}$"):
        _call(ScriptedBackend(traces), instance_id, stage, round)


def test_scripted_backend_refuses_a_second_reply_for_one_call(tmp_path):
    failed = {"instance": "a", "failure_kind": "backend", "error": "e", "replies": [
        {"round": 0, "stage": "solve", "reply": "y"}]}
    recorded = [{"instance": i, "round": 0, "raw": {"solve": "x"}} for i in "ab"]
    traces = write_traces(tmp_path / "t.jsonl", *recorded, failed)
    with pytest.raises(BackendError, match=f"^{traces}:3: a second reply for instance 'a', stage solve, round 0$"):
        ScriptedBackend(traces)


def test_scripted_backend_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ScriptedBackend(tmp_path / "missing.jsonl")


def test_solver_stub_translate_passes_formula_text_through():
    backend = SolverStubBackend()
    meta = StageMeta(stage="translate", payload={"premises": ["P(tom)"], "question": "P(tom)"})
    doc = json.loads(backend.complete("p", GenerationParams(meta=meta)))
    assert doc["Premises"] == [{"statement": "P(tom)", "symbol": "P(tom)"}]
    assert doc["Proposition"] == [{"statement": "P(tom)", "symbol": "P(tom)"}]


STUB_PREMISES = ("P(tom)", "∀x (P(x) → Q(x))", "R(tom)", "∀x (Q(x) → S(x))")


def _stub_plan(context, stage="plan", backend=None):
    meta = StageMeta(stage=stage, payload={"context": context})
    return json.loads((backend or SolverStubBackend()).complete("p", GenerationParams(meta=meta)))


def test_solver_stub_plan_is_linear_chain():
    doc = _stub_plan(build_repr([(p, p) for p in STUB_PREMISES], [("S(tom)", "S(tom)")]))
    n = len(doc["Plan"])
    assert doc["Matrix"] == [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]


def test_solver_stub_plan_cites_the_facts_then_the_rules_then_judges():
    context = build_repr([(p, p) for p in STUB_PREMISES], [("S(tom)", "S(tom)")])
    facts = {"content": "Collect the initial facts from the premises.", "uses": [1, 3]}
    rules = {"content": "Run the rules to a fixpoint.", "uses": [2, 4]}
    judge = {"content": "Judge the question against the derived facts.", "kind": "judgment"}
    assert _stub_plan(context)["Plan"] == {"1": facts, "2": rules, "3": judge}
    # the degraded first plan leaves out the rules step; its replan restores the full plan
    degraded = SolverStubBackend(degrade_initial_plan=True)
    assert _stub_plan(context, backend=degraded)["Plan"] == {"1": facts, "2": judge}
    revised = _stub_plan(context, "replan", degraded)["Revised plan"]
    assert revised["Corrected_plan"] == {"1": facts, "2": rules, "3": judge}
    # with structured management ablated, the ids come from the decoded translation text
    raw = RawContext(json.dumps(repr_to_doc(context), ensure_ascii=False))
    assert _stub_plan(raw)["Plan"] == {"1": facts, "2": rules, "3": judge}
    with pytest.raises(BackendError, match="lacks a context"):
        _stub_plan(None)


def test_solver_stub_requires_metadata():
    with pytest.raises(BackendError):
        SolverStubBackend().complete("p", GenerationParams())


def _stub_solve(context, plan):
    meta = StageMeta(stage="solve", payload={"context": context, "plan": plan})
    return json.loads(SolverStubBackend().complete("p", GenerationParams(meta=meta)))["Final answer"]


@pytest.mark.parametrize("question", ["Mammal(tom)", "¬Mammal(tom)", "Cat(tom)", "∃x Mammal(x)"])
def test_solver_stub_solve_reads_typed_context_and_plan(question):
    premises = ["∀x (Cat(x) → Mammal(x))", "∀x (Dog(x) → Mammal(x))", "Dog(tom)"]
    context = build_repr([(p, p) for p in premises], [(question, question)])
    steps = (
        PlanStep(1, "Collect the initial facts from the premises.", uses=(3,)),
        PlanStep(2, "Run the ground rules to a fixpoint.", uses=(1, 2)),
        PlanStep(3, "Judge the question against the derived facts.", kind="judgment"),
    )
    plan = plan_from_matrix(((0, 1, 0), (0, 0, 1), (0, 0, 0)), steps)
    expected = decide(forward_chain(kb_from_repr(context)), parse_formula(question)).label
    assert _stub_solve(context, plan) == expected
    # With structured management ablated, the context is the translation text.
    raw = RawContext(json.dumps(repr_to_doc(context), ensure_ascii=False))
    assert _stub_solve(raw, plan) == expected


def test_solver_stub_notes_the_answer_on_an_adjudicate_step():
    context = build_repr([("Dog(tom)", "Dog(tom)")], [("Dog(tom)", "Dog(tom)")])
    steps = (
        PlanStep(1, "Collect the initial facts from the premises.", uses=(1,)),
        PlanStep(2, "Adjudicate the question."),
    )
    plan = plan_from_matrix(((0, 1), (0, 0)), steps)
    meta = StageMeta(stage="solve", payload={"context": context, "plan": plan})
    doc = json.loads(SolverStubBackend().complete("p", GenerationParams(meta=meta)))
    assert doc["Final answer"] == "T"
    assert doc["Execution log"][-1]["note"] == "Adjudicate the question. -> T"


def test_solver_stub_runs_each_step_from_its_citations_and_kind():
    context = build_repr([(p, p) for p in STUB_PREMISES], [("S(tom)", "S(tom)")])
    steps = (
        PlanStep(1, "Run every rule to a fixpoint, then judge.", uses=(1,)),  # the wording is not read
        PlanStep(2, "Apply the first rule.", uses=(2,)),
        PlanStep(3, "Weigh what is known.", kind="judgment"),
        PlanStep(4, "Apply the second rule.", uses=(4,)),
    )
    plan = plan_from_matrix(((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)), steps)
    meta = StageMeta(stage="solve", payload={"context": context, "plan": plan})
    doc = json.loads(SolverStubBackend().complete("p", GenerationParams(meta=meta)))
    assert [(e["note"], e["derived"]) for e in doc["Execution log"]] == [
        ("Run every rule to a fixpoint, then judge.", ["P(tom)"]),
        ("Apply the first rule.", ["Q(tom)"]),
        ("Weigh what is known. -> U", []),
        ("Apply the second rule.", ["S(tom)"]),
    ]
    assert doc["Final answer"] == "U"  # judged before the second rule fired


def test_solver_stub_solve_needs_context_and_plan():
    context = build_repr([("P(tom)", "P(tom)")], [("P(tom)", "P(tom)")])
    plan = plan_from_matrix(((0,),), (PlanStep(1, "Judge the question."),))
    with pytest.raises(BackendError):
        _stub_solve(None, plan)
    with pytest.raises(BackendError):
        _stub_solve(context, None)
    with pytest.raises(BackendError):
        _stub_solve(RawContext("not json"), plan)
    # a translation whose symbols are not formulas, as with structured management ablated
    prose = {"Premises": [{"statement": "Tom is big.", "symbol": "Tom is big."}], "Proposition": []}
    with pytest.raises(BackendError, match="cannot read the context"):
        _stub_solve(RawContext(json.dumps(prose)), plan)


def _rule_by_rule_plan(context, min_steps=20):
    """A chain: a step citing every fact, then one step per rule in rule
    order, pass after pass until there are `min_steps` steps, then the judgment."""
    steps = [PlanStep(1, "Collect the initial facts.", uses=tuple(s.id for s in context.facts))]
    while len(steps) < min_steps - 1:
        for rule in context.rules:
            steps.append(PlanStep(len(steps) + 1, f"Apply rule {rule.id}.", uses=(rule.id,)))
    steps.append(PlanStep(len(steps) + 1, "Judge the question.", kind="judgment"))
    n = len(steps)
    return plan_from_matrix([[int(j == i + 1) for j in range(n)] for i in range(n)], tuple(steps))


def _horn_context(kb):
    """The structured representation whose knowledge base is `kb`, asking about its least fact."""
    texts = [str(lit) for lit in sorted(kb.literals)] + [render_formula(rule) for _, rule in kb.rules]
    question = str(min(kb.literals))
    context = build_repr([(t, t) for t in texts], [(question, question)], declared=kb.table)
    assert context.kb == kb
    return context


@pytest.mark.parametrize("cwa", [False, True], ids=["open-world", "cwa"])
def test_solver_stub_runs_a_many_step_plan_on_one_literal_index(monkeypatch, cwa):
    # Each step's derivations equal the index-free reference fired with that
    # step's rule on one set that grows step by step; every literal the log
    # shows enters the execution's index once, and none is indexed again.
    added, indexed = [], []
    index_literals = solvermod.index_literals

    def recording(literals, into=None):
        literals = list(literals)
        if into is not None:
            for lit in literals:
                assert lit.args not in into.get((lit.positive, lit.predicate, len(lit.args)), ()), f"{lit} added twice"
        (indexed if into is None else added).extend(literals)
        return index_literals(literals, into)

    monkeypatch.setattr(solvermod, "index_literals", recording)
    rng = random.Random(34)
    premises = (Path(__file__).parent / "data" / "fig1b_premises.txt").read_text(encoding="utf-8").splitlines()
    fig1b = build_repr([(p, p) for p in premises], [("¬Sees(mouse, lion)", "¬Sees(mouse, lion)")])
    resumed = 0
    for context in [fig1b] + [_horn_context(random_horn_kb(rng)) for _ in range(60)]:
        if not context.rules:
            continue
        kb, plan = context.kb, _rule_by_rule_plan(context)
        assert plan.size >= 20
        added.clear()
        indexed.clear()
        meta = StageMeta(stage="solve", payload={"context": context, "plan": plan, "cwa": cwa})
        doc = json.loads(SolverStubBackend().complete("p", GenerationParams(meta=meta)))
        records = [step_record_from_doc(entry) for entry in doc["Execution log"]]
        assert [r.step_id for r in records] == list(plan.order)
        known, grounded = set(kb.literals), reference_ground_rules(kb)
        assert records[0].derived == tuple(sorted(known))
        for step, record in zip(plan.steps[1:-1], records[1:-1]):
            want = reference_fire_rounds(known, [g for g in grounded if g.rule_id in step.uses], cwa)
            assert record.derivations == tuple(want)
            assert record.derived == tuple(g.conclusion for g in want)
            resumed += bool(want) and step.id > len(context.rules) + 1
        verdict = decide(solvermod.KnowledgeBase(kb.table, known, ()), context.questions[0].symbol)
        assert doc["Final answer"] == verdict.label
        shown = [lit for record in records for lit in record.derived]
        assert sorted(added) == sorted(shown) and set(shown) == known
        assert len(set(indexed)) == len(indexed)
    assert resumed
