import json

import pytest

from helpers import plan_from_matrix
from proofplan.backends import (
    API_KEY_ENV,
    BackendError,
    GenerationParams,
    LiveBackend,
    ScriptedBackend,
    SolverStubBackend,
    StageMeta,
)
from proofplan.fol import parse_formula
from proofplan.pipeline import RawContext
from proofplan.plan import PlanStep
from proofplan.solver import decide, forward_chain, kb_from_repr
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


def test_scripted_backend_lookup_and_fallback(tmp_path):
    (tmp_path / "abc__solve__0.txt").write_text("specific", encoding="utf-8")
    (tmp_path / "plan__0.txt").write_text("generic", encoding="utf-8")
    backend = ScriptedBackend(tmp_path)
    meta = StageMeta(stage="solve", round=0, instance_id="abc")
    assert backend.complete("p", GenerationParams(meta=meta)) == "specific"
    meta2 = StageMeta(stage="plan", round=0, instance_id="abc")
    assert backend.complete("p", GenerationParams(meta=meta2)) == "generic"
    with pytest.raises(BackendError):
        backend.complete("p", GenerationParams(meta=StageMeta(stage="replan", round=1)))
    with pytest.raises(BackendError):
        backend.complete("p", GenerationParams())


@pytest.mark.parametrize("where", ["relative", "absolute"])
def test_scripted_backend_keeps_lookups_inside_its_directory(tmp_path, where):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "translate__0.txt").write_text("generic", encoding="utf-8")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "leak__translate__0.txt").write_text("secret", encoding="utf-8")
    instance_id = "../outside/leak" if where == "relative" else str(outside / "leak")
    backend = ScriptedBackend(fixtures)
    meta = StageMeta(stage="translate", round=0, instance_id=instance_id)
    with pytest.raises(BackendError, match="outside"):
        backend.complete("p", GenerationParams(meta=meta))


def test_scripted_backend_missing_directory():
    with pytest.raises(BackendError):
        ScriptedBackend("/nonexistent/fixtures")


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
