import dataclasses
import json
import random
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CountingStub, random_formula, random_horn_kb
from proofplan.backends import API_KEY_ENV, LiveBackend, ScriptedBackend, SolverStubBackend
from proofplan.errors import SchemaError
from proofplan.harness import (
    HarnessConfig,
    Instance,
    InstanceRecord,
    _run_one,
    compose_question,
    evaluate,
    load_dataset,
    report_to_doc,
    stratify_by_depth,
)
from proofplan.pipeline import PipelineConfig, Problem, StageParseError, run_pipeline
from proofplan.solver import brute_force_entails, kb_from_repr, literal_to_formula
from proofplan.structured import build_repr
from proofplan.fol import parse_formula, render_formula

DATA = Path(__file__).parent / "data"
FIXTURES = Path(__file__).parent / "fixtures"


def test_load_dataset_normalizes_labels(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(
        json.dumps(
            [
                {"id": "a", "premises": ["P(tom)"], "question": "P(tom)", "answer": "Unknown"},
                {"id": "b", "premises": ["P(tom)"], "question": "P(tom)", "answer": "true"},
                {"id": "c", "premises": ["P(tom)"], "question": "P(tom)", "label": "F"},
            ]
        ),
        encoding="utf-8",
    )
    instances = load_dataset(path)
    assert [i.gold for i in instances] == ["U", "T", "F"]


def test_load_dataset_accepts_boolean_gold(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(
        json.dumps([{"id": "a", "premises": ["P(tom)"], "question": "P(tom)", "answer": True}]),
        encoding="utf-8",
    )
    assert load_dataset(path)[0].gold == "T"


def test_evaluate_classifies_cyclic_plan_failure(tmp_path):
    dataset = tmp_path / "d.json"
    dataset.write_text(
        json.dumps([{"id": "c1", "premises": ["P(tom)"], "question": "P(tom)", "answer": "T"}]),
        encoding="utf-8",
    )
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    (fixtures / "c1__translate__0.txt").write_text(
        json.dumps(
            {
                "Premises": [{"statement": "P(tom)", "symbol": "P(tom)"}],
                "Proposition": [{"statement": "P(tom)", "symbol": "P(tom)"}],
            }
        ),
        encoding="utf-8",
    )
    (fixtures / "c1__plan__0.txt").write_text(
        json.dumps(
            {
                "Plan": {"1": {"content": "a"}, "2": {"content": "b"}},
                "Matrix": [[0, 1], [1, 0]],
            }
        ),
        encoding="utf-8",
    )
    report = evaluate(
        load_dataset(dataset),
        ScriptedBackend(fixtures),
        HarnessConfig(pipeline=PipelineConfig(max_replan_rounds=0)),
    )
    assert report.records[0].failure_kind == "cycle"
    assert not report.records[0].correct


def test_load_dataset_empty_array(tmp_path):
    path = tmp_path / "d.json"
    path.write_text("[]", encoding="utf-8")
    assert load_dataset(path) == []


def test_load_dataset_rejects_label_outside_alphabet(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(
        json.dumps([{"id": "a", "premises": ["P(a)"], "question": "P(a)", "answer": "maybe"}]),
        encoding="utf-8",
    )
    with pytest.raises(SchemaError) as exc:
        load_dataset(path)
    assert exc.value.pointer == "/0/answer"


@pytest.mark.parametrize(
    "entry, pointer",
    [
        ({"premises": []}, "/1/premises"),
        ({"context": ""}, "/1/context"),
        ({"theory": " \n\t "}, "/1/theory"),
    ],
)
def test_load_dataset_rejects_an_instance_without_premises(tmp_path, entry, pointer):
    path = tmp_path / "d.json"
    good = {"premises": ["P(a)"], "question": "P(a)", "answer": "T"}
    path.write_text(json.dumps([good, {**entry, "question": "P(a)", "answer": "T"}]), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        load_dataset(path)
    assert exc.value.pointer == pointer


def test_load_dataset_options_format(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(
        json.dumps(
            [
                {
                    "id": "q1",
                    "context": "Three runners finished in some order. Ann beat Bob.",
                    "question": "Who finished first?",
                    "options": ["Ann", "Bob", "Cid"],
                    "answer": "(A)",
                }
            ]
        ),
        encoding="utf-8",
    )
    instances = load_dataset(path, format="options-json")
    assert instances[0].gold == "A"
    assert len(instances[0].premises) == 2  # sentence-split context
    with pytest.raises(SchemaError):
        load_dataset(path, format="tfu-json")


def _options_dataset(tmp_path, options, answer):
    path = tmp_path / "d.json"
    entry = {"id": "q1", "premises": ["P(a)"], "question": "Which?", "options": options, "answer": answer}
    path.write_text(json.dumps([entry]), encoding="utf-8")
    return path


def test_load_dataset_rejects_options_the_prompt_cannot_letter(tmp_path):
    assert len(load_dataset(_options_dataset(tmp_path, list("uvwxy"), "E"), format="options-json")) == 1
    with pytest.raises(SchemaError) as exc:
        load_dataset(_options_dataset(tmp_path, list("uvwxyz"), "A"), format="options-json")
    assert exc.value.pointer == "/0/options"


def test_load_dataset_rejects_gold_letter_beyond_the_options(tmp_path):
    with pytest.raises(SchemaError) as exc:
        load_dataset(_options_dataset(tmp_path, ["Ann", "Bob", "Cid"], "D"), format="options-json")
    assert exc.value.pointer == "/0/answer"


def test_load_dataset_task_definition_file():
    instances = load_dataset(DATA / "task_definition.json")
    assert instances[0].gold == "U"
    assert instances[0].depth == 0


def test_evaluate_with_solver_stub_on_bundled_files():
    instances = load_dataset(DATA / "task_definition.json") + load_dataset(DATA / "fig1b.json")
    written = []
    report = evaluate(instances, SolverStubBackend(), HarnessConfig(concurrency=2), written.append)
    assert report.total == 2 and report.correct == 2
    assert report.accuracy == 1.0
    assert all(r.failure_kind is None for r in report.records)
    assert "".join(written).count("\n") == 4  # two rounds per instance


def test_evaluate_scores_missing_final_answer_as_format_failure():
    instances = load_dataset(DATA / "batch3.json")
    backend = ScriptedBackend(FIXTURES / "batch3")
    config = HarnessConfig(pipeline=PipelineConfig(max_replan_rounds=0))
    report = evaluate(instances, backend, config)
    assert report.total == 3
    by_id = {r.id: r for r in report.records}
    assert by_id["b1"].correct and by_id["b2"].correct
    assert not by_id["b3"].correct
    assert by_id["b3"].failure_kind == "format"
    assert report.accuracy == pytest.approx(2 / 3)


def test_evaluate_order_and_concurrency_invariance():
    instances = load_dataset(DATA / "batch3.json")
    backend = ScriptedBackend(FIXTURES / "batch3")
    config1 = HarnessConfig(pipeline=PipelineConfig(max_replan_rounds=0), concurrency=1)
    config3 = HarnessConfig(pipeline=PipelineConfig(max_replan_rounds=0), concurrency=3)
    direct = evaluate(instances, backend, config1)
    threaded = evaluate(instances, backend, config3)
    shuffled = evaluate(list(reversed(instances)), backend, config3)
    assert direct.accuracy == threaded.accuracy == shuffled.accuracy
    assert [r.id for r in threaded.records] == [i.id for i in instances]


def test_evaluate_distinguishes_wrong_label():
    instance = Instance(id="w", premises=("Mammal(tom)",), question="Cat(tom)", gold="F")
    report = evaluate([instance], SolverStubBackend(), HarnessConfig())
    record = report.records[0]
    assert record.predicted == "U" and record.gold == "F"
    assert not record.correct
    assert record.failure_kind == "wrong-label"


def test_evaluate_times_out_slow_instances():
    import time as time_module

    class SleepyBackend:
        def complete(self, prompt, params):
            time_module.sleep(0.5)
            return "{}"

    instance = Instance(id="s", premises=("P(tom)",), question="P(tom)", gold="T")
    config = HarnessConfig(timeout_s=0.05, concurrency=1)
    report = evaluate([instance], SleepyBackend(), config)
    assert report.records[0].failure_kind == "timeout"
    assert not report.records[0].correct


def test_timeout_runs_per_instance_and_stops_backend_calls():
    import threading
    import time as time_module

    class SlowStub(SolverStubBackend):
        def __init__(self):
            super().__init__()
            self.calls = 0
            self._lock = threading.Lock()

        def complete(self, prompt, params):
            with self._lock:
                self.calls += 1
            time_module.sleep(0.1)
            return super().complete(prompt, params)

    instances = load_dataset(DATA / "fig1b.json") * 4
    backend = SlowStub()
    start = time_module.perf_counter()
    report = evaluate(instances, backend, HarnessConfig(timeout_s=0.05, concurrency=1))
    elapsed = time_module.perf_counter() - start
    assert [r.failure_kind for r in report.records] == ["timeout"] * 4
    assert all(r.duration_s >= 0.1 for r in report.records)
    assert backend.calls <= 4
    assert elapsed < 1.0


class _BusySession:
    """Answers every POST with 503 and `Retry-After: 1`."""

    def __init__(self):
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        return SimpleNamespace(status_code=503, headers={"Retry-After": "1"}, text="")


class _SilentSession:
    """Blocks for its `timeout` argument and then raises, as a request that gets no reply does."""

    def __init__(self):
        self.timeouts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.timeouts.append(timeout)
        time.sleep(timeout)
        raise TimeoutError(f"no reply within {timeout} s")


def test_live_backend_makes_no_retry_that_cannot_start_before_the_deadline(monkeypatch):
    # the reply asks for a 0.5 s wait (Retry-After capped at the request
    # timeout), which would end at the deadline, so the backend gives up at once
    monkeypatch.setenv(API_KEY_ENV, "k")
    session = _BusySession()
    backend = LiveBackend(base_url="http://x/v1", model="m", timeout_s=0.5, session=session)
    instance = Instance(id="s", premises=("P(tom)",), question="P(tom)", gold="T")
    started = time.perf_counter()
    report = evaluate([instance], backend, HarnessConfig(timeout_s=0.5, concurrency=1))
    assert time.perf_counter() - started < 0.3
    assert session.posts == 1
    assert report.records[0].failure_kind == "backend"


def test_live_backend_request_waits_at_most_the_time_left(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "k")
    session = _SilentSession()
    backend = LiveBackend(base_url="http://x/v1", model="m", timeout_s=1.0, session=session)
    instance = Instance(id="s", premises=("P(tom)",), question="P(tom)", gold="T")
    started = time.perf_counter()
    report = evaluate([instance], backend, HarnessConfig(timeout_s=0.5, concurrency=1))
    assert time.perf_counter() - started < 0.8
    assert len(session.timeouts) == 1 and session.timeouts[0] <= 0.5
    assert report.records[0].failure_kind == "timeout"  # the request failed after the deadline


def test_interrupt_cancels_instances_not_yet_started():
    class Interrupted(SolverStubBackend):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def complete(self, prompt, params):
            self.calls += 1
            if self.calls == 1:
                raise KeyboardInterrupt
            time.sleep(0.005)  # the interrupted caller cancels the queue while this instance runs
            return super().complete(prompt, params)

    backend = Interrupted()
    with pytest.raises(KeyboardInterrupt):
        evaluate(load_dataset(DATA / "fig1b.json") * 20, backend, HarnessConfig(concurrency=1))
    assert backend.calls <= 10


def _copies(count):
    (instance,) = load_dataset(DATA / "fig1b.json")
    return [dataclasses.replace(instance, id=f"i{k}") for k in range(count)]


def test_a_failing_trace_sink_cancels_instances_not_yet_started():
    calls = []

    def sink(lines):
        calls.append(lines)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")

    backend = CountingStub()
    with pytest.raises(OSError):
        evaluate(_copies(20), backend, HarnessConfig(concurrency=1), sink)
    assert len(calls) == 2 and backend.started <= 4


def test_trace_sink_gets_instances_in_input_order_when_they_finish_out_of_order():
    finished, lock = [], threading.Lock()

    class EarlierIsSlower(SolverStubBackend):
        def complete(self, prompt, params):
            reply = super().complete(prompt, params)
            if params.meta.stage == "translate":
                time.sleep(0.02 * (8 - int(params.meta.instance_id[1:])))
            if params.meta.stage == "replan":
                with lock:
                    finished.append(params.meta.instance_id)
            return reply

    written = []
    instances = _copies(8)
    report = evaluate(instances, EarlierIsSlower(), HarnessConfig(concurrency=4), written.append)
    ids = [i.id for i in instances]
    assert sorted(finished) == sorted(ids) and finished != ids  # the run did finish out of order
    assert [json.loads(chunk.split("\n")[0])["instance"] for chunk in written] == ids
    assert [r.id for r in report.records] == ids and report.correct == 8


class _OneStageReply(SolverStubBackend):
    """The solver stub, except that `stage` is answered with `reply`."""

    def __init__(self, stage, reply):
        super().__init__()
        self.stage, self.reply = stage, reply

    def complete(self, prompt, params):
        return self.reply if params.meta.stage == self.stage else super().complete(prompt, params)


@pytest.mark.parametrize(
    "stage, reply",
    [
        (
            "plan",
            {
                "Plan": {str(i): {"content": f"step {i}"} for i in range(1, 258)},
                "Matrix": [[int(j == i + 1) for j in range(257)] for i in range(257)],
            },
        ),
        ("replan", {"Edits": [{"op": "AddEdge", "i": 1, "j": 2}] * 4000 + [{"op": "AddEdge", "i": 1, "j": 99}]}),
    ],
    ids=["plan-257-steps", "replan-4000-edits"],
)
def test_oversized_plan_replies_score_format_quickly(stage, reply):
    backend = _OneStageReply(stage, json.dumps(reply))
    start = time.perf_counter()
    report = evaluate(load_dataset(DATA / "fig1b.json"), backend, HarnessConfig(concurrency=1))
    assert report.records[0].failure_kind == "format"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "stage, reply, pointer",
    [
        ("plan", {"Plan": {"1": {"content": "Check.", "kind": "guard"}}, "Matrix": [[0]]}, "/Plan/1/kind"),
        ("replan", {"Edits": [{"op": []}]}, "/Edits/0/op"),
        ("replan", {"Edits": [{"op": {}}]}, "/Edits/0/op"),
        ("replan", {"Edits": [{"op": "Merge", "p": 1, "q": 2}]}, "/Edits/0/op"),
        ("replan", {"Edits": [{"op": "InsertGuard", "k": 1}]}, "/Edits/0/op"),
    ],
    ids=["guard-kind", "list-op", "object-op", "merge-op", "insert-guard-op"],
)
def test_unknown_step_kinds_and_edit_ops_score_format(stage, reply, pointer):
    backend = _OneStageReply(stage, json.dumps(reply))
    [instance] = load_dataset(DATA / "fig1b.json")
    report = evaluate([instance], backend, HarnessConfig(concurrency=1))
    assert report.records[0].failure_kind == "format"
    problem = Problem(id=instance.id, premises=instance.premises, question=compose_question(instance))
    with pytest.raises(StageParseError, match=f"^{stage} stage: {pointer}: expected one of "):
        run_pipeline(backend, problem)


def test_stratify_by_depth():
    instances = load_dataset(DATA / "batch3.json")
    backend = ScriptedBackend(FIXTURES / "batch3")
    config = HarnessConfig(pipeline=PipelineConfig(max_replan_rounds=0))
    report = evaluate(instances, backend, config)
    table = stratify_by_depth(report)
    assert table == {0: 1.0, 1: 0.0}
    # weighted sum equals total correct
    counts = {0: 2, 1: 1}
    assert sum(counts[d] * a for d, a in table.items()) == report.correct


def test_stratify_requires_depth():
    instance = Instance(id="x", premises=("P(a)",), question="P(a)", gold="T")
    report = evaluate([instance], SolverStubBackend(), HarnessConfig())
    assert stratify_by_depth(report) == {}
    assert "by_depth" not in report_to_doc(report)


def test_report_doc_shape_and_fingerprint_stability():
    instances = load_dataset(DATA / "task_definition.json")
    config = HarnessConfig(seed=7, dataset_hash="abc")
    report = evaluate(instances, SolverStubBackend(), config)
    doc = report_to_doc(report)
    assert doc["total"] == 1 and doc["correct"] == 1
    assert doc["fingerprint"] == HarnessConfig(seed=7, dataset_hash="abc").fingerprint()
    assert doc["fingerprint"] == "d6c069a562bea37bb401921fe8f2981f264243efc33129e2147efb66175527d8"
    assert doc["config"]["seed"] == 7
    assert doc["by_depth"] == {"0": 1.0}
    other = HarnessConfig(seed=8, dataset_hash="abc").fingerprint()
    assert other != doc["fingerprint"]


def test_report_records_list_the_instance_record_fields_in_order():
    instances = load_dataset(DATA / "batch3.json")
    config = HarnessConfig(pipeline=PipelineConfig(max_replan_rounds=0))
    report = evaluate(instances, ScriptedBackend(FIXTURES / "batch3"), config)
    names = [f.name for f in dataclasses.fields(InstanceRecord)]
    for record, entry in zip(report.records, report_to_doc(report)["records"], strict=True):
        assert list(entry) == names
        assert entry == {**dataclasses.asdict(record), "duration_s": round(record.duration_s, 6)}


def test_option_letter_scoring(tmp_path):
    dataset = tmp_path / "options.json"
    dataset.write_text(
        json.dumps(
            [
                {
                    "id": "q1",
                    "premises": ["Ann finished before Bob.", "Bob finished before Cid."],
                    "question": "Who finished last?",
                    "options": ["Ann", "Bob", "Cid"],
                    "answer": "C",
                }
            ]
        ),
        encoding="utf-8",
    )
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    (fixtures / "q1__translate__0.txt").write_text(
        json.dumps(
            {
                "Premises": [
                    {"statement": "Ann finished before Bob.", "symbol": "Before(ann, bob)"},
                    {"statement": "Bob finished before Cid.", "symbol": "Before(bob, cid)"},
                ],
                "Proposition": [{"statement": "Who finished last?", "symbol": "Last(cid)"}],
            }
        ),
        encoding="utf-8",
    )
    (fixtures / "q1__plan__0.txt").write_text(
        json.dumps(
            {
                "Plan": {"1": {"content": "Order the runners."}, "2": {"content": "Pick the option."}},
                "Matrix": [[0, 1], [0, 0]],
            }
        ),
        encoding="utf-8",
    )
    (fixtures / "q1__solve__0.txt").write_text(
        json.dumps({"Execution log": "Ann, Bob, Cid in order; Cid is last.", "Final answer": "(C)"}),
        encoding="utf-8",
    )
    instances = load_dataset(dataset, format="options-json")
    backend = ScriptedBackend(fixtures)
    report = evaluate(instances, backend, HarnessConfig(pipeline=PipelineConfig(max_replan_rounds=0)))
    assert report.records[0].predicted == "C"
    assert report.records[0].correct


def test_solver_stub_eval_agrees_with_brute_force_gold():
    rng = random.Random(31337)
    instances = []
    for index in range(50):
        constants = ("c1", "c2")
        names = ("P", "Q", "R")
        premises = [f"{rng.choice(names)}({rng.choice(constants)})"]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(names), rng.choice(names)
            premises.append(f"∀x ({a}(x) → {b}(x))")
        question = f"{rng.choice(names)}({rng.choice(constants)})"
        repr_ = build_repr([(p, p) for p in premises], questions=[(question, question)])
        gold = brute_force_entails(kb_from_repr(repr_), parse_formula(question))
        instances.append(
            Instance(id=f"g{index}", premises=tuple(premises), question=question, gold=gold)
        )
    report = evaluate(instances, SolverStubBackend(), HarnessConfig(concurrency=4))
    assert report.accuracy == 1.0


def test_stub_accuracy_is_flat_across_depths():
    # Chains of increasing length: answering depth d means following d rule
    # applications. The deterministic solver is depth-insensitive inside the
    # fragment, so every stratum should sit at 1.0 against brute-force gold.
    instances = []
    for depth in range(6):
        names = [f"P{k}" for k in range(depth + 1)]
        premises = [f"{names[0]}(obj)"]
        premises += [f"∀x ({names[k]}(x) → {names[k + 1]}(x))" for k in range(depth)]
        for variant, question in enumerate((f"{names[depth]}(obj)", f"Q{depth}(obj)")):
            repr_ = build_repr([(p, p) for p in premises], questions=[(question, question)])
            gold = brute_force_entails(kb_from_repr(repr_), parse_formula(question))
            instances.append(
                Instance(
                    id=f"d{depth}v{variant}",
                    premises=tuple(premises),
                    question=question,
                    gold=gold,
                    depth=depth,
                )
            )
    report = evaluate(instances, SolverStubBackend(), HarnessConfig(concurrency=2))
    table = stratify_by_depth(report)
    assert set(table) == set(range(6))
    assert all(accuracy == 1.0 for accuracy in table.values())


@pytest.mark.parametrize(
    "premises, question",
    [
        (("P(tom) ∨ Q(tom)",), "P(tom)"),  # a premise outside the Horn fragment
        (("P(tom)",), "∀x P(x)"),  # a question decide cannot answer
        ((*(f"P(c{i})" for i in range(101)), "∀x ∀y ∀z (P(x) ∧ P(y) → R(x, y, z))"), "P(c0)"),  # 101**3 bindings
    ],
    ids=["non-horn-premise", "universal-question", "domain-too-large"],
)
def test_solver_stub_scores_an_unrunnable_context_as_backend(premises, question):
    instance = Instance(id="x", premises=premises, question=question, gold="T")
    record, lines = _run_one(instance, SolverStubBackend(), HarnessConfig(), True)
    assert record.failure_kind == "backend" and lines == ""


def test_solver_stub_scores_no_random_theory_as_an_unexpected_error():
    # Random Horn theories, some with arbitrary closed formulas mixed into the
    # premises, against arbitrary closed questions: every failure the stub can
    # meet on such input has a kind of its own, so none may score `error`.
    backend = SolverStubBackend()
    kinds = set()
    for seed in range(500):
        rng = random.Random(seed)
        kb = random_horn_kb(rng)
        premises = [render_formula(literal_to_formula(lit)) for lit in sorted(kb.literals)]
        premises += [render_formula(rule) for rule in kb.rules]
        for _ in range(rng.randint(0, 2)):
            premises.insert(rng.randrange(len(premises) + 1), render_formula(random_formula(rng, rng.randint(1, 3))))
        question = render_formula(random_formula(rng, rng.randint(1, 3)))
        instance = Instance(id=f"r{seed}", premises=tuple(premises), question=question, gold="T")
        for cwa in (False, True):
            record, _ = _run_one(instance, backend, HarnessConfig(pipeline=PipelineConfig(cwa=cwa)), True)
            assert record.failure_kind != "error", (premises, question, cwa)
            kinds.add(record.failure_kind)
    assert {"backend", "format", "wrong-label", None} <= kinds



# Per mutation: what it puts in place. Citations range over valid ids, 0,
# negatives, the question's id (8 for fig1b, 2 for batch3) and past the last
# statement, with booleans and other types mixed in.
_CITATION = st.one_of(st.booleans(), st.integers(-1, 12), st.sampled_from([1.5, "1", None]))
_MUTANT_VALUES = {
    "drop": st.none(),
    "rename": st.sampled_from(["_", "Plan", "content", "uses"]),
    "retype": st.sampled_from([None, True, 0, -1, 1.5, "", "x", [], {}, [1], {"a": 1}]),
    "garble": st.tuples(st.integers(0, 200), st.sampled_from("()¬∀→,x ")),
    "uses": st.one_of(_CITATION, st.lists(_CITATION, max_size=3)),
    "kind": st.sampled_from(["bogus", "", 3, None, "Judgment", "judgment", "guard"]),
}


def _mutate(doc, path, op, value):
    """`doc` with one change: a plan step's `uses` or `kind` set to `value`,
    or at the node that `path` picks (each index modulo the fan-out) a key
    dropped or renamed, a value retyped, or a character put into a string."""
    if op in ("uses", "kind"):
        steps = doc.get("Plan") or doc.get("Revised plan", {}).get("Corrected_plan")
        if not steps:  # a solve reply has no plan
            return doc
        steps[sorted(steps)[path[0] % len(steps) if path else 0]][op] = value
        return doc
    parent, key, node = None, None, doc
    for index in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        parent, key = node, (sorted(node) if isinstance(node, dict) else range(len(node)))[index % len(node)]
        node = node[key]
    if parent is None:
        return value
    if op == "drop":
        del parent[key]
    elif op == "rename" and isinstance(parent, dict):
        parent[f"{key}{value}"] = parent.pop(key)
    elif op == "garble" and isinstance(node, str):
        cut = value[0] % (len(node) + 1)
        parent[key] = node[:cut] + value[1] + node[cut:]
    elif op == "retype":
        parent[key] = value
    return doc


class _MutatingStub:
    """The solver stub, with its reply to one stage passed through `mutate`."""

    def __init__(self, stage, mutate):
        self.inner, self.stage, self.mutate = SolverStubBackend(), stage, mutate

    def complete(self, prompt, params):
        reply = self.inner.complete(prompt, params)
        return json.dumps(self.mutate(json.loads(reply))) if params.meta.stage == self.stage else reply


_STUB_INSTANCES = load_dataset(DATA / "fig1b.json") + load_dataset(DATA / "batch3.json")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_stub_replies_never_score_an_unexpected_error(data):
    instance = data.draw(st.sampled_from(_STUB_INSTANCES), label="instance")
    stage = data.draw(st.sampled_from(["plan", "solve", "replan"]), label="stage")
    op = data.draw(st.sampled_from(sorted(_MUTANT_VALUES)), label="op")
    value = data.draw(_MUTANT_VALUES[op], label="value")
    path = data.draw(st.lists(st.integers(0, 40), max_size=6), label="path")
    # every run gets a fresh copy of the stub's reply, so both runs see the same mutation
    backend = _MutatingStub(stage, lambda doc: _mutate(doc, path, op, value))
    for cwa in (False, True):
        record, _ = _run_one(instance, backend, HarnessConfig(pipeline=PipelineConfig(cwa=cwa)), True)
        assert record.failure_kind != "error", (instance.id, stage, op, value, path, cwa)
