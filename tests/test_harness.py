import json
import random
import time
from pathlib import Path

import pytest

from proofplan.backends import ScriptedBackend, SolverStubBackend
from proofplan.errors import SchemaError
from proofplan.harness import (
    HarnessConfig,
    Instance,
    MissingDepth,
    evaluate,
    load_dataset,
    report_to_doc,
    stratify_by_depth,
)
from proofplan.pipeline import PipelineConfig
from proofplan.solver import brute_force_entails, kb_from_repr
from proofplan.structured import build_repr
from proofplan.fol import parse_formula

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
    report = evaluate(instances, SolverStubBackend(), HarnessConfig(concurrency=2))
    assert report.total == 2 and report.correct == 2
    assert report.accuracy == 1.0
    assert all(r.failure_kind is None for r in report.records)
    assert len(report.traces) == 4  # two rounds per instance


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
        ("replan", {"Edits": [{"op": "InsertGuard", "k": 1}] * 4000}),
    ],
    ids=["plan-257-steps", "replan-4000-guards"],
)
def test_oversized_plan_replies_score_format_quickly(stage, reply):
    backend = _OneStageReply(stage, json.dumps(reply))
    start = time.perf_counter()
    report = evaluate(load_dataset(DATA / "fig1b.json"), backend, HarnessConfig(concurrency=1))
    assert report.records[0].failure_kind == "format"
    assert time.perf_counter() - start < 1.0


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
    with pytest.raises(MissingDepth):
        stratify_by_depth(report)


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
