import contextlib
import gc
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from helpers import CountingStub
from proofplan import cli
from proofplan.backends import SolverStubBackend
from proofplan.cli import _write_output, main
from proofplan.harness import HarnessConfig, evaluate, load_dataset

DATA = Path(__file__).parent / "data"
FIXTURES = Path(__file__).parent / "fixtures"


def test_cli_import_does_not_load_numpy():
    # The model-enumeration oracle runs on plain ints, so a cold start loads no numpy.
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys, proofplan.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True, timeout=120
    )
    assert done.stdout.strip() == "[]"


def test_prove_task_definition_unknown(capsys):
    code = main(["prove", str(DATA / "task_definition_premises.txt"), "-q", "Cat(tom)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "U"


def test_prove_fig1b_false_with_explanation(capsys):
    code = main(
        ["prove", str(DATA / "fig1b_premises.txt"), "-q", "¬Sees(mouse, lion)", "--explain"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "F"
    assert "Sees(mouse, lion)" in out


def test_prove_cwa_matches_a_negative_antecedent_closed_world(tmp_path, capsys):
    premises = tmp_path / "premises.txt"
    premises.write_text("Bird(tweety)\n∀x (¬Flies(x) → Grounded(x))\n", encoding="utf-8")
    argv = ["prove", str(premises), "-q", "Grounded(tweety)"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "U\n"
    assert main(argv + ["--cwa"]) == 0
    assert capsys.readouterr().out == "T\n"
    assert main(argv + ["--cwa", "--explain"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "T"
    assert "rule 1 [x=tweety]: ¬Flies(tweety) => Grounded(tweety)" in lines


def test_prove_empty_premises_unknown(tmp_path, capsys):
    premises = tmp_path / "empty.txt"
    premises.write_text("# nothing here\n", encoding="utf-8")
    code = main(["prove", str(premises), "-q", "P(ada)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "U"


def test_prove_accepts_document_premises(tmp_path, capsys):
    doc = {
        "Premises": [
            {"statement": "All cats are mammals.", "symbol": "∀x (Cat(x) → Mammal(x))"},
            {"statement": "Tom is a cat.", "symbol": "Cat(tom)"},
        ],
        "Proposition": [],
    }
    path = tmp_path / "premises.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert main(["prove", str(path), "-q", "Mammal(tom)"]) == 0
    assert capsys.readouterr().out.strip() == "T"


def test_prove_bad_formula_exits_one(tmp_path, capsys):
    premises = tmp_path / "bad.txt"
    premises.write_text("P(ada\n", encoding="utf-8")
    assert main(["prove", str(premises), "-q", "P(ada)"]) == 1
    assert "error" in capsys.readouterr().err


def test_prove_bad_formula_names_its_file_line(tmp_path, capsys):
    premises = tmp_path / "bad.txt"
    premises.write_text("# facts\n\nP(ada)\nP(ada\n", encoding="utf-8")
    assert main(["prove", str(premises), "-q", "P(ada)"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {premises}:4: ") and "/Premises" not in err


def test_plan_validate_ok(tmp_path, capsys):
    plan = {
        "Plan": {"1": {"content": "a"}, "2": {"content": "b"}, "3": {"content": "c"}},
        "Matrix": [[0, 1, 1], [0, 0, 1], [0, 0, 0]],
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    out_path = tmp_path / "normalized.json"
    code = main(["plan-validate", str(path), "--normalize", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "acyclic; order: 1 2 3; 1 redundant edges" in out
    normalized = json.loads(out_path.read_text(encoding="utf-8"))
    assert normalized["Matrix"] == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


def test_plan_validate_cycle_exits_one(tmp_path, capsys):
    plan = {
        "Plan": {"1": {"content": "a"}, "2": {"content": "b"}},
        "Matrix": [[0, 1], [1, 0]],
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    assert main(["plan-validate", str(path)]) == 1
    assert "cycle: [1, 2]" in capsys.readouterr().out


def test_plan_validate_diagonal_entry_exits_one(tmp_path, capsys):
    plan = {"Plan": {"1": {"content": "a"}, "2": {"content": "b"}}, "Matrix": [[1, 1], [0, 0]]}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    assert main(["plan-validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: diagonal entry at step 1 must be zero\n" and captured.out == ""


def test_plan_validate_dense_eleven_step_plan(tmp_path, capsys):
    matrix = []
    for i in range(11):
        row = [0] * 11
        if i < 7:
            for j in range(i + 1, 8):
                row[j] = 1
        elif i < 10:
            row[i + 1] = 1
        matrix.append(row)
    doc = {"Plan": {str(i + 1): {"content": f"s{i + 1}"} for i in range(11)}, "Matrix": matrix}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["plan-validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "acyclic; order: 1 2 3 4 5 6 7 8 9 10 11; 21 redundant edges" in out


def test_plan_validate_single_step(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"Plan": {"1": {"content": "a"}}, "Matrix": [[0]]}), encoding="utf-8")
    assert main(["plan-validate", str(path)]) == 0
    assert "acyclic; order: 1; 0 redundant edges" in capsys.readouterr().out


def test_run_single_instance(capsys, tmp_path):
    traces = tmp_path / "t.jsonl"
    code = main(
        [
            "run",
            str(DATA / "fig1b.json"),
            "--id",
            "fig1b",
            "--backend",
            "solver-stub",
            "--traces",
            str(traces),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted F" in out
    lines = [json.loads(l) for l in traces.read_text(encoding="utf-8").splitlines()]
    assert lines and lines[0]["instance"] == "fig1b"


class SlowStub(SolverStubBackend):
    """The solver stub, 0.4 s slower per call, counting its calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def complete(self, prompt, params):
        self.calls += 1
        time.sleep(0.4)
        return super().complete(prompt, params)


def test_run_stops_at_the_instance_timeout(monkeypatch, capsys):
    # Four calls would take 1.6 s; the third returns after the deadline and no fourth starts.
    backend = SlowStub()
    monkeypatch.setattr(cli, "_make_backend", lambda args: backend)
    start = time.perf_counter()
    assert main(["run", str(DATA / "fig1b.json"), "--timeout-s", "1"]) == 1
    assert time.perf_counter() - start < 1.5 and backend.calls <= 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: instance fig1b ran out of time (--timeout-s 1)\n"


def test_eval_scripted_batch(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    traces_path = tmp_path / "traces.jsonl"
    code = main(
        [
            "eval",
            str(DATA / "batch3.json"),
            "--backend",
            f"scripted:{FIXTURES / 'batch3'}",
            "--max-replan-rounds",
            "0",
            "--out",
            str(out_path),
            "--traces",
            str(traces_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "correct: 2" in out and "accuracy: 0.6667" in out
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["total"] == 3
    statuses = {r["id"]: r["failure_kind"] for r in report["records"]}
    assert statuses == {"b1": None, "b2": None, "b3": "format"}
    assert "fingerprint" in report


def test_eval_reproducible_with_scripted_backend(tmp_path):
    args = [
        "eval",
        str(DATA / "batch3.json"),
        "--backend",
        f"scripted:{FIXTURES / 'batch3'}",
        "--max-replan-rounds",
        "0",
    ]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert main(args + ["--traces", str(first)]) == 0
    assert main(args + ["--traces", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_eval_ablate_fdr_uses_zero_rounds(tmp_path):
    out_path = tmp_path / "report.json"
    code = main(
        [
            "eval",
            str(DATA / "task_definition.json"),
            "--backend",
            "solver-stub",
            "--ablate",
            "fdr",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert all(r["rounds_used"] == 0 for r in report["records"])


def test_eval_ablate_fdr_records_zero_rounds_over_max_replan_rounds(tmp_path):
    out_path = tmp_path / "report.json"
    args = ["eval", str(DATA / "fig1b.json"), "--backend", "solver-stub", "--max-replan-rounds", "3"]
    assert main(args + ["--ablate", "fdr", "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["config"]["pipeline"]["max_replan_rounds"] == 0
    assert report["records"] and all(r["rounds_used"] == 0 for r in report["records"])


def test_eval_missing_dataset_is_error(capsys):
    assert main(["eval", "/does/not/exist.json", "--backend", "solver-stub"]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["eval"])  # missing dataset positional
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["eval", "run"])
@pytest.mark.parametrize("value", ["-2", "-1"])
def test_negative_replan_rounds_is_a_usage_error(command, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, str(DATA / "fig1b.json"), "--backend", "solver-stub", "--max-replan-rounds", value])
    assert exc.value.code == 2
    assert "--max-replan-rounds: must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "run"])
@pytest.mark.parametrize(
    "option, value",
    [
        ("--timeout-s", "-1"),
        ("--timeout-s", "0"),
        ("--timeout-s", "nan"),
        ("--concurrency", "0"),
        ("--concurrency", "-3"),
        ("--temperature", "nan"),
        ("--temperature", "inf"),
        ("--temperature", "-3"),
    ],
)
def test_non_positive_timeout_or_concurrency_is_a_usage_error(command, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, str(DATA / "fig1b.json"), "--backend", "solver-stub", option, value])
    assert exc.value.code == 2
    message = {
        "--timeout-s": "must be a positive number of seconds",
        "--concurrency": "must be at least 1",
        "--temperature": "must be a finite number at least 0",
    }
    assert f"{option}: {message[option]}" in capsys.readouterr().err


def test_prove_unwitnessed_existential_over_many_constants_is_fast(tmp_path, capsys):
    # 40 constants and four existential variables: 40 ** 4 candidate
    # bindings, none of them witnessed. Scanning the derived literals instead
    # of enumerating the bindings answers at once.
    premises = tmp_path / "wide.txt"
    facts = [f"P(c{i:02d})" for i in range(40)] + ["R(c00, c01, c02, c03)"]
    premises.write_text("\n".join(facts) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code = main(["prove", str(premises), "-q", "∃x ∃y ∃z ∃w ¬R(x, y, z, w)", "--explain"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "U"


def test_trace_inspection(tmp_path, capsys):
    traces = tmp_path / "t.jsonl"
    main(
        [
            "run",
            str(DATA / "task_definition.json"),
            "--id",
            "task-definition",
            "--backend",
            "solver-stub",
            "--traces",
            str(traces),
        ]
    )
    capsys.readouterr()
    assert main(["trace", str(traces), "--instance", "task-definition"]) == 0
    out = capsys.readouterr().out
    assert "round 0" in out and "provisional U" in out


def test_trace_reports_malformed_line(tmp_path, capsys):
    traces = tmp_path / "t.jsonl"
    traces.write_text('{"instance": "a", "round": 0, "provisional": "T", "records": []}\nnot json\n')
    assert main(["trace", str(traces)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {traces}:2: ") and "Traceback" not in err


@pytest.mark.parametrize("line", ['{"records": [1]}', '{"records": 5}', '{"records": [{"derived": 5}]}'])
def test_trace_reports_wrong_shaped_records(tmp_path, capsys, line):
    traces = tmp_path / "t.jsonl"
    traces.write_text(line + "\n")
    assert main(["trace", str(traces)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {traces}:1: /records") and "Traceback" not in err


def test_trace_reads_a_one_letter_constant(tmp_path, capsys):
    traces = tmp_path / "t.jsonl"
    record = {"step": 1, "note": "apply", "derived": ["P(a)", "¬Q(a, bob)"]}
    traces.write_text(json.dumps({"instance": "a", "round": 0, "records": [record]}) + "\n", encoding="utf-8")
    assert main(["trace", str(traces)]) == 0
    assert "  step 1: apply | derived: P(a), ¬Q(a, bob)\n" in capsys.readouterr().out


def test_trace_coerces_a_record_note_to_text(tmp_path, capsys):
    traces = tmp_path / "t.jsonl"
    traces.write_text('{"instance": "a", "records": [{"note": 5}]}\n')
    assert main(["trace", str(traces)]) == 0
    assert "  step 0: 5\n" in capsys.readouterr().out


def _plan_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"Plan": {"1": {"content": "a"}}, "Matrix": [[0]]}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp, out: ["eval", str(DATA / "fig1b.json"), "--backend", "solver-stub", "--out", out],
        lambda tmp, out: ["eval", str(DATA / "fig1b.json"), "--backend", "solver-stub", "--traces", out],
        lambda tmp, out: ["run", str(DATA / "fig1b.json"), "--backend", "solver-stub", "--traces", out],
        lambda tmp, out: ["plan-validate", _plan_file(tmp), "--normalize", out],
    ],
    ids=["eval-out", "eval-traces", "run-traces", "plan-validate-normalize"],
)
def test_unwritable_output_path_is_an_error_without_traceback(argv, tmp_path, capsys):
    # The output's parent directory is a regular file, so nothing can be written under it.
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = str(blocker / "out.json")
    assert main(argv(tmp_path, out)) == 1
    err = capsys.readouterr().err
    assert err.strip() == f"error: {out}: Not a directory"
    assert [p.name for p in tmp_path.iterdir() if p.name != "plan.json"] == ["file"]


def test_run_negative_index_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(DATA / "fig1b.json"), "--backend", "solver-stub", "--index", "-1"])
    assert exc.value.code == 2
    assert "--index: must be at least 0" in capsys.readouterr().err


def test_run_index_past_the_dataset_is_an_error(capsys):
    assert main(["run", str(DATA / "fig1b.json"), "--backend", "solver-stub", "--index", "5"]) == 1
    assert capsys.readouterr().err.strip() == "error: no instance at index 5 (dataset has 1)"


def test_trace_reports_a_line_that_is_not_utf8(tmp_path, capsys):
    traces = tmp_path / "t.jsonl"
    traces.write_bytes(b'{"instance":"a","records":[]}\n\xff\n')
    assert main(["trace", str(traces)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {traces}:2: ") and "utf-8" in err and "Traceback" not in err


def test_trace_splits_lines_on_newline_only(tmp_path, capsys):
    # json.dumps(..., ensure_ascii=False) leaves U+2028 unescaped inside a string
    traces = tmp_path / "t.jsonl"
    doc = {"instance": "a", "round": 0, "provisional": "T", "records": [{"step": 1, "note": "x\u2028y"}]}
    traces.write_text(json.dumps(doc, ensure_ascii=False) + "\r\n\n", encoding="utf-8")
    assert main(["trace", str(traces)]) == 0
    assert capsys.readouterr().out == "instance a round 0: provisional T\n  step 1: x\u2028y\n"


def test_write_output_streams_a_generator_in_bounded_memory(tmp_path):
    line = json.dumps({"note": "∀x (Big(x) → ¬Small(x))" * 4}, ensure_ascii=False) + "\n"
    count = 10_000_000 // len(line.encode("utf-8"))
    out = tmp_path / "big.jsonl"
    tracemalloc.start()
    try:
        assert _write_output(str(out), (line for _ in range(count)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == count * len(line.encode("utf-8")) >= 9_000_000
    assert peak < 1_000_000


def test_write_output_leaves_nothing_behind_when_the_chunks_fail(tmp_path):
    def chunks():
        yield "first\n"
        raise RuntimeError("boom")

    out = tmp_path / "out.jsonl"
    out.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        _write_output(str(out), chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
    assert out.read_text(encoding="utf-8") == "old\n"


def _fig1b_copies(tmp_path, count, premises=None):
    """A dataset of `count` copies of the fig1b instance, each with its own id."""
    (instance,) = json.loads((DATA / "fig1b.json").read_text(encoding="utf-8"))
    if premises is not None:
        instance["premises"] = premises
    path = tmp_path / "copies.json"
    copies = [{**instance, "id": f"fig1b-{i}"} for i in range(count)]
    path.write_text(json.dumps(copies, ensure_ascii=False), encoding="utf-8")
    return str(path)


def _eval_traces(dataset, traces, *extra):
    argv = ["eval", dataset, "--backend", "solver-stub", "--concurrency", "1", "--traces", str(traces), *extra]
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        return main(argv)


def _stub_lines(dataset):
    """What `evaluate` hands a `list.append` sink on `dataset`, and its report."""
    written = []
    report = evaluate(load_dataset(dataset), SolverStubBackend(), HarnessConfig(concurrency=1), written.append)
    return written, report


def test_eval_streams_traces_without_holding_them(tmp_path, monkeypatch):
    # Each instance's lines go to the file as its turn comes: what `evaluate`
    # leaves live, and the peak of the whole command, stay below the file's size.
    seen = {}
    evaluate_ = cli.evaluate

    def evaluate_then_measure(*args, **kwargs):
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        report = evaluate_(*args, **kwargs)
        gc.collect()
        seen["live"] = tracemalloc.get_traced_memory()[0] - before
        return report

    monkeypatch.setattr(cli, "evaluate", evaluate_then_measure)
    traces = tmp_path / "t.jsonl"
    tracemalloc.start()
    try:
        assert _eval_traces(_fig1b_copies(tmp_path, 140), traces) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = traces.stat().st_size
    assert size > 1_000_000 and traces.read_text(encoding="utf-8").count("\n") == 280
    assert seen["live"] < size / 10
    assert peak < size


def test_eval_traces_file_is_one_json_line_per_trace(tmp_path):
    dataset, traces = _fig1b_copies(tmp_path, 3), tmp_path / "t.jsonl"
    assert _eval_traces(dataset, traces) == 0
    written, _ = _stub_lines(dataset)
    lines = [json.dumps(json.loads(line), ensure_ascii=False) for line in "".join(written).split("\n")[:-1]]
    assert len(lines) == 6
    assert traces.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_eval_traces_file_is_empty_when_no_instance_made_a_trace(tmp_path):
    dataset, traces = _fig1b_copies(tmp_path, 2, premises=["∀x ("]), tmp_path / "t.jsonl"
    traces.write_text("left over\n", encoding="utf-8")
    assert _eval_traces(dataset, traces) == 0
    written, report = _stub_lines(dataset)
    assert report.total == 2 and report.correct == 0 and written == []
    assert traces.read_bytes() == b""


def test_unwritable_traces_path_fails_before_any_backend_call(tmp_path, monkeypatch, capsys):
    backend = CountingStub()
    monkeypatch.setattr(cli, "_make_backend", lambda args: backend)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    traces, report = blocker / "t.jsonl", tmp_path / "report.json"
    assert _eval_traces(str(DATA / "fig1b.json"), traces, "--out", str(report)) == 1
    assert capsys.readouterr().err.strip() == f"error: {traces}: Not a directory"
    assert backend.started == 0 and not report.exists()


def test_unwritable_out_path_fails_before_any_backend_call(tmp_path, monkeypatch, capsys):
    backend = CountingStub()
    monkeypatch.setattr(cli, "_make_backend", lambda args: backend)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    traces, report = tmp_path / "t.jsonl", blocker / "r.json"
    assert main(["eval", str(DATA / "fig1b.json"), "--traces", str(traces), "--out", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == f"error: {report}: Not a directory" and captured.out == ""
    assert backend.started == 0 and sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_eval_failing_to_rename_the_report_leaves_neither_output(tmp_path, capsys):
    # The report's path is a directory, so only the final rename fails, after every instance ran.
    traces, report = tmp_path / "t.jsonl", tmp_path / "r.json"
    report.mkdir()
    assert _eval_traces(str(DATA / "fig1b.json"), traces, "--out", str(report)) == 1
    assert capsys.readouterr().err.startswith(f"error: {report}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"] and not any(report.iterdir())


def test_interrupted_eval_leaves_an_earlier_traces_file_as_it_was(tmp_path, monkeypatch):
    backend = CountingStub(interrupt_at="fig1b-2")
    monkeypatch.setattr(cli, "_make_backend", lambda args: backend)
    dataset, traces = _fig1b_copies(tmp_path, 20), tmp_path / "t.jsonl"
    traces.write_text("old\n", encoding="utf-8")
    with pytest.raises(KeyboardInterrupt):
        _eval_traces(dataset, traces)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["copies.json", "t.jsonl"]
    assert traces.read_text(encoding="utf-8") == "old\n"
    assert backend.started <= 4  # two instances done, the third interrupted, at most one more started


@pytest.mark.parametrize(
    "argv",
    [
        lambda path: ["eval", path, "--backend", "solver-stub"],
        lambda path: ["run", path, "--backend", "solver-stub"],
        lambda path: ["prove", path, "-q", "P(ada)"],
        lambda path: ["trace", path],
    ],
    ids=["eval", "run", "prove", "trace"],
)
def test_missing_input_file_names_the_path(argv, tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    assert main(argv(path)) == 1
    assert capsys.readouterr().err.strip() == f"error: {path}: No such file or directory"


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o002, 0o664), (0o027, 0o640)], ids=["umask022", "umask002", "umask027"]
)
def test_outputs_get_the_mode_a_plain_open_gives(tmp_path, umask, mode):
    out, traces = tmp_path / "report.json", tmp_path / "t.jsonl"
    previous = os.umask(umask)
    try:
        argv = ["eval", str(DATA / "fig1b.json"), "--backend", "solver-stub", "--out", str(out), "--traces", str(traces)]
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            assert main(argv) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert stat.S_IMODE(traces.stat().st_mode) == mode
