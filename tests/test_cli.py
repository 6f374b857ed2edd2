import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from proofplan.cli import main

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
    [("--timeout-s", "-1"), ("--timeout-s", "0"), ("--timeout-s", "nan"), ("--concurrency", "0"), ("--concurrency", "-3")],
)
def test_non_positive_timeout_or_concurrency_is_a_usage_error(command, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, str(DATA / "fig1b.json"), "--backend", "solver-stub", option, value])
    assert exc.value.code == 2
    message = {"--timeout-s": "must be a positive number of seconds", "--concurrency": "must be at least 1"}
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
