"""Command-line entry point.

Subcommands: prove (deterministic solver on a premises file), run (one
instance through the pipeline), eval (dataset sweep), plan-validate
(DAG checks and normalization), and trace (inspect a traces file).
Exit codes: 0 success, 1 logic or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import secrets
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

from . import plan as planmod
from .backends import API_KEY_ENV, Backend, BackendError, LiveBackend, ScriptedBackend, SolverStubBackend
from .errors import SchemaError
from .fol import parse_formula
from .harness import HarnessConfig, compose_question, evaluate, file_sha256, load_dataset
from .harness import _Deadline, _OutOfTime, report_to_doc, stratify_by_depth, trace_lines
from .pipeline import PipelineConfig, Problem, run_pipeline
from .solver import Verdict, decide, kb_from_repr, step_record_from_doc
from .structured import build_repr, deserialize_repr


def _error(err: Exception) -> int:
    """Print `error: <path>: <reason>` for a file error, else `error: <err>`; return 1."""
    text = f"{err.filename}: {err.strerror or err}" if isinstance(err, OSError) and err.filename else err
    print(f"error: {text}", file=sys.stderr)
    return 1


@contextlib.contextmanager
def _atomic_write(path: str) -> Iterator[TextIO]:
    """A handle on a temp file beside `path`, renamed over `path` when the block ends; a failure
    unlinks the temp file, leaving any earlier `path` as it was. An `OSError` names `path`, unless
    the block raised it naming another file (such as a second `_atomic_write` opened inside it)."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{secrets.token_hex(8)}.tmp")
    in_block = False
    try:
        if not target.parent.exists():  # a parent that is a file then fails as "Not a directory"
            target.parent.mkdir(parents=True, exist_ok=True)
        # O_EXCL never reuses a file; mode 0o666 lets the umask set the bits, as open(path, "w") does.
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                in_block = True
                yield handle
                in_block = False
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as err:
        if in_block and err.filename is not None:
            raise
        raise OSError(err.errno, err.strerror or str(err), path) from err


def _write_output(path: str, chunks: Iterable[str]) -> bool:
    """Write `chunks` one at a time through `_atomic_write`; on failure print the error and return False."""
    try:
        with _atomic_write(path) as handle:
            handle.writelines(chunks)
    except OSError as err:
        _error(err)
        return False
    return True


def _load_premises(path: Path):
    """The document JSON in `path`, or its formulas one per line (blank and
    `#` lines skipped); a bad formula raises ValueError naming `<path>:<line>`."""
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        return deserialize_repr(text)
    lines = [(number, line.strip()) for number, line in enumerate(text.splitlines(), 1)]
    kept = [(number, line) for number, line in lines if line and not line.startswith("#")]
    try:
        return build_repr((line, line) for _, line in kept)
    except SchemaError as err:
        parts = err.pointer.split("/")  # "/Premises/<i>/symbol", or "/Premises" for conflicting arities
        where = f"{path}:{kept[int(parts[2])][0]}" if len(parts) > 2 else str(path)
        raise ValueError(f"{where}: {err.message}") from err


def _print_support(verdict: Verdict) -> None:
    for note in verdict.notes:
        print(f"note: {note}")
    if not verdict.support:
        print("support: direct from the premises" if verdict.label in "TF" else "support: none")
        return
    for ground in verdict.support:
        binding = ", ".join(f"{var}={val}" for var, val in ground.binding)
        premises = ", ".join(str(p) for p in ground.premises)
        print(f"rule {ground.rule_id} [{binding}]: {premises} => {ground.conclusion}")


def cmd_prove(args: argparse.Namespace) -> int:
    try:
        context = _load_premises(Path(args.premises))
        question = parse_formula(args.question)
        verdict = decide(kb_from_repr(context), question, cwa=args.cwa)
    except Exception as err:
        return _error(err)
    print(verdict.label)
    if args.explain:
        _print_support(verdict)
    return 0


def cmd_plan_validate(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.plan).read_text(encoding="utf-8"))
        parsed = planmod.plan_from_json(doc)
    except planmod.CycleError as err:
        print(f"cycle: {err.cycle}")
        return 1
    except Exception as err:
        return _error(err)
    reduced = planmod.transitive_reduce(parsed)
    redundant = len(parsed.edges()) - len(reduced.edges())
    print(f"acyclic; order: {' '.join(str(i) for i in parsed.order)}; {redundant} redundant edges")
    for group in planmod.duplicate_content(parsed):
        print(f"duplicate content: steps {list(group)}")
    if args.normalize:
        if not _write_output(args.normalize, [json.dumps(planmod.plan_to_json(reduced), indent=2) + "\n"]):
            return 1
        print(f"normalized plan written to {args.normalize}")
    return 0


def _make_backend(args: argparse.Namespace) -> Backend:
    spec = args.backend
    if spec == "solver-stub":
        return SolverStubBackend()
    if spec.startswith("scripted:"):
        return ScriptedBackend(spec.split(":", 1)[1])
    if spec == "live":
        if not args.base_url or not args.model:
            raise BackendError("live backend needs --base-url and --model")
        return LiveBackend(base_url=args.base_url, model=args.model, timeout_s=args.timeout_s)
    raise BackendError(f"unknown backend {spec!r} (use live, scripted:<dir>, or solver-stub)")


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    ablate = {token.strip() for token in (args.ablate or "").split(",") if token.strip()}
    unknown = ablate - {"mp", "srm", "fdr"}
    if unknown:
        raise ValueError(f"unknown ablation {sorted(unknown)} (use mp, srm, fdr)")
    return PipelineConfig(
        max_replan_rounds=0 if "fdr" in ablate else args.max_replan_rounds,
        temperature=args.temperature,
        disable_matrix_plan="mp" in ablate,
        disable_structured_repr="srm" in ablate,
        cwa=args.cwa,
    )


def cmd_run(args: argparse.Namespace) -> int:
    """Run one instance; as in `eval`, no backend call starts once its `--timeout-s` has run out, and
    `--traces` gets its trace records, or its failure record when it fails."""
    try:
        instances = load_dataset(args.dataset, format=args.format)
        if args.id is not None:
            instance = next((i for i in instances if i.id == args.id), None)
            if instance is None:
                raise ValueError(f"no instance with id {args.id!r}")
        elif args.index < len(instances):
            instance = instances[args.index]
        else:
            raise ValueError(f"no instance at index {args.index} (dataset has {len(instances)})")
        backend = _make_backend(args)
        config = _pipeline_config(args)
        problem = Problem(id=instance.id, premises=instance.premises, question=compose_question(instance))
        recorder = _Deadline(backend, time.perf_counter() + args.timeout_s)
    except Exception as err:
        return _error(err)
    try:
        outcome = run_pipeline(recorder, problem, config)
    except Exception as err:
        outcome = err
    if args.traces and not _write_output(args.traces, [trace_lines(recorder.trace_docs(instance.id, outcome))]):
        return 1
    if isinstance(outcome, _OutOfTime):
        print(f"error: instance {instance.id} ran out of time (--timeout-s {args.timeout_s:g})", file=sys.stderr)
        return 1
    if isinstance(outcome, Exception):
        return _error(outcome)
    print(f"instance {instance.id}: predicted {outcome.final.label}, gold {instance.gold}")
    print(f"rounds used: {outcome.rounds_used}")
    if args.traces:
        print(f"traces written to {args.traces}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    """Evaluate a dataset; `--traces` and `--out` are opened before any backend call, and both are
    renamed in once the report is written (a failure leaves neither)."""
    try:
        instances = load_dataset(args.dataset, format=args.format)
        backend = _make_backend(args)
        config = HarnessConfig(
            pipeline=_pipeline_config(args),
            concurrency=args.concurrency,
            timeout_s=args.timeout_s,
            seed=args.seed,
            backend_label=args.backend,
            dataset_hash=file_sha256(args.dataset),
        )
        with contextlib.ExitStack() as stack:
            traces = stack.enter_context(_atomic_write(args.traces)) if args.traces else None
            out = stack.enter_context(_atomic_write(args.out)) if args.out else None
            report = evaluate(instances, backend, config, traces.write if traces else None)
            print(f"instances: {report.total}  correct: {report.correct}  accuracy: {report.accuracy:.4f}")
            table = stratify_by_depth(report)
            if table:
                print("depth  accuracy")
                for depth, accuracy in table.items():
                    print(f"{depth:>5}  {accuracy:.4f}")
            for record in report.records:
                status = "ok" if record.correct else f"fail ({record.failure_kind})"
                print(f"  {record.id}: {record.predicted or '-'} vs {record.gold} [{status}]")
            if out:
                out.write(json.dumps(report_to_doc(report), ensure_ascii=False, indent=2) + "\n")
    except Exception as err:
        return _error(err)
    return 0


def _record_lines(doc: dict[str, Any]) -> list[str]:
    """A traces record as `proofplan trace` prints it: a round's header and one line per step record,
    or a failure record's kind and error and the stages that replied."""
    if "failure_kind" in doc:
        replies = doc.get("replies")
        if not isinstance(replies, list) or not all(isinstance(reply, dict) for reply in replies):
            raise SchemaError("/replies", "expected array of objects")
        replied = ", ".join(f"{reply.get('stage')} (round {reply.get('round')})" for reply in replies)
        return [f"instance {doc.get('instance')}: failed ({doc['failure_kind']}): {doc.get('error')}",
                f"  replied: {replied or 'nothing'}"]
    entries = doc.get("records", [])
    if not isinstance(entries, list):
        raise SchemaError("/records", "expected array")
    lines = [f"instance {doc.get('instance')} round {doc.get('round')}: provisional {doc.get('provisional')}"]
    for record in (step_record_from_doc(entry, f"/records/{i}") for i, entry in enumerate(entries)):
        derived = ", ".join(str(lit) for lit in record.derived)
        lines.append(f"  step {record.step_id}: {record.text[:100]}" + (f" | derived: {derived}" if derived else ""))
    return lines


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        handle = open(args.traces, "rb")  # lines are split on b"\n" only and decoded one by one
    except OSError as err:
        return _error(err)
    shown = 0
    with handle:
        for number, raw in enumerate(handle, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                doc: dict[str, Any] = json.loads(line)
                if not isinstance(doc, dict):
                    raise ValueError("expected a JSON object")
                if args.instance and doc.get("instance") != args.instance:
                    continue
                shown += 1
                lines = _record_lines(doc)
            except (ValueError, RecursionError, SchemaError) as err:  # UnicodeDecodeError is a ValueError
                print(f"error: {args.traces}:{number}: {err}", file=sys.stderr)
                return 1
            print("\n".join(lines))
    if not shown:
        print("no matching trace records")
    return 0


def _integer_at_least(minimum: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _seconds(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text}")
    return value


def _temperature(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number at least 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proofplan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove", help="decide a question against a premises file")
    prove.add_argument("premises", help="premises file (document JSON or one formula per line)")
    prove.add_argument("--question", "-q", required=True, help="question formula")
    prove.add_argument("--explain", action="store_true", help="print the derivation chain")
    prove.add_argument("--cwa", action="store_true", help="closed-world antecedent matching")
    prove.set_defaults(func=cmd_prove)

    validate = sub.add_parser("plan-validate", help="check a plan file for cycles and redundancy")
    validate.add_argument("plan", help="plan JSON file")
    validate.add_argument("--normalize", metavar="OUT", help="write the normalized plan here")
    validate.set_defaults(func=cmd_plan_validate)

    def add_pipeline_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", default="solver-stub", help="live, scripted:<dir>, or solver-stub")
        p.add_argument("--model", default="", help="model name for the live backend")
        p.add_argument("--base-url", default="", help=f"live endpoint base URL (key from ${API_KEY_ENV})")
        p.add_argument("--format", default="tfu-json", choices=["tfu-json", "options-json"], help="dataset label form")
        rounds = "cap on replan rounds; a replan that keeps the plan and does not re-execute it ends the loop early"
        p.add_argument("--max-replan-rounds", type=_integer_at_least(0), default=1, help=rounds)
        p.add_argument("--temperature", type=_temperature, default=0.0, help="sampling temperature, finite and >= 0")
        p.add_argument("--concurrency", type=_integer_at_least(1), default=4, help="instances run at once")
        p.add_argument("--timeout-s", type=_seconds, default=300.0, help="per-instance time limit in seconds")
        p.add_argument("--ablate", default="", help="comma-separated: mp, srm, fdr")
        p.add_argument("--seed", type=int, default=0, help="recorded in the report fingerprint")
        p.add_argument("--cwa", action="store_true", help="closed-world antecedent matching")
        p.add_argument("--traces", default="", help="write JSONL traces here")

    run = sub.add_parser("run", help="run one dataset instance through the pipeline")
    run.add_argument("dataset", help="dataset JSON file")
    group = run.add_mutually_exclusive_group()
    group.add_argument("--id", help="instance id to run")
    group.add_argument("--index", type=_integer_at_least(0), default=0, help="instance index to run")
    add_pipeline_args(run)
    run.set_defaults(func=cmd_run)

    evaluate_parser = sub.add_parser("eval", help="evaluate a dataset")
    evaluate_parser.add_argument("dataset", help="dataset JSON file")
    add_pipeline_args(evaluate_parser)
    evaluate_parser.add_argument("--out", default="", help="write the report JSON here")
    evaluate_parser.set_defaults(func=cmd_eval)

    trace = sub.add_parser("trace", help="inspect a JSONL traces file")
    trace.add_argument("traces", help="traces JSONL file")
    trace.add_argument("--instance", default="", help="only show this instance")
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
