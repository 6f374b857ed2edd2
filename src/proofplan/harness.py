"""Dataset loading, batch evaluation, and depth-stratified scoring.

Scoring follows one strict rule: an instance counts as incorrect unless the
pipeline produced exactly the gold label. Aborted runs, schema violations,
and wrong labels all land in the denominator, distinguished only by the
recorded failure kind.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .backends import Backend, BackendError, GenerationParams
from .errors import SchemaError
from .pipeline import (
    OPTION_LETTERS,
    PipelineConfig,
    PipelineResult,
    Problem,
    StageParseError,
    normalize_label,
    run_pipeline,
    trace_to_doc,
)
from .plan import CycleError

__all__ = [
    "Instance",
    "InstanceRecord",
    "RunReport",
    "HarnessConfig",
    "compose_question",
    "load_dataset",
    "evaluate",
    "trace_lines",
    "stratify_by_depth",
    "report_to_doc",
    "file_sha256",
]


@dataclass(frozen=True)
class Instance:
    id: str
    premises: tuple[str, ...]
    question: str
    gold: str
    depth: int | None = None
    options: tuple[str, ...] = ()


@dataclass(frozen=True)
class InstanceRecord:
    id: str
    predicted: str | None
    gold: str
    correct: bool
    failure_kind: str | None
    rounds_used: int
    duration_s: float
    depth: int | None = None


@dataclass(frozen=True)
class HarnessConfig:
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    concurrency: int = 4
    timeout_s: float = 300.0
    seed: int = 0
    backend_label: str = ""
    dataset_hash: str = ""

    def fingerprint(self) -> str:
        blob = json.dumps(_config_doc(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _config_doc(config: HarnessConfig) -> dict[str, Any]:
    """The run configuration as recorded in reports and hashed into the fingerprint."""
    return {
        "pipeline": asdict(config.pipeline),
        "concurrency": config.concurrency,
        "timeout_s": config.timeout_s,
        "seed": config.seed,
        "backend": config.backend_label,
        "dataset_hash": config.dataset_hash,
    }


@dataclass(frozen=True)
class RunReport:
    records: tuple[InstanceRecord, ...]
    total: int
    correct: int
    accuracy: float
    fingerprint: str
    config: HarnessConfig


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def _as_premises(entry: dict[str, Any], pointer: str) -> tuple[str, ...]:
    if "premises" in entry:
        raw = entry["premises"]
        if not isinstance(raw, list) or not raw or not all(isinstance(p, str) for p in raw):
            raise SchemaError(f"{pointer}/premises", "expected nonempty array of strings")
        return tuple(raw)
    for key in ("context", "theory"):
        if key in entry:
            raw = entry[key]
            if not isinstance(raw, str):
                raise SchemaError(f"{pointer}/{key}", "expected string")
            parts = tuple(p.strip() for p in _SENTENCE_SPLIT.split(raw) if p.strip())
            if not parts:
                raise SchemaError(f"{pointer}/{key}", "expected nonempty text")
            return parts
    raise SchemaError(f"{pointer}/premises", "missing premises/context")


def _gold_label(entry: dict[str, Any], pointer: str, format: str) -> str:
    for key in ("answer", "label", "gold"):
        if key in entry:
            raw = entry[key]
            break
    else:
        raise SchemaError(f"{pointer}/answer", "missing gold answer")
    if isinstance(raw, bool):
        # some dataset dumps carry the label as a JSON boolean
        raw = "T" if raw else "F"
    label = normalize_label(raw if isinstance(raw, str) else None)
    if label is None:
        raise SchemaError(f"{pointer}/answer", f"unrecognized label {raw!r}")
    if format == "tfu-json" and label not in ("T", "F", "U"):
        raise SchemaError(f"{pointer}/answer", f"label {label} outside T/F/U")
    if format == "options-json" and label not in OPTION_LETTERS:
        raise SchemaError(f"{pointer}/answer", f"label {label} is not an option letter")
    return label


def load_dataset(path: str | Path, format: str = "tfu-json") -> list[Instance]:
    """Load instances from a JSON array; labels are normalized on the way in.

    Accepted per-instance keys: id, premises (array) or context/theory
    (sentence-split string), question or conclusion, answer/label/gold,
    optional depth and options.
    """
    if format not in ("tfu-json", "options-json"):
        raise ValueError(f"unknown dataset format {format!r}")
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise SchemaError("", f"not valid JSON: {err}") from err
    if not isinstance(data, list):
        raise SchemaError("", "expected a top-level array of instances")
    instances: list[Instance] = []
    for index, entry in enumerate(data):
        pointer = f"/{index}"
        if not isinstance(entry, dict):
            raise SchemaError(pointer, "expected object")
        identifier = entry.get("id", entry.get("example_id", f"instance-{index}"))
        question = entry.get("question", entry.get("conclusion"))
        if not isinstance(question, str) or not question:
            raise SchemaError(f"{pointer}/question", "missing question")
        depth = entry.get("depth")
        if depth is not None and (isinstance(depth, bool) or not isinstance(depth, int) or depth < 0):
            raise SchemaError(f"{pointer}/depth", "expected integer >= 0")
        options = entry.get("options", [])
        if not isinstance(options, list) or not all(isinstance(o, str) for o in options):
            raise SchemaError(f"{pointer}/options", "expected array of strings")
        if len(options) > len(OPTION_LETTERS):
            raise SchemaError(f"{pointer}/options", f"at most {len(OPTION_LETTERS)} options")
        gold = _gold_label(entry, pointer, format)
        if format == "options-json" and options and gold not in OPTION_LETTERS[: len(options)]:
            raise SchemaError(f"{pointer}/answer", f"label {gold} is beyond the {len(options)} options")
        instances.append(
            Instance(
                id=str(identifier),
                premises=_as_premises(entry, pointer),
                question=question,
                gold=gold,
                depth=depth,
                options=tuple(options),
            )
        )
    return instances


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class _OutOfTime(Exception):
    """The instance's time ran out before or during a backend call."""


class _Deadline(Backend):
    """Forwards one instance's stage calls, with `deadline` in their params,
    until `deadline`, a `time.perf_counter` reading, and keeps each reply it
    returns in `replies[round][stage]`, the one record of what the backend said.

    No call starts after the deadline, and a reply that returns after it is
    discarded unkept, as is an exception raised after it, so the instance
    scores `timeout` instead of running on.
    """

    def __init__(self, backend: Backend, deadline: float):
        self._backend = backend
        self._deadline = deadline
        self.replies: dict[int, dict[str, str]] = {}

    def complete(self, prompt: str, params: GenerationParams) -> str:
        if time.perf_counter() < self._deadline:
            try:
                reply = self._backend.complete(prompt, replace(params, deadline=self._deadline))
            except Exception:
                if time.perf_counter() < self._deadline:
                    raise
            else:
                if time.perf_counter() < self._deadline:
                    self.replies.setdefault(params.meta.round, {})[params.meta.stage] = reply
                    return reply
        raise _OutOfTime("no reply before the instance's deadline")

    def trace_docs(self, instance_id: str, outcome: PipelineResult | Exception) -> list[dict[str, Any]]:
        """The traces records of the instance's run: a result's `trace_to_doc` per round, or for the
        exception it raised one failure record of its kind, its message and every reply kept, in call order."""
        if isinstance(outcome, PipelineResult):
            return [trace_to_doc(t, instance_id, self.replies) for t in outcome.traces]
        replies = [{"round": r, "stage": s, "reply": text} for r, by_stage in self.replies.items()
                   for s, text in by_stage.items()]
        return [{"instance": instance_id, "failure_kind": _classify_failure(outcome), "error": str(outcome),
                 "replies": replies}]


_FAILURE_KINDS = {
    _OutOfTime: "timeout",
    StageParseError: "format",
    CycleError: "cycle",
    BackendError: "backend",
}


def _classify_failure(err: Exception) -> str:
    return next((name for kind, name in _FAILURE_KINDS.items() if isinstance(err, kind)), "error")


def compose_question(instance: Instance) -> str:
    """Question text with lettered options appended when present."""
    if not instance.options:
        return instance.question
    lines = [instance.question, "Options:"]
    for letter, option in zip(OPTION_LETTERS, instance.options):
        lines.append(f"({letter}) {option}")
    return "\n".join(lines)


def trace_lines(docs: Iterable[dict[str, Any]]) -> str:
    """Trace documents as a traces file holds them: compact JSON, one line each."""
    return "".join(json.dumps(doc, ensure_ascii=False) + "\n" for doc in docs)


def _run_one(instance: Instance, backend: Backend, config: HarnessConfig, traced: bool) -> tuple[InstanceRecord, str]:
    """One instance's record and, when `traced`, its `trace_lines`, encoded once `duration_s` is read."""
    start = time.perf_counter()
    recorder = _Deadline(backend, start + config.timeout_s)
    try:
        problem = Problem(id=instance.id, premises=instance.premises, question=compose_question(instance))
        outcome = run_pipeline(recorder, problem, config.pipeline)
        predicted, rounds_used = outcome.final.label, outcome.rounds_used
        failure_kind = None if predicted == instance.gold else "wrong-label"
    except Exception as err:
        outcome, predicted, rounds_used, failure_kind = err, None, 0, _classify_failure(err)
    docs = recorder.trace_docs(instance.id, outcome) if traced else []
    record = InstanceRecord(
        id=instance.id,
        predicted=predicted,
        gold=instance.gold,
        correct=failure_kind is None,
        failure_kind=failure_kind,
        rounds_used=rounds_used,
        duration_s=time.perf_counter() - start,
        depth=instance.depth,
    )
    return record, trace_lines(docs)


def evaluate(instances: Sequence[Instance], backend: Backend, config: HarnessConfig = HarnessConfig(),
             write_traces: Callable[[str], object] | None = None) -> RunReport:
    """Run the pipeline over every instance with a bounded worker pool.

    Per-instance failures become records, never harness faults; an interrupt,
    or an exception from `write_traces`, cancels the instances not yet started
    and propagates. Each instance's `timeout_s` runs from the moment a worker
    starts it. Records are assembled in the input order, so the report is
    independent of the concurrency level. `write_traces` (a file's `write`, say)
    gets each instance's `trace_lines` in input order as its turn comes, and
    neither they nor its future are kept; without it no trace is encoded.
    """
    records: list[InstanceRecord] = []
    traced = write_traces is not None
    with ThreadPoolExecutor(max_workers=max(1, config.concurrency)) as pool:
        try:
            # map's iterator drops each future as it yields the future's result
            for record, lines in pool.map(_run_one, instances, repeat(backend), repeat(config), repeat(traced)):
                records.append(record)
                if lines:
                    write_traces(lines)
        except BaseException:
            # The run ends here: instances not yet started never start.
            pool.shutdown(cancel_futures=True)
            raise
    correct = sum(1 for r in records if r.correct)
    total = len(records)
    return RunReport(
        records=tuple(records),
        total=total,
        correct=correct,
        accuracy=(correct / total) if total else 0.0,
        fingerprint=config.fingerprint(),
        config=config,
    )


def stratify_by_depth(report: RunReport) -> dict[int, float]:
    """Accuracy per annotated reasoning depth; empty when no instance carries a depth."""
    totals: dict[int, int] = {}
    hits: dict[int, int] = {}
    for record in report.records:
        if record.depth is None:
            continue
        totals[record.depth] = totals.get(record.depth, 0) + 1
        hits[record.depth] = hits.get(record.depth, 0) + int(record.correct)
    return {depth: hits[depth] / totals[depth] for depth in sorted(totals)}


def report_to_doc(report: RunReport) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "fingerprint": report.fingerprint,
        "config": _config_doc(report.config),
        "total": report.total,
        "correct": report.correct,
        "accuracy": report.accuracy,
        "records": [{**vars(r), "duration_s": round(r.duration_s, 6)} for r in report.records],
    }
    table = stratify_by_depth(report)
    if table:
        doc["by_depth"] = {str(k): v for k, v in table.items()}
    return doc
