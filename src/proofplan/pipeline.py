"""Four-stage reasoning pipeline: translate, plan, solve, replan.

Each stage prompts the backend, extracts the first well-formed fenced JSON
block from the reply, and parses it strictly; formatting violations raise
StageParseError, which the harness scores as incorrect. The replan loop is
driven by `diagnose`, a deterministic engine-side audit of the previous
trace, and re-executes against the unchanged problem context.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, replace
from importlib import resources
from typing import Any, Mapping

from . import plan as planmod
from . import solver as solvermod
from .backends import Backend, GenerationParams, StageMeta
from .errors import SchemaError
from .plan import CycleError, MatrixShapeMismatch, Plan
from .solver import Literal, SolverForm, StepRecord, Verdict, step_record_from_doc, step_record_to_doc
from .structured import RawContext, StructuredRepr, doc_to_repr

__all__ = [
    "Problem",
    "RawContext",
    "StepRecord",
    "Trace",
    "Evidence",
    "Diagnosis",
    "PipelineConfig",
    "PipelineResult",
    "ReplanOutcome",
    "StageParseError",
    "InvalidEdit",
    "normalize_label",
    "extract_json",
    "render_prompt",
    "translate_stage",
    "plan_stage",
    "solve_stage",
    "diagnose",
    "replan_stage",
    "run_pipeline",
    "trace_to_doc",
]

DIAGNOSIS_LABELS = (
    "missing-prerequisites",
    "rule-misuse",
    "premature-termination",
    "redundancy",
)

class StageParseError(Exception):
    """A stage reply violated its output contract; the raw text is retained."""

    def __init__(self, stage: str, message: str, raw: str = ""):
        self.stage = stage
        self.raw = raw
        super().__init__(f"{stage} stage: {message}")


class InvalidEdit(Exception):
    pass


@dataclass(frozen=True)
class Problem:
    id: str
    premises: tuple[str, ...]
    question: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "premises", tuple(self.premises))
        if not self.premises or not self.question:
            raise ValueError("a problem needs premises and a question")


@dataclass(frozen=True)
class Trace:
    context: StructuredRepr | RawContext
    plan: Plan
    records: tuple[StepRecord, ...]
    provisional: Verdict
    raw: Mapping[str, str]
    round: int = 0
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Evidence:
    label: str
    step_id: int | None = None
    edge: tuple[int, int] | None = None
    note: str = ""


@dataclass(frozen=True)
class Diagnosis:
    labels: frozenset[str]
    evidence: tuple[Evidence, ...]

    @property
    def clean(self) -> bool:
        return not self.labels


@dataclass(frozen=True)
class PipelineConfig:
    max_replan_rounds: int = 1
    disable_matrix_plan: bool = False
    disable_structured_repr: bool = False
    temperature: float = 0.0
    max_tokens: int = 4096
    cwa: bool = False

    def params(self, meta: StageMeta) -> GenerationParams:
        return GenerationParams(temperature=self.temperature, max_tokens=self.max_tokens, meta=meta)


@dataclass(frozen=True)
class ReplanOutcome:
    plan: Plan
    edits: tuple[planmod.EditOp, ...]
    raw: str
    embedded_trace: Trace | None = None  # when the reply re-executed the revised plan


@dataclass(frozen=True)
class PipelineResult:
    """Each round's trace (its context, plan and verdict) and the diagnosis that led to the next."""

    traces: tuple[Trace, ...]
    diagnoses: tuple[Diagnosis, ...]

    @property
    def final(self) -> Verdict:
        return self.traces[-1].provisional

    @property
    def rounds_used(self) -> int:
        return len(self.traces) - 1


# ---------------------------------------------------------------------------
# Prompt templates
# ---------------------------------------------------------------------------

_PLACEHOLDER_RE = re.compile(r"\{(premises|question|repr|plan|trace|diagnosis|provisional)\}")


@functools.cache
def load_template(stage: str) -> str:
    return resources.files("proofplan.prompts").joinpath(f"{stage}.txt").read_text(encoding="utf-8")


def render_prompt(template: str, values: Mapping[str, str]) -> str:
    """Substitute named placeholders; braces outside them are left alone."""
    return _PLACEHOLDER_RE.sub(lambda m: values.get(m.group(1), m.group(0)), template)


# ---------------------------------------------------------------------------
# Stage reply handling
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```[a-zA-Z]*\s*\n(.*?)```", re.DOTALL)
# Deeply nested arrays or objects make the decoder recurse past the limit;
# an integer past Python's digit limit raises a plain ValueError, of which
# JSONDecodeError is a subclass.
_JSON_ERRORS = (ValueError, RecursionError)


def extract_json(text: str, stage: str) -> Any:
    """First well-formed fenced JSON block, or else the whole reply as JSON."""
    for match in _FENCE_RE.finditer(text):
        try:
            return json.loads(match.group(1))
        except _JSON_ERRORS:
            continue
    try:
        return json.loads(text)
    except _JSON_ERRORS:
        pass
    raise StageParseError(stage, "no well-formed JSON object in the reply", raw=text)


_LABEL_WORDS = {
    "t": "T",
    "true": "T",
    "f": "F",
    "false": "F",
    "u": "U",
    "unknown": "U",
    "uncertain": "U",
}


def normalize_label(value: Any) -> str | None:
    """Map answer spellings onto {T, F, U} or an option letter A..E."""
    if not isinstance(value, str):
        return None
    token = value.strip()
    if not token:
        return None
    token = token.split("(")[0].strip().strip(")").strip()
    if not token:
        token = value.strip().strip("()").strip()
    head = token.split()[0].rstrip(".,:;") if token.split() else ""
    low = head.lower()
    if low in _LABEL_WORDS:
        return _LABEL_WORDS[low]
    if len(head) == 1 and head.upper() in "ABCDE":
        return head.upper()
    return None


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _call_stage(
    backend: Backend,
    config: PipelineConfig,
    stage: str,
    values: Mapping[str, str],
    payload: Mapping[str, Any],
    problem: Problem | None,
    round: int = 0,
) -> str:
    """The backend's reply to the stage's prompt, rendered from `values`, and its StageMeta."""
    meta = StageMeta(stage=stage, round=round, instance_id=problem.id if problem else None, payload=payload)
    return backend.complete(render_prompt(load_template(stage), values), config.params(meta))


def translate_stage(
    backend: Backend, problem: Problem, config: PipelineConfig = PipelineConfig()
) -> tuple[StructuredRepr | RawContext, str]:
    """The problem context and the raw reply it came from."""
    values = {"premises": "\n".join(problem.premises), "question": problem.question}
    payload = {"premises": list(problem.premises), "question": problem.question}
    raw = _call_stage(backend, config, "translate", values, payload, problem)
    if config.disable_structured_repr:
        return RawContext(raw), raw
    doc = extract_json(raw, "translate")
    try:
        context = doc_to_repr(doc)
    except SchemaError as err:
        raise StageParseError("translate", str(err), raw=raw) from err
    return context, raw


def plan_stage(
    backend: Backend,
    context: StructuredRepr | RawContext,
    config: PipelineConfig = PipelineConfig(),
    problem: Problem | None = None,
) -> tuple[Plan, str]:
    """The validated plan and the raw reply it came from."""
    raw = _call_stage(backend, config, "plan", {"repr": context.text}, {"context": context}, problem)
    doc = extract_json(raw, "plan")
    try:
        parsed = planmod.plan_from_json(doc)
    except SchemaError as err:
        raise StageParseError("plan", str(err), raw=raw) from err
    if config.disable_matrix_plan:
        # Ablation: keep the steps, replace the dependency structure with the
        # linear chain 1 -> 2 -> ... -> N.
        parsed = planmod.linear_chain(parsed.steps)
    planmod.validate_dag(parsed)
    return parsed, raw


def _parse_solve_doc(
    doc: Any, plan: Plan, stage: str, raw: str, literals: dict[str, Literal]
) -> tuple[tuple[StepRecord, ...], str]:
    """Records and answer label of a solve reply; `literals` holds the
    literal strings the instance has decoded so far and gains new ones."""
    if not isinstance(doc, dict):
        raise StageParseError(stage, "expected a JSON object", raw=raw)
    if stage == "solve":
        unknown = set(doc) - {"Execution log", "Final answer"}
        if unknown:
            raise StageParseError(stage, f"unknown field {sorted(unknown)[0]!r}", raw=raw)
    if "Final answer" not in doc:
        raise StageParseError(stage, 'missing "Final answer" field', raw=raw)
    label = normalize_label(doc["Final answer"])
    if label is None:
        raise StageParseError(stage, f"unrecognized answer label {doc['Final answer']!r}", raw=raw)
    log = doc.get("Execution log", "")
    if isinstance(log, str):
        return (StepRecord(step_id=0, text=log),), label
    if not isinstance(log, list):
        raise StageParseError(stage, '"Execution log" must be a string or array', raw=raw)
    order = planmod.execution_order(plan)
    try:
        records = tuple(
            step_record_from_doc(
                entry, f"/Execution log/{index}", order[index] if index < len(order) else 0, literals
            )
            for index, entry in enumerate(log)
        )
    except SchemaError as err:
        raise StageParseError(stage, str(err), raw=raw) from err
    return records, label


def solve_stage(
    backend: Backend,
    context: StructuredRepr | RawContext,
    plan: Plan,
    config: PipelineConfig = PipelineConfig(),
    problem: Problem | None = None,
    round: int = 0,
    form: SolverForm | None = None,
) -> Trace:
    """One solve call; `form`, the instance's `SolverForm`, is shared with the
    backend and decodes the reply (a fresh one when absent)."""
    planmod.validate_dag(plan)
    form = SolverForm(context) if form is None else form
    values = {"repr": context.text, "plan": plan.text}
    payload = {"context": context, "plan": plan, "cwa": config.cwa, "solver": form}
    raw = _call_stage(backend, config, "solve", values, payload, problem, round)
    doc = extract_json(raw, "solve")
    records, label = _parse_solve_doc(doc, plan, "solve", raw, form.literals)
    return Trace(
        context=context,
        plan=plan,
        records=records,
        provisional=Verdict(label),
        raw={"solve": raw},
        round=round,
    )


# ---------------------------------------------------------------------------
# Diagnosis
# ---------------------------------------------------------------------------

def diagnose(trace: Trace, cwa: bool = False, form: SolverForm | None = None) -> Diagnosis:
    """Deterministic audit of a trace; every label carries evidence.

    Checks that need structured derivation records or a groundable context
    are skipped when that information is absent, so free-text traces can at
    most be flagged for structural redundancy. With `cwa`, a consumed negative
    premise counts as available while its positive counterpart is not.
    `form`, the instance's `SolverForm`, supplies the knowledge base and rule
    templates (a fresh one when absent).
    """
    evidence: list[Evidence] = []

    form = SolverForm(trace.context) if form is None else form
    try:  # an unstructured context has no knowledge base
        kb, rules = form.kb, form.rules
        domain = kb.table.constants
    except (solvermod.UnsupportedFragment, solvermod.DomainTooLarge):
        kb = rules = None

    has_structured_records = any(record.derived or record.derivations for record in trace.records)

    # missing prerequisites and rule misuse need per-derivation records
    if rules is not None and has_structured_records:
        available: set[Literal] = set(kb.literals)
        for record in trace.records:
            for derivation in record.derivations:
                rule = rules[derivation.rule_id - 1] if 1 <= derivation.rule_id <= len(rules) else None
                if rule is None or not rule.has_instance(derivation.premises, derivation.conclusion, domain):
                    evidence.append(
                        Evidence(
                            "rule-misuse",
                            step_id=record.step_id,
                            note=f"rule {derivation.rule_id} has no instantiation "
                            f"{[str(p) for p in derivation.premises]} -> {derivation.conclusion}",
                        )
                    )
                else:
                    for premise in derivation.premises:
                        closed = cwa and not premise.positive and premise.negated() not in available
                        if premise not in available and not closed:
                            evidence.append(
                                Evidence(
                                    "missing-prerequisites",
                                    step_id=record.step_id,
                                    note=f"consumed {premise} before any step derived it",
                                )
                            )
                available.add(derivation.conclusion)
            for lit in record.derived:
                available.add(lit)

    # premature termination: the judgment ran while rules could still fire
    if rules is not None and has_structured_records:
        judgment_id = None
        cutoff = len(trace.records)
        for index, record in enumerate(trace.records):
            if 1 <= record.step_id <= trace.plan.size and planmod.is_judgment(
                trace.plan.steps[record.step_id - 1].content
            ):
                judgment_id = record.step_id
                cutoff = index
                break
        if judgment_id is not None:
            # Premises are given, so they count as available from the start.
            available = set(kb.literals)
            for record in trace.records[:cutoff]:
                available.update(record.derived)
                available.update(d.conclusion for d in record.derivations)
            derivable = solvermod.fire_rounds(available, rules, domain, max_rounds=1)
            if derivable:
                evidence.append(
                    Evidence(
                        "premature-termination",
                        step_id=judgment_id,
                        note=f"{derivable[0].conclusion} was still derivable at the final judgment",
                    )
                )

    # redundancy: transitively implied edges, and steps that only re-derive
    try:
        reduced = planmod.transitive_reduce(trace.plan)
        removed = sorted(set(trace.plan.edges()) - set(reduced.edges()))
    except (CycleError, planmod.ShapeError):
        removed = []
    for edge in removed:
        evidence.append(Evidence("redundancy", edge=edge, note="edge implied by transitive reduction"))
    if has_structured_records:
        seen: set[Literal] = set()
        for record in trace.records:
            produced = set(record.derived) | {d.conclusion for d in record.derivations}
            if produced and produced <= seen:
                evidence.append(
                    Evidence("redundancy", step_id=record.step_id, note="step only re-derives known facts")
                )
            seen |= produced

    order = {label: i for i, label in enumerate(DIAGNOSIS_LABELS)}
    evidence.sort(key=lambda e: (order[e.label], e.step_id or 0, e.edge or (0, 0)))
    return Diagnosis(labels=frozenset(e.label for e in evidence), evidence=tuple(evidence))


def _diagnosis_text(diagnosis: Diagnosis) -> str:
    if not diagnosis.evidence:
        return "none"
    lines = []
    for item in diagnosis.evidence:
        where = f"step {item.step_id}" if item.step_id else (f"edge {item.edge}" if item.edge else "plan")
        lines.append(f"- {item.label} ({where}): {item.note}")
    return "\n".join(lines)


def _trace_text(trace: Trace) -> str:
    lines = []
    for record in trace.records:
        head = f"step {record.step_id}: " if record.step_id else ""
        line = f"{head}{record.text}"
        if record.derived:
            line += f" | derived: {', '.join(str(l) for l in record.derived)}"
        lines.append(line)
    return "\n".join(lines) if lines else "(empty)"


# ---------------------------------------------------------------------------
# Replanning
# ---------------------------------------------------------------------------

_EDIT_KINDS = {"AddEdge", "DelEdge", "Merge", "InsertGuard"}


def _parse_edit(doc: Any, pointer: str) -> planmod.EditOp:
    if not isinstance(doc, dict) or "op" not in doc:
        raise SchemaError(pointer, 'expected an object with an "op" field')
    op = doc["op"]
    if op not in _EDIT_KINDS:
        raise SchemaError(f"{pointer}/op", f"expected one of {sorted(_EDIT_KINDS)}")

    def int_field(name: str) -> int:
        value = doc.get(name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{pointer}/{name}", "expected integer")
        return value

    if op == "AddEdge":
        return planmod.AddEdge(int_field("i"), int_field("j"))
    if op == "DelEdge":
        return planmod.DelEdge(int_field("i"), int_field("j"))
    if op == "Merge":
        return planmod.Merge(int_field("p"), int_field("q"))
    content = doc.get("content")
    if content is not None and not isinstance(content, str):
        raise SchemaError(f"{pointer}/content", "expected string")
    return planmod.InsertGuard(int_field("k"), content)


def replan_stage(
    backend: Backend,
    trace: Trace,
    diagnosis: Diagnosis,
    config: PipelineConfig = PipelineConfig(),
    problem: Problem | None = None,
    form: SolverForm | None = None,
) -> ReplanOutcome:
    """Ask the backend to repair `trace`'s plan, as round `trace.round + 1`,
    and normalize whatever comes back.

    The reply may carry a corrected plan, an edit list, or both (the plan
    wins; edits are then informational). When it also embeds a re-execution
    (updated log plus final answer), that is surfaced so the caller can skip
    the separate solve call; `form`, the instance's `SolverForm`, decodes its
    literals.
    """
    context, plan, provisional = trace.context, trace.plan, trace.provisional.label
    round = trace.round + 1
    values = {
        "repr": context.text,
        "plan": plan.text,
        "trace": _trace_text(trace),
        "provisional": provisional,
        "diagnosis": _diagnosis_text(diagnosis),
    }
    payload = {
        "context": context,
        "plan": plan,
        "diagnosis": sorted(diagnosis.labels),
        "provisional": provisional,
    }
    raw = _call_stage(backend, config, "replan", values, payload, problem, round)
    doc = extract_json(raw, "replan")
    if not isinstance(doc, dict):
        raise StageParseError("replan", "expected a JSON object", raw=raw)
    unknown = set(doc) - {"Revised plan", "Edits", "Rationale", "Updated Execution log", "Final answer"}
    if unknown:
        raise StageParseError("replan", f"unknown field {sorted(unknown)[0]!r}", raw=raw)

    edits: tuple[planmod.EditOp, ...] = ()
    if "Edits" in doc:
        if not isinstance(doc["Edits"], list):
            raise StageParseError("replan", '"Edits" must be an array', raw=raw)
        try:
            edits = tuple(_parse_edit(e, f"/Edits/{i}") for i, e in enumerate(doc["Edits"]))
        except SchemaError as err:
            raise StageParseError("replan", str(err), raw=raw) from err

    if not isinstance(doc.get("Rationale", ""), str):
        raise StageParseError("replan", '"Rationale" must be a string', raw=raw)

    if "Revised plan" in doc:
        revised_doc = doc["Revised plan"]
        if not isinstance(revised_doc, dict) or "Corrected_plan" not in revised_doc or "Matrix" not in revised_doc:
            raise StageParseError(
                "replan", '"Revised plan" needs "Corrected_plan" and "Matrix"', raw=raw
            )
        try:
            proposed = planmod.plan_from_json(
                {"Plan": revised_doc["Corrected_plan"], "Matrix": revised_doc["Matrix"]}
            )
        except (SchemaError, MatrixShapeMismatch) as err:
            raise StageParseError("replan", str(err), raw=raw) from err
        revised = planmod.normalize(proposed)
    elif edits:
        try:
            revised = planmod.apply_edits(plan, edits)
        except (planmod.IndexOutOfRange, planmod.MergeSelf) as err:
            raise InvalidEdit(str(err)) from err
    else:
        raise StageParseError("replan", 'reply has neither "Revised plan" nor "Edits"', raw=raw)

    embedded: Trace | None = None
    if "Final answer" in doc:
        records, label = _parse_solve_doc(
            {"Execution log": doc.get("Updated Execution log", ""), "Final answer": doc["Final answer"]},
            revised,
            "replan",
            raw,
            (SolverForm(context) if form is None else form).literals,
        )
        embedded = Trace(context, revised, records, Verdict(label), raw={"replan": raw}, round=round)
    return ReplanOutcome(plan=revised, edits=edits, raw=raw, embedded_trace=embedded)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def run_pipeline(backend: Backend, problem: Problem, config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Translate, plan, solve, then diagnose/replan/re-solve up to the round cap.

    The problem context from translation is reused unchanged for every round;
    the final verdict is the last round's provisional one. Any stage error
    propagates and the caller decides how to score the instance.
    """
    context, translate_raw = translate_stage(backend, problem, config)
    form = SolverForm(context)  # each formula of the instance is decoded once
    # Static findings are surfaced, not fatal.
    warnings = context.warnings if isinstance(context, StructuredRepr) else ()
    plan, plan_raw = plan_stage(backend, context, config, problem)
    trace = solve_stage(backend, context, plan, config, problem, round=0, form=form)
    traces = [replace(trace, raw={**trace.raw, "translate": translate_raw, "plan": plan_raw}, warnings=warnings)]
    diagnoses: list[Diagnosis] = []
    for _ in range(config.max_replan_rounds):
        report = diagnose(traces[-1], cwa=config.cwa, form=form)
        diagnoses.append(report)
        outcome = replan_stage(backend, traces[-1], report, config, problem, form=form)
        trace = outcome.embedded_trace
        if trace is None:
            trace = solve_stage(backend, context, outcome.plan, config, problem, round=len(traces), form=form)
        traces.append(replace(trace, raw={**trace.raw, "replan": outcome.raw}))
    return PipelineResult(traces=tuple(traces), diagnoses=tuple(diagnoses))


# ---------------------------------------------------------------------------
# Trace persistence
# ---------------------------------------------------------------------------


def trace_to_doc(trace: Trace, instance_id: str) -> dict[str, Any]:
    """JSON-ready trace record; deterministic for a fixed backend transcript.

    A structured context appears as the representation's kept `doc`, shared
    with its other traces, so callers serialize the record and do not mutate it.
    """
    context = trace.context
    context_doc = {"raw": context.text} if isinstance(context, RawContext) else context.doc
    return {
        "instance": instance_id,
        "round": trace.round,
        "provisional": trace.provisional.label,
        "warnings": list(trace.warnings),
        "context": context_doc,
        "plan": planmod.plan_to_json(trace.plan),
        "records": [step_record_to_doc(r) for r in trace.records],
        "raw": dict(sorted(trace.raw.items())),
    }
