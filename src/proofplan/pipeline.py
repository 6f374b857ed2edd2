"""Four-stage reasoning pipeline: translate, plan, solve, replan.

Each stage prompts the backend, extracts the first well-formed fenced JSON
block from the reply, and parses it strictly. A reply with no such block
raises StageParseError in `extract_json`; any other format violation is a
reader's SchemaError (or a plan's ShapeError), which `_parse_reply` turns
into StageParseError("<stage> stage: <pointer>: <reason>"), the pointer
locating the value in the reply. The harness scores both as incorrect. Each
replan round is one `replan_stage` call, driven by `diagnose`, a
deterministic engine-side audit of the previous trace; it re-executes a
changed plan against the unchanged context and returns the round's trace.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, replace
from importlib import resources
from typing import Any, Callable, Mapping

from . import plan as planmod
from . import solver as solvermod
from .backends import Backend, GenerationParams, StageMeta
from .errors import SchemaError, check_object
from .plan import Plan
from .solver import Literal, StepRecord, Verdict, step_record_from_doc
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
    "StageParseError",
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
    """A stage reply violated its output contract; the backend's recorder keeps the reply."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage} stage: {message}")


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
    round: int = 0


@dataclass(frozen=True)
class Evidence:
    label: str
    step_id: int | None = None
    edge: tuple[int, int] | None = None
    note: str = ""


@dataclass(frozen=True)
class Diagnosis:
    evidence: tuple[Evidence, ...]

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(e.label for e in self.evidence)


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

# Only blanks, not newlines, may follow the info string, so a long run of
# newlines after an opener is not rescanned from every position.
_FENCE_RE = re.compile(r"```[a-zA-Z]*[^\S\n]*\n(.*?)```", re.DOTALL)
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
    raise StageParseError(stage, "no well-formed JSON object in the reply")


def _parse_reply(stage: str, read: Callable[..., Any], *args: Any) -> Any:
    """`read(*args)`, a reader of the stage's reply; the SchemaError or
    ShapeError it raises becomes StageParseError(stage, str(err))."""
    try:
        return read(*args)
    except (SchemaError, planmod.ShapeError) as err:
        raise StageParseError(stage, str(err)) from err


_LABEL_WORDS = {
    "t": "T",
    "true": "T",
    "f": "F",
    "false": "F",
    "u": "U",
    "unknown": "U",
    "uncertain": "U",
}
OPTION_LETTERS = "ABCDE"  # the answer letters `normalize_label` accepts


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
    if len(head) == 1 and head.upper() in OPTION_LETTERS:
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
    """The backend's reply to the stage's prompt, rendered from `values`, sent with its StageMeta."""
    meta = StageMeta(stage=stage, round=round, instance_id=problem.id if problem else None, payload=payload)
    return backend.complete(render_prompt(load_template(stage), values), config.params(meta))


def translate_stage(
    backend: Backend, problem: Problem, config: PipelineConfig = PipelineConfig()
) -> StructuredRepr | RawContext:
    """The problem context."""
    values = {"premises": "\n".join(problem.premises), "question": problem.question}
    payload = {"premises": list(problem.premises), "question": problem.question}
    raw = _call_stage(backend, config, "translate", values, payload, problem)
    if config.disable_structured_repr:
        return RawContext(raw)
    return _parse_reply("translate", doc_to_repr, extract_json(raw, "translate"))


def plan_stage(
    backend: Backend,
    context: StructuredRepr | RawContext,
    config: PipelineConfig = PipelineConfig(),
    problem: Problem | None = None,
) -> Plan:
    """The validated plan; a cyclic matrix raises CycleError, which scores as `cycle`."""
    raw = _call_stage(backend, config, "plan", {"repr": context.text}, {"context": context}, problem)
    steps, rows = _parse_reply("plan", planmod.read_plan, extract_json(raw, "plan"), _citable(context))
    # Ablation: keep the steps, replace the dependency structure with the
    # linear chain 1 -> 2 -> ... -> N.
    return planmod.linear_chain(steps) if config.disable_matrix_plan else _parse_reply("plan", Plan, steps, rows)


def _citable(context: StructuredRepr | RawContext) -> set[int] | None:
    """Ids a plan step may cite: a structured context's facts and rules, or None (no check) for a raw one."""
    return {s.id for s in (*context.facts, *context.rules)} if isinstance(context, StructuredRepr) else None


def _literal_table(context: StructuredRepr | RawContext) -> dict[str, Literal]:
    """A new literal table for one reply's decode: each stated fact's text
    to its Literal (replies cite them by text), empty for a raw context."""
    return {str(lit): lit for lit in context.kb.literals} if isinstance(context, StructuredRepr) else {}


def _read_log(
    doc: dict[str, Any], field: str, plan: Plan, literals: dict[str, Literal]
) -> tuple[tuple[StepRecord, ...], str]:
    """Records of the execution log `doc[field]` of `plan`, and the label of
    `doc["Final answer"]`; `literals`, the reply's literal table, gains each
    literal string the log cites that it lacks, so every distinct string is
    parsed once per reply."""
    if "Final answer" not in doc:
        raise SchemaError("/Final answer", "missing field")
    label = normalize_label(doc["Final answer"])
    if label is None:
        raise SchemaError("/Final answer", f"unrecognized answer label {doc['Final answer']!r}")
    log = doc.get(field, "")
    if isinstance(log, str):
        return (StepRecord(step_id=0, text=log),), label
    if not isinstance(log, list):
        raise SchemaError(f"/{field}", "expected string or array")
    order = plan.order
    records = tuple(
        step_record_from_doc(entry, f"/{field}/{index}", order[index] if index < len(order) else 0, literals)
        for index, entry in enumerate(log)
    )
    return records, label


def solve_stage(
    backend: Backend,
    context: StructuredRepr | RawContext,
    plan: Plan,
    config: PipelineConfig = PipelineConfig(),
    problem: Problem | None = None,
    round: int = 0,
) -> Trace:
    """One solve call; the reply's literal strings are decoded through a new
    `_literal_table` of `context`."""
    values = {"repr": context.text, "plan": plan.text}
    payload = {"context": context, "plan": plan, "cwa": config.cwa}
    raw = _call_stage(backend, config, "solve", values, payload, problem, round)
    doc = _parse_reply("solve", check_object, extract_json(raw, "solve"), "", {"Execution log", "Final answer"})
    records, label = _parse_reply("solve", _read_log, doc, "Execution log", plan, _literal_table(context))
    return Trace(context, plan, records, Verdict(label), round)


# ---------------------------------------------------------------------------
# Diagnosis
# ---------------------------------------------------------------------------

def diagnose(trace: Trace, cwa: bool = False) -> Diagnosis:
    """Deterministic audit of a trace, in one walk over its records; every
    label carries evidence.

    Checks that need structured derivation records or a groundable context
    are skipped when that information is absent, so free-text traces can at
    most be flagged for structural redundancy. With `cwa`, a consumed negative
    premise counts as available while its positive counterpart is not, and
    the premature-termination probe matches closed-world as the solver does.
    A structured context supplies its kept knowledge base and rule templates.
    """
    evidence: list[Evidence] = []

    kb = rules = None  # an unstructured context has no knowledge base
    if isinstance(trace.context, StructuredRepr):
        try:
            kb, rules = trace.context.kb, trace.context.templates
            domain = kb.table.constants
        except (solvermod.UnsupportedFragment, solvermod.DomainTooLarge):
            pass

    # Premises are given, so they count as available from the start.
    available: set[Literal] = set(kb.literals) if kb is not None else set()
    seen: set[Literal] = set()  # what earlier records derived
    judgment_id = trace.plan.judgment
    judgment: tuple[int, set[Literal]] | None = None  # the first judgment record, and what was known then
    for record in trace.records:
        if rules is not None:
            if judgment is None and record.step_id == judgment_id:
                judgment = (record.step_id, set(available))
            # rule misuse and missing prerequisites, per derivation
            for derivation in record.derivations:
                rule = rules[derivation.rule_id - 1] if 1 <= derivation.rule_id <= len(rules) else None
                if rule is None or not rule.has_instance(derivation.premises, derivation.conclusion, domain):
                    cited = [str(p) for p in derivation.premises]
                    note = f"rule {derivation.rule_id} has no instantiation {cited} -> {derivation.conclusion}"
                    evidence.append(Evidence("rule-misuse", step_id=record.step_id, note=note))
                else:
                    for premise in derivation.premises:
                        closed = cwa and not premise.positive and premise.negated() not in available
                        if premise not in available and not closed:
                            note = f"consumed {premise} before any step derived it"
                            evidence.append(Evidence("missing-prerequisites", step_id=record.step_id, note=note))
                available.add(derivation.conclusion)
            available.update(record.derived)

        # redundancy: a step that only re-derives what earlier steps derived
        produced = set(record.derived) | {d.conclusion for d in record.derivations}
        if produced and produced <= seen:
            evidence.append(Evidence("redundancy", step_id=record.step_id, note="step only re-derives known facts"))
        seen |= produced

    # premature termination: the judgment ran while rules could still fire.
    # It is audited only when the records show derivations at all.
    if judgment is not None and seen:
        step_id, known = judgment
        derivable = solvermod.fire_rounds(known, rules, domain, cwa)
        if derivable:
            note = f"{derivable[0].conclusion} was still derivable at the final judgment"
            evidence.append(Evidence("premature-termination", step_id=step_id, note=note))

    # redundancy: transitively implied edges
    reduced = planmod.reduce_rows(trace.plan.rows)
    for i, j in trace.plan.edges():
        if not (reduced[i - 1] >> (j - 1)) & 1:
            evidence.append(Evidence("redundancy", edge=(i, j), note="edge implied by transitive reduction"))

    order = {label: i for i, label in enumerate(DIAGNOSIS_LABELS)}
    evidence.sort(key=lambda e: (order[e.label], e.step_id or 0, e.edge or (0, 0)))
    return Diagnosis(tuple(evidence))


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

_EDIT_KINDS = {"AddEdge": planmod.AddEdge, "DelEdge": planmod.DelEdge}


def _parse_edit(doc: Any, pointer: str, size: int) -> planmod.EditOp:
    """Read `{"op": "AddEdge" | "DelEdge", "i": int, "j": int}` for a plan of `size` steps; another `op` fails
    at `<pointer>/op`, another key at `<pointer>/<key>`, a step index out of range at `<pointer>/i` or `/j`."""
    if not isinstance(doc, dict) or "op" not in doc:
        raise SchemaError(pointer, 'expected an object with an "op" field')
    op = doc["op"]
    if not isinstance(op, str) or op not in _EDIT_KINDS:
        raise SchemaError(f"{pointer}/op", f"expected one of {sorted(_EDIT_KINDS)}")
    check_object(doc, pointer, {"op", "i", "j"})
    ends = []
    for name in ("i", "j"):
        value = doc.get(name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{pointer}/{name}", "expected integer")
        if not 1 <= value <= size:
            raise SchemaError(f"{pointer}/{name}", f"step index {value} out of range 1..{size}")
        ends.append(value)
    return _EDIT_KINDS[op](*ends)


def _read_revision(
    doc: Any, plan: Plan, citable: set[int] | None
) -> tuple[tuple[planmod.PlanStep, ...], list[int] | None, tuple[planmod.EditOp, ...]]:
    """The revised steps and rows, and the edits, of a replan reply for `plan`;
    a reply with edits and no revised plan has `plan`'s steps and rows None."""
    check_object(doc, "", {"Revised plan", "Edits", "Rationale", "Updated Execution log", "Final answer"})
    edits: tuple[planmod.EditOp, ...] = ()
    if "Edits" in doc:
        if not isinstance(doc["Edits"], list):
            raise SchemaError("/Edits", "expected array")
        edits = tuple(_parse_edit(e, f"/Edits/{k}", plan.size) for k, e in enumerate(doc["Edits"]))
    if not isinstance(doc.get("Rationale", ""), str):
        raise SchemaError("/Rationale", "expected string")
    if "Revised plan" not in doc:
        if not edits:
            raise SchemaError("", 'reply has neither "Revised plan" nor "Edits"')
        return plan.steps, None, edits
    revised = doc["Revised plan"]
    if not isinstance(revised, dict) or "Corrected_plan" not in revised or "Matrix" not in revised:
        raise SchemaError("/Revised plan", 'expected an object with "Corrected_plan" and "Matrix"')
    check_object(revised, "/Revised plan", {"Corrected_plan", "Matrix"})
    try:
        steps, rows = planmod.read_plan({"Plan": revised["Corrected_plan"], "Matrix": revised["Matrix"]}, citable)
    except SchemaError as err:  # point into the reply, where "Plan" is "Corrected_plan"
        raise SchemaError("/Revised plan" + err.pointer.replace("/Plan", "/Corrected_plan", 1), err.message) from err
    return steps, rows, edits


def replan_stage(
    backend: Backend,
    trace: Trace,
    diagnosis: Diagnosis,
    config: PipelineConfig = PipelineConfig(),
    problem: Problem | None = None,
) -> Trace:
    """Round `trace.round + 1`: ask the backend to repair `trace`'s plan, and
    return the round's trace.

    The reply may carry a corrected plan, a list of edge edits, or both (the
    plan wins; edits are then only validated, their step indices against
    `trace`'s plan). A revised plan may cite only the facts and rules of a
    structured context. An acyclic revision is transitively reduced; one
    with a cycle or a diagonal entry, from either form, is refused. Under the
    `mp` ablation the revised matrix is ignored, as in `plan_stage`, and
    nothing is refused. A revised plan equal to `trace`'s is `trace.plan`
    itself, which keeps its cached text and order. The round's trace is:
    - for a reply that embeds a re-execution (updated log plus final answer),
      that re-execution, its literal strings decoded through a new
      `_literal_table` of the context;
    - for any other changed plan, the trace of a `solve_stage` call on it;
    - for a refused revision, or an unchanged plan and no re-execution,
      `trace` itself with the next round number. Its plan, records and
      verdict are `trace`'s own objects, and an embedded log and answer go
      unread.
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
    payload = {"context": context, "plan": plan, "diagnosis": diagnosis, "provisional": provisional}
    raw = _call_stage(backend, config, "replan", values, payload, problem, round)
    doc = extract_json(raw, "replan")
    steps, rows, edits = _parse_reply("replan", _read_revision, doc, plan, _citable(context))
    if config.disable_matrix_plan:  # the ablation ignores the revised matrix, as plan_stage does
        revised = planmod.linear_chain(steps)
    else:
        try:
            revised = planmod.apply_edits(plan, edits) if rows is None else planmod.transitive_reduce(Plan(steps, rows))
        except (planmod.CycleError, planmod.ShapeError):  # refused: the round keeps its plan and verdict
            return replace(trace, round=round)
    revised = plan if revised == plan else revised

    if "Final answer" in doc:
        literals = _literal_table(context)
        records, label = _parse_reply("replan", _read_log, doc, "Updated Execution log", revised, literals)
        return Trace(context, revised, records, Verdict(label), round)
    if revised is plan:  # nothing new to execute
        return replace(trace, round=round)
    return solve_stage(backend, context, revised, config, problem, round)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def run_pipeline(backend: Backend, problem: Problem, config: PipelineConfig = PipelineConfig()) -> PipelineResult:
    """Translate, plan, solve, then diagnose and replan up to the round cap.

    The problem context from translation is reused unchanged for every round;
    the final verdict is the last round's provisional one. Each replan round
    is one `replan_stage` call, which returns the round's trace. A round that
    re-executed nothing keeps the previous round's verdict object, and it
    ends the loop, since a further round could only diagnose the same trace
    and send the same replan prompt. Any stage error propagates and the
    caller decides how to score the instance.
    """
    context = translate_stage(backend, problem, config)
    plan = plan_stage(backend, context, config, problem)
    traces = [solve_stage(backend, context, plan, config, problem, round=0)]
    diagnoses: list[Diagnosis] = []
    for _ in range(config.max_replan_rounds):
        last = traces[-1]
        diagnoses.append(diagnose(last, cwa=config.cwa))
        traces.append(replan_stage(backend, last, diagnoses[-1], config, problem))
        if traces[-1].provisional is last.provisional:  # nothing was re-executed
            break
    return PipelineResult(traces=tuple(traces), diagnoses=tuple(diagnoses))


# ---------------------------------------------------------------------------
# Trace persistence
# ---------------------------------------------------------------------------


def trace_to_doc(trace: Trace, instance_id: str, replies: Mapping[int, Mapping[str, str]]) -> dict[str, Any]:
    """JSON-ready trace record; deterministic for a fixed backend transcript.

    Its `raw` is `replies[trace.round]`, of the backend's replies by round and
    stage. A structured context, the plan and each step record appear as their
    kept `doc`, shared with the other traces that hold them, so callers
    serialize the record and do not mutate it. The context's static findings,
    surfaced and not fatal, are the warnings of the round-0 record alone.
    """
    context = trace.context
    structured = isinstance(context, StructuredRepr)
    return {
        "instance": instance_id,
        "round": trace.round,
        "provisional": trace.provisional.label,
        "warnings": list(context.warnings) if structured and trace.round == 0 else [],
        "context": context.doc if structured else {"raw": context.text},
        "plan": trace.plan.doc,
        "records": [r.doc for r in trace.records],
        "raw": dict(sorted(replies[trace.round].items())),
    }
