"""Text-generation backends for the pipeline stages.

Three interchangeable implementations: a live HTTP chat-completions client,
a scripted backend that replays the replies a traces file recorded, and a
deterministic stub that answers every stage by running the symbolic solver.
All of them return raw text; the pipeline parses stage outputs the same way
regardless of the backend. The one reader of the traces format is here too,
serving both the scripted backend and `proofplan trace`.
"""

from __future__ import annotations

import json
import math
import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from . import plan as planmod
from . import solver as solvermod
from .errors import JSON_ERRORS, SchemaError
from .structured import RawContext, StructuredRepr

__all__ = [
    "API_KEY_ENV",
    "Backend",
    "BackendError",
    "GenerationParams",
    "StageMeta",
    "LiveBackend",
    "ScriptedBackend",
    "SolverStubBackend",
    "read_traces",
    "record_replies",
]

API_KEY_ENV = "PROOFPLAN_API_KEY"
# Attempts per LiveBackend request, the first included.
_ATTEMPTS = 3


class BackendError(Exception):
    pass


@dataclass(frozen=True)
class StageMeta:
    """Routing metadata attached to a stage call.

    The scripted backend keys replies on (instance_id, stage, round). The
    `payload` holds the stage's typed inputs, which a backend that computes
    its answer (like the solver stub) reads directly: `premises` and
    `question` (translate), `context` (plan), `context`, `plan` and `cwa`
    (solve), and `context`, `plan`, `diagnosis` and `provisional` label
    (replan). `context` is a `StructuredRepr`, which keeps its knowledge
    base and rule templates from one call to the next, or a `RawContext`
    when structured management is ablated; `plan` is a `Plan`; `diagnosis`
    is the `Diagnosis` that led to the replan; `cwa` is the run's
    closed-world setting. The live backend reads only the prompt.
    """

    stage: str
    round: int = 0
    instance_id: str | None = None
    payload: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class GenerationParams:
    """Sampling settings and routing metadata of one stage call; `deadline`, a
    `time.perf_counter` reading, is when the call's instance runs out of time."""

    temperature: float = 0.0
    max_tokens: int = 4096
    meta: StageMeta | None = None
    deadline: float | None = None


class Backend(ABC):
    """A total text-completion function; failures raise, never return empty."""

    @abstractmethod
    def complete(self, prompt: str, params: GenerationParams) -> str:
        raise NotImplementedError


class LiveBackend(Backend):
    """Chat-completions HTTP backend.

    The API key comes only from the environment variable `API_KEY_ENV` names
    (never a config file). A request makes at most `_ATTEMPTS` attempts, and
    transient failures retry with exponential backoff, or after the reply's
    numeric `Retry-After` seconds (capped at the request timeout) when a
    429/5xx reply gives one. Under the call's `deadline`, a request waits at
    most the time left, and an attempt that could not start before the
    deadline raises BackendError. There is no in-flight cap: each caller
    thread makes one request at a time, so `evaluate`'s worker count bounds
    the requests in flight.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        timeout_s: float = 120.0,
        session: Any = None,
    ):
        key = os.environ.get(API_KEY_ENV, "")
        if not key:
            raise BackendError(f"environment variable {API_KEY_ENV} is not set")
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._key = key
        self._url = base_url.rstrip("/") + "/chat/completions"
        self._model = model
        self._timeout = timeout_s

    def complete(self, prompt: str, params: GenerationParams) -> str:
        body = {
            "model": self._model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        headers = {"Authorization": f"Bearer {self._key}", "Content-Type": "application/json"}
        deadline = math.inf if params.deadline is None else params.deadline
        last_error = "no attempts made"
        delay: float = 0
        for attempt in range(_ATTEMPTS):
            if time.perf_counter() + delay >= deadline:  # this attempt could not start in time
                raise BackendError(f"out of time after {attempt} attempts: {last_error}")
            if attempt:
                time.sleep(delay)
            delay = 2**attempt
            timeout = min(self._timeout, deadline - time.perf_counter())
            try:
                response = self._session.post(self._url, json=body, headers=headers, timeout=timeout)
            except Exception as err:  # requests.RequestException and injected fakes
                last_error = str(err)
                continue
            status = getattr(response, "status_code", 0)
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                delay = _retry_after(response, self._timeout, delay)
                continue
            if status != 200:
                raise BackendError(f"HTTP {status}: {getattr(response, 'text', '')[:200]}")
            try:
                content = response.json()["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, ValueError) as err:
                raise BackendError(f"malformed completion payload: {err}") from err
            if not isinstance(content, str) or not content:
                raise BackendError("backend returned an empty completion")
            return content
        raise BackendError(f"request failed after {_ATTEMPTS} attempts: {last_error}")


def _retry_after(response: Any, cap: float, default: float) -> float:
    """The reply's `Retry-After` in seconds, at most `cap`; `default` unless it is a number."""
    try:
        seconds = float((getattr(response, "headers", None) or {}).get("Retry-After", ""))
    except (TypeError, ValueError):
        return default
    return min(seconds, cap) if seconds >= 0 else default


def read_traces(path: str | Path, read: Callable[[dict[str, Any]], Any]) -> Iterator[tuple[int, Any]]:
    """(line number, `read(record)`) for each record of the traces file at `path`, as `eval --traces` and
    `run --traces` write it. Lines are split on "\\n" only and blank ones skipped; a line that is not one
    UTF-8 JSON object, or that `read` raises SchemaError for, raises ValueError `<path>:<line>: <reason>`."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            try:
                text = line.decode("utf-8")  # UnicodeDecodeError is a ValueError
                if text.strip():
                    doc = json.loads(text)
                    if not isinstance(doc, dict):
                        raise ValueError("expected a JSON object")
                    yield number, read(doc)
            except (*JSON_ERRORS, SchemaError) as err:
                raise ValueError(f"{path}:{number}: {err}") from err


def record_replies(doc: dict[str, Any]) -> list[tuple[tuple[str, str, int], str]]:
    """The replies a traces record holds, each keyed (instance, stage, round): a failure record's
    `replies`, in call order, or a round record's `raw`; SchemaError when one is not a string, or
    its key is not a string instance and stage and an integer round."""
    if "failure_kind" in doc:
        entries = doc.get("replies")
        if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
            raise SchemaError("/replies", "expected array of objects")
        found = [(f"/replies/{i}/reply", e.get("stage"), e.get("round"), e.get("reply")) for i, e in enumerate(entries)]
    elif isinstance(doc.get("raw"), dict):
        found = [(f"/raw/{stage}", stage, doc.get("round"), reply) for stage, reply in doc["raw"].items()]
    else:
        raise SchemaError("/raw", "expected object")
    for pointer, stage, round_, reply in found:
        if not isinstance(reply, str):
            raise SchemaError(pointer, "expected string")
        if not (isinstance(doc.get("instance"), str) and isinstance(stage, str) and type(round_) is int):
            raise SchemaError(pointer, "expected a string instance and stage and an integer round")
    return [((doc.get("instance"), stage, round_), reply) for _, stage, round_, reply in found]


class ScriptedBackend(Backend):
    """Replays a traces file as `eval --traces` and `run --traces` write it: each stage call gets the
    reply recorded for its (instance, stage, round), and a call with none raises BackendError. A fault
    in a line raises ValueError `<path>:<line>: <reason>`, and a second reply for one (instance,
    stage, round) raises BackendError naming its line."""

    def __init__(self, path: str | Path):
        self._replies: dict[tuple[str, str, int], str] = {}
        for number, replies in read_traces(path, record_replies):
            for key, reply in replies:
                if key in self._replies:
                    where = f"instance {key[0]!r}, stage {key[1]}, round {key[2]}"
                    raise BackendError(f"{path}:{number}: a second reply for {where}")
                self._replies[key] = reply

    def complete(self, prompt: str, params: GenerationParams) -> str:
        if params.meta is None:
            raise BackendError("scripted backend needs stage metadata to pick a reply")
        key = (params.meta.instance_id, params.meta.stage, params.meta.round)
        if key not in self._replies:
            raise BackendError(f"no recorded reply for instance {key[0]!r}, stage {key[1]}, round {key[2]}")
        return self._replies[key]


def _reply(doc: Any) -> str:
    return json.dumps(doc, ensure_ascii=False)


class SolverStubBackend(Backend):
    """Deterministic backend that answers every stage with solver output.

    Translation treats each premise and the question as formula text, so it
    only suits instances whose statements are already first-order formulas.
    The emitted plan is a three-step linear chain read from the context: a
    step that cites its facts, one that cites its rules, and the judgment.
    With `degrade_initial_plan` the first plan leaves out the rules step,
    which reproduces the early-stop failure the replanner is meant to repair
    (its replan stage always returns the full plan). Execution reads only
    the plan's data and keeps one literal index: each non-judgment step adds
    the facts it cites and fires the rules it cites on it to their fixpoint
    (`fire_rounds`, closed-world too when the payload's `cwa` is set), and the
    judgment runs `decide` over what the log's records derived. The
    rules are decomposed once per instance: the context keeps its knowledge
    base and rule templates for the next call and for `diagnose`, and a raw
    context keeps the representation its text decodes to. Each solve call
    executes its plan afresh.
    """

    def __init__(self, degrade_initial_plan: bool = False):
        self.degrade_initial_plan = degrade_initial_plan

    def complete(self, prompt: str, params: GenerationParams) -> str:
        meta = params.meta
        if meta is None:
            raise BackendError("solver stub needs stage metadata")
        if meta.stage == "translate":
            return self._translate(meta)
        if meta.stage == "plan":
            return _reply(self._plan(meta, self.degrade_initial_plan))
        if meta.stage == "solve":
            return self._solve(meta)
        if meta.stage == "replan":
            doc = self._plan(meta, False)
            revised = {"Corrected_plan": doc["Plan"], "Matrix": doc["Matrix"]}
            rationale = "run rule application to a fixpoint before the judgment step"
            return _reply({"Revised plan": revised, "Rationale": rationale})
        raise BackendError(f"unknown stage {meta.stage!r}")

    def _translate(self, meta: StageMeta) -> str:
        premises = meta.payload.get("premises", ())
        question = meta.payload.get("question", "")
        doc = {
            "Premises": [{"statement": text, "symbol": text} for text in premises],
            "Proposition": [{"statement": question, "symbol": question}],
        }
        return _reply(doc)

    def _plan(self, meta: StageMeta, degraded: bool) -> dict[str, Any]:
        """The plan document, as `plan_to_json` writes it: facts, then rules (left out
        when `degraded`), then the judgment, each step citing its statements, run in sequence."""
        context = self._structured(meta)
        cited = [("Collect the initial facts from the premises.", context.facts)]
        if not degraded:
            cited.append(("Run the rules to a fixpoint.", context.rules))
        steps: dict[str, Any] = {}
        for i, (content, statements) in enumerate(cited, start=1):
            steps[str(i)] = {"content": content, "uses": [s.id for s in statements]} if statements else {"content": content}
        n = len(cited) + 1
        steps[str(n)] = {"content": "Judge the question against the derived facts.", "kind": "judgment"}
        return {"Plan": steps, "Matrix": [[int(j == i + 1) for j in range(n)] for i in range(n)]}

    @staticmethod
    def _structured(meta: StageMeta) -> StructuredRepr:
        """The payload's context, or for a `RawContext` the representation its
        text decodes to; BackendError when it lacks one or the text does not decode."""
        context = meta.payload.get("context")
        if isinstance(context, RawContext):
            try:
                return context.structured
            except SchemaError as err:
                raise BackendError(f"solver stub cannot read the context: {err}") from err
        if not isinstance(context, StructuredRepr):
            raise BackendError("solver stub call lacks a context")
        return context

    def _solve(self, meta: StageMeta) -> str:
        """The reply for the payload's plan and `cwa`, executed afresh; BackendError
        when the solver cannot run the context or its question."""
        context = self._structured(meta)
        plan = meta.payload.get("plan")
        if not isinstance(plan, planmod.Plan):
            raise BackendError("solver stub solve call lacks a plan")
        try:
            return self._execute(context, plan, meta.payload.get("cwa", False))
        except (solvermod.UnsupportedFragment, solvermod.DomainTooLarge) as err:
            raise BackendError(f"solver stub cannot run this context: {err}") from err

    def _execute(self, context: StructuredRepr, plan: planmod.Plan, cwa: bool) -> str:
        domain = context.kb.table.constants
        if plan.judgment is None or not context.questions:
            raise BackendError("solver stub needs a plan with steps and a question to adjudicate")
        facts = {s.id: solvermod.literal_from_formula(s.symbol) for s in context.facts}
        index = solvermod.index_literals(())  # the execution's one store of known literals
        log: list[solvermod.StepRecord] = []

        for step_id in plan.order:
            step = plan.steps[step_id - 1]
            if step_id == plan.judgment:  # `decide` against what the log so far derived, no rule left
                theory = solvermod.KnowledgeBase(context.kb.table, {lit for r in log for lit in r.derived}, ())
                answer = solvermod.decide(theory, context.questions[0].symbol).label
                log.append(solvermod.StepRecord(step_id, f"{step.content} -> {answer}"))
                continue
            asserted = sorted({facts[i] for i in step.uses if i in facts})
            solvermod.index_literals(asserted, index)
            cited = [rule for rule in context.templates if rule.rule_id in step.uses]
            fired = solvermod.fire_rounds(index, cited, domain, cwa) if cited else []
            derived = (*asserted, *(g.conclusion for g in fired))
            log.append(solvermod.StepRecord(step_id, step.content, derived=derived, derivations=tuple(fired)))

        return _reply({"Execution log": [solvermod.step_record_to_doc(r) for r in log], "Final answer": answer})
