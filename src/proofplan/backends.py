"""Text-generation backends for the pipeline stages.

Three interchangeable implementations: a live HTTP chat-completions client,
a scripted replay backend that serves recorded stage outputs from fixture
files, and a deterministic stub that answers every stage by running the
symbolic solver. All of them return raw text; the pipeline parses stage
outputs the same way regardless of the backend.
"""

from __future__ import annotations

import json
import math
import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from . import plan as planmod
from . import solver as solvermod
from .errors import SchemaError
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
]

API_KEY_ENV = "PROOFPLAN_API_KEY"
# Attempts per LiveBackend request, the first included.
_ATTEMPTS = 3


class BackendError(Exception):
    pass


@dataclass(frozen=True)
class StageMeta:
    """Routing metadata attached to a stage call.

    The scripted backend keys fixtures on (instance_id, stage, round). The
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


class ScriptedBackend(Backend):
    """Replays recorded stage outputs from a fixture directory.

    Fixtures are text files named `<instance_id>__<stage>__<round>.txt`,
    with `<stage>__<round>.txt` as an instance-agnostic fallback. A name
    that leads outside the directory raises BackendError.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise BackendError(f"fixture directory not found: {self.directory}")
        self._root = os.path.join(os.path.abspath(self.directory), "")

    def complete(self, prompt: str, params: GenerationParams) -> str:
        meta = params.meta
        if meta is None:
            raise BackendError("scripted backend needs stage metadata to pick a fixture")
        names = [f"{meta.stage}__{meta.round}.txt"]
        if meta.instance_id is not None:
            names.insert(0, f"{meta.instance_id}__{meta.stage}__{meta.round}.txt")
        for name in names:
            path = self.directory / name
            if not os.path.abspath(path).startswith(self._root):
                raise BackendError(f"fixture name {name!r} leads outside {self.directory}")
            if path.is_file():
                return path.read_text(encoding="utf-8")
        raise BackendError(f"no fixture for stage={meta.stage} round={meta.round} (tried {names})")


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
    the plan's data: the plan's judgment step runs `decide` over the derived
    literals, and every other step asserts the facts it cites and then fires
    the rules it cites to their fixpoint with the solver's `fire_rounds`
    (with the closed-world phase when the solve payload's `cwa` is set). The
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
        rules = {s.id: template for s, template in zip(context.rules, context.templates)}
        literals: set[solvermod.Literal] = set()
        log: list[solvermod.StepRecord] = []

        for step_id in plan.order:
            step = plan.steps[step_id - 1]
            if step_id == plan.judgment:  # `decide` against the literals the steps so far derived, no rule left
                theory = solvermod.KnowledgeBase(context.kb.table, literals, ())
                answer = solvermod.decide(theory, context.questions[0].symbol).label
                log.append(solvermod.StepRecord(step_id, f"{step.content} -> {answer}"))
                continue
            asserted = sorted({facts[i] for i in step.uses if i in facts})
            literals.update(asserted)
            cited = [rule for i, rule in rules.items() if i in step.uses]
            fired = solvermod.fire_rounds(literals, cited, domain, cwa) if cited else []
            derived = (*asserted, *(g.conclusion for g in fired))
            log.append(solvermod.StepRecord(step_id, step.content, derived=derived, derivations=tuple(fired)))

        return _reply({"Execution log": [solvermod.step_record_to_doc(r) for r in log], "Final answer": answer})
