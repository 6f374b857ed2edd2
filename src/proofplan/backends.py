"""Text-generation backends for the pipeline stages.

Three interchangeable implementations: a live HTTP chat-completions client,
a scripted replay backend that serves recorded stage outputs from fixture
files, and a deterministic stub that answers every stage by running the
symbolic solver. All of them return raw text; the pipeline parses stage
outputs the same way regardless of the backend.
"""

from __future__ import annotations

import json
import os
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from . import plan as planmod
from . import solver as solvermod
from .structured import RawContext, StructuredRepr, doc_to_repr

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


class BackendError(Exception):
    pass


@dataclass(frozen=True)
class StageMeta:
    """Routing metadata attached to a stage call.

    The scripted backend keys fixtures on (instance_id, stage, round). The
    `payload` holds the stage's typed inputs, which a backend that computes
    its answer (like the solver stub) reads directly: `premises` and
    `question` (translate), `context` (plan), `context`, `plan`, `cwa` and
    `solver` (solve), and `context`, `plan`, `diagnosis` and `provisional`
    labels (replan). `context` is a `StructuredRepr`, or a `RawContext` when
    structured management is ablated; `plan` is a `Plan`; `cwa` is the run's
    closed-world setting; `solver` is the instance's `SolverForm`, which
    keeps the context's knowledge base and rule templates from one call to
    the next. The live backend reads only the prompt.
    """

    stage: str
    round: int = 0
    instance_id: str | None = None
    payload: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.0
    max_tokens: int = 4096
    meta: StageMeta | None = None


class Backend(ABC):
    """A total text-completion function; failures raise, never return empty."""

    @abstractmethod
    def complete(self, prompt: str, params: GenerationParams) -> str:
        raise NotImplementedError


class LiveBackend(Backend):
    """Chat-completions HTTP backend.

    The API key comes from the environment only (never a config file). At
    most `max_inflight` requests run concurrently; transient failures retry
    with exponential backoff, or after the reply's numeric `Retry-After`
    seconds (capped at the request timeout) when a 429/5xx reply gives one.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key_env: str = API_KEY_ENV,
        timeout_s: float = 120.0,
        max_retries: int = 3,
        max_inflight: int = 4,
        session: Any = None,
    ):
        key = os.environ.get(api_key_env, "")
        if not key:
            raise BackendError(f"environment variable {api_key_env} is not set")
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._key = key
        self._url = base_url.rstrip("/") + "/chat/completions"
        self._model = model
        self._timeout = timeout_s
        self._retries = max_retries
        self._gate = threading.Semaphore(max_inflight)

    def complete(self, prompt: str, params: GenerationParams) -> str:
        body = {
            "model": self._model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        headers = {"Authorization": f"Bearer {self._key}", "Content-Type": "application/json"}
        last_error = "no attempts made"
        delay: float = 0
        for attempt in range(self._retries):
            if attempt:
                time.sleep(delay)
            delay = 2**attempt
            with self._gate:
                try:
                    response = self._session.post(self._url, json=body, headers=headers, timeout=self._timeout)
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
        raise BackendError(f"request failed after {self._retries} attempts: {last_error}")


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
    with `<stage>__<round>.txt` as an instance-agnostic fallback.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise BackendError(f"fixture directory not found: {self.directory}")

    def complete(self, prompt: str, params: GenerationParams) -> str:
        meta = params.meta
        if meta is None:
            raise BackendError("scripted backend needs stage metadata to pick a fixture")
        names = [f"{meta.stage}__{meta.round}.txt"]
        if meta.instance_id is not None:
            names.insert(0, f"{meta.instance_id}__{meta.stage}__{meta.round}.txt")
        for name in names:
            path = self.directory / name
            if path.is_file():
                return path.read_text(encoding="utf-8")
        raise BackendError(f"no fixture for stage={meta.stage} round={meta.round} (tried {names})")


def _chain(*contents: str) -> planmod.Plan:
    return planmod.linear_chain([planmod.PlanStep(i, text) for i, text in enumerate(contents, start=1)])


_STUB_FULL_PLAN = _chain(
    "Collect the initial facts from the premises.",
    "Ground the rules over the declared constants.",
    "Run the ground rules to a fixpoint.",
    "Judge the question against the derived facts.",
)

_STUB_DEGRADED_PLAN = _chain(
    "Collect the initial facts from the premises.",
    "Apply the ground rules once.",
    "Judge the question against the derived facts.",
)


def _reply(doc: Any) -> str:
    return json.dumps(doc, ensure_ascii=False, indent=2)


_FULL_PLAN_DOC = planmod.plan_to_json(_STUB_FULL_PLAN)
# The plan and replan replies never vary, so they are encoded once.
_STUB_PLAN_REPLIES = {False: _reply(_FULL_PLAN_DOC), True: _reply(planmod.plan_to_json(_STUB_DEGRADED_PLAN))}
_STUB_REPLAN_REPLY = _reply(
    {
        "Revised plan": {"Corrected_plan": _FULL_PLAN_DOC["Plan"], "Matrix": _FULL_PLAN_DOC["Matrix"]},
        "Rationale": "run rule application to a fixpoint before the judgment step",
    }
)


class SolverStubBackend(Backend):
    """Deterministic backend that answers every stage with solver output.

    Translation treats each premise and the question as formula text, so it
    only suits instances whose statements are already first-order formulas.
    The emitted plan is a four-step linear chain; with `degrade_initial_plan`
    the first plan skips the fixpoint step and applies the rules once, which
    reproduces the early-stop failure the replanner is meant to repair (its
    replan stage always returns the full plan). The rules are decomposed
    once per instance: the solve payload's `solver` form keeps the knowledge
    base and rule templates for the next solve call and for `diagnose`. Rule
    steps run the solver's `fire_rounds` over them (one round, or to the
    fixpoint with the closed-world phase when the solve payload's `cwa` is
    set), and the answer is `decide` over the derived literals. The
    grounding step only reports how many ground instances the rules have,
    counted in closed form as the sum over rules of `constants ** variables
    used`; nothing enumerates them.
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
            return _STUB_PLAN_REPLIES[self.degrade_initial_plan]
        if meta.stage == "solve":
            return self._solve(meta)
        if meta.stage == "replan":
            return _STUB_REPLAN_REPLY
        raise BackendError(f"unknown stage {meta.stage!r}")

    def _translate(self, meta: StageMeta) -> str:
        premises = meta.payload.get("premises", ())
        question = meta.payload.get("question", "")
        doc = {
            "Premises": [{"statement": text, "symbol": text} for text in premises],
            "Proposition": [{"statement": question, "symbol": question}],
        }
        return _reply(doc)

    def _form(self, meta: StageMeta) -> solvermod.SolverForm:
        context = meta.payload.get("context")
        if isinstance(context, RawContext):  # structured management is ablated
            try:
                return solvermod.SolverForm(doc_to_repr(json.loads(context.text)))
            except json.JSONDecodeError as err:
                raise BackendError(f"solver stub cannot read the context: {err}") from err
        if not isinstance(context, StructuredRepr):
            raise BackendError("solver stub call lacks a context")
        return meta.payload.get("solver") or solvermod.SolverForm(context)

    def _solve(self, meta: StageMeta) -> str:
        form = self._form(meta)
        plan = meta.payload.get("plan")
        if not isinstance(plan, planmod.Plan):
            raise BackendError("solver stub solve call lacks a plan")
        order = planmod.execution_order(plan)
        cwa = meta.payload.get("cwa", False)

        kb, rules = form.kb, form.rules
        domain = kb.table.constants
        literals: set[solvermod.Literal] = set()
        log: list[solvermod.StepRecord] = []
        answer: str | None = None

        for step_id in order:
            note = plan.steps[step_id - 1].content
            text = note.lower()
            derived: tuple[solvermod.Literal, ...] = ()
            fired: list[solvermod.GroundRule] = []
            fixpoint = "fixpoint" in text or "until no new" in text
            if fixpoint or "once" in text:
                fired = solvermod.fire_rounds(literals, rules, domain, cwa, None if fixpoint else 1)
                derived = tuple(g.conclusion for g in fired)
            elif "initial fact" in text or "establish" in text:
                literals.update(kb.literals)
                derived = tuple(sorted(kb.literals))
            elif "ground" in text:
                note = f"{note} ({sum(r.instance_count(domain) for r in rules)} ground instances)"
            elif planmod.is_judgment(note):
                answer = self._answer(form, literals)
                note = f"{note} -> {answer}"
            log.append(solvermod.StepRecord(step_id, note, derived=derived, derivations=tuple(fired)))

        if answer is None:
            answer = self._answer(form, literals)
        return _reply({"Execution log": [solvermod.step_record_to_doc(r) for r in log], "Final answer": answer})

    @staticmethod
    def _answer(form: solvermod.SolverForm, literals: set[solvermod.Literal]) -> str:
        """`decide` against the literals the executed steps derived."""
        if not form.context.questions:
            raise BackendError("instance has no question to adjudicate")
        return solvermod.decide(solvermod.chained_kb(form.kb, literals), form.context.questions[0].symbol).label
