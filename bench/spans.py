"""Run-time span tracing of proofplan's public functions.

`Tracer.install()` wraps each traced function and rebinds the name in every
loaded `proofplan.*` module that holds it, so calls through any import path
are seen; `uninstall()` restores the originals. Nothing under `src/` knows
about the tracer, and a run that never calls `install()` runs unwrapped code.

A span is one call: name, start and end (`time.perf_counter`), the id of the
span that was open when it started (on the same thread, or else the open
`harness.evaluate` span, which owns the pool's worker threads), the instance
id it belongs to, and the phase of the benchmark that made it. A layer's self
time is its span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

STAGES = ("translate", "plan", "solve", "replan")


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    instance: str | None
    phase: str
    end: float = 0.0
    amount: float = 0.0  # work count the span reports, e.g. characters or ground instances
    cpu: float = 0.0  # thread CPU seconds, instance spans only


def _len_arg0(args: tuple, result: Any) -> float:
    return len(args[0])


def _len_result(args: tuple, result: Any) -> float:
    return len(result)


def _derived(args: tuple, result: Any) -> float:
    return len(result.derivations) - len(args[0].derivations)


def _evidence(args: tuple, result: Any) -> float:
    return len(result.evidence)


def _complete_name(args: tuple, kwargs: dict) -> str:
    """Span name of `Backend.complete(self, prompt, params)`: one per stage."""
    return f"backends.complete.{getattr(args[2].meta, 'stage', '?')}"


# (module, attribute, span name, amount of work, instance id from the arguments)
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("proofplan.fol", "parse_formula", "fol.parse_formula", None, None),
    ("proofplan.fol", "render_formula", "fol.render_formula", None, None),
    ("proofplan.structured", "doc_to_repr", "structured.doc_to_repr", None, None),
    ("proofplan.structured", "repr_to_doc", "structured.repr_to_doc", None, None),
    ("proofplan.structured", "validate_static", "structured.validate_static", None, None),
    ("proofplan.solver", "ground_rules", "solver.ground_rules", _len_result, None),
    ("proofplan.solver", "forward_chain", "solver.forward_chain", _derived, None),
    ("proofplan.solver", "decide", "solver.decide", None, None),
    ("proofplan.solver", "brute_force_entails", "solver.brute_force_entails", None, None),
    ("proofplan.pipeline", "extract_json", "pipeline.extract_json", _len_arg0, None),
    ("proofplan.pipeline", "render_prompt", "pipeline.render_prompt", _len_result, None),
    ("proofplan.pipeline", "load_template", "pipeline.load_template", None, None),
    ("proofplan.pipeline", "diagnose", "pipeline.diagnose", _evidence, None),
    ("proofplan.pipeline", "solve_stage", "pipeline.solve_stage", None, None),
    ("proofplan.pipeline", "replan_stage", "pipeline.replan_stage", None, None),
    ("proofplan.pipeline", "run_pipeline", "pipeline.run_pipeline", None, lambda args: args[1].id),
    ("proofplan.pipeline", "trace_to_doc", "pipeline.trace_to_doc", None, lambda args: args[1]),
    # The harness's per-instance worker function: the instance boundary.
    ("proofplan.harness", "_run_one", "harness.instance", None, lambda args: args[0].id),
    ("proofplan.harness", "evaluate", "harness.evaluate", None, None),
    ("proofplan.harness", "load_dataset", "harness.load_dataset", None, None),
    ("proofplan.harness", "report_to_doc", "harness.report_to_doc", None, None),
    ("proofplan.cli", "cmd_eval", "cli.cmd_eval", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "eval"
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_owner: Span | None = None
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, instance: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_owner
        if instance is None and parent is not None:
            instance = parent.instance
        with self._lock:
            span = Span(len(self.spans), name, 0.0, parent.id if parent else None, instance, self.phase)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def root(self, name: str, instance: str | None = None) -> Iterator[Span]:
        """A span the benchmark itself opens."""
        span = self.open(name, instance)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str | Callable, amount: Callable | None,
              instance_of: Callable | None) -> Callable:
        tracer = self
        instance_span = name == "harness.instance"
        pool_owner = name == "harness.evaluate"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if callable(name) else name
            span = tracer.open(label, instance_of(args) if instance_of else None)
            if pool_owner:
                tracer._pool_owner = span
            cpu = time.thread_time() if instance_span else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                if instance_span:
                    span.cpu = time.thread_time() - cpu
                if pool_owner:
                    tracer._pool_owner = None
                tracer.close(span)
            if amount is not None:
                span.amount = amount(args, result)
            return result

        return wrapper

    def _rebind(self, original: Any, replacement: Any) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "proofplan" or module_name.startswith("proofplan.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for module_name, attr, name, amount, instance_of in TARGETS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._rebind(original, self._wrap(original, name, amount, instance_of))

        plan = importlib.import_module("proofplan.plan")
        for attr in getattr(plan, "__all__", ()):
            fn = getattr(plan, attr)
            if inspect.isfunction(fn) and fn.__module__ == plan.__name__:
                self._rebind(fn, self._wrap(fn, f"plan.{attr}", None, None))

        backends = importlib.import_module("proofplan.backends")
        for cls in vars(backends).values():
            if inspect.isclass(cls) and issubclass(cls, backends.Backend) and "complete" in vars(cls):
                method = vars(cls)["complete"]
                setattr(cls, "complete", self._wrap(method, _complete_name, None, None))
                self._restore.append((cls, "complete", method))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of the children's intervals, per span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end - span.start) - covered
    return out


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    amount: float = 0.0
    wait_s: float = 0.0


def totals(spans: list[Span], phase: str) -> dict[str, Totals]:
    own = self_times(spans)
    out: dict[str, Totals] = {}
    for span in spans:
        if span.phase != phase:
            continue
        t = out.setdefault(span.name, Totals())
        t.calls += 1
        t.self_s += own[span.id]
        t.amount += span.amount
        if span.name == "harness.instance":
            t.wait_s += (span.end - span.start) - span.cpu
    return out


def counts(spans: list[Span], phase: str) -> dict[str, float]:
    """The exactly repeatable part of a phase: calls and work amounts per name."""
    return {name: (t.calls, t.amount) for name, t in sorted(totals(spans, phase).items())}


def layer_metrics(eval_spans: dict[str, Totals], eval_n: int, probe: dict[str, Totals], probe_n: int,
                  oracle: dict[str, Totals], oracle_n: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per instance, keyed by the names in BENCHMARK.json."""

    def get(table: dict[str, Totals], name: str) -> Totals:
        return table.get(name, Totals())

    def per(value: float, n: int) -> float:
        return value / n if n else 0.0

    m: dict[str, tuple[float, str]] = {}

    def calls_and_self(name: str, with_calls: bool = True, table=eval_spans, n=eval_n) -> None:
        t = get(table, name)
        if with_calls:
            m[f"{name}.calls"] = (per(t.calls, n), "count")
        m[f"{name}.self_s"] = (per(t.self_s, n), "s")

    calls_and_self("fol.parse_formula")
    calls_and_self("fol.render_formula")
    calls_and_self("structured.doc_to_repr")
    calls_and_self("structured.repr_to_doc")
    calls_and_self("structured.validate_static", with_calls=False)
    calls_and_self("solver.ground_rules")
    m["solver.ground_instances"] = (per(get(eval_spans, "solver.ground_rules").amount, eval_n), "count")
    calls_and_self("solver.forward_chain", with_calls=False, table=probe, n=probe_n)
    calls_and_self("solver.decide", with_calls=False, table=probe, n=probe_n)
    derived = get(probe, "solver.forward_chain").amount
    grounded = get(probe, "solver.ground_rules").amount
    m["solver.derived_literals"] = (per(derived, probe_n), "count")
    m["solver.fired_ratio"] = (derived / grounded if grounded else 0.0, "ratio")
    calls_and_self("solver.brute_force_entails", table=oracle, n=oracle_n)

    plan_spans = [t for name, t in eval_spans.items() if name.startswith("plan.")]
    m["plan.calls"] = (per(sum(t.calls for t in plan_spans), eval_n), "count")
    m["plan.self_s"] = (per(sum(t.self_s for t in plan_spans), eval_n), "s")

    calls_and_self("pipeline.extract_json")
    m["pipeline.reply_chars"] = (per(get(eval_spans, "pipeline.extract_json").amount, eval_n), "chars")
    calls_and_self("pipeline.render_prompt", with_calls=False)
    m["pipeline.prompt_chars"] = (per(get(eval_spans, "pipeline.render_prompt").amount, eval_n), "chars")
    m["pipeline.load_template.calls"] = (per(get(eval_spans, "pipeline.load_template").calls, eval_n), "count")
    calls_and_self("pipeline.diagnose", with_calls=False)
    m["pipeline.diagnose.evidence"] = (per(get(eval_spans, "pipeline.diagnose").amount, eval_n), "count")
    for name in ("solve_stage", "replan_stage", "run_pipeline", "trace_to_doc"):
        calls_and_self(f"pipeline.{name}", with_calls=False)

    for stage in STAGES:
        calls_and_self(f"backends.complete.{stage}")

    m["harness.instance.wait_s"] = (per(get(eval_spans, "harness.instance").wait_s, eval_n), "s")
    for name in ("harness.load_dataset", "harness.report_to_doc", "cli.cmd_eval"):
        calls_and_self(name, with_calls=False)
    return m
