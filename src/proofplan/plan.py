"""Dependency-matrix plans and their algebra.

A plan is an ordered list of steps plus a binary matrix A where A[i][j] = 1
means step i directly precedes step j. A `Plan` holds A once, as the row
bitmasks its algebra runs on (`rows[i]` holds bit j iff A[i][j] = 1), and
`Plan.matrix` is a 0/1 view derived from them. Every `Plan` is acyclic: it
computes its execution order when it is built, the concatenation of
successive frontiers (every unfinished step whose predecessors are all
finished), and a cycle or a diagonal entry raises. Nothing here breaks a
cycle: rows that cannot be built into a `Plan` are refused, never repaired.
A step may cite the statements it applies (`uses`, statement ids of the
context), and its `kind` marks the judgment of the question
(`Plan.judgment`). Replan edits (`AddEdge`, `DelEdge`) change only the rows,
never the steps.

The *_rows functions are the core; the Plan-level operations wrap them 1:1.
Step ids are 1-based everywhere in the public API.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Collection, Iterable, Iterator, Sequence

from .errors import SchemaError, check_object

__all__ = [
    "Plan",
    "PlanStep",
    "EditOp",
    "AddEdge",
    "DelEdge",
    "CycleError",
    "ShapeError",
    "transitive_reduce",
    "apply_edits",
    "duplicate_content",
    "linear_chain",
    "read_plan",
    "plan_from_json",
    "plan_to_json",
    "closure_rows",
    "reduce_rows",
    "layered_order_rows",
]

STEP_KINDS = ("inference", "judgment")
# Plan algebra is quadratic to cubic in the step count, so a plan reply may
# not have more steps than this.
MAX_STEPS = 256


class ShapeError(Exception):
    pass


class CycleError(Exception):
    def __init__(self, cycle: list[int]):
        self.cycle = cycle
        super().__init__(f"dependency cycle: {cycle}")


@dataclass(frozen=True)
class PlanStep:
    id: int
    content: str
    kind: str = "inference"
    uses: tuple[int, ...] = ()  # ids of the context statements the step applies

    def __post_init__(self) -> None:
        if not self.content:
            raise ValueError("step content must be nonempty")
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")


@dataclass(frozen=True)
class Plan:
    """Immutable acyclic plan; operations return new plans. Bit j of `rows[i]`: step i + 1 precedes step j + 1.

    `order`, the concatenated-frontier order of the 1-based ids, is computed
    when the plan is built (an attribute, not a field). A nonzero diagonal
    raises ShapeError, any other cycle CycleError with the lexicographically
    smallest cycle as its witness.
    """

    steps: tuple[PlanStep, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "rows", tuple(self.rows))
        n = len(self.steps)
        for position, step in enumerate(self.steps, start=1):
            if step.id != position:
                raise ShapeError(f"step ids must be contiguous from 1, found {step.id} at position {position}")
        if len(self.rows) != n:
            raise ShapeError(f"{len(self.rows)} rows for {n} steps")
        for i, row in enumerate(self.rows, start=1):
            if isinstance(row, bool) or not isinstance(row, int) or not 0 <= row < 1 << n:
                raise ShapeError(f"row {i} must be an integer bitmask below 2**{n}, found {row!r}")
        order = layered_order_rows(self.rows)
        if order is None:
            for i, row in enumerate(self.rows):
                if (row >> i) & 1:
                    raise ShapeError(f"diagonal entry at step {i + 1} must be zero")
            raise CycleError([i + 1 for i in find_cycle_rows(self.rows)])
        object.__setattr__(self, "order", tuple(i + 1 for i in order))

    @property
    def size(self) -> int:
        return len(self.steps)

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The 0/1 dependency matrix, derived from `rows` on each access."""
        return tuple(tuple((row >> j) & 1 for j in range(self.size)) for row in self.rows)

    @functools.cached_property
    def judgment(self) -> int | None:
        """Id of the first "judgment" step in execution order, else of its last step; None when there are no steps."""
        order = self.order
        return next((i for i in order if self.steps[i - 1].kind == "judgment"), order[-1]) if order else None

    @functools.cached_property
    def doc(self) -> dict[str, Any]:
        """`plan_to_json` of this plan, computed once; treat it as read-only."""
        return plan_to_json(self)

    @functools.cached_property
    def text(self) -> str:
        """Prompt rendering: the compact `doc` and the execution order; computed once."""
        order = ", ".join(str(i) for i in self.order)
        return json.dumps(self.doc, ensure_ascii=False) + f"\nExecution order: {order}"

    def edges(self) -> list[tuple[int, int]]:
        return [(i + 1, j + 1) for i, row in enumerate(self.rows) for j in _bits(row)]


# ---------------------------------------------------------------------------
# Row-bitmask core
# ---------------------------------------------------------------------------


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure_rows(rows: Sequence[int]) -> list[int]:
    """Reachability through at least one edge (bitset Floyd-Warshall)."""
    reach = list(rows)
    n = len(reach)
    for k in range(n):
        bit = 1 << k
        rk = reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= rk
    return reach


def _pred_rows(rows: Sequence[int]) -> list[int]:
    """Column bitmasks: `preds[j]` holds bit i iff rows[i] holds bit j."""
    preds = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in _bits(row):
            preds[j] |= 1 << i
    return preds


def layered_order_rows(rows: Sequence[int]) -> list[int] | None:
    """Concatenated-frontier order (0-based), or None if blocked by a cycle."""
    n = len(rows)
    preds = _pred_rows(rows)
    done = 0
    full = (1 << n) - 1
    order: list[int] = []
    while done != full:
        layer = [j for j in range(n) if not (done >> j) & 1 and not (preds[j] & ~done)]
        if not layer:
            return None
        order.extend(layer)
        for j in layer:
            done |= 1 << j
    return order


def reduce_rows(rows: Sequence[int]) -> list[int]:
    """Transitive reduction of an acyclic row set (unique for DAGs).

    An edge i->j is dropped iff j is reachable from another successor of i.
    """
    reach = closure_rows(rows)
    out = []
    for row in rows:
        acc = 0
        for k in _bits(row):
            acc |= reach[k]
        out.append(row & ~acc)
    return out


def find_cycle_rows(rows: Sequence[int]) -> list[int] | None:
    """Lexicographically smallest cycle as a 0-based node sequence, or None."""
    n = len(rows)
    reach = closure_rows(rows)
    cyclic = [i for i in range(n) if (reach[i] >> i) & 1]
    if not cyclic:
        return None
    start = min(cyclic)

    def reaches(source: int, banned: int) -> bool:
        seen = 1 << source
        stack = [source]
        while stack:
            u = stack.pop()
            if (rows[u] >> start) & 1:
                return True
            m = rows[u] & ~banned & ~seen
            seen |= m
            stack.extend(_bits(m))
        return False

    path = [start]
    visited = 1 << start
    node = start
    while True:
        if (rows[node] >> start) & 1:
            return path
        for j in _bits(rows[node] & ~visited):
            if reaches(j, visited):
                path.append(j)
                visited |= 1 << j
                node = j
                break
        else:
            raise RuntimeError("cycle search lost its witness")


# ---------------------------------------------------------------------------
# Plan-level operations
# ---------------------------------------------------------------------------


def _check_index(index: int, size: int) -> None:
    if not 1 <= index <= size:
        raise ShapeError(f"step index {index} out of range 1..{size}")


def transitive_reduce(plan: Plan) -> Plan:
    """Minimal edge set with the same reachability; unique because acyclic.
    `plan` itself when it has no implied edge."""
    rows = tuple(reduce_rows(plan.rows))
    return plan if rows == plan.rows else Plan(plan.steps, rows)


def linear_chain(steps: Sequence[PlanStep]) -> Plan:
    """The steps run in sequence: the dependency chain 1 -> 2 -> ... -> N."""
    n = len(steps)
    return Plan(tuple(steps), tuple(2 << i if i + 1 < n else 0 for i in range(n)))


def duplicate_content(plan: Plan) -> list[tuple[int, ...]]:
    """Groups of step ids sharing identical content (reported, never merged)."""
    groups: dict[str, list[int]] = {}
    for step in plan.steps:
        groups.setdefault(step.content, []).append(step.id)
    return [tuple(ids) for ids in groups.values() if len(ids) > 1]


# ---------------------------------------------------------------------------
# Edit operators
# ---------------------------------------------------------------------------


class EditOp:
    """Base class for plan edits."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class AddEdge(EditOp):
    i: int
    j: int


@dataclass(frozen=True, slots=True)
class DelEdge(EditOp):
    i: int
    j: int


def apply_edits(plan: Plan, edits: Iterable[EditOp]) -> Plan:
    """Set (AddEdge) or clear (DelEdge) one matrix entry per edit, in order, then `transitive_reduce`.

    Edits never touch the steps, so ids and `uses` citations stay put. A
    step index out of range or a self-loop raises ShapeError, and edits that
    close a cycle raise CycleError: the cycle is never broken.
    """
    n = plan.size
    rows = list(plan.rows)
    for edit in edits:
        if not isinstance(edit, (AddEdge, DelEdge)):
            raise TypeError(f"unknown edit operator: {edit!r}")
        _check_index(edit.i, n)
        _check_index(edit.j, n)
        bit = 1 << (edit.j - 1)
        if isinstance(edit, AddEdge):
            rows[edit.i - 1] |= bit
        else:
            rows[edit.i - 1] &= ~bit
    return transitive_reduce(Plan(plan.steps, rows))


# ---------------------------------------------------------------------------
# JSON document form (matching the planner stage wire format)
# ---------------------------------------------------------------------------

_PLAN_TOP_KEYS = {"Plan", "Matrix"}
_STEP_KEYS = {"content", "kind", "uses"}


def read_plan(doc: Any, citable: Collection[int] | None = None) -> tuple[tuple[PlanStep, ...], list[int]]:
    """The steps and rows of {"Plan": {"1": {"content": ..., "uses": [...], "kind": ...}, ...}, "Matrix": [[...], ...]}.

    Every entry is checked here; a `Plan` built from them checks the diagonal
    and cycles. `uses` and `kind` are optional. `uses` holds integers >= 1,
    and when `citable` (the problem's fact and rule ids) is given, members
    of it. Matrix entries must be the integers 0 or 1; booleans are rejected in
    both. The matrix must be square with side equal to the step count.
    """
    check_object(doc, "", _PLAN_TOP_KEYS)
    for key in ("Plan", "Matrix"):
        if key not in doc:
            raise SchemaError(f"/{key}", "missing field")
    raw_steps = doc["Plan"]
    if not isinstance(raw_steps, dict) or not raw_steps:
        raise SchemaError("/Plan", "expected nonempty object")
    n = len(raw_steps)
    if n > MAX_STEPS:
        raise SchemaError("/Plan", f"{n} steps exceed the limit of {MAX_STEPS}")
    if set(raw_steps) != {str(i) for i in range(1, n + 1)}:
        raise SchemaError("/Plan", f"step keys must be \"1\"..\"{n}\"")
    steps = []
    for i in range(1, n + 1):
        pointer = f"/Plan/{i}"
        entry = check_object(raw_steps[str(i)], pointer, _STEP_KEYS)
        content = entry.get("content")
        if not isinstance(content, str) or not content:
            raise SchemaError(f"{pointer}/content", "expected nonempty string")
        kind = entry.get("kind", "inference")
        if kind not in STEP_KINDS:
            raise SchemaError(f"{pointer}/kind", f"expected one of {STEP_KINDS}")
        uses = entry.get("uses", [])
        if not isinstance(uses, list):
            raise SchemaError(f"{pointer}/uses", "expected array")
        for k, value in enumerate(uses):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise SchemaError(f"{pointer}/uses/{k}", "statement ids must be integers >= 1")
            if citable is not None and value not in citable:
                raise SchemaError(f"{pointer}/uses/{k}", f"statement {value} is not a fact or rule of the problem")
        steps.append(PlanStep(id=i, content=content, kind=kind, uses=tuple(uses)))
    raw_matrix = doc["Matrix"]
    if not isinstance(raw_matrix, list):
        raise SchemaError("/Matrix", "expected array")
    if len(raw_matrix) != n:
        raise SchemaError("/Matrix", f"{len(raw_matrix)} rows for {n} steps")
    rows = []
    for i, row in enumerate(raw_matrix):
        if not isinstance(row, list):
            raise SchemaError(f"/Matrix/{i}", "expected array")
        if len(row) != n:
            raise SchemaError(f"/Matrix/{i}", f"{len(row)} entries for {n} steps")
        bits = 0
        for j, value in enumerate(row):
            if isinstance(value, bool) or not isinstance(value, int) or value not in (0, 1):
                raise SchemaError(f"/Matrix/{i}/{j}", "entries must be the integers 0 or 1")
            bits |= value << j
        rows.append(bits)
    return tuple(steps), rows


def plan_from_json(doc: Any, citable: Collection[int] | None = None) -> Plan:
    """The `Plan` of a plan document; see `read_plan`."""
    return Plan(*read_plan(doc, citable))


def plan_to_json(plan: Plan) -> dict[str, Any]:
    step_doc: dict[str, Any] = {}
    for step in plan.steps:
        entry: dict[str, Any] = {"content": step.content}
        if step.uses:
            entry["uses"] = list(step.uses)
        if step.kind != "inference":
            entry["kind"] = step.kind
        step_doc[str(step.id)] = entry
    return {"Plan": step_doc, "Matrix": [list(row) for row in plan.matrix]}
