"""Dependency-matrix plans and their algebra.

A plan is an ordered list of steps plus a binary matrix A where A[i][j] = 1
means step i directly precedes step j. Scheduling reads the matrix directly:
the frontier is every unfinished step whose predecessors are all finished,
and execution order is the concatenation of successive frontiers.

The algorithms work on row bitmasks (`rows[i]` holds bit j iff A[i][j] = 1);
the *_rows functions are the core and the Plan-level operations wrap them 1:1.
Step ids are 1-based everywhere in the public API.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .errors import SchemaError

__all__ = [
    "Plan",
    "PlanStep",
    "EditOp",
    "AddEdge",
    "DelEdge",
    "Merge",
    "InsertGuard",
    "CycleError",
    "ShapeError",
    "IndexOutOfRange",
    "MergeSelf",
    "MatrixShapeMismatch",
    "validate_dag",
    "frontier",
    "execution_order",
    "transitive_reduce",
    "normalize",
    "apply_edits",
    "duplicate_content",
    "linear_chain",
    "is_judgment",
    "plan_from_json",
    "plan_to_json",
    "closure_rows",
    "normalize_rows",
    "reduce_rows",
    "break_cycles_rows",
    "layered_order_rows",
]

STEP_KINDS = ("inference", "guard")
# Plan algebra is quadratic to cubic in the step count, so a reply may not
# grow a plan past this many steps.
MAX_STEPS = 256


class ShapeError(Exception):
    pass


class CycleError(Exception):
    def __init__(self, cycle: list[int]):
        self.cycle = cycle
        super().__init__(f"dependency cycle: {cycle}")


class IndexOutOfRange(Exception):
    def __init__(self, index: int, size: int):
        self.index = index
        self.size = size
        super().__init__(f"step index {index} out of range 1..{size}")


class MergeSelf(Exception):
    pass


class MatrixShapeMismatch(Exception):
    pass


@dataclass(frozen=True)
class PlanStep:
    id: int
    content: str
    kind: str = "inference"

    def __post_init__(self) -> None:
        if not self.content:
            raise ValueError("step content must be nonempty")
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")


@dataclass(frozen=True)
class Plan:
    """Immutable plan; operations return new plans."""

    steps: tuple[PlanStep, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in self.matrix))
        n = len(self.steps)
        for position, step in enumerate(self.steps, start=1):
            if step.id != position:
                raise ShapeError(f"step ids must be contiguous from 1, found {step.id} at position {position}")
        if len(self.matrix) != n:
            raise ShapeError(f"matrix has {len(self.matrix)} rows for {n} steps")
        for i, row in enumerate(self.matrix):
            if len(row) != n:
                raise ShapeError(f"matrix row {i + 1} has {len(row)} entries, expected {n}")
            for value in row:
                if isinstance(value, bool) or value not in (0, 1):
                    raise ShapeError(f"matrix entries must be 0 or 1, found {value!r}")

    @property
    def size(self) -> int:
        return len(self.steps)

    @functools.cached_property
    def order(self) -> tuple[int, ...] | None:
        """Concatenated-frontier order of the 1-based ids, or None if a cycle blocks it; computed once."""
        order = layered_order_rows(self.rows())
        return None if order is None else tuple(i + 1 for i in order)

    @functools.cached_property
    def text(self) -> str:
        """Prompt rendering: indented `plan_to_json` and the execution order; computed once."""
        order = ", ".join(str(i) for i in execution_order(self))
        return json.dumps(plan_to_json(self), ensure_ascii=False, indent=2) + f"\nExecution order: {order}"

    def rows(self) -> list[int]:
        out = []
        for row in self.matrix:
            bits = 0
            for j, value in enumerate(row):
                if value:
                    bits |= 1 << j
            out.append(bits)
        return out

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i + 1, j + 1)
            for i, row in enumerate(self.matrix)
            for j, value in enumerate(row)
            if value
        ]


def _rows_to_matrix(rows: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((rows[i] >> j) & 1 for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# Row-bitmask core
# ---------------------------------------------------------------------------


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
    for i, m in enumerate(rows):
        while m:
            j = (m & -m).bit_length() - 1
            preds[j] |= 1 << i
            m &= m - 1
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
    n = len(rows)
    reach = closure_rows(rows)
    out = []
    for i in range(n):
        acc = 0
        m = rows[i]
        while m:
            k = (m & -m).bit_length() - 1
            acc |= reach[k]
            m &= m - 1
        out.append(rows[i] & ~acc)
    return out


def break_cycles_rows(rows: Sequence[int]) -> list[int]:
    """Delete every back edge of a depth-first search over ascending indices.

    Roots and neighbors are visited in ascending order, so the result is a
    deterministic acyclic subgraph of the input.
    """
    n = len(rows)
    rows = [rows[i] & ~(1 << i) for i in range(n)]
    color = [0] * n  # 0 unvisited, 1 on stack, 2 finished
    nodes: list[int] = []
    cursors: list[int] = []
    for root in range(n):
        if color[root]:
            continue
        color[root] = 1
        nodes.append(root)
        cursors.append(0)
        while nodes:
            node = nodes[-1]
            cursor = cursors[-1]
            row = rows[node]
            descended = False
            while True:
                m = row >> cursor
                if not m:
                    break
                j = cursor + (m & -m).bit_length() - 1
                state = color[j]
                if state == 1:  # back edge
                    row &= ~(1 << j)
                    cursor = j + 1
                elif state == 2:
                    cursor = j + 1
                else:
                    rows[node] = row
                    cursors[-1] = j + 1
                    color[j] = 1
                    nodes.append(j)
                    cursors.append(0)
                    descended = True
                    break
            if not descended:
                rows[node] = row
                color[node] = 2
                nodes.pop()
                cursors.pop()
    return rows


def normalize_rows(rows: Sequence[int]) -> list[int]:
    """Zero the diagonal, break cycles, and transitively reduce."""
    return reduce_rows(break_cycles_rows(rows))


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
            while m:
                j = (m & -m).bit_length() - 1
                seen |= 1 << j
                stack.append(j)
                m &= m - 1
        return False

    path = [start]
    visited = 1 << start
    node = start
    while True:
        if (rows[node] >> start) & 1:
            return path
        m = rows[node] & ~visited
        while m:
            j = (m & -m).bit_length() - 1
            if reaches(j, visited):
                path.append(j)
                visited |= 1 << j
                node = j
                break
            m &= m - 1
        else:
            raise RuntimeError("cycle search lost its witness")


# ---------------------------------------------------------------------------
# Plan-level operations
# ---------------------------------------------------------------------------


def _check_index(index: int, size: int) -> None:
    if not 1 <= index <= size:
        raise IndexOutOfRange(index, size)


def validate_dag(plan: Plan) -> None:
    """Raise ShapeError on a nonzero diagonal, CycleError on a cycle."""
    if plan.order is not None:
        return
    rows = plan.rows()
    for i in range(plan.size):
        if (rows[i] >> i) & 1:
            raise ShapeError(f"diagonal entry at step {i + 1} must be zero")
    raise _cycle_error(rows)


def _cycle_error(rows: Sequence[int]) -> CycleError:
    return CycleError([i + 1 for i in find_cycle_rows(rows) or []])


def frontier(plan: Plan, done: Iterable[int]) -> tuple[int, ...]:
    """Unfinished steps whose predecessors are all in `done`, ascending."""
    done_set = set(done)
    for index in done_set:
        _check_index(index, plan.size)
    preds = _pred_rows(plan.rows())
    done_mask = 0
    for index in done_set:
        done_mask |= 1 << (index - 1)
    return tuple(
        j + 1 for j in range(plan.size) if not (done_mask >> j) & 1 and not (preds[j] & ~done_mask)
    )


def execution_order(plan: Plan) -> list[int]:
    """Concatenation of successive frontiers; a valid topological order."""
    if plan.order is None:
        raise _cycle_error(plan.rows())
    return list(plan.order)


def transitive_reduce(plan: Plan) -> Plan:
    """Minimal edge set with the same reachability; unique because acyclic."""
    validate_dag(plan)
    reduced = reduce_rows(plan.rows())
    return Plan(plan.steps, _rows_to_matrix(reduced, plan.size))


def normalize(plan: Plan) -> Plan:
    """Make the plan executable: zero diagonal, break cycles, reduce."""
    rows = normalize_rows(plan.rows())
    return Plan(plan.steps, _rows_to_matrix(rows, plan.size))


def linear_chain(steps: Sequence[PlanStep]) -> Plan:
    """The steps run in sequence: the dependency chain 1 -> 2 -> ... -> N."""
    n = len(steps)
    return Plan(tuple(steps), tuple(tuple(1 if j == i + 1 else 0 for j in range(n)) for i in range(n)))


_JUDGE_WORDS = ("judge", "judgment", "judgement", "decide", "final answer", "adjudicate")


def is_judgment(content: str) -> bool:
    """Whether a step's content asks for the final judgment of the question."""
    low = content.lower()
    return any(word in low for word in _JUDGE_WORDS)


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


@dataclass(frozen=True, slots=True)
class Merge(EditOp):
    p: int
    q: int


@dataclass(frozen=True, slots=True)
class InsertGuard(EditOp):
    k: int
    content: str | None = None


def _drop_bit(mask: int, position: int) -> int:
    low = mask & ((1 << position) - 1)
    high = mask >> (position + 1)
    return low | (high << position)


def _insert_zero_bit(mask: int, position: int) -> int:
    low = mask & ((1 << position) - 1)
    high = mask >> position
    return low | (high << (position + 1))


def apply_edits(plan: Plan, edits: Iterable[EditOp]) -> Plan:
    """Apply edits sequentially, then normalize.

    Merge(p, q) folds step q into p: contents concatenate (p first),
    predecessors and successors union onto p, q is deleted and ids are
    renumbered. InsertGuard(k) places a guard step directly after k that
    intercepts all of k's outgoing edges; one that would take the plan past
    MAX_STEPS raises ShapeError.
    """
    steps: list[PlanStep] = list(plan.steps)
    rows: list[int] = plan.rows()

    for edit in edits:
        n = len(steps)
        if isinstance(edit, AddEdge):
            _check_index(edit.i, n)
            _check_index(edit.j, n)
            rows[edit.i - 1] |= 1 << (edit.j - 1)
        elif isinstance(edit, DelEdge):
            _check_index(edit.i, n)
            _check_index(edit.j, n)
            rows[edit.i - 1] &= ~(1 << (edit.j - 1))
        elif isinstance(edit, Merge):
            if edit.p == edit.q:
                raise MergeSelf(f"cannot merge step {edit.p} with itself")
            _check_index(edit.p, n)
            _check_index(edit.q, n)
            pi, qi = edit.p - 1, edit.q - 1
            merged = PlanStep(
                id=edit.p,
                content=f"{steps[pi].content}; {steps[qi].content}",
                kind=steps[pi].kind,
            )
            rows[pi] |= rows[qi]
            q_bit = 1 << qi
            p_bit = 1 << pi
            for i in range(n):
                if rows[i] & q_bit:
                    rows[i] |= p_bit
            rows[pi] &= ~p_bit
            del rows[qi]
            rows = [_drop_bit(mask, qi) for mask in rows]
            steps[pi] = merged
            del steps[qi]
        elif isinstance(edit, InsertGuard):
            _check_index(edit.k, n)
            if n >= MAX_STEPS:
                raise ShapeError(f"a guard after step {edit.k} would exceed {MAX_STEPS} steps")
            ki = edit.k - 1
            gi = ki + 1
            old_succ = rows[ki]
            rows = [_insert_zero_bit(mask, gi) for mask in rows]
            rows[ki] = 1 << gi
            rows.insert(gi, _insert_zero_bit(old_succ, gi))
            content = edit.content or f"verify dependencies of step {edit.k}"
            steps.insert(gi, PlanStep(id=gi + 1, content=content, kind="guard"))
        else:
            raise TypeError(f"unknown edit operator: {edit!r}")

    renumbered = tuple(PlanStep(id=index + 1, content=s.content, kind=s.kind) for index, s in enumerate(steps))
    return Plan(renumbered, _rows_to_matrix(normalize_rows(rows), len(steps)))


# ---------------------------------------------------------------------------
# JSON document form (matching the planner stage wire format)
# ---------------------------------------------------------------------------

_PLAN_TOP_KEYS = {"Plan", "Matrix"}
_STEP_KEYS = {"content", "kind"}


def plan_from_json(doc: Any) -> Plan:
    """Parse {"Plan": {"1": {"content": ...}, ...}, "Matrix": [[...], ...]}.

    Matrix entries must be the integers 0 or 1 (booleans rejected); the matrix
    must be square with side equal to the step count.
    """
    if not isinstance(doc, dict):
        raise SchemaError("", "expected object")
    unknown = set(doc) - _PLAN_TOP_KEYS
    if unknown:
        raise SchemaError(f"/{sorted(unknown)[0]}", "unknown field")
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
        entry = raw_steps[str(i)]
        pointer = f"/Plan/{i}"
        if not isinstance(entry, dict):
            raise SchemaError(pointer, "expected object")
        unknown = set(entry) - _STEP_KEYS
        if unknown:
            raise SchemaError(f"{pointer}/{sorted(unknown)[0]}", "unknown field")
        content = entry.get("content")
        if not isinstance(content, str) or not content:
            raise SchemaError(f"{pointer}/content", "expected nonempty string")
        kind = entry.get("kind", "inference")
        if kind not in STEP_KINDS:
            raise SchemaError(f"{pointer}/kind", f"expected one of {STEP_KINDS}")
        steps.append(PlanStep(id=i, content=content, kind=kind))
    raw_matrix = doc["Matrix"]
    if not isinstance(raw_matrix, list):
        raise SchemaError("/Matrix", "expected array")
    if len(raw_matrix) != n:
        raise MatrixShapeMismatch(f"matrix has {len(raw_matrix)} rows for {n} steps")
    matrix = []
    for i, row in enumerate(raw_matrix):
        if not isinstance(row, list):
            raise SchemaError(f"/Matrix/{i}", "expected array")
        if len(row) != n:
            raise MatrixShapeMismatch(f"matrix row {i + 1} has {len(row)} entries for {n} steps")
        for j, value in enumerate(row):
            if isinstance(value, bool) or not isinstance(value, int) or value not in (0, 1):
                raise SchemaError(f"/Matrix/{i}/{j}", "entries must be the integers 0 or 1")
        matrix.append(tuple(row))
    return Plan(tuple(steps), tuple(matrix))


def plan_to_json(plan: Plan) -> dict[str, Any]:
    step_doc: dict[str, Any] = {}
    for step in plan.steps:
        entry: dict[str, Any] = {"content": step.content}
        if step.kind != "inference":
            entry["kind"] = step.kind
        step_doc[str(step.id)] = entry
    return {"Plan": step_doc, "Matrix": [list(row) for row in plan.matrix]}
