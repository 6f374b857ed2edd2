import itertools
import json
import random

import pytest

from helpers import (
    kahn_layers_reference,
    plan_from_matrix,
    predecessors,
    random_dag_matrix,
    random_digraph_matrix,
    reachability_by_squaring,
    successors,
)
from proofplan.errors import SchemaError
from proofplan.plan import (
    AddEdge,
    CycleError,
    DelEdge,
    IndexOutOfRange,
    InsertGuard,
    MatrixShapeMismatch,
    Merge,
    MergeSelf,
    Plan,
    PlanStep,
    ShapeError,
    apply_edits,
    duplicate_content,
    execution_order,
    frontier,
    normalize,
    plan_from_json,
    plan_to_json,
    transitive_reduce,
    validate_dag,
)


def chain(n: int) -> Plan:
    matrix = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    return plan_from_matrix(matrix)


def edges_plan(n: int, edges) -> Plan:
    matrix = [[0] * n for _ in range(n)]
    for i, j in edges:
        matrix[i - 1][j - 1] = 1
    return plan_from_matrix(matrix)


# An 11-step planner-style output whose first row unlocks steps 2..8.
DENSE_ROW_1 = [0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0]


def dense_stage_plan() -> Plan:
    matrix = []
    for i in range(11):
        row = [0] * 11
        if i < 7:
            for j in range(i + 1, 8):
                row[j] = 1
        elif i < 10:
            row[i + 1] = 1
        matrix.append(row)
    assert matrix[0] == DENSE_ROW_1
    return plan_from_matrix(matrix)


def test_pred_succ_on_dense_row():
    plan = dense_stage_plan()
    assert successors(plan, 1) == {2, 3, 4, 5, 6, 7, 8}
    assert predecessors(plan, 1) == set()
    assert successors(plan, 11) == set()
    assert predecessors(plan, 9) == {8}


def test_validate_dag():
    validate_dag(edges_plan(3, [(1, 2), (2, 3)]))
    with pytest.raises(CycleError) as exc:
        validate_dag(edges_plan(2, [(1, 2), (2, 1)]))
    assert exc.value.cycle == [1, 2]
    validate_dag(dense_stage_plan())


def test_validate_dag_reports_lexicographically_smallest_cycle():
    # two cycles: [2, 3] and [2, 4]; the witness must be [2, 3]
    plan = edges_plan(4, [(2, 3), (3, 2), (2, 4), (4, 2)])
    with pytest.raises(CycleError) as exc:
        validate_dag(plan)
    assert exc.value.cycle == [2, 3]


def test_validate_dag_shape_error_on_diagonal():
    plan = plan_from_matrix([[1]])
    with pytest.raises(ShapeError):
        validate_dag(plan)


def test_frontier_chain_and_diamond():
    plan = chain(3)
    assert frontier(plan, set()) == (1,)
    assert frontier(plan, {1}) == (2,)
    diamond = edges_plan(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert frontier(diamond, {1, 2}) == (3,)


def test_frontier_matches_brute_force_on_diamond():
    diamond = edges_plan(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    preds = {j: predecessors(diamond, j) for j in range(1, 5)}
    for size in range(5):
        for done in map(set, itertools.combinations(range(1, 5), size)):
            expected = tuple(sorted(j for j in range(1, 5) if j not in done and preds[j] <= done))
            assert frontier(diamond, done) == expected


def test_execution_order_examples():
    assert execution_order(chain(3)) == [1, 2, 3]
    assert execution_order(edges_plan(2, [(2, 1)])) == [2, 1]
    order = execution_order(dense_stage_plan())
    assert order[0] == 1 and order[-1] == 11
    with pytest.raises(CycleError):
        execution_order(edges_plan(2, [(1, 2), (2, 1)]))


def test_execution_order_is_layered_not_greedy():
    # 1 -> 2 with free nodes 3 and 4: the whole first frontier runs before 2
    plan = edges_plan(4, [(1, 2)])
    assert execution_order(plan) == [1, 3, 4, 2]


def test_transitive_reduce_examples():
    plan = edges_plan(3, [(1, 2), (2, 3), (1, 3)])
    assert set(transitive_reduce(plan).edges()) == {(1, 2), (2, 3)}
    reduced = transitive_reduce(chain(4))
    assert reduced.matrix == chain(4).matrix
    assert transitive_reduce(reduced).matrix == reduced.matrix


def test_transitive_reduce_preserves_reachability_random():
    rng = random.Random(7)
    for _ in range(60):
        matrix = random_dag_matrix(rng, rng.randint(1, 8))
        plan = plan_from_matrix(matrix)
        reduced = transitive_reduce(plan)
        assert reachability_by_squaring(reduced.matrix) == reachability_by_squaring(matrix)
        assert transitive_reduce(reduced).matrix == reduced.matrix


def test_normalize_acyclic_equals_reduce():
    plan = edges_plan(3, [(1, 2), (2, 3), (1, 3)])
    assert normalize(plan).matrix == transitive_reduce(plan).matrix


def test_normalize_breaks_two_cycle_dropping_back_edge():
    plan = edges_plan(2, [(1, 2), (2, 1)])
    out = normalize(plan)
    assert set(out.edges()) == {(1, 2)}


def test_normalize_zeroes_diagonal():
    plan = plan_from_matrix([[1, 1], [0, 0]])
    out = normalize(plan)
    assert set(out.edges()) == {(1, 2)}
    validate_dag(out)


def test_normalize_exhaustive_small_digraphs():
    # all digraphs on up to 3 nodes: output acyclic, executable, idempotent
    for n in (1, 2, 3):
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in range(1 << len(cells)):
            matrix = [[0] * n for _ in range(n)]
            for k, (i, j) in enumerate(cells):
                if (bits >> k) & 1:
                    matrix[i][j] = 1
            plan = plan_from_matrix(matrix)
            out = normalize(plan)
            validate_dag(out)
            assert len(execution_order(out)) == n
            assert normalize(out).matrix == out.matrix


def test_apply_edits_add_transitive_edge_then_normalize():
    plan = chain(3)
    out = apply_edits(plan, [AddEdge(1, 3)])
    assert set(out.edges()) == {(1, 2), (2, 3)}


def test_apply_edits_del_edge():
    plan = chain(3)
    out = apply_edits(plan, [DelEdge(1, 2)])
    assert set(out.edges()) == {(2, 3)}


def test_apply_edits_empty_equals_normalize():
    plan = edges_plan(3, [(1, 2), (2, 3), (1, 3)])
    assert apply_edits(plan, []).matrix == normalize(plan).matrix


def test_merge_on_chain():
    plan = chain(4)
    out = apply_edits(plan, [Merge(2, 3)])
    assert out.size == 3
    assert [s.content for s in out.steps] == ["step 1", "step 2; step 3", "step 4"]
    assert set(out.edges()) == {(1, 2), (2, 3)}


def merge_remap(i: int, p: int, q: int) -> int:
    """Id of original step i after Merge(p, q): q folds into p, and ids above q shift down."""
    target = p if i == q else i
    return target - 1 if target > q else target


def test_merge_preserves_outside_reachability():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(3, 7)
        plan = plan_from_matrix(random_dag_matrix(rng, n))
        p, q = rng.sample(range(1, n + 1), 2)
        merged = apply_edits(plan, [Merge(p, q)])
        before = reachability_by_squaring(plan.matrix)
        after = reachability_by_squaring(merged.matrix)
        survivors = [i for i in range(1, n + 1) if i not in (p, q)]
        for a in survivors:
            for b in survivors:
                if a == b:
                    continue
                # reachability between surviving steps may grow through the
                # merged node but never shrinks
                if before[a - 1][b - 1]:
                    assert after[merge_remap(a, p, q) - 1][merge_remap(b, p, q) - 1]


def test_merge_self_rejected():
    with pytest.raises(MergeSelf):
        apply_edits(chain(3), [Merge(2, 2)])


def test_insert_guard():
    plan = chain(3)
    out = apply_edits(plan, [InsertGuard(2, "verify premises used")])
    assert out.size == 4
    guard = out.steps[2]
    assert guard.kind == "guard" and guard.content == "verify premises used"
    assert set(out.edges()) == {(1, 2), (2, 3), (3, 4)}
    assert [s.content for s in out.steps] == ["step 1", "step 2", "verify premises used", "step 3"]


def test_insert_guard_default_content():
    out = apply_edits(chain(2), [InsertGuard(1)])
    assert out.steps[1].content == "verify dependencies of step 1"


def test_apply_edits_index_bounds():
    with pytest.raises(IndexOutOfRange):
        apply_edits(chain(2), [AddEdge(1, 5)])


def test_apply_edits_sequential_indices():
    # after the merge shrinks the plan, edit indices address the new numbering
    plan = chain(4)
    out = apply_edits(plan, [Merge(2, 3), AddEdge(1, 3)])
    assert out.size == 3
    assert (1, 3) not in set(out.edges())  # transitively implied, normalized away


def test_added_edges_stay_reachable_unless_cyclic():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(2, 8)
        plan = plan_from_matrix(random_dag_matrix(rng, n))
        i, j = rng.sample(range(1, n + 1), 2)
        before = reachability_by_squaring(plan.matrix)
        if before[j - 1][i - 1]:
            continue  # the new edge would close a cycle; normalize may drop it
        out = apply_edits(plan, [AddEdge(i, j)])
        after = reachability_by_squaring(out.matrix)
        assert after[i - 1][j - 1]


def test_duplicate_content_reported():
    steps = (
        PlanStep(1, "collect facts"),
        PlanStep(2, "judge"),
        PlanStep(3, "collect facts"),
    )
    plan = Plan(steps, ((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    assert duplicate_content(plan) == [(1, 3)]


def test_plan_json_round_trip():
    plan = apply_edits(chain(3), [InsertGuard(2)])
    doc = plan_to_json(plan)
    again = plan_from_json(doc)
    assert again.steps == plan.steps
    assert again.matrix == plan.matrix


def test_plan_json_validation():
    good = {"Plan": {"1": {"content": "a"}, "2": {"content": "b"}}, "Matrix": [[0, 1], [0, 0]]}
    plan_from_json(good)
    with pytest.raises(MatrixShapeMismatch):
        plan_from_json({"Plan": good["Plan"], "Matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]})
    with pytest.raises(SchemaError):
        plan_from_json({"Plan": good["Plan"], "Matrix": [[0, 2], [0, 0]]})
    with pytest.raises(SchemaError):
        plan_from_json({"Plan": good["Plan"], "Matrix": [[False, True], [False, False]]})
    with pytest.raises(SchemaError):
        plan_from_json({"Plan": {"1": {"content": "a"}, "3": {"content": "b"}}, "Matrix": [[0, 0], [0, 0]]})
    with pytest.raises(SchemaError):
        plan_from_json({"Plan": good["Plan"], "Matrix": [[0, 1], [0, 0]], "Extra": 1})


def test_plan_constructor_validation():
    with pytest.raises(ShapeError):
        Plan((PlanStep(1, "a"),), ((0, 1),))
    with pytest.raises(ShapeError):
        Plan((PlanStep(2, "a"),), ((0,),))
    with pytest.raises(ValueError):
        PlanStep(1, "")


def test_execution_order_matches_reference_on_random_dags():
    rng = random.Random(99)
    for _ in range(200):
        matrix = random_dag_matrix(rng, rng.randint(1, 10))
        plan = plan_from_matrix(matrix)
        assert execution_order(plan) == kahn_layers_reference(matrix)


def test_frontier_trajectory_respects_dependencies():
    rng = random.Random(5)
    for _ in range(50):
        matrix = random_dag_matrix(rng, rng.randint(1, 9))
        plan = plan_from_matrix(matrix)
        done: set[int] = set()
        position: dict[int, int] = {}
        clock = 0
        while len(done) < plan.size:
            layer = frontier(plan, done)
            assert layer
            for step in layer:
                position[step] = clock
                assert all(position[p] < clock for p in predecessors(plan, step))
            clock += 1
            done.update(layer)


def test_normalize_random_digraphs_always_executable():
    rng = random.Random(13)
    for _ in range(300):
        matrix = random_digraph_matrix(rng, rng.randint(1, 8), p=0.4)
        out = normalize(plan_from_matrix(matrix))
        validate_dag(out)
        assert len(execution_order(out)) == out.size
        assert normalize(out).matrix == out.matrix


def test_plan_json_matches_wire_shape():
    plan = chain(2)
    assert json.loads(json.dumps(plan_to_json(plan))) == {
        "Plan": {"1": {"content": "step 1"}, "2": {"content": "step 2"}},
        "Matrix": [[0, 1], [0, 0]],
    }
