import dataclasses
import json
import random

import pytest

from helpers import (
    kahn_layers_reference,
    normalized_plan,
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
    Plan,
    PlanStep,
    ShapeError,
    apply_edits,
    duplicate_content,
    normalize_rows,
    plan_from_json,
    plan_to_json,
    transitive_reduce,
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


def _matrix_doc(matrix) -> dict:
    return {"Plan": {str(i): {"content": f"step {i}"} for i in range(1, len(matrix) + 1)}, "Matrix": matrix}


def test_validate_dag():
    # the constructor and `plan_from_json` both accept a DAG and reject a cycle
    edges_plan(3, [(1, 2), (2, 3)])
    for build in (plan_from_matrix, lambda matrix: plan_from_json(_matrix_doc(matrix))):
        with pytest.raises(CycleError) as exc:
            build([[0, 1], [1, 0]])
        assert exc.value.cycle == [1, 2]
    dense_stage_plan()


def test_validate_dag_reports_lexicographically_smallest_cycle():
    # two cycles: [2, 3] and [2, 4]; the witness must be [2, 3]
    with pytest.raises(CycleError) as exc:
        edges_plan(4, [(2, 3), (3, 2), (2, 4), (4, 2)])
    assert exc.value.cycle == [2, 3]
    with pytest.raises(CycleError) as exc:
        plan_from_json(_matrix_doc([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 1, 0, 0]]))
    assert exc.value.cycle == [2, 3]


def test_validate_dag_shape_error_on_diagonal():
    for build in (plan_from_matrix, lambda matrix: plan_from_json(_matrix_doc(matrix))):
        with pytest.raises(ShapeError, match="^diagonal entry at step 1 must be zero$"):
            build([[1]])
        # a diagonal entry is a ShapeError even when the plan has a longer cycle too
        with pytest.raises(ShapeError, match="^diagonal entry at step 2 must be zero$"):
            build([[0, 1], [1, 1]])


def test_execution_order_examples():
    assert list(chain(3).order) == [1, 2, 3]
    assert list(edges_plan(2, [(2, 1)]).order) == [2, 1]
    order = list(dense_stage_plan().order)
    assert order[0] == 1 and order[-1] == 11
    with pytest.raises(CycleError):
        edges_plan(2, [(1, 2), (2, 1)])


def test_execution_order_is_layered_not_greedy():
    # 1 -> 2 with free nodes 3 and 4: the whole first frontier runs before 2
    plan = edges_plan(4, [(1, 2)])
    assert list(plan.order) == [1, 3, 4, 2]


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
    assert Plan(plan.steps, normalize_rows(plan.rows)).matrix == transitive_reduce(plan).matrix


def test_normalize_breaks_two_cycle_dropping_back_edge():
    out = normalized_plan([[0, 1], [1, 0]])
    assert set(out.edges()) == {(1, 2)}


def test_normalize_zeroes_diagonal():
    out = normalized_plan([[1, 1], [0, 0]])  # building it checks that it is a DAG
    assert set(out.edges()) == {(1, 2)}


def test_normalize_exhaustive_small_digraphs():
    # all digraphs on up to 3 nodes: output acyclic, executable, idempotent
    for n in (1, 2, 3):
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in range(1 << len(cells)):
            matrix = [[0] * n for _ in range(n)]
            for k, (i, j) in enumerate(cells):
                if (bits >> k) & 1:
                    matrix[i][j] = 1
            out = normalized_plan(matrix)  # building it checks that it is a DAG
            assert len(out.order) == n
            assert Plan(out.steps, normalize_rows(out.rows)).matrix == out.matrix


def test_plan_builds_exactly_the_acyclic_matrices():
    # every 0/1 matrix on up to 3 nodes, diagonal included: a DAG builds with
    # the reference order, a diagonal entry is a ShapeError, any other cycle a
    # CycleError whose witness is a cycle of the matrix
    for n in range(4):
        for bits in range(1 << (n * n)):
            matrix = [[(bits >> (i * n + j)) & 1 for j in range(n)] for i in range(n)]
            diagonal = [i + 1 for i in range(n) if matrix[i][i]]
            try:
                plan = plan_from_matrix(matrix)
            except ShapeError as err:
                assert diagonal and str(err) == f"diagonal entry at step {diagonal[0]} must be zero"
                continue
            except CycleError as err:
                assert not diagonal and kahn_layers_reference(matrix) is None
                cycle = err.cycle
                assert len(cycle) == len(set(cycle)) >= 2
                assert all(matrix[a - 1][b - 1] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
                continue
            assert plan.order == tuple(kahn_layers_reference(matrix))
    # a plan's rows cannot be swapped for cyclic ones after it is built
    with pytest.raises(CycleError):
        dataclasses.replace(chain(2), rows=(0b10, 0b01))
    with pytest.raises(ShapeError):
        dataclasses.replace(chain(2), rows=(0b11, 0))


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
    assert apply_edits(plan, []).matrix == Plan(plan.steps, normalize_rows(plan.rows)).matrix


def test_judgment_is_the_first_judgment_kind_step_in_execution_order():
    steps = tuple(PlanStep(i, f"s{i}") for i in range(1, 5))
    # execution order 2, 4, 3, 1
    matrix = ((0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0))
    assert plan_from_matrix(matrix, steps).judgment == 1  # no judgment kind: the last step in execution order
    judged = (steps[0], PlanStep(2, "s2", kind="judgment"), steps[2], PlanStep(4, "s4", kind="judgment"))
    assert plan_from_matrix(matrix, judged).judgment == 2
    assert plan_from_matrix(matrix, judged[:1] + (steps[1],) + judged[2:]).judgment == 4
    with pytest.raises(CycleError):  # a cycle has no execution order, so it is no plan
        plan_from_matrix(((0, 1), (1, 0)), steps[:2])
    assert Plan((), ()).judgment is None  # only a plan without steps has no judgment


def test_apply_edits_index_bounds():
    with pytest.raises(ShapeError, match=r"step index 5 out of range 1\.\.2"):
        apply_edits(chain(2), [AddEdge(1, 5)])


def test_added_edges_stay_reachable_unless_cyclic():
    rng, edit_rng = random.Random(77), random.Random(78)
    for _ in range(60):
        n = rng.randint(2, 8)
        steps = tuple(PlanStep(k, f"step {k}", "judgment" if k == n else "inference", (k,)) for k in range(1, n + 1))
        plan = plan_from_matrix(random_dag_matrix(rng, n), steps)
        # edge edits never touch the steps: ids, kinds and citations stay put
        edits = [
            edit_rng.choice((AddEdge, DelEdge))(edit_rng.randint(1, n), edit_rng.randint(1, n))
            for _ in range(edit_rng.randint(0, 6))
        ]
        assert apply_edits(plan, edits).steps == plan.steps
        i, j = rng.sample(range(1, n + 1), 2)
        before = reachability_by_squaring(plan.matrix)
        if before[j - 1][i - 1]:
            continue  # the new edge would close a cycle; normalize_rows may drop it
        out = apply_edits(plan, [AddEdge(i, j)])
        after = reachability_by_squaring(out.matrix)
        assert after[i - 1][j - 1]


def test_duplicate_content_reported():
    steps = (
        PlanStep(1, "collect facts"),
        PlanStep(2, "judge"),
        PlanStep(3, "collect facts"),
    )
    plan = plan_from_matrix(((0, 1, 0), (0, 0, 1), (0, 0, 0)), steps)
    assert duplicate_content(plan) == [(1, 3)]


def _judged_chain() -> Plan:
    """A three-step chain whose steps cite statements and end in a judgment, so every field has a non-default value."""
    steps = (PlanStep(1, "step 1", uses=(1, 3)), PlanStep(2, "step 2", uses=(2,)), PlanStep(3, "judge", "judgment"))
    return Plan(steps, chain(3).rows)


def test_plan_json_round_trip():
    plan = _judged_chain()
    doc = plan_to_json(plan)
    again = plan_from_json(doc)
    assert again.steps == plan.steps
    assert again.matrix == plan.matrix


def test_plan_text_is_compact_plan_json_then_the_execution_order():
    cited = plan_from_matrix(
        ((0, 1), (0, 0)),
        (PlanStep(1, "Sammle die Fakten (∀x).", uses=(2, 1)), PlanStep(2, "Urteile.", "judgment")),
    )
    for plan in (_judged_chain(), cited):
        head, _, order = plan.text.partition("\n")
        assert plan_from_json(json.loads(head)) == plan
        assert order == "Execution order: " + ", ".join(str(i) for i in plan.order)


def test_plan_json_validation():
    good = {"Plan": {"1": {"content": "a"}, "2": {"content": "b"}}, "Matrix": [[0, 1], [0, 0]]}
    plan_from_json(good)
    with pytest.raises(SchemaError, match="/Matrix: 3 rows for 2 steps"):
        plan_from_json({"Plan": good["Plan"], "Matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]})
    with pytest.raises(SchemaError):
        plan_from_json({"Plan": good["Plan"], "Matrix": [[0, 2], [0, 0]]})
    with pytest.raises(SchemaError):
        plan_from_json({"Plan": good["Plan"], "Matrix": [[False, True], [False, False]]})
    with pytest.raises(SchemaError):
        plan_from_json({"Plan": {"1": {"content": "a"}, "3": {"content": "b"}}, "Matrix": [[0, 0], [0, 0]]})
    with pytest.raises(SchemaError):
        plan_from_json({"Plan": good["Plan"], "Matrix": [[0, 1], [0, 0]], "Extra": 1})


def test_plan_json_reads_and_writes_citations_and_the_judgment_kind():
    doc = {
        "Plan": {"1": {"content": "a", "uses": [2, 1]}, "2": {"content": "b", "kind": "judgment"}},
        "Matrix": [[0, 1], [0, 0]],
    }
    plan = plan_from_json(doc)
    assert plan.steps == (PlanStep(1, "a", uses=(2, 1)), PlanStep(2, "b", kind="judgment"))
    assert plan_to_json(plan) == doc
    # an empty citation list is the same as none, and is not written
    bare = {"Plan": {"1": {"content": "a", "uses": []}}, "Matrix": [[0]]}
    assert plan_to_json(plan_from_json(bare)) == {"Plan": {"1": {"content": "a"}}, "Matrix": [[0]]}
    for uses, pointer in [(1, "/Plan/1/uses"), ({"1": 1}, "/Plan/1/uses"), ([True], "/Plan/1/uses/0"),
                          ([1, 0], "/Plan/1/uses/1"), ([-2], "/Plan/1/uses/0"), ([1.0], "/Plan/1/uses/0")]:
        with pytest.raises(SchemaError) as err:
            plan_from_json({"Plan": {"1": {"content": "a", "uses": uses}}, "Matrix": [[0]]})
        assert err.value.pointer == pointer
    with pytest.raises(SchemaError, match="/Plan/1/kind"):
        plan_from_json({"Plan": {"1": {"content": "a", "kind": "verdict"}}, "Matrix": [[0]]})


def test_plan_constructor_validation():
    one, two = (PlanStep(1, "a"),), (PlanStep(1, "a"), PlanStep(2, "b"))
    with pytest.raises(ShapeError, match="contiguous"):
        Plan((PlanStep(2, "a"),), (0,))
    for steps, rows in [
        (one, (2,)),  # bit 1 names a second step the plan lacks
        (two, (4, 0)),
        (two, (True, 0)),
        (two, (-1, 0)),
        (two, ((0, 1), (0, 0))),  # a matrix row, not a bitmask
        (two, (1.0, 0)),
        (two, (0,)),
        (two, (0, 0, 0)),
        (one, ()),
    ]:
        with pytest.raises(ShapeError):
            Plan(steps, rows)
    # a diagonal bit is a ShapeError; `normalize_rows` clears it from rows a plan is then built from
    with pytest.raises(ShapeError, match="diagonal entry at step 1 must be zero"):
        Plan(two, (1, 0))
    assert Plan(two, normalize_rows((1, 0))).matrix == ((0, 0), (0, 0))
    assert Plan(two, [2, 0]).rows == (2, 0)
    assert Plan((), ()).matrix == () and Plan((), ()).order == ()
    with pytest.raises(ValueError):
        PlanStep(1, "")


def test_plan_holds_rows_and_derives_its_matrix():
    plan = edges_plan(3, [(1, 2), (1, 3), (3, 2)])
    assert plan.rows == (0b110, 0, 0b010)
    assert plan.matrix == ((0, 1, 1), (0, 0, 0), (0, 1, 0))
    assert plan.edges() == [(1, 2), (1, 3), (3, 2)]
    assert [f.name for f in dataclasses.fields(Plan)] == ["steps", "rows"]
    with pytest.raises(AttributeError):
        plan.matrix = ((0, 0, 0),) * 3
    assert plan_from_json(plan_to_json(plan)) == plan


def test_apply_edits_breaks_a_new_cycle_at_its_back_edge():
    # 2 -> 1 and 1 -> 3, then 1 -> 2: the search from step 1 enters 2 first,
    # so 2 -> 1 is its back edge and goes
    plan = edges_plan(3, [(2, 1), (1, 3)])
    assert set(apply_edits(plan, [AddEdge(1, 2)]).edges()) == {(1, 2), (1, 3)}


def test_normalize_breaks_a_three_cycle_at_its_back_edge():
    plan = normalized_plan([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert set(plan.edges()) == {(1, 2), (2, 3)}


def test_execution_order_matches_reference_on_random_dags():
    rng = random.Random(99)
    for _ in range(200):
        matrix = random_dag_matrix(rng, rng.randint(1, 10))
        plan = plan_from_matrix(matrix)
        assert list(plan.order) == kahn_layers_reference(matrix)


def test_normalize_random_digraphs_always_executable():
    rng = random.Random(13)
    for _ in range(300):
        matrix = random_digraph_matrix(rng, rng.randint(1, 8), p=0.4)
        out = normalized_plan(matrix)  # building it checks that it is a DAG
        assert len(out.order) == out.size
        assert Plan(out.steps, normalize_rows(out.rows)).matrix == out.matrix


def test_plan_json_matches_wire_shape():
    plan = chain(2)
    assert json.loads(json.dumps(plan_to_json(plan))) == {
        "Plan": {"1": {"content": "step 1"}, "2": {"content": "step 2"}},
        "Matrix": [[0, 1], [0, 0]],
    }
