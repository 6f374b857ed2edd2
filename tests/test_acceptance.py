"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every expected value is either computed by an independent oracle inside the
test (matrix-squaring reachability, layered indegree scheduling, model
enumeration) or asserted exactly as fixed by the bundled fixtures.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from helpers import (
    is_cycle_of,
    kahn_layers_reference,
    plan_from_matrix,
    random_dag_matrix,
    random_formula,
    random_horn_kb,
    ground_literal_queries,
    reachability_by_squaring,
)
from proofplan.backends import ScriptedBackend, SolverStubBackend
from proofplan.fol import parse_formula, render_formula
from proofplan.harness import HarnessConfig, evaluate, load_dataset
from proofplan.pipeline import PipelineConfig, Problem, run_pipeline, trace_to_doc
from proofplan.plan import (
    CycleError,
    Plan,
    PlanStep,
    layered_order_rows,
    reduce_rows,
    transitive_reduce,
)
from proofplan.solver import (
    brute_force_entails,
    decide,
    forward_chain,
    kb_from_repr,
    literal_to_formula,
)
from proofplan.structured import build_repr

DATA = Path(__file__).parent / "data"
FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}  ({time.perf_counter() - started:.2f}s)")


def matrix_of(rows, n) -> list[list[int]]:
    return [[(rows[i] >> j) & 1 for j in range(n)] for i in range(n)]


def closure_from_rows(rows) -> tuple[int, ...]:
    """Independent reachability oracle: repeated squaring on int rows."""
    n = len(rows)
    reach = list(rows)
    while True:
        step = list(reach)
        for i in range(n):
            acc = reach[i]
            m = reach[i]
            while m:
                k = (m & -m).bit_length() - 1
                acc |= reach[k]
                m &= m - 1
            step[i] = acc
        if step == reach:
            return tuple(reach)
        reach = step


def test_criterion_1_plan_algebra_oracle_equivalence():
    with criterion("criterion-1 plan-algebra oracle equivalence"):
        started = time.perf_counter()

        # Every digraph on up to 4 nodes, through the public Plan API: a DAG
        # builds and reduces as the oracle says; a cyclic one raises CycleError
        # with a cycle of the graph as its witness.
        for n in (1, 2, 3, 4):
            cells = [(i, j) for i in range(n) for j in range(n) if i != j]
            for bits in range(1 << len(cells)):
                matrix = [[0] * n for _ in range(n)]
                for k, (i, j) in enumerate(cells):
                    if (bits >> k) & 1:
                        matrix[i][j] = 1
                oracle = reachability_by_squaring(matrix)
                cyclic = any(oracle[i][i] for i in range(n))
                try:
                    plan = plan_from_matrix(matrix)
                except CycleError as err:
                    assert cyclic and is_cycle_of(err.cycle, matrix)
                    continue
                assert not cyclic and plan.order == tuple(kahn_layers_reference(matrix))
                reduced = transitive_reduce(plan)
                assert reachability_by_squaring(reduced.matrix) == oracle
                assert transitive_reduce(reduced) is reduced

        # Every digraph on 5 nodes, through the row-level core that the Plan
        # operations wrap: there is no execution order exactly when the
        # squaring oracle shows a node reaching itself, and every DAG reduces
        # to a DAG with the same reachability that does not reduce further.
        n = 5
        lut = []
        for i in range(n):
            columns = [j for j in range(n) if j != i]
            table = []
            for nibble in range(16):
                bits = 0
                for b in range(4):
                    if (nibble >> b) & 1:
                        bits |= 1 << columns[b]
                table.append(bits)
            lut.append(table)
        l0, l1, l2, l3, l4 = lut

        def graph(g: int) -> tuple[int, ...]:
            return l0[g & 15], l1[(g >> 4) & 15], l2[(g >> 8) & 15], l3[(g >> 12) & 15], l4[(g >> 16) & 15]

        dags = 0
        for g in range(1 << 20):
            rows = graph(g)
            reach = closure_from_rows(rows)
            cyclic = (reach[0] & 1) | (reach[1] & 2) | (reach[2] & 4) | (reach[3] & 8) | (reach[4] & 16)
            if layered_order_rows(rows) is None:
                assert cyclic, f"no order for the acyclic graph index {g}"
                continue
            assert not cyclic, f"an order for the cyclic graph index {g}"
            reduced_rows = tuple(reduce_rows(rows))
            assert layered_order_rows(reduced_rows) is not None, f"reduction check failed for graph index {g}"
            assert closure_from_rows(reduced_rows) == reach, f"reduction check failed for graph index {g}"
            assert tuple(reduce_rows(reduced_rows)) == reduced_rows, f"reduction check failed for graph index {g}"
            dags += 1
        assert dags == 29281  # labeled DAGs on 5 nodes

        # On a spread sample, the constructor's CycleError witness is a cycle of the rows.
        steps = tuple(PlanStep(i, f"step {i}") for i in range(1, n + 1))
        witnessed = 0
        for g in range(0, 1 << 20, 257):
            rows = graph(g)
            reach = closure_from_rows(rows)
            cyclic = any((reach[i] >> i) & 1 for i in range(n))
            try:
                Plan(steps, rows)
            except CycleError as err:
                assert cyclic and is_cycle_of(err.cycle, matrix_of(rows, n)), f"graph index {g}"
                witnessed += 1
            else:
                assert not cyclic, f"graph index {g}"
        assert witnessed > 0

        # 500 random DAGs with up to 12 nodes through the public API.
        rng = random.Random(20240501)
        for _ in range(500):
            matrix = random_dag_matrix(rng, rng.randint(1, 12))
            plan = plan_from_matrix(matrix)
            reduced = transitive_reduce(plan)
            oracle = reachability_by_squaring(matrix)
            assert reachability_by_squaring(reduced.matrix) == oracle
            assert transitive_reduce(reduced) is reduced
            assert len(reduced.order) == plan.size

        assert time.perf_counter() - started < 30.0


def test_criterion_2_frontier_execution_soundness():
    with criterion("criterion-2 frontier execution soundness"):
        started = time.perf_counter()
        rng = random.Random(917)
        for _ in range(1000):
            matrix = random_dag_matrix(rng, rng.randint(1, 12), p=rng.uniform(0.1, 0.5))
            plan = plan_from_matrix(matrix)
            order = list(plan.order)
            reference = kahn_layers_reference(matrix)
            assert order == reference
            position = {step: k for k, step in enumerate(order)}
            for i in range(plan.size):
                for j in range(plan.size):
                    if matrix[i][j]:
                        assert position[i + 1] < position[j + 1]
        assert time.perf_counter() - started < 10.0


def test_criterion_3_solver_oracle_agreement():
    with criterion("criterion-3 solver agrees with the enumeration oracle"):
        started = time.perf_counter()
        rng = random.Random(424242)
        theories = 0
        consistent = 0
        while theories < 500:
            theories += 1
            negation_free = theories % 2 == 0
            kb = random_horn_kb(rng, allow_negation=not negation_free)
            chained = forward_chain(kb)
            if chained.contradiction:
                continue
            queries = ground_literal_queries(rng, kb, count=5)
            # On an unsatisfiable theory every query and its negation are both
            # entailed, so the T/F tie is arbitrary; scope agreement to
            # satisfiable theories (probe atom: both polarities entailed means
            # there is no model at all).
            probe = literal_to_formula(queries[0])
            negated_probe = literal_to_formula(queries[0].negated())
            if brute_force_entails(kb, probe) == "T" and brute_force_entails(kb, negated_probe) == "T":
                continue
            consistent += 1
            for query in queries:
                question = literal_to_formula(query)
                derived = decide(chained, question).label
                semantic = brute_force_entails(kb, question)
                # derivations are always semantically sound
                if derived in ("T", "F"):
                    assert derived == semantic, (kb, query, derived, semantic)
                # and complete on the negation-free subset
                if negation_free:
                    assert derived == semantic, (kb, query, derived, semantic)
        assert consistent >= 400
        assert time.perf_counter() - started < 60.0


def test_criterion_4_bundled_instances():
    with criterion("criterion-4 bundled instances: unknown and refuted cases"):
        started = time.perf_counter()
        task_def = build_repr(
            [
                ("All cats are mammals.", "∀x (Cat(x) → Mammal(x))"),
                ("Tom is a mammal.", "Mammal(tom)"),
            ]
        )
        assert decide(kb_from_repr(task_def), parse_formula("Cat(tom)")).label == "U"

        fig1b = build_repr(
            [
                ("The lion chases the dog.", "Chases(lion, dog)"),
                ("The lion chases the mouse.", "Chases(lion, mouse)"),
                ("The tiger sees the lion.", "Sees(tiger, lion)"),
                ("Whatever chases the dog is round.", "∀x (Chases(x, dog) → Round(x))"),
                (
                    "If something round chases the mouse, the mouse is kind.",
                    "∀x (Round(x) ∧ Chases(x, mouse) → Kind(mouse))",
                ),
                ("Kind things chase the dog.", "∀x (Kind(x) → Chases(x, dog))"),
                ("Round things see the lion.", "∀x (Round(x) → Sees(x, lion))"),
            ]
        )
        verdict = decide(kb_from_repr(fig1b), parse_formula("¬Sees(mouse, lion)"))
        assert verdict.label == "F"
        conclusions = [str(g.conclusion) for g in verdict.support]
        for expected in (
            "Round(lion)",
            "Kind(mouse)",
            "Chases(mouse, dog)",
            "Round(mouse)",
            "Sees(mouse, lion)",
        ):
            assert expected in conclusions
        assert time.perf_counter() - started < 1.0


def test_criterion_5_scripted_end_to_end_replay():
    with criterion("criterion-5 scripted end-to-end replay"):
        started = time.perf_counter()
        backend = ScriptedBackend(FIXTURES / "scripted")
        problem = Problem(
            id="walkthrough",
            premises=("Humans are mammals.", "Mammals are animals.", "Tom is a human."),
            question="There is an animal.",
        )
        result = run_pipeline(backend, problem)
        assert result.final.label == "T"
        assert len(result.traces) == 2
        revised = result.traces[1].plan
        assert revised.size == 4
        assert revised.matrix == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))

        second = run_pipeline(backend, problem)
        blob_a = "\n".join(
            json.dumps(trace_to_doc(t, problem.id), ensure_ascii=False) for t in result.traces
        ).encode("utf-8")
        blob_b = "\n".join(
            json.dumps(trace_to_doc(t, problem.id), ensure_ascii=False) for t in second.traces
        ).encode("utf-8")
        assert blob_a == blob_b
        assert time.perf_counter() - started < 1.0


def test_criterion_6_replanning_repairs_premature_termination():
    with criterion("criterion-6 replanning repairs an early-stopped run"):
        started = time.perf_counter()
        premises = (
            "Chases(lion, dog)",
            "Chases(lion, mouse)",
            "Sees(tiger, lion)",
            "∀x (Chases(x, dog) → Round(x))",
            "∀x (Round(x) ∧ Chases(x, mouse) → Kind(mouse))",
            "∀x (Kind(x) → Chases(x, dog))",
            "∀x (Round(x) → Sees(x, lion))",
        )
        problem = Problem(id="fig1b", premises=premises, question="¬Sees(mouse, lion)")
        backend = SolverStubBackend(degrade_initial_plan=True)
        result = run_pipeline(backend, problem)

        assert result.traces[0].provisional.label == "U"
        assert "premature-termination" in result.diagnoses[0].labels
        assert result.final.label == "F"

        gold = brute_force_entails(
            kb_from_repr(build_repr([(p, p) for p in premises])),
            parse_formula("¬Sees(mouse, lion)"),
        )
        assert result.final.label == gold
        assert time.perf_counter() - started < 5.0


def test_criterion_7_strict_scoring_rule():
    with criterion("criterion-7 strict scoring counts format failures"):
        instances = load_dataset(DATA / "batch3.json")
        backend = ScriptedBackend(FIXTURES / "batch3")
        config = HarnessConfig(pipeline=PipelineConfig(max_replan_rounds=0))
        report = evaluate(instances, backend, config)
        broken = next(r for r in report.records if r.id == "b3")
        assert not broken.correct
        assert broken.failure_kind == "format"
        assert report.total == 3
        assert report.accuracy == pytest.approx(2 / 3)


DISPLAYED_FORMULAS = [
    "∀x (Human(x) → Mammal(x))",
    "∃x A(x)",
    "∀x (Cat(x) → Mammal(x))",
    "∀y (Sell(y, oneMillionCopies) → Selected(y))",
    "Mammal(tom)",
    "¬Sees(mouse, lion)",
    "Chases(lion, dog, True)",
    "Chases(lion, mouse, True)",
    "Sees(tiger, lion, True)",
    "not(Sees(mouse, lion, True))",
    "Kind(mouse, True)",
    "Chases(mouse, dog, True)",
    "Round(mouse, True)",
    "Round(lion, True)",
    "Sees(lion, tiger, True)",
]


def test_criterion_8_parser_round_trip():
    with criterion("criterion-8 parser round trip"):
        started = time.perf_counter()
        rng = random.Random(80808)
        for _ in range(10_000):
            formula = random_formula(rng, rng.randint(1, 6))
            assert parse_formula(render_formula(formula)) == formula
        for text in DISPLAYED_FORMULAS:
            parsed = parse_formula(text)
            assert parse_formula(render_formula(parsed)) == parsed
        assert time.perf_counter() - started < 10.0
