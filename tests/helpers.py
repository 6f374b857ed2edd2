"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms:
reachability comes from repeated boolean matrix squaring, the reference
schedule from a layer-at-a-time indegree count, and the reference chaining
engine grounds every rule over every binding and scans the ground rules, so
tests check two unrelated routes to the same answer.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Sequence

from proofplan.fol import (
    And,
    Atom,
    Constant,
    Equality,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    SymbolTable,
    Variable,
)
from proofplan.plan import Plan, PlanStep
from proofplan.solver import DEFAULT_GROUNDING_BOUND, GroundRule, KnowledgeBase, Literal, rule_templates

VARIABLES = ("x", "y", "z", "u", "v")
CONSTANTS = ("tom", "jerry", "rex", "ada")
PREDICATES = ("Cat", "Dog", "Likes", "Round", "Big")


class CannedBackend:
    """Replays a fixed queue of replies; records the requests it saw."""

    def __init__(self, *replies: str):
        self.replies = list(replies)
        self.calls: list[tuple[str, str]] = []

    def complete(self, prompt, params):
        stage = params.meta.stage if params.meta else "?"
        self.calls.append((stage, prompt))
        if not self.replies:
            raise RuntimeError("canned backend ran out of replies")
        return self.replies.pop(0)


# ---------------------------------------------------------------------------
# Random formulas
# ---------------------------------------------------------------------------


def random_term(rng: random.Random, scope: tuple[str, ...]):
    if scope and rng.random() < 0.5:
        return Variable(rng.choice(scope))
    return Constant(rng.choice(CONSTANTS))


def random_formula(rng: random.Random, depth: int, scope: tuple[str, ...] = ()) -> Formula:
    if depth <= 1:
        if rng.random() < 0.1:
            return Equality(random_term(rng, scope), random_term(rng, scope))
        predicate = rng.choice(PREDICATES)
        arity = rng.randint(1, 3)
        return Atom(predicate, tuple(random_term(rng, scope) for _ in range(arity)))
    pick = rng.random()
    if pick < 0.15:
        return Not(random_formula(rng, depth - 1, scope))
    if pick < 0.3:
        count = rng.randint(2, 3)
        return And(tuple(random_formula(rng, depth - 1, scope) for _ in range(count)))
    if pick < 0.45:
        count = rng.randint(2, 3)
        return Or(tuple(random_formula(rng, depth - 1, scope) for _ in range(count)))
    if pick < 0.6:
        return Implies(random_formula(rng, depth - 1, scope), random_formula(rng, depth - 1, scope))
    if pick < 0.7:
        return Iff(random_formula(rng, depth - 1, scope), random_formula(rng, depth - 1, scope))
    var = rng.choice([v for v in VARIABLES if v not in scope] or list(VARIABLES))
    body = random_formula(rng, depth - 1, scope + (var,))
    return ForAll(var, body) if rng.random() < 0.5 else Exists(var, body)


# ---------------------------------------------------------------------------
# Random graphs and plans
# ---------------------------------------------------------------------------


def plan_from_matrix(matrix) -> Plan:
    n = len(matrix)
    steps = tuple(PlanStep(id=i + 1, content=f"step {i + 1}") for i in range(n))
    return Plan(steps, tuple(tuple(row) for row in matrix))


def random_dag_matrix(rng: random.Random, n: int, p: float = 0.3) -> list[list[int]]:
    """Random DAG: edges drawn above the diagonal of a random node order."""
    order = list(range(n))
    rng.shuffle(order)
    matrix = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                matrix[order[a]][order[b]] = 1
    return matrix


def random_digraph_matrix(rng: random.Random, n: int, p: float = 0.3) -> list[list[int]]:
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                matrix[i][j] = 1
    return matrix


def reachability_by_squaring(matrix) -> tuple[tuple[bool, ...], ...]:
    """Transitive closure oracle: square the boolean matrix to a fixpoint."""
    n = len(matrix)
    reach = tuple(tuple(bool(value) for value in row) for row in matrix)
    while True:
        step = tuple(
            tuple(reach[i][j] or any(reach[i][k] and reach[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        if step == reach:
            return reach
        reach = step


def kahn_layers_reference(matrix) -> list[int] | None:
    """Layer-at-a-time schedule with ascending ties: 1-based, or None on a cycle."""
    n = len(matrix)
    indegree = [sum(matrix[i][j] for i in range(n)) for j in range(n)]
    done = [False] * n
    order: list[int] = []
    remaining = n
    while remaining:
        layer = [j for j in range(n) if not done[j] and indegree[j] == 0]
        if not layer:
            return None
        for j in sorted(layer):
            order.append(j + 1)
            done[j] = True
            remaining -= 1
        for j in layer:
            for k in range(n):
                if matrix[j][k]:
                    indegree[k] -= 1
    return order


# ---------------------------------------------------------------------------
# Random Horn theories
# ---------------------------------------------------------------------------


def random_horn_kb(rng: random.Random, allow_negation: bool = True) -> KnowledgeBase:
    """Small Horn theory with explicit negation, sized for the brute oracle.

    A binary predicate is only drawn alongside at most two constants, which
    keeps the occurring ground-atom count within enumeration range.
    """
    use_binary = rng.random() < 0.4
    constant_count = rng.randint(1, 2 if use_binary else 3)
    constants = ("c1", "c2", "c3")[:constant_count]
    names = ("P", "Q", "R", "S")[: rng.randint(2, 4)]
    predicates = {name: 1 for name in names}
    if use_binary:
        predicates[names[-1]] = 2
    table = SymbolTable(predicates=predicates, constants=frozenset(constants))

    def random_literal_template(variables: tuple[str, ...]) -> Formula:
        name = rng.choice(names)
        arity = predicates[name]
        args = []
        for _ in range(arity):
            if variables and rng.random() < 0.7:
                args.append(Variable(rng.choice(variables)))
            else:
                args.append(Constant(rng.choice(constants)))
        atom = Atom(name, tuple(args))
        if allow_negation and rng.random() < 0.25:
            return Not(atom)
        return atom

    rules = []
    for _ in range(rng.randint(1, 6)):
        variables = ("x", "y")[: rng.randint(1, 2)]
        antecedent_parts = tuple(random_literal_template(variables) for _ in range(rng.randint(1, 2)))
        consequent = random_literal_template(variables)
        body = Implies(antecedent_parts[0] if len(antecedent_parts) == 1 else And(antecedent_parts), consequent)
        used = set()
        for part in (*antecedent_parts, consequent):
            atom = part.body if isinstance(part, Not) else part
            used.update(t.name for t in atom.args if isinstance(t, Variable))
        rule: Formula = body
        for var in reversed([v for v in variables if v in used]):
            rule = ForAll(var, rule)
        if used - set(variables):
            continue
        rules.append(rule)

    facts = set()
    for _ in range(rng.randint(1, 4)):
        name = rng.choice(names)
        args = tuple(rng.choice(constants) for _ in range(predicates[name]))
        positive = not (allow_negation and rng.random() < 0.2)
        facts.add(Literal(positive, name, args))

    return KnowledgeBase(table=table, literals=frozenset(facts), rules=tuple(rules))


def ground_literal_queries(rng: random.Random, kb: KnowledgeBase, count: int = 5) -> list[Literal]:
    names = sorted(kb.table.predicates)
    constants = sorted(kb.table.constants)
    queries = []
    for _ in range(count):
        name = rng.choice(names)
        args = tuple(rng.choice(constants) for _ in range(kb.table.predicates[name]))
        queries.append(Literal(rng.random() < 0.7, name, args))
    return queries


# ---------------------------------------------------------------------------
# Reference chaining: enumerate every binding, then scan
# ---------------------------------------------------------------------------


def reference_ground_rules(kb: KnowledgeBase, max_instantiations: int = DEFAULT_GROUNDING_BOUND) -> list[GroundRule]:
    """Every instantiation of every rule over the declared constants.

    Emitted in rule order, then in lexicographic binding order, deduplicated
    on the resulting ground implication (the first binding is kept).
    """
    domain = tuple(sorted(kb.table.constants))
    out: list[GroundRule] = []
    seen: set[tuple[int, tuple[Literal, ...], Literal]] = set()
    for rule in rule_templates(kb, max_instantiations):
        if rule.variables and not domain:
            continue
        for values in product(domain, repeat=len(rule.variables)):
            binding = dict(zip(rule.variables, values))
            ground = GroundRule(
                rule_id=rule.rule_id,
                binding=tuple(sorted(binding.items())),
                premises=tuple(t.instantiate(binding) for t in rule.premises),
                conclusion=rule.conclusion.instantiate(binding),
            )
            key = (rule.rule_id, ground.premises, ground.conclusion)
            if key not in seen:
                seen.add(key)
                out.append(ground)
    return out


def reference_fire_rounds(
    literals: set[Literal], grounded: Sequence[GroundRule], cwa: bool = False, max_rounds: int | None = None
) -> list[GroundRule]:
    """Fire `grounded` in rounds by scanning it, with a semi-naive watch list.

    Same contract as `solver.fire_rounds`: a round fires, in grounded order,
    every rule whose premises all held when the round began and whose
    conclusion is new, the first rule per conclusion winning; later rounds
    check only the rules with a premise the round before derived.
    """
    watchers: dict[Literal, list[int]] = {}
    for index, ground in enumerate(grounded):
        for premise in ground.premises:
            watchers.setdefault(premise, []).append(index)
    fired: list[GroundRule] = []
    for closed_world in ((False, True) if cwa and max_rounds is None else (False,)):
        candidates: Sequence[int] = range(len(grounded))
        rounds = 0
        while candidates and (max_rounds is None or rounds < max_rounds):
            rounds += 1
            new: dict[Literal, GroundRule] = {}
            for index in candidates:
                ground = grounded[index]
                if ground.conclusion in literals or ground.conclusion in new:
                    continue
                if all(
                    p in literals or (closed_world and not p.positive and p.negated() not in literals)
                    for p in ground.premises
                ):
                    new[ground.conclusion] = ground
            literals.update(new)
            fired.extend(new.values())
            candidates = sorted({index for lit in new for index in watchers.get(lit, ())})
    return fired
