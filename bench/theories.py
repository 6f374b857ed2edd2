"""Seeded ProofWriter-style theories with planted gold labels.

Every theory is built around a hidden world: one truth value per ground atom.
Facts are drawn from the world, and every rule is made true in it (a rule's
head predicate is set wherever one of its bodies holds), so the world is a
model of the theory and no theory is contradictory, neither to the chaining
engine nor to the model-enumeration oracle.

Gold labels are planted, never computed by the program under test:

- T: the question is the last literal of a chain of `depth` rule
  applications that starts at a stated fact. Each chain predicate is the head
  of exactly one rule, so the literal's derivation depth is exactly `depth`.
- F: the question is the negation of such a literal.
- U: the question uses a predicate that occurs only in rule bodies, so no
  fact and no rule head can produce it or its negation.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

ADJECTIVES = (
    "Big", "Blue", "Bold", "Calm", "Cold", "Dull", "Fast", "Furry", "Gentle", "Green",
    "Happy", "Heavy", "Kind", "Lazy", "Loud", "Nice", "Proud", "Quiet", "Red", "Rough",
    "Round", "Sharp", "Shy", "Slow", "Smart", "Soft", "Strong", "Tall", "Tiny", "Warm",
    "White", "Wild", "Wise", "Young",
)
RELATIONS = ("Chases", "Eats", "Follows", "Helps", "Likes", "Needs", "Sees", "Visits")
CONSTANTS = (
    "anne", "bob", "charlie", "dave", "erin", "fiona", "gary", "harry", "bear", "cat",
    "cow", "dog", "eagle", "fox", "goat", "horse", "lion", "mouse", "otter", "owl",
    "rabbit", "squirrel", "tiger", "whale", "wolf",
)

# A literal is (positive, predicate, args); in rules the args may be the
# variables "x" and "y".
Lit = tuple[bool, str, tuple[str, ...]]


@dataclass(frozen=True)
class Shape:
    """Size ranges of one workload's theories (all bounds inclusive)."""

    constants: tuple[int, int]
    depth: tuple[int, int]
    rules: tuple[int, int]
    base_predicates: tuple[int, int]
    binary: float  # share of rules that join through a relation
    fact_share: float  # share of base atoms stated as facts
    negation_free: float  # share of theories without any negation


@dataclass(frozen=True)
class Rule:
    variables: tuple[str, ...]
    body: tuple[Lit, ...]
    head: Lit


@dataclass(frozen=True)
class Theory:
    id: str
    statements: tuple[Lit | Rule, ...]  # premises in dataset order
    question: Lit
    gold: str
    depth: int
    negation_free: bool


def lit_text(lit: Lit) -> str:
    positive, predicate, args = lit
    return f"{'' if positive else '¬'}{predicate}({', '.join(args)})"


def statement_text(statement: Lit | Rule) -> str:
    if isinstance(statement, Rule):
        quantifiers = " ".join(f"∀{v}" for v in statement.variables)
        body = " ∧ ".join(lit_text(lit) for lit in statement.body)
        return f"{quantifiers} ({body} → {lit_text(statement.head)})"
    return lit_text(statement)


def _negate(lit: Lit) -> Lit:
    return (not lit[0], lit[1], lit[2])


def _ground(lit: Lit, binding: dict[str, str]) -> Lit:
    return (lit[0], lit[1], tuple(binding.get(a, a) for a in lit[2]))


def _holds(lit: Lit, world: dict[tuple[str, tuple[str, ...]], bool]) -> bool:
    return world[(lit[1], lit[2])] == lit[0]


@functools.cache
def _size_mix(shape: Shape) -> list[tuple[int, int, int, int]]:
    """Every (constants, depth, rules, base predicates) combination, in one
    fixed order that does not depend on the seed, so every seed gets the same
    mix of theory sizes and only the theories' contents vary."""
    ranges = (shape.constants, shape.depth, shape.rules, shape.base_predicates)
    combos = list(product(*(range(low, high + 1) for low, high in ranges)))
    random.Random(0).shuffle(combos)
    return combos


def make_theory(rng: random.Random, shape: Shape, index: int) -> Theory:
    theory_id = f"t{index:04d}"
    mix = _size_mix(shape)
    n_constants, depth, n_rules, n_base = mix[index % len(mix)]
    constants = sorted(rng.sample(CONSTANTS, n_constants))
    n_rules = max(depth, n_rules)
    negation_free = index % 10 < round(10 * shape.negation_free)
    gold = "TFU"[index % 3]

    def polarity(p_negative: float) -> bool:
        return negation_free or rng.random() >= p_negative

    n_distractor_heads = max(1, (n_rules - depth + 1) // 2)
    names = rng.sample(ADJECTIVES, n_base + depth + n_distractor_heads + 1)
    base = names[:n_base]
    chain_preds = names[n_base : n_base + depth]
    distractor_heads = names[n_base + depth : -1]
    unknown = names[-1]
    relations = rng.sample(RELATIONS, 2) if shape.binary else []

    world: dict[tuple[str, tuple[str, ...]], bool] = {}
    for predicate in (*base, unknown):
        for c in constants:
            world[(predicate, (c,))] = rng.random() < 0.6
    for relation in relations:
        for a, b in product(constants, repeat=2):
            world[(relation, (a, b))] = a != b and rng.random() < 0.08

    if negation_free:
        # Every constant needs a true base atom to state as a chain fact.
        for c in constants:
            if not any(world[(p, (c,))] for p in base):
                world[(rng.choice(base), (c,))] = True

    facts: set[Lit] = set()
    for predicate in base:
        for c in constants:
            value = world[(predicate, (c,))]
            if rng.random() < shape.fact_share and (value or not negation_free):
                facts.add((value, predicate, (c,)))

    def stated(c: str) -> Lit:
        """A true base literal about `c`, added to the facts."""
        predicate = rng.choice([p for p in base if world[(p, (c,))] or not negation_free])
        lit = (world[(predicate, (c,))], predicate, (c,))
        facts.add(lit)
        return lit

    # The planted chain l0(c0) -> l1(c1) -> ... -> ld(cd). Its relation hops
    # are fixed before any rule head is set, so no later change to the world
    # can falsify an earlier rule.
    walk: list[tuple[str | None, str, str]] = []
    here = rng.choice(constants)
    hops = set(rng.sample(range(depth), round(shape.binary * depth)))
    for step in range(depth):
        if step in hops:
            relation = rng.choice(relations)
            there = rng.choice([c for c in constants if c != here])
            world[(relation, (here, there))] = True
            facts.add((True, relation, (here, there)))
            walk.append((relation, here, there))
            here = there
        else:
            walk.append((None, here, here))
    rules: list[Rule] = []
    current = stated(walk[0][1] if walk else here)
    for predicate, (relation, here, there) in zip(chain_preds, walk):
        head_sign = polarity(0.3)
        if relation is not None:
            body = ((current[0], current[1], ("x",)), (True, relation, ("x", "y")))
            rule = Rule(("x", "y"), body, (head_sign, predicate, ("y",)))
            binding = {"x": here, "y": there}
        else:
            body = [(current[0], current[1], ("x",))]
            if rng.random() < 0.5:
                side = stated(here)
                if side[1] != current[1]:
                    body.append((side[0], side[1], ("x",)))
            rule = Rule(("x",), tuple(body), (head_sign, predicate, ("x",)))
            binding = {"x": here}
        rules.append(rule)
        _set_head(world, rule, constants)
        current = _ground(rule.head, binding)

    # Distractors: heads outside the chain, bodies over anything defined before.
    available = [*base, unknown, *chain_preds]
    head_signs = {p: polarity(0.3) for p in distractor_heads}
    order = list(distractor_heads)
    seen_rules = {(r.body, r.head) for r in rules}
    n_distractors = n_rules - depth
    joins = set(rng.sample(range(n_distractors), round(shape.binary * n_distractors)))
    attempts = 0
    while len(rules) < n_rules and attempts < 50 * n_rules:
        attempts += 1
        slot = min(len(order) - 1, (len(rules) - depth) * len(order) // max(1, n_rules - depth))
        head_pred = order[slot]
        body_preds = available + order[:slot]
        if len(rules) - depth in joins:
            relation = rng.choice(relations)
            first = (polarity(0.3), rng.choice(body_preds), (rng.choice("xy"),))
            body = (first, (True, relation, ("x", "y")))
            rule = Rule(("x", "y"), body, (head_signs[head_pred], head_pred, (rng.choice("xy"),)))
        else:
            picks = rng.sample(body_preds, min(len(body_preds), rng.randint(1, 2)))
            body = tuple((polarity(0.3), p, ("x",)) for p in picks)
            rule = Rule(("x",), body, (head_signs[head_pred], head_pred, ("x",)))
        if (rule.body, rule.head) in seen_rules:
            continue
        seen_rules.add((rule.body, rule.head))
        rules.append(rule)
        _set_head(world, rule, constants)

    if gold == "T":
        question = current
    elif gold == "F":
        question = _negate(current)
    else:
        question = (polarity(0.5), unknown, (rng.choice(constants),))

    if not all(_holds(lit, world) for lit in facts):
        raise RuntimeError(f"{theory_id}: a fact is false in the world that should model it")
    statements: list[Lit | Rule] = [*sorted(facts), *rules]
    rng.shuffle(statements)
    return Theory(
        id=theory_id,
        statements=tuple(statements),
        question=question,
        gold=gold,
        depth=depth,
        negation_free=negation_free,
    )


def _set_head(world: dict, rule: Rule, constants: list[str]) -> None:
    """Make `rule` true in `world`: its head literal holds wherever a body does.

    Head atoms not forced by any body keep the opposite polarity, so a later
    rule with the same head only adds to the forced set.
    """
    positive, predicate, _ = rule.head
    for c in constants:
        world.setdefault((predicate, (c,)), not positive)
    for values in product(constants, repeat=len(rule.variables)):
        binding = dict(zip(rule.variables, values))
        if all(_holds(_ground(lit, binding), world) for lit in rule.body):
            world[(predicate, _ground(rule.head, binding)[2])] = positive


def generate(shape: Shape, workload: str, seed: int, count: int) -> list[Theory]:
    rng = random.Random(f"{workload}:{seed}")
    return [make_theory(rng, shape, index) for index in range(count)]


# ---------------------------------------------------------------------------
# Files the program reads
# ---------------------------------------------------------------------------


def dataset_doc(theories: list[Theory]) -> list[dict]:
    return [
        {
            "id": t.id,
            "premises": [statement_text(s) for s in t.statements],
            "question": statement_text(t.question),
            "answer": t.gold,
            "depth": t.depth,
        }
        for t in theories
    ]


def write_dataset(path: Path, theories: list[Theory]) -> None:
    path.write_text(json.dumps(dataset_doc(theories), ensure_ascii=False, indent=1), encoding="utf-8")


def write_premise_files(directory: Path, theories: list[Theory]) -> None:
    """One formula per line, the input format of `proofplan prove`."""
    directory.mkdir(parents=True, exist_ok=True)
    for t in theories:
        lines = [statement_text(s) for s in t.statements]
        (directory / f"{t.id}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
