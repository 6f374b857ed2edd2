"""Deterministic inference over the function-free Horn fragment.

Rules are universally quantified implications whose antecedent is a
conjunction of literals and whose consequent is a single literal. Negation is
explicit: a negative antecedent matches only a derived negative literal,
open-world by default, with an opt-in closed-world antecedent mode. Forward
chaining grounds the rules over the declared constants and fires them in
rounds, semi-naively, to a least fixpoint with full derivation records:
`fire_rounds` is the one loop that fires ground rules, shared by
`forward_chain`, the solver stub backend and the pipeline's diagnosis.

`brute_force_entails` is the independent semantic oracle: it enumerates every
truth assignment of the ground atoms that occur in the grounded theory and
checks the question against all models, sharing no code with the chaining
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import SchemaError
from .fol import (
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
    parse_formula,
    render_formula,
)
from .structured import StructuredRepr

__all__ = [
    "Literal",
    "GroundRule",
    "KnowledgeBase",
    "Verdict",
    "StepRecord",
    "UnsupportedFragment",
    "UnsupportedQuestion",
    "DomainTooLarge",
    "TooManyAtoms",
    "ground_rules",
    "forward_chain",
    "decide",
    "brute_force_entails",
    "kb_from_repr",
    "literal_from_formula",
    "literal_to_formula",
    "step_record_to_doc",
    "step_record_from_doc",
    "DEFAULT_GROUNDING_BOUND",
    "DEFAULT_ATOM_LIMIT",
]

DEFAULT_GROUNDING_BOUND = 1_000_000
DEFAULT_ATOM_LIMIT = 24

T, F, U = "T", "F", "U"


class UnsupportedFragment(Exception):
    pass


class UnsupportedQuestion(Exception):
    pass


class DomainTooLarge(Exception):
    pass


class TooManyAtoms(Exception):
    pass


@dataclass(frozen=True, order=True, slots=True)
class Literal:
    positive: bool
    predicate: str
    args: tuple[str, ...]

    def negated(self) -> Literal:
        return Literal(not self.positive, self.predicate, self.args)

    def __str__(self) -> str:
        body = f"{self.predicate}({', '.join(self.args)})"
        return body if self.positive else f"¬{body}"


def literal_to_formula(lit: Literal) -> Formula:
    atom = Atom(lit.predicate, tuple(Constant(a) for a in lit.args))
    return atom if lit.positive else Not(atom)


def literal_from_formula(f: Formula) -> Literal:
    positive = True
    if isinstance(f, Not):
        positive = False
        f = f.body
    if not isinstance(f, Atom) or not all(isinstance(t, Constant) for t in f.args):
        raise UnsupportedFragment(f"not a ground literal: {render_formula(f)}")
    return Literal(positive, f.predicate, tuple(t.name for t in f.args))


@dataclass(frozen=True, slots=True)
class GroundRule:
    """One rule instantiation: rule_id is 1-based into KnowledgeBase.rules."""

    rule_id: int
    binding: tuple[tuple[str, str], ...]
    premises: tuple[Literal, ...]
    conclusion: Literal


def derivation_to_doc(ground: GroundRule) -> dict[str, Any]:
    """JSON form of a derivation record, as written to execution logs and traces."""
    return {
        "literal": str(ground.conclusion),
        "rule": ground.rule_id,
        "binding": dict(ground.binding),
        "premises": [str(p) for p in ground.premises],
    }


@dataclass(frozen=True)
class StepRecord:
    """One execution-log entry: a plan step and what running it derived."""

    step_id: int
    text: str
    status: str = "ok"
    derived: tuple[Literal, ...] = ()
    derivations: tuple[GroundRule, ...] = ()


_STEP_RECORD_KEYS = {"step", "note", "status", "derived", "derivations"}


def step_record_to_doc(record: StepRecord) -> dict[str, Any]:
    """JSON form of an execution-log entry, as written to solve replies and traces."""
    return {
        "step": record.step_id,
        "note": record.text,
        "status": record.status,
        "derived": [str(lit) for lit in record.derived],
        "derivations": [derivation_to_doc(d) for d in record.derivations],
    }


def step_record_from_doc(doc: Any, pointer: str = "", default_step: int = 0) -> StepRecord:
    """Inverse of `step_record_to_doc`; also accepts a bare string as the note.

    Missing fields take their defaults (`default_step` for the step id), and
    a shape error raises SchemaError with a pointer below `pointer`.
    """
    if isinstance(doc, str):
        return StepRecord(step_id=default_step, text=doc)
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected string or object")
    unknown = set(doc) - _STEP_RECORD_KEYS
    if unknown:
        raise SchemaError(f"{pointer}/{sorted(unknown)[0]}", "unknown field")
    step_id = doc.get("step", default_step)
    if isinstance(step_id, bool) or not isinstance(step_id, int):
        raise SchemaError(f"{pointer}/step", "expected integer")
    return StepRecord(
        step_id=step_id,
        text=str(doc.get("note", "")),
        status=str(doc.get("status", "ok")),
        derived=tuple(_literal_from_doc(item, at) for at, item in _items(doc, "derived", pointer)),
        derivations=tuple(_derivation_from_doc(item, at) for at, item in _items(doc, "derivations", pointer)),
    )


def _derivation_from_doc(doc: Any, pointer: str) -> GroundRule:
    """Inverse of `derivation_to_doc`."""
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected object")
    rule_id = doc.get("rule")
    if isinstance(rule_id, bool) or not isinstance(rule_id, int):
        raise SchemaError(f"{pointer}/rule", "expected integer")
    binding = doc.get("binding", {})
    if not isinstance(binding, dict):
        raise SchemaError(f"{pointer}/binding", "expected object")
    return GroundRule(
        rule_id=rule_id,
        binding=tuple(sorted((str(k), str(v)) for k, v in binding.items())),
        premises=tuple(_literal_from_doc(item, at) for at, item in _items(doc, "premises", pointer)),
        conclusion=_literal_from_doc(doc.get("literal", ""), f"{pointer}/literal"),
    )


def _items(doc: dict[str, Any], key: str, pointer: str) -> list[tuple[str, Any]]:
    """The array `doc[key]` (empty when absent) as (pointer, item) pairs."""
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise SchemaError(f"{pointer}/{key}", "expected array")
    return [(f"{pointer}/{key}/{i}", item) for i, item in enumerate(items)]


def _literal_from_doc(text: Any, pointer: str) -> Literal:
    if not isinstance(text, str):
        raise SchemaError(pointer, "expected string")
    try:
        return literal_from_formula(parse_formula(text))
    except Exception as err:
        raise SchemaError(pointer, f"not a ground literal: {err}") from err


@dataclass(frozen=True)
class KnowledgeBase:
    table: SymbolTable
    literals: frozenset[Literal]
    rules: tuple[Formula, ...]
    cwa: bool = False
    contradiction: bool = False
    derivations: tuple[GroundRule, ...] = field(default=(), compare=False)
    chained: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", frozenset(self.literals))
        object.__setattr__(self, "rules", tuple(self.rules))


@dataclass(frozen=True)
class Verdict:
    """Three-valued answer with the derivation records that justify it."""

    label: str
    support: tuple[GroundRule, ...] = ()
    notes: tuple[str, ...] = ()


def kb_from_repr(repr_: StructuredRepr, cwa: bool = False) -> KnowledgeBase:
    literals = frozenset(literal_from_formula(s.symbol) for s in repr_.facts)
    return KnowledgeBase(table=repr_.table, literals=literals, rules=tuple(s.symbol for s in repr_.rules), cwa=cwa)


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

# Literal template argument: (is_variable, name).
_TemplateArgs = tuple[tuple[bool, str], ...]


@dataclass(frozen=True, slots=True)
class _LiteralTemplate:
    positive: bool
    predicate: str
    args: _TemplateArgs

    def instantiate(self, binding: Mapping[str, str]) -> Literal:
        return Literal(
            self.positive,
            self.predicate,
            tuple(binding[name] if is_var else name for is_var, name in self.args),
        )


def _template(f: Formula, variables: set[str], rule: Formula) -> _LiteralTemplate:
    positive = True
    if isinstance(f, Not):
        positive = False
        f = f.body
    if not isinstance(f, Atom):
        raise UnsupportedFragment(f"rule literal must be an atom or negated atom: {render_formula(rule)}")
    args: list[tuple[bool, str]] = []
    for term in f.args:
        if isinstance(term, Variable):
            if term.name not in variables:
                raise UnsupportedFragment(f"unquantified variable {term.name} in rule: {render_formula(rule)}")
            args.append((True, term.name))
        else:
            args.append((False, term.name))
    return _LiteralTemplate(positive, f.predicate, tuple(args))


def _decompose_rule(rule: Formula) -> tuple[tuple[str, ...], tuple[_LiteralTemplate, ...], _LiteralTemplate]:
    variables: list[str] = []
    body = rule
    while isinstance(body, ForAll):
        if body.var in variables:
            raise UnsupportedFragment(f"repeated quantifier variable in rule: {render_formula(rule)}")
        variables.append(body.var)
        body = body.body
    if not isinstance(body, Implies):
        raise UnsupportedFragment(f"rule must be a universally quantified implication: {render_formula(rule)}")
    var_set = set(variables)
    antecedent = body.antecedent
    parts = antecedent.items if isinstance(antecedent, And) else (antecedent,)
    premises = tuple(_template(p, var_set, rule) for p in parts)
    conclusion = _template(body.consequent, var_set, rule)
    return tuple(variables), premises, conclusion


def ground_rules(kb: KnowledgeBase, max_instantiations: int = DEFAULT_GROUNDING_BOUND) -> list[GroundRule]:
    """Every instantiation of every rule over the declared constants.

    Instantiations are emitted in rule order, then in lexicographic binding
    order, deduplicated on the resulting ground implication. The bound counts
    bindings enumerated, before duplicates are dropped: DomainTooLarge is
    raised, before any grounding, when the sum over rules of
    `len(domain) ** len(variables)` exceeds `max_instantiations`.
    """
    domain = tuple(sorted(kb.table.constants))
    decomposed = [(rule_id, _decompose_rule(rule)) for rule_id, rule in enumerate(kb.rules, start=1)]
    total = 0
    for _, (variables, _, _) in decomposed:
        total += len(domain) ** len(variables)
        if total > max_instantiations:
            raise DomainTooLarge(f"grounding needs more than {max_instantiations} instantiations")
    out: list[GroundRule] = []
    seen: set[tuple[int, tuple[Literal, ...], Literal]] = set()
    for rule_id, (variables, premises, conclusion) in decomposed:
        if variables and not domain:
            continue
        for values in product(domain, repeat=len(variables)):
            binding = dict(zip(variables, values))
            ground = GroundRule(
                rule_id=rule_id,
                binding=tuple(sorted(binding.items())),
                premises=tuple(t.instantiate(binding) for t in premises),
                conclusion=conclusion.instantiate(binding),
            )
            key = (rule_id, ground.premises, ground.conclusion)
            if key not in seen:
                seen.add(key)
                out.append(ground)
    return out


# ---------------------------------------------------------------------------
# Forward chaining
# ---------------------------------------------------------------------------


def fire_rounds(
    literals: set[Literal],
    grounded: Sequence[GroundRule],
    cwa: bool = False,
    max_rounds: int | None = None,
) -> list[GroundRule]:
    """Fire `grounded` in rounds, adding each conclusion to `literals`.

    A round fires, in grounded order, every rule whose premises all held when
    the round began and whose conclusion is new; when several rules conclude
    the same literal, the first one wins. Round one checks every rule, later
    rounds only the rules with a premise derived in the round before (the
    semi-naive watch list). The open-world phase stops at its fixpoint or
    after `max_rounds`; with `cwa` and no round limit, a closed-world phase
    follows, in which a negative premise also holds while its positive
    counterpart is absent. Returns the rules fired, in firing order.
    """
    watchers: dict[Literal, list[int]] = {}  # built once a round derives something
    fired: list[GroundRule] = []
    for closed_world in ((False, True) if cwa and max_rounds is None else (False,)):
        candidates: Iterable[int] = range(len(grounded))
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
            if new and not watchers:
                for index, ground in enumerate(grounded):
                    for premise in ground.premises:
                        watchers.setdefault(premise, []).append(index)
            candidates = sorted({index for lit in new for index in watchers.get(lit, ())})
    return fired


def chained_kb(
    kb: KnowledgeBase, literals: Iterable[Literal], derivations: Iterable[GroundRule] = ()
) -> KnowledgeBase:
    """`kb` marked chained, with `literals` derived; sets the contradiction flag."""
    literals = frozenset(literals)
    return replace(
        kb,
        literals=literals,
        contradiction=any(lit.negated() in literals for lit in literals),
        derivations=tuple(derivations),
        chained=True,
    )


def forward_chain(kb: KnowledgeBase, max_instantiations: int = DEFAULT_GROUNDING_BOUND) -> KnowledgeBase:
    """Least fixpoint of the ground rules over the initial literals.

    Rules fire in rounds (`fire_rounds`): each round fires every ground rule
    whose premises held when it began, in rule id then lexicographic
    instantiation order, until a round adds nothing. Derivation records come
    in round order. With `kb.cwa`, a second phase runs after the open-world
    fixpoint in which a negative antecedent also matches when its positive
    counterpart is underivable.
    """
    literals = set(kb.literals)
    fired = fire_rounds(literals, ground_rules(kb, max_instantiations), kb.cwa)
    return chained_kb(kb, literals, kb.derivations + tuple(fired))


def _support_chain(target: Literal, derivations: Iterable[GroundRule]) -> tuple[GroundRule, ...]:
    """Derivations behind `target`, premises first, found depth-first without recursion."""
    provenance: dict[Literal, GroundRule] = {}
    for ground in derivations:
        provenance.setdefault(ground.conclusion, ground)
    seen = {target}
    chain: list[GroundRule] = []
    root = provenance.get(target)
    stack = [(root, iter(root.premises))] if root is not None else []
    while stack:
        ground, premises = stack[-1]
        for premise in premises:
            if premise not in seen:
                seen.add(premise)
                sub = provenance.get(premise)
                if sub is not None:
                    stack.append((sub, iter(sub.premises)))
                    break
        else:
            stack.pop()
            chain.append(ground)
    return tuple(chain)


def existential_targets(question: Formula) -> tuple[bool, str, _TemplateArgs, tuple[str, ...]]:
    """Polarity, predicate, argument template, and variables of an ∃-atom question."""
    variables: list[str] = []
    body = question
    while isinstance(body, Exists):
        variables.append(body.var)
        body = body.body
    positive = True
    if isinstance(body, Not):
        positive = False
        body = body.body
    if not isinstance(body, Atom):
        raise UnsupportedQuestion(f"unsupported question: {render_formula(question)}")
    args: list[tuple[bool, str]] = []
    for term in body.args:
        if isinstance(term, Variable):
            if term.name not in variables:
                raise UnsupportedQuestion(f"question has free variable {term.name}")
            args.append((True, term.name))
        else:
            args.append((False, term.name))
    return positive, body.predicate, tuple(args), tuple(variables)


def decide(kb: KnowledgeBase, question: Formula, max_instantiations: int = DEFAULT_GROUNDING_BOUND) -> Verdict:
    """Three-valued adjudication of `question` against the chained fixpoint.

    Ground literal questions answer T when the literal is derived, F when its
    negation is derived, U otherwise. Existential atom questions answer T on
    any derived witness and otherwise U (refuting an existential is beyond
    forward chaining). A contradictory knowledge base yields U with a
    contradiction note instead of an arbitrary label.
    """
    chained = kb if kb.chained else forward_chain(kb, max_instantiations)
    if chained.contradiction:
        return Verdict(U, notes=("contradiction: a literal and its negation were both derived",))

    if isinstance(question, Exists):
        positive, predicate, args, variables = existential_targets(question)
        domain = tuple(sorted(chained.table.constants))
        for values in product(domain, repeat=len(variables)):
            binding = dict(zip(variables, values))
            candidate = Literal(
                positive,
                predicate,
                tuple(binding[name] if is_var else name for is_var, name in args),
            )
            if candidate in chained.literals:
                return Verdict(T, support=_support_chain(candidate, chained.derivations))
        return Verdict(U, notes=("existential not witnessed; its refutation is out of fragment",))

    try:
        lit = literal_from_formula(question)
    except UnsupportedFragment as err:
        raise UnsupportedQuestion(str(err)) from err
    if lit in chained.literals:
        return Verdict(T, support=_support_chain(lit, chained.derivations))
    if lit.negated() in chained.literals:
        return Verdict(F, support=_support_chain(lit.negated(), chained.derivations))
    return Verdict(U)


# ---------------------------------------------------------------------------
# Brute-force semantic oracle
# ---------------------------------------------------------------------------


def _ground_tree(
    f: Formula,
    env: dict[str, str],
    domain: tuple[str, ...],
    atom_index: dict[tuple[str, tuple[str, ...]], int],
) -> Any:
    """Propositional tree over ground-atom indices, quantifiers expanded."""
    if isinstance(f, Atom):
        names = []
        for term in f.args:
            if isinstance(term, Variable):
                if term.name not in env:
                    raise UnsupportedQuestion(f"formula has free variable {term.name}")
                names.append(env[term.name])
            else:
                names.append(term.name)
        key = (f.predicate, tuple(names))
        if key not in atom_index:
            atom_index[key] = len(atom_index)
        return ("atom", atom_index[key])
    if isinstance(f, Equality):
        sides = []
        for term in (f.left, f.right):
            if isinstance(term, Variable):
                if term.name not in env:
                    raise UnsupportedQuestion(f"formula has free variable {term.name}")
                sides.append(env[term.name])
            else:
                sides.append(term.name)
        return ("const", sides[0] == sides[1])
    if isinstance(f, Not):
        return ("not", _ground_tree(f.body, env, domain, atom_index))
    if isinstance(f, And):
        return ("and", tuple(_ground_tree(item, env, domain, atom_index) for item in f.items))
    if isinstance(f, Or):
        return ("or", tuple(_ground_tree(item, env, domain, atom_index) for item in f.items))
    if isinstance(f, Implies):
        return (
            "or",
            (
                ("not", _ground_tree(f.antecedent, env, domain, atom_index)),
                _ground_tree(f.consequent, env, domain, atom_index),
            ),
        )
    if isinstance(f, Iff):
        return (
            "iff",
            _ground_tree(f.left, env, domain, atom_index),
            _ground_tree(f.right, env, domain, atom_index),
        )
    if isinstance(f, (ForAll, Exists)):
        items = []
        saved = env.get(f.var)
        had = f.var in env
        for value in domain:
            env[f.var] = value
            items.append(_ground_tree(f.body, env, domain, atom_index))
        if had:
            env[f.var] = saved
        else:
            env.pop(f.var, None)
        if not items:
            return ("const", isinstance(f, ForAll))
        if len(items) == 1:
            return items[0]
        return ("and" if isinstance(f, ForAll) else "or", tuple(items))
    raise TypeError(f"not a formula: {f!r}")


def brute_force_entails(kb: KnowledgeBase, question: Formula, atom_limit: int = DEFAULT_ATOM_LIMIT) -> str:
    """Entailment by enumerating every model of the grounded theory.

    Returns T if the question holds in every model, F if it fails in every
    model, U otherwise. Only ground atoms occurring in the grounded theory or
    question are enumerated (absent atoms are unconstrained either way); more
    than `atom_limit` of them raises TooManyAtoms.
    """
    domain = tuple(sorted(kb.table.constants))
    atom_index: dict[tuple[str, tuple[str, ...]], int] = {}
    trees = []
    for lit in sorted(kb.literals):
        tree = _ground_tree(literal_to_formula(lit), {}, domain, atom_index)
        trees.append(tree)
    for rule in kb.rules:
        trees.append(_ground_tree(rule, {}, domain, atom_index))
    question_tree = _ground_tree(question, {}, domain, atom_index)

    n = len(atom_index)
    if n > atom_limit:
        raise TooManyAtoms(f"{n} ground atoms occur; the enumeration limit is {atom_limit}")
    total = 1 << n
    chunk = 1 << min(n, 18)

    saw_model = False
    saw_q_true = False
    saw_q_false = False
    for base in range(0, total, chunk):
        idx = np.arange(base, min(base + chunk, total), dtype=np.int64)
        columns: dict[int, np.ndarray] = {}

        def evaluate(tree: Any) -> np.ndarray:
            tag = tree[0]
            if tag == "atom":
                i = tree[1]
                got = columns.get(i)
                if got is None:
                    got = ((idx >> i) & 1).astype(bool)
                    columns[i] = got
                return got
            if tag == "const":
                return np.full(idx.shape, tree[1], dtype=bool)
            if tag == "not":
                return ~evaluate(tree[1])
            if tag == "and":
                out = evaluate(tree[1][0])
                for sub in tree[1][1:]:
                    out = out & evaluate(sub)
                return out
            if tag == "or":
                out = evaluate(tree[1][0])
                for sub in tree[1][1:]:
                    out = out | evaluate(sub)
                return out
            return evaluate(tree[1]) == evaluate(tree[2])

        theory = np.ones(idx.shape, dtype=bool)
        for tree in trees:
            theory = theory & evaluate(tree)
            if not theory.any():
                break
        if not theory.any():
            continue
        saw_model = True
        q = evaluate(question_tree)
        if (theory & q).any():
            saw_q_true = True
        if (theory & ~q).any():
            saw_q_false = True
        if saw_q_true and saw_q_false:
            return U

    if not saw_model or not saw_q_false:
        return T
    if not saw_q_true:
        return F
    return U
