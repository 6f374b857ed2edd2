"""Deterministic inference over the function-free Horn fragment.

Rules are universally quantified implications whose antecedent is a
conjunction of literals and whose consequent is a single literal. Negation is
explicit: a negative antecedent matches only a derived negative literal,
open-world by default. The closed-world antecedent mode is the keyword
argument `cwa` of every caller that chains; a `KnowledgeBase` holds only a
theory and its literals. Each rule is decomposed once into premise and
conclusion templates (`rule_templates`); a `StructuredRepr` keeps its
knowledge base and templates, so each is built once per context.
Forward chaining fires them in rounds, semi-naively, to a least fixpoint with
full derivation records: each round joins rule bodies against the known
literals, indexed by polarity and predicate, and after round one only
bindings that use a literal the round before derived are tried. Nothing
enumerates every binding over the declared constants. `fire_rounds`, the one
loop that fires rules (in `forward_chain`, the solver stub and `diagnose`),
extends its caller's literal index (`index_literals`) in place, so firing step
by step keeps one store; `decide` always judges against `forward_chain`.

`brute_force_entails` is the independent semantic oracle: it enumerates every
truth assignment of the ground atoms that occur in the grounded theory and
checks the question against all models, sharing no code with the chaining
path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from itertools import product
from typing import TYPE_CHECKING, Any, Collection, Iterable, Mapping, Sequence

from .errors import SchemaError, check_object
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

if TYPE_CHECKING:
    from .structured import StructuredRepr

__all__ = [
    "Literal",
    "GroundRule",
    "KnowledgeBase",
    "Verdict",
    "StepRecord",
    "UnsupportedFragment",
    "DomainTooLarge",
    "TooManyAtoms",
    "RuleTemplate",
    "rule_templates",
    "index_literals",
    "fire_rounds",
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
_CHUNK_BITS = 18

T, F, U = "T", "F", "U"


class UnsupportedFragment(Exception):
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
    """One rule instantiation: rule_id is the rule's statement id."""

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

    @functools.cached_property
    def doc(self) -> dict[str, Any]:
        """`step_record_to_doc` of this record, computed once; treat it as read-only."""
        return step_record_to_doc(self)


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


def step_record_from_doc(
    doc: Any, pointer: str = "", default_step: int = 0, literals: dict[str, Literal] | None = None
) -> StepRecord:
    """Inverse of `step_record_to_doc`; also accepts a bare string as the note.

    Missing fields take their defaults (`default_step` for the step id), and
    a shape error raises SchemaError with a pointer below `pointer`. Literal
    strings already in `literals` are not parsed again, and newly parsed ones
    are added, so the records of one reply share a dict; the pipeline gives
    each reply's decode a new one (`pipeline._literal_table`).
    """
    if isinstance(doc, str):
        return StepRecord(step_id=default_step, text=doc)
    if not isinstance(doc, dict):
        raise SchemaError(pointer, "expected string or object")
    check_object(doc, pointer, _STEP_RECORD_KEYS)
    step_id = doc.get("step", default_step)
    if isinstance(step_id, bool) or not isinstance(step_id, int):
        raise SchemaError(f"{pointer}/step", "expected integer")
    literals = {} if literals is None else literals
    return StepRecord(
        step_id=step_id,
        text=str(doc.get("note", "")),
        status=str(doc.get("status", "ok")),
        derived=tuple(_literal_from_doc(item, at, literals) for at, item in _items(doc, "derived", pointer)),
        derivations=tuple(
            _derivation_from_doc(item, at, literals) for at, item in _items(doc, "derivations", pointer)
        ),
    )


def _derivation_from_doc(doc: Any, pointer: str, literals: dict[str, Literal]) -> GroundRule:
    """Inverse of `derivation_to_doc`."""
    check_object(doc, pointer, {"literal", "rule", "binding", "premises"})
    rule_id = doc.get("rule")
    if isinstance(rule_id, bool) or not isinstance(rule_id, int):
        raise SchemaError(f"{pointer}/rule", "expected integer")
    binding = doc.get("binding", {})
    if not isinstance(binding, dict):
        raise SchemaError(f"{pointer}/binding", "expected object")
    return GroundRule(
        rule_id=rule_id,
        binding=tuple(sorted((str(k), str(v)) for k, v in binding.items())),
        premises=tuple(_literal_from_doc(item, at, literals) for at, item in _items(doc, "premises", pointer)),
        conclusion=_literal_from_doc(doc.get("literal", ""), f"{pointer}/literal", literals),
    )


def _items(doc: dict[str, Any], key: str, pointer: str) -> list[tuple[str, Any]]:
    """The array `doc[key]` (empty when absent) as (pointer, item) pairs."""
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise SchemaError(f"{pointer}/{key}", "expected array")
    return [(f"{pointer}/{key}/{i}", item) for i, item in enumerate(items)]


def _literal_from_doc(text: Any, pointer: str, literals: dict[str, Literal]) -> Literal:
    if not isinstance(text, str):
        raise SchemaError(pointer, "expected string")
    if text not in literals:
        try:
            f = parse_formula(text)
        except Exception as err:
            raise SchemaError(pointer, f"not a ground literal: {err}") from err
        atom = f.body if isinstance(f, Not) else f
        if not isinstance(atom, Atom):
            raise SchemaError(pointer, f"not a ground literal: {render_formula(f)}")
        # A cited literal is ground, so even a one-letter lowercase argument names a constant.
        literals[text] = Literal(atom is f, atom.predicate, tuple(t.name for t in atom.args))
    return literals[text]


@dataclass(frozen=True)
class KnowledgeBase:
    """A theory (`rules`, as (statement id, formula) pairs, over `table`) and
    its literals, with the derivation records of those that chaining added."""

    table: SymbolTable
    literals: frozenset[Literal]
    rules: tuple[tuple[int, Formula], ...]
    derivations: tuple[GroundRule, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", frozenset(self.literals))
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "derivations", tuple(self.derivations))

    @property
    def contradiction(self) -> bool:
        """Whether some literal and its negation are both held."""
        return any(lit.negated() in self.literals for lit in self.literals)


@dataclass(frozen=True)
class Verdict:
    """Three-valued answer with the derivation records that justify it."""

    label: str
    support: tuple[GroundRule, ...] = ()
    notes: tuple[str, ...] = ()


def kb_from_repr(repr_: StructuredRepr) -> KnowledgeBase:
    literals = frozenset(literal_from_formula(s.symbol) for s in repr_.facts)
    return KnowledgeBase(table=repr_.table, literals=literals, rules=tuple((s.id, s.symbol) for s in repr_.rules))


# ---------------------------------------------------------------------------
# Rule templates
# ---------------------------------------------------------------------------

# Literal template argument: (is_variable, name).
_TemplateArgs = tuple[tuple[bool, str], ...]
# Known literals by (polarity, predicate, arity): their argument tuples (`index_literals`).
_Index = dict[tuple[bool, str, int], set[tuple[str, ...]]]
_NONE: frozenset[tuple[str, ...]] = frozenset()


@dataclass(frozen=True, slots=True)
class _LiteralTemplate:
    positive: bool
    predicate: str
    args: _TemplateArgs

    @property
    def key(self) -> tuple[bool, str, int]:
        return (self.positive, self.predicate, len(self.args))

    def ground(self, binding: Mapping[str, str]) -> tuple[str, ...]:
        return tuple(binding[name] if is_var else name for is_var, name in self.args)

    def instantiate(self, binding: Mapping[str, str]) -> Literal:
        return Literal(self.positive, self.predicate, self.ground(binding))


def _unify(
    args: _TemplateArgs, values: tuple[str, ...], binding: dict[str, str], domain: Collection[str]
) -> dict[str, str] | None:
    """`binding` extended (as a copy) so that `args` instantiates to `values`
    with variables bound only to members of `domain`, or None."""
    if len(args) != len(values):
        return None
    out = binding
    for (is_var, name), value in zip(args, values):
        if not is_var:
            if name != value:
                return None
        elif name in out:
            if out[name] != value:
                return None
        elif value in domain:
            if out is binding:
                out = dict(binding)
            out[name] = value
        else:
            return None
    return out


@dataclass(frozen=True)
class RuleTemplate:
    """A rule decomposed for joining: rule_id is the rule's statement id.

    `variables` are in quantifier order; `used` keeps, in the same order, the
    variables that some premise or the conclusion mentions.
    """

    rule_id: int
    variables: tuple[str, ...]
    premises: tuple[_LiteralTemplate, ...]
    conclusion: _LiteralTemplate
    used: tuple[str, ...]

    def has_instance(self, premises: Sequence[Literal], conclusion: Literal, domain: Collection[str]) -> bool:
        """Whether a binding over `domain` instantiates this rule to `premises` -> `conclusion`."""
        if len(premises) != len(self.premises) or (self.variables and not domain):
            return False
        binding: dict[str, str] | None = {}
        for template, lit in zip((*self.premises, self.conclusion), (*premises, conclusion)):
            if (template.positive, template.predicate) != (lit.positive, lit.predicate):
                return False
            binding = _unify(template.args, lit.args, binding, domain)
            if binding is None:
                return False
        return True


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


def _decompose_rule(rule_id: int, rule: Formula) -> RuleTemplate:
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
    mentioned = {name for t in (*premises, conclusion) for is_var, name in t.args if is_var}
    used = tuple(v for v in variables if v in mentioned)
    return RuleTemplate(rule_id, tuple(variables), premises, conclusion, used)


def rule_templates(kb: KnowledgeBase) -> tuple[RuleTemplate, ...]:
    """`kb.rules` decomposed into premise and conclusion templates, in rule order.

    Raises UnsupportedFragment for a rule outside the Horn fragment. Raises
    DomainTooLarge, before any matching, when the bindings enumerable over
    the declared constants, `len(domain) ** len(variables)` summed over the
    rules, exceed `DEFAULT_GROUNDING_BOUND`: the bound counts what could be
    bound, not what matches, so no fact can change whether it trips.
    """
    rules = tuple(_decompose_rule(rule_id, rule) for rule_id, rule in kb.rules)
    size = len(kb.table.constants)
    total = 0
    for rule in rules:
        total += size ** len(rule.variables)
        if total > DEFAULT_GROUNDING_BOUND:
            raise DomainTooLarge(f"grounding needs more than {DEFAULT_GROUNDING_BOUND} instantiations")
    return rules


# ---------------------------------------------------------------------------
# Forward chaining
# ---------------------------------------------------------------------------


def index_literals(literals: Iterable[Literal], into: _Index | None = None) -> _Index:
    """Argument tuples of `literals` by (polarity, predicate, arity), added to `into` (a new index when None)."""
    index = {} if into is None else into
    for lit in literals:
        index.setdefault((lit.positive, lit.predicate, len(lit.args)), set()).add(lit.args)
    return index


def _join(
    bindings: list[dict[str, str]],
    template: _LiteralTemplate,
    rows: Collection[tuple[str, ...]],
    domain: Collection[str],
) -> list[dict[str, str]]:
    """Each binding extended in every way that instantiates `template` to a row of `rows`."""
    out = []
    for binding in bindings:
        if all(name in binding for is_var, name in template.args if is_var):
            if template.ground(binding) in rows:
                out.append(binding)
            continue
        for values in rows:
            extended = _unify(template.args, values, binding, domain)
            if extended is not None:
                out.append(extended)
    return out


def _matches(
    rule: RuleTemplate, index: _Index, domain: Collection[str], closed_world: bool, delta: _Index | None
) -> list[tuple[str, ...]]:
    """Sorted value tuples of `rule.used` under which every premise holds.

    A premise holds when `index` has it; with `closed_world`, a negative
    premise also holds while its positive counterpart is absent, so it
    filters bindings instead of producing them. Given `delta` (a part of
    `index`), only bindings under which some premise is in `delta` count.
    A used variable that no matched premise binds ranges over `domain`.
    """
    if delta is None:
        seeds = [(-1, [{}])]
    else:
        seeds = [(i, _join([{}], p, delta[p.key], domain)) for i, p in enumerate(rule.premises) if p.key in delta]
    found: set[tuple[str, ...]] = set()
    for seed, bindings in seeds:
        for i, premise in enumerate(rule.premises):
            if bindings and i != seed and (premise.positive or not closed_world):
                bindings = _join(bindings, premise, index.get(premise.key, _NONE), domain)
        if not bindings:
            continue
        free = [v for v in rule.used if v not in bindings[0]]
        if free:
            fills = [dict(zip(free, values)) for values in product(domain, repeat=len(free))]
            bindings = [{**binding, **fill} for binding in bindings for fill in fills]
        for binding in bindings:
            if closed_world and not all(
                p.positive
                or p.ground(binding) in index.get(p.key, _NONE)
                or p.ground(binding) not in index.get((True, p.predicate, len(p.args)), _NONE)
                for p in rule.premises
            ):
                continue
            found.add(tuple(binding[v] for v in rule.used))
    return sorted(found)


def fire_rounds(
    index: _Index, rules: Sequence[RuleTemplate], domain: Collection[str], cwa: bool = False
) -> list[GroundRule]:
    """Fire `rules`, with variables over `domain`, in rounds, adding each conclusion to `index` in place.

    A round joins every rule's premises against the literals known when it
    began and fires each match whose conclusion is new, in rule order and
    then in order of the binding values in quantifier order; when several
    matches conclude the same literal, the first one wins. After round one,
    only matches that use a literal derived in the round before are tried
    (semi-naive evaluation). A quantified variable that no literal mentions
    is bound to the least constant. The open-world phase runs to its
    fixpoint; with `cwa`, a closed-world phase follows, in which a negative
    premise also holds while its positive counterpart is absent. Returns the
    rules fired, in firing order.
    """
    domain = frozenset(domain)
    least = min(domain, default="")
    live = [rule for rule in rules if domain or not rule.variables]
    by_premise: dict[tuple[bool, str, int], set[int]] = {}  # premise key -> positions in `live`
    for position, rule in enumerate(live):
        for premise in rule.premises:
            by_premise.setdefault(premise.key, set()).add(position)
    fired: list[GroundRule] = []
    for closed_world in ((False, True) if cwa else (False,)):
        delta: _Index | None = None
        while True:
            new: dict[Literal, GroundRule] = {}
            candidates = live
            if delta is not None:  # only rules with a premise the round before derived
                candidates = [live[i] for i in sorted({i for key in delta for i in by_premise.get(key, ())})]
            for rule in candidates:
                for values in _matches(rule, index, domain, closed_world, delta):
                    binding = dict(zip(rule.used, values))
                    conclusion = rule.conclusion.instantiate(binding)
                    if conclusion.args in index.get(rule.conclusion.key, _NONE) or conclusion in new:
                        continue
                    for variable in rule.variables:
                        binding.setdefault(variable, least)
                    premises = tuple(p.instantiate(binding) for p in rule.premises)
                    new[conclusion] = GroundRule(rule.rule_id, tuple(sorted(binding.items())), premises, conclusion)
            if not new:
                break
            fired.extend(new.values())
            delta = index_literals(new)
            index_literals(new, index)
    return fired


def forward_chain(kb: KnowledgeBase, *, cwa: bool = False) -> KnowledgeBase:
    """Least fixpoint of the rules over the initial literals.

    Rules fire in rounds (`fire_rounds`): each round joins every rule's
    premises against the literals known when it began and fires the matches,
    in rule then binding order, until a round adds nothing. Derivation
    records come in round order, after those `kb` already holds. With `cwa`,
    a second phase runs after the open-world fixpoint in which a negative
    antecedent also matches when its positive counterpart is underivable.
    A theory with no rules is its own fixpoint, so `kb` itself is returned.
    Raises DomainTooLarge past the grounding bound (`rule_templates`).
    """
    if not kb.rules:
        return kb
    fired = fire_rounds(index_literals(kb.literals), rule_templates(kb), kb.table.constants, cwa)
    return replace(kb, literals=kb.literals | {g.conclusion for g in fired}, derivations=kb.derivations + tuple(fired))


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
        raise UnsupportedFragment(f"unsupported question: {render_formula(question)}")
    args: list[tuple[bool, str]] = []
    for term in body.args:
        if isinstance(term, Variable):
            if term.name not in variables:
                raise UnsupportedFragment(f"question has free variable {term.name}")
            args.append((True, term.name))
        else:
            args.append((False, term.name))
    return positive, body.predicate, tuple(args), tuple(variables)


def decide(kb: KnowledgeBase, question: Formula, *, cwa: bool = False) -> Verdict:
    """Three-valued adjudication of `question` against `forward_chain(kb, cwa=cwa)`.

    Ground literal questions answer T when the literal is derived, F when its
    negation is derived, U otherwise. Existential atom questions answer T on
    any derived witness and otherwise U (refuting an existential is beyond
    forward chaining). A contradictory fixpoint yields U with a
    contradiction note instead of an arbitrary label; other questions raise
    UnsupportedFragment. Chaining is idempotent, so a `kb` that is already a
    fixpoint judges the same.
    """
    chained = forward_chain(kb, cwa=cwa)
    if chained.contradiction:
        return Verdict(U, notes=("contradiction: a literal and its negation were both derived",))

    if isinstance(question, Exists):
        positive, predicate, args, variables = existential_targets(question)
        # The witness is the least tuple of values in quantifier order; a
        # variable quantified twice takes its value from the inner quantifier.
        mentioned = {name for is_var, name in args if is_var}
        order = [v for i, v in enumerate(variables) if v in mentioned and v not in variables[i + 1 :]]
        domain = chained.table.constants
        witnesses = [
            (tuple(binding[v] for v in order), lit)
            for lit in (chained.literals if domain else ())
            if lit.positive == positive
            and lit.predicate == predicate
            and (binding := _unify(args, lit.args, {}, domain)) is not None
        ]
        if witnesses:
            _, witness = min(witnesses)
            return Verdict(T, support=_support_chain(witness, chained.derivations))
        return Verdict(U, notes=("existential not witnessed; its refutation is out of fragment",))

    lit = literal_from_formula(question)
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
                    raise UnsupportedFragment(f"formula has free variable {term.name}")
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
                    raise UnsupportedFragment(f"formula has free variable {term.name}")
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


def brute_force_entails(kb: KnowledgeBase, question: Formula) -> str:
    """Entailment by enumerating every model of the grounded theory.

    Returns T if the question holds in every model, F if it fails in every
    model, U otherwise. Only ground atoms occurring in the grounded theory or
    question are enumerated (absent atoms are unconstrained either way); more
    than `DEFAULT_ATOM_LIMIT` of them raises TooManyAtoms, and a free variable
    raises UnsupportedFragment.
    """
    domain = tuple(sorted(kb.table.constants))
    atom_index: dict[tuple[str, tuple[str, ...]], int] = {}
    trees = [_ground_tree(literal_to_formula(lit), {}, domain, atom_index) for lit in sorted(kb.literals)]
    trees += [_ground_tree(rule, {}, domain, atom_index) for _, rule in kb.rules]
    question_tree = _ground_tree(question, {}, domain, atom_index)

    n = len(atom_index)
    if n > DEFAULT_ATOM_LIMIT:
        raise TooManyAtoms(f"{n} ground atoms occur; the enumeration limit is {DEFAULT_ATOM_LIMIT}")
    # Assignments are enumerated in chunks of 2^18, each chunk one Python int
    # per atom: bit k is the atom's value in the chunk's k-th assignment.
    # The low atoms take the same columns in every chunk; each higher atom is
    # constant within a chunk, set by the chunk's number.
    low = min(n, _CHUNK_BITS)
    full = (1 << (1 << low)) - 1
    nbytes = max(1, (1 << low) >> 3)
    columns = []
    for i in range(low):
        if i < 3:
            unit = bytes([(0xAA, 0xCC, 0xF0)[i]])  # bit k of the byte is bit i of k
        else:
            unit = bytes(1 << (i - 3)) + b"\xff" * (1 << (i - 3))
        columns.append(int.from_bytes(unit * (nbytes // len(unit)), "little") & full)

    def evaluate(tree: Any) -> int:
        tag = tree[0]
        if tag == "atom":
            return values[tree[1]]
        if tag == "const":
            return full if tree[1] else 0
        if tag == "not":
            return full ^ evaluate(tree[1])
        if tag == "and":
            out = full
            for sub in tree[1]:
                out &= evaluate(sub)
            return out
        if tag == "or":
            out = 0
            for sub in tree[1]:
                out |= evaluate(sub)
            return out
        return full ^ evaluate(tree[1]) ^ evaluate(tree[2])

    saw_model = False
    saw_q_true = False
    saw_q_false = False
    for chunk in range(1 << (n - low)):
        values = columns + [full if chunk >> j & 1 else 0 for j in range(n - low)]
        theory = full
        for tree in trees:
            theory &= evaluate(tree)
            if not theory:
                break
        if not theory:
            continue
        saw_model = True
        q = evaluate(question_tree)
        if theory & q:
            saw_q_true = True
        if theory & ~q:
            saw_q_false = True
        if saw_q_true and saw_q_false:
            return U

    if not saw_model or not saw_q_false:
        return T
    if not saw_q_true:
        return F
    return U
