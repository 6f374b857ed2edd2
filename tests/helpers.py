"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms:
reachability comes from repeated boolean matrix squaring, the reference
schedule from a layer-at-a-time indegree count, the reference chaining
engine grounds every rule over every binding and scans the ground rules, and
the reference parser tokenizes character by character and descends a
five-rule precedence ladder, the reference static check tests every
statement for all six finding kinds against any table, and the reference
diagnosis walks a trace's records once per check, so tests check two
unrelated routes to the same answer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from proofplan.fol import (
    IDENT_RE,
    MAX_DEPTH,
    RESERVED_WORDS,
    And,
    ArityMismatch,
    Atom,
    Constant,
    Equality,
    Exists,
    ForAll,
    Formula,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    SymbolTable,
    Term,
    UndeclaredSymbol,
    Variable,
    _children,
    free_vars,
    render_formula,
)
from proofplan import plan as planmod
from proofplan.backends import SolverStubBackend
from proofplan.errors import SchemaError
from proofplan import solver as solvermod
from proofplan.pipeline import DIAGNOSIS_LABELS, Diagnosis, Evidence, Trace
from proofplan.plan import Plan, PlanStep
from proofplan.solver import GroundRule, KnowledgeBase, Literal, rule_templates
from proofplan.structured import StructuredRepr, _walk_atoms, is_ground_literal

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


class CountingStub(SolverStubBackend):
    """The solver stub, 5 ms slower per call, counting the instances it starts
    (one translate call each); it raises KeyboardInterrupt as instance `interrupt_at` starts."""

    def __init__(self, interrupt_at=None):
        super().__init__()
        self.started, self.interrupt_at = 0, interrupt_at

    def complete(self, prompt, params):
        if params.meta.stage == "translate":
            self.started += 1
            if params.meta.instance_id == self.interrupt_at:
                raise KeyboardInterrupt
        time.sleep(0.005)  # a caller that ends the run cancels the queue while this instance runs
        return super().complete(prompt, params)


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
# Reference parser: the original per-character tokenizer and five-rule
# recursive-descent ladder, which `parse_formula` must agree with.
# ---------------------------------------------------------------------------

_GRAMMAR_CAP = 10 * MAX_DEPTH  # the ladder's recursion cap

_T_FORALL = "FORALL"
_T_EXISTS = "EXISTS"
_T_NOT = "NOT"
_T_AND = "AND"
_T_OR = "OR"
_T_IMPLIES = "IMPLIES"
_T_IFF = "IFF"
_T_EQUALS = "EQUALS"
_T_LPAREN = "LPAREN"
_T_RPAREN = "RPAREN"
_T_COMMA = "COMMA"
_T_IDENT = "IDENT"
_T_END = "END"

_SINGLE_CHAR = {
    "∀": _T_FORALL,
    "∃": _T_EXISTS,
    "¬": _T_NOT,
    "~": _T_NOT,
    "∧": _T_AND,
    "&": _T_AND,
    "∨": _T_OR,
    "|": _T_OR,
    "→": _T_IMPLIES,
    "↔": _T_IFF,
    "=": _T_EQUALS,
    "(": _T_LPAREN,
    ")": _T_RPAREN,
    ",": _T_COMMA,
}

_KEYWORDS = {
    "forall": _T_FORALL,
    "exists": _T_EXISTS,
    "not": _T_NOT,
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            tokens.append((_T_IFF, "<->", i))
            i += 3
            continue
        if text.startswith("->", i):
            tokens.append((_T_IMPLIES, "->", i))
            i += 2
            continue
        kind = _SINGLE_CHAR.get(ch)
        if kind is not None:
            tokens.append((kind, ch, i))
            i += 1
            continue
        m = IDENT_RE.match(text, i)
        if m:
            word = m.group(0)
            tokens.append((_KEYWORDS.get(word, _T_IDENT), word, i))
            i = m.end()
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", text, i)
    tokens.append((_T_END, "", n))
    return tokens


# Recursive descent; precedence ¬ > ∧ > ∨ > → > ↔, → right-associative.


class _Parser:
    def __init__(self, text: str, table: SymbolTable | None):
        self.text = text
        self.table = table
        self.tokens = _tokenize(text)
        self.pos = 0
        self.bound: list[str] = []

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise FormulaSyntaxError(
                f"unexpected {tok[1]!r}" if tok[0] != _T_END else "unexpected end of input",
                self.text,
                tok[2],
                expected=(what,),
            )
        return self.advance()

    def fail(self, expected: tuple[str, ...]) -> FormulaSyntaxError:
        tok = self.peek()
        message = f"unexpected {tok[1]!r}" if tok[0] != _T_END else "unexpected end of input"
        return FormulaSyntaxError(message, self.text, tok[2], expected=expected)

    def parse(self) -> Formula:
        f = self.formula(0)
        tok = self.peek()
        if tok[0] != _T_END:
            raise FormulaSyntaxError(f"trailing input {tok[1]!r}", self.text, tok[2], expected=("end of input",))
        if _ast_depth(f) > MAX_DEPTH:
            raise FormulaSyntaxError(f"formula exceeds maximum depth {MAX_DEPTH}", self.text, 0)
        return f

    def formula(self, depth: int) -> Formula:
        return self.iff(depth)

    def iff(self, depth: int) -> Formula:
        self.check_depth(depth)
        left = self.implies(depth + 1)
        if self.peek()[0] == _T_IFF:
            self.advance()
            right = self.iff(depth + 1)
            return Iff(left, right)
        return left

    def implies(self, depth: int) -> Formula:
        left = self.disjunction(depth + 1)
        if self.peek()[0] == _T_IMPLIES:
            self.advance()
            right = self.implies(depth + 1)
            return Implies(left, right)
        return left

    def disjunction(self, depth: int) -> Formula:
        items = [self.conjunction(depth + 1)]
        while self.peek()[0] == _T_OR:
            self.advance()
            items.append(self.conjunction(depth + 1))
        return items[0] if len(items) == 1 else Or(tuple(items))

    def conjunction(self, depth: int) -> Formula:
        items = [self.unary(depth + 1)]
        while self.peek()[0] == _T_AND:
            self.advance()
            items.append(self.unary(depth + 1))
        return items[0] if len(items) == 1 else And(tuple(items))

    def unary(self, depth: int) -> Formula:
        self.check_depth(depth)
        kind, _, pos = self.peek()
        if kind == _T_NOT:
            self.advance()
            return Not(self.unary(depth + 1))
        if kind in (_T_FORALL, _T_EXISTS):
            self.advance()
            name_tok = self.expect(_T_IDENT, "variable name")
            var = name_tok[1]
            if var in RESERVED_WORDS:
                raise FormulaSyntaxError(f"{var!r} is reserved", self.text, name_tok[2])
            self.bound.append(var)
            try:
                body = self.unary(depth + 1)
            finally:
                self.bound.pop()
            return ForAll(var, body) if kind == _T_FORALL else Exists(var, body)
        if kind == _T_LPAREN:
            self.advance()
            inner = self.formula(depth + 1)
            self.expect(_T_RPAREN, "')'")
            return inner
        if kind == _T_IDENT:
            return self.atom_or_equality(depth)
        raise self.fail(("formula",))

    def atom_or_equality(self, depth: int) -> Formula:
        name_tok = self.advance()
        name = name_tok[1]
        nxt = self.peek()
        if nxt[0] == _T_LPAREN:
            if name in RESERVED_WORDS:
                raise FormulaSyntaxError(f"{name!r} is reserved", self.text, name_tok[2])
            self.advance()
            args: list[tuple[str, int]] = [self.term_name()]
            while self.peek()[0] == _T_COMMA:
                self.advance()
                args.append(self.term_name())
            self.expect(_T_RPAREN, "',' or ')'")
            return self.make_atom(name, name_tok[2], args)
        if nxt[0] == _T_EQUALS:
            self.advance()
            right = self.term_name()
            return Equality(self.classify(name, name_tok[2]), self.classify(right[0], right[1]))
        raise self.fail(("'('", "'='"))

    def term_name(self) -> tuple[str, int]:
        tok = self.expect(_T_IDENT, "term")
        return tok[1], tok[2]

    def make_atom(self, predicate: str, pred_pos: int, args: list[tuple[str, int]]) -> Formula:
        # Fold the dataset-style trailing boolean into polarity.
        negated = False
        if len(args) >= 2 and args[-1][0] in RESERVED_WORDS:
            negated = args[-1][0] == "False"
            args = args[:-1]
        for name, pos in args:
            if name in RESERVED_WORDS:
                raise FormulaSyntaxError(f"{name!r} is reserved", self.text, pos)
        if self.table is not None:
            if predicate not in self.table.predicates:
                raise UndeclaredSymbol(predicate, "predicate")
            declared = self.table.predicates[predicate]
            if declared != len(args):
                raise ArityMismatch(predicate, declared, len(args))
        atom = Atom(predicate, tuple(self.classify(name, pos) for name, pos in args))
        return Not(atom) if negated else atom

    def classify(self, name: str, pos: int) -> Term:
        """Decide variable vs constant for an identifier in term position.

        Quantifier bindings shadow everything; declared constants come next;
        otherwise single lowercase letters read as variables and anything else
        as a constant (undeclared multi-character names are an error when a
        table is enforced).
        """
        if name in RESERVED_WORDS:
            raise FormulaSyntaxError(f"{name!r} is reserved", self.text, pos)
        if name in self.bound:
            return Variable(name)
        if self.table is not None:
            if name in self.table.constants:
                return Constant(name)
            if len(name) == 1 and name.islower():
                return Variable(name)
            raise UndeclaredSymbol(name, "constant")
        if len(name) == 1 and name.islower():
            return Variable(name)
        return Constant(name)

    def check_depth(self, depth: int) -> None:
        if depth > _GRAMMAR_CAP:
            raise FormulaSyntaxError(f"formula exceeds maximum depth {MAX_DEPTH}", self.text, self.peek()[2])


def _ast_depth(f: Formula) -> int:
    """Nodes on the longest root-to-leaf path, walked without recursion."""
    depth, stack = 0, [(f, 1)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        stack.extend((child, level + 1) for child in _children(node))
    return depth


def reference_parse_formula(text: str, table: SymbolTable | None = None) -> Formula:
    """`parse_formula` as a per-character tokenizer and a recursive-descent ladder."""
    return _Parser(text, table).parse()


def reference_infer_table(formulas: Iterable[Formula]) -> SymbolTable:
    """The symbol table `build_repr` infers, by a second walk over the parsed formulas."""
    predicates: dict[str, int] = {}
    constants: set[str] = set()
    for f in formulas:
        for node in _walk_atoms(f):
            if isinstance(node, Atom):
                arity = len(node.args)
                seen = predicates.get(node.predicate)
                if seen is not None and seen != arity:
                    detail = f"predicate {node.predicate} used with conflicting arities {sorted({seen, arity})}"
                    raise SchemaError("/Premises", detail)
                predicates[node.predicate] = arity
                terms = node.args
            else:
                terms = (node.left, node.right)
            constants.update(t.name for t in terms if isinstance(t, Constant))
    return SymbolTable(predicates=predicates, constants=frozenset(constants))


# ---------------------------------------------------------------------------
# Reference static check: the original general validator, which checks a
# representation against any table and which `StructuredRepr.warnings` must
# agree with on the representation's own table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    kind: str
    statement_id: int
    detail: str


@dataclass(frozen=True)
class StaticReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def reference_validate_static(repr_: StructuredRepr, strict_table: SymbolTable) -> StaticReport:
    """Check every statement against `strict_table`; findings are data, not errors.

    Findings are ordered by statement id, then by the position of the
    offending occurrence inside the statement's formula.
    """
    findings: list[Finding] = []
    fact_ids = {s.id for s in repr_.facts}
    rule_ids = {s.id for s in repr_.rules}
    for stmt in repr_.statements():
        for node in _walk_atoms(stmt.symbol):
            if isinstance(node, Atom):
                declared_arity = strict_table.predicates.get(node.predicate)
                if declared_arity is None:
                    findings.append(Finding("undeclared-predicate", stmt.id, node.predicate))
                elif declared_arity != len(node.args):
                    findings.append(
                        Finding(
                            "arity-mismatch",
                            stmt.id,
                            f"{node.predicate} declared /{declared_arity}, used /{len(node.args)}",
                        )
                    )
                terms = node.args
            else:
                terms = (node.left, node.right)
            for position, term in enumerate(terms):
                if not isinstance(term, Constant):
                    continue
                if term.name not in strict_table.constants:
                    findings.append(Finding("undeclared-constant", stmt.id, term.name))
                elif isinstance(node, Atom):
                    arg_sorts = strict_table.predicate_sorts.get(node.predicate)
                    want = arg_sorts[position] if arg_sorts and position < len(arg_sorts) else None
                    have = strict_table.constant_sorts.get(term.name)
                    if want is not None and have is not None and want != have:
                        findings.append(
                            Finding(
                                "sort-mismatch",
                                stmt.id,
                                f"{node.predicate} arg {position + 1} wants {want}, {term.name} is {have}",
                            )
                        )
        if stmt.id in fact_ids and not is_ground_literal(stmt.symbol):
            findings.append(Finding("non-ground-fact", stmt.id, render_formula(stmt.symbol)))
        if stmt.id in rule_ids:
            open_vars = free_vars(stmt.symbol)
            if open_vars:
                findings.append(Finding("open-rule", stmt.id, ", ".join(sorted(open_vars))))
    return StaticReport(findings=tuple(findings))


def formatted_findings(report: StaticReport) -> tuple[str, ...]:
    """Findings in the `"<kind> (statement <id>): <detail>"` form traces carry."""
    return tuple(f"{f.kind} (statement {f.statement_id}): {f.detail}" for f in report.findings)


# ---------------------------------------------------------------------------
# Random graphs and plans
# ---------------------------------------------------------------------------


def matrix_rows(matrix) -> tuple[int, ...]:
    """The row bitmasks that pack the 0/1 `matrix`."""
    return tuple(sum(value << j for j, value in enumerate(row)) for row in matrix)


def _numbered_steps(n: int) -> tuple[PlanStep, ...]:
    return tuple(PlanStep(id=i + 1, content=f"step {i + 1}") for i in range(n))


def plan_from_matrix(matrix, steps=None) -> Plan:
    """The plan over `steps` (by default "step 1".."step N") whose rows pack the 0/1 `matrix`."""
    return Plan(_numbered_steps(len(matrix)) if steps is None else steps, matrix_rows(matrix))


def is_cycle_of(cycle, matrix) -> bool:
    """Whether the 1-based `cycle` visits distinct steps along edges of the 0/1 `matrix` and closes."""
    return len(cycle) == len(set(cycle)) >= 2 and all(
        matrix[a - 1][b - 1] for a, b in zip(cycle, cycle[1:] + cycle[:1])
    )


def predecessors(plan: Plan, j: int) -> set[int]:
    """Steps with an edge into step j, read off `plan.edges()`."""
    return {i for i, k in plan.edges() if k == j}


def successors(plan: Plan, i: int) -> set[int]:
    """Steps with an edge out of step i, read off `plan.edges()`."""
    return {k for h, k in plan.edges() if h == i}


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


def reference_ground_rules(kb: KnowledgeBase) -> list[GroundRule]:
    """Every instantiation of every rule over the declared constants.

    Emitted in rule order, then in lexicographic binding order, deduplicated
    on the resulting ground implication (the first binding is kept).
    """
    domain = tuple(sorted(kb.table.constants))
    out: list[GroundRule] = []
    seen: set[tuple[int, tuple[Literal, ...], Literal]] = set()
    for rule in rule_templates(kb):
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


def reference_fire_rounds(literals: set[Literal], grounded: Sequence[GroundRule], cwa: bool = False) -> list[GroundRule]:
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
    for closed_world in ((False, True) if cwa else (False,)):
        candidates: Sequence[int] = range(len(grounded))
        while candidates:
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


# ---------------------------------------------------------------------------
# Reference diagnosis: one walk of the records per check
# ---------------------------------------------------------------------------


def reference_diagnose(trace: Trace, cwa: bool = False) -> Diagnosis:
    """Deterministic audit of a trace; every label carries evidence.

    The three-walk audit `pipeline.diagnose` replaced, kept as it was apart
    from building a `Diagnosis` from its evidence alone and, as `diagnose`
    does, probing premature termination closed-world under `cwa`: the rule
    and prerequisite checks, the premature-termination check and the step
    redundancy check each walk the records on their own.

    Checks that need structured derivation records or a groundable context
    are skipped when that information is absent, so free-text traces can at
    most be flagged for structural redundancy. With `cwa`, a consumed negative
    premise counts as available while its positive counterpart is not.
    A structured context supplies its kept knowledge base and rule templates.
    """
    evidence: list[Evidence] = []

    kb = rules = None  # an unstructured context has no knowledge base
    if isinstance(trace.context, StructuredRepr):
        try:
            kb, rules = trace.context.kb, trace.context.templates
            domain = kb.table.constants
        except (solvermod.UnsupportedFragment, solvermod.DomainTooLarge):
            pass

    has_structured_records = any(record.derived or record.derivations for record in trace.records)

    # missing prerequisites and rule misuse need per-derivation records
    if rules is not None and has_structured_records:
        available: set[Literal] = set(kb.literals)
        for record in trace.records:
            for derivation in record.derivations:
                rule = rules[derivation.rule_id - 1] if 1 <= derivation.rule_id <= len(rules) else None
                if rule is None or not rule.has_instance(derivation.premises, derivation.conclusion, domain):
                    evidence.append(
                        Evidence(
                            "rule-misuse",
                            step_id=record.step_id,
                            note=f"rule {derivation.rule_id} has no instantiation "
                            f"{[str(p) for p in derivation.premises]} -> {derivation.conclusion}",
                        )
                    )
                else:
                    for premise in derivation.premises:
                        closed = cwa and not premise.positive and premise.negated() not in available
                        if premise not in available and not closed:
                            evidence.append(
                                Evidence(
                                    "missing-prerequisites",
                                    step_id=record.step_id,
                                    note=f"consumed {premise} before any step derived it",
                                )
                            )
                available.add(derivation.conclusion)
            for lit in record.derived:
                available.add(lit)

    # premature termination: the judgment ran while rules could still fire
    if rules is not None and has_structured_records:
        # the judgment step: the first of kind "judgment" in the layered
        # schedule, else the schedule's last step; none for a plan without steps
        schedule = kahn_layers_reference(trace.plan.matrix)
        judges = [i for i in schedule if trace.plan.steps[i - 1].kind == "judgment"] + schedule[-1:]
        judgment_id = judges[0] if judges else None
        cutoff = next((k for k, r in enumerate(trace.records) if r.step_id == judgment_id), None)
        if cutoff is not None:
            # Premises are given, so they count as available from the start.
            available = set(kb.literals)
            for record in trace.records[:cutoff]:
                available.update(record.derived)
                available.update(d.conclusion for d in record.derivations)
            derivable = solvermod.fire_rounds(available, rules, domain, cwa)
            if derivable:
                evidence.append(
                    Evidence(
                        "premature-termination",
                        step_id=judgment_id,
                        note=f"{derivable[0].conclusion} was still derivable at the final judgment",
                    )
                )

    # redundancy: transitively implied edges, and steps that only re-derive
    reduced = planmod.transitive_reduce(trace.plan)
    for edge in sorted(set(trace.plan.edges()) - set(reduced.edges())):
        evidence.append(Evidence("redundancy", edge=edge, note="edge implied by transitive reduction"))
    if has_structured_records:
        seen: set[Literal] = set()
        for record in trace.records:
            produced = set(record.derived) | {d.conclusion for d in record.derivations}
            if produced and produced <= seen:
                evidence.append(
                    Evidence("redundancy", step_id=record.step_id, note="step only re-derives known facts")
                )
            seen |= produced

    order = {label: i for i, label in enumerate(DIAGNOSIS_LABELS)}
    evidence.sort(key=lambda e: (order[e.label], e.step_id or 0, e.edge or (0, 0)))
    return Diagnosis(tuple(evidence))
