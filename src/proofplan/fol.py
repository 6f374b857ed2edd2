"""First-order logic terms, formulas, parsing, and rendering.

The syntax covers the function-free fragment the pipeline works in:
Boolean connectives, single-variable quantifiers, equality, and predicates
over variables and constants. Both the Unicode connectives (∀ ∃ ¬ ∧ ∨ → ↔)
and their ASCII aliases (forall, exists, not/~, &, |, ->, <->) are accepted,
and rendering always emits the Unicode form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "Formula",
    "Atom",
    "Equality",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "ForAll",
    "Exists",
    "SymbolTable",
    "FolError",
    "FormulaSyntaxError",
    "ArityMismatch",
    "UndeclaredSymbol",
    "parse_formula",
    "render_formula",
    "free_vars",
    "MAX_DEPTH",
]

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Nesting bound on parsed formulas; guards against adversarial backend output.
MAX_DEPTH = 64

# Parser recursion cap. Grammar recursion is a constant factor deeper than the
# resulting AST (precedence ladder, redundant parentheses), so the exact
# MAX_DEPTH check runs on the finished AST and this only protects the stack.
_GRAMMAR_CAP = 10 * MAX_DEPTH

# Surface markers of the dataset style `P(a, True)` / `P(a, False)`. They are
# folded into polarity at parse time and never stored in the AST.
RESERVED_WORDS = frozenset({"True", "False"})


class FolError(Exception):
    """Base class for errors raised by this module."""


class FormulaSyntaxError(FolError):
    """Malformed formula text.

    `position` is a character index into the input, `offset` the corresponding
    UTF-8 byte offset (reported downstream for diagnostics).
    """

    def __init__(self, message: str, text: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.offset = len(text[:position].encode("utf-8"))
        self.expected = expected
        detail = f"{message} at offset {self.offset}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)


class ArityMismatch(FolError):
    def __init__(self, predicate: str, expected: int, got: int):
        self.predicate = predicate
        self.expected = expected
        self.got = got
        super().__init__(f"predicate {predicate} declared with arity {expected}, used with {got}")


class UndeclaredSymbol(FolError):
    def __init__(self, name: str, role: str):
        self.name = name
        self.role = role
        super().__init__(f"undeclared {role}: {name}")


def _check_ident(name: str, what: str) -> None:
    if not IDENT_RE.fullmatch(name or ""):
        raise ValueError(f"invalid {what} name: {name!r}")


@dataclass(frozen=True, slots=True)
class Term:
    """Base class; concrete terms are Variable and Constant."""

    name: str

    def __post_init__(self) -> None:
        _check_ident(self.name, "term")


@dataclass(frozen=True, slots=True)
class Variable(Term):
    pass


@dataclass(frozen=True, slots=True)
class Constant(Term):
    pass


class Formula:
    """Base class for formula nodes. All nodes are immutable values."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    predicate: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        _check_ident(self.predicate, "predicate")
        object.__setattr__(self, "args", tuple(self.args))
        if not self.args:
            raise ValueError("atoms take at least one argument")


@dataclass(frozen=True, slots=True)
class Equality(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    items: tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) < 2:
            raise ValueError("conjunction needs at least two conjuncts")


@dataclass(frozen=True, slots=True)
class Or(Formula):
    items: tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) < 2:
            raise ValueError("disjunction needs at least two disjuncts")


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class ForAll(Formula):
    var: str
    body: Formula

    def __post_init__(self) -> None:
        _check_ident(self.var, "variable")


@dataclass(frozen=True, slots=True)
class Exists(Formula):
    var: str
    body: Formula

    def __post_init__(self) -> None:
        _check_ident(self.var, "variable")


@dataclass(frozen=True)
class SymbolTable:
    """Declared predicates (with arity) and constants, plus optional sort tags.

    Sort tags are plain strings compared by equality; `predicate_sorts[p]`
    holds one tag (or None) per argument position, `constant_sorts[c]` one tag
    per constant. Instances must not be mutated after construction.
    """

    predicates: dict[str, int] = field(default_factory=dict)
    constants: frozenset[str] = field(default_factory=frozenset)
    predicate_sorts: dict[str, tuple[str | None, ...]] = field(default_factory=dict)
    constant_sorts: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicates", dict(self.predicates))
        object.__setattr__(self, "constants", frozenset(self.constants))
        object.__setattr__(self, "predicate_sorts", dict(self.predicate_sorts))
        object.__setattr__(self, "constant_sorts", dict(self.constant_sorts))
        for name, arity in self.predicates.items():
            _check_ident(name, "predicate")
            if arity < 1:
                raise ValueError(f"predicate {name} must have arity >= 1, got {arity}")
        for name in self.constants:
            _check_ident(name, "constant")
        overlap = set(self.predicates) & self.constants
        if overlap:
            raise ValueError(f"identifiers declared as both predicate and constant: {sorted(overlap)}")
        for name, sorts in self.predicate_sorts.items():
            if name not in self.predicates:
                raise ValueError(f"sorts declared for unknown predicate {name}")
            if len(sorts) != self.predicates[name]:
                raise ValueError(f"sort tuple for {name} does not match its arity")
        for name in self.constant_sorts:
            if name not in self.constants:
                raise ValueError(f"sort declared for unknown constant {name}")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Parser (recursive descent; precedence ¬ > ∧ > ∨ > → > ↔, → right-associative)
# ---------------------------------------------------------------------------


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


def parse_formula(text: str, table: SymbolTable | None = None) -> Formula:
    """Parse `text` into a Formula.

    With a SymbolTable, predicate declaredness and arity are enforced and
    every non-variable identifier must be a declared constant.
    """
    return _Parser(text, table).parse()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# Higher binds tighter. Used to decide where parentheses are required so that
# parse_formula(render_formula(f)) reproduces f exactly.
_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_UNARY = 5
_PREC_ATOM = 6


def _prec(f: Formula) -> int:
    if isinstance(f, (Atom, Equality)):
        return _PREC_ATOM
    if isinstance(f, (Not, ForAll, Exists)):
        return _PREC_UNARY
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, Implies):
        return _PREC_IMPLIES
    return _PREC_IFF


def _render(f: Formula) -> str:
    if isinstance(f, Atom):
        return f"{f.predicate}({', '.join(t.name for t in f.args)})"
    if isinstance(f, Equality):
        return f"{f.left.name} = {f.right.name}"
    if isinstance(f, Not):
        return "¬" + _wrap(f.body, _PREC_UNARY)
    if isinstance(f, (ForAll, Exists)):
        sigil = "∀" if isinstance(f, ForAll) else "∃"
        return f"{sigil}{f.var} " + _wrap(f.body, _PREC_UNARY)
    if isinstance(f, And):
        return " ∧ ".join(_wrap(item, _PREC_AND + 1) for item in f.items)
    if isinstance(f, Or):
        return " ∨ ".join(_wrap(item, _PREC_OR + 1) for item in f.items)
    if isinstance(f, Implies):
        return _wrap(f.antecedent, _PREC_IMPLIES + 1) + " → " + _wrap(f.consequent, _PREC_IMPLIES)
    if isinstance(f, Iff):
        return _wrap(f.left, _PREC_IFF + 1) + " ↔ " + _wrap(f.right, _PREC_IFF)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(f: Formula, minimum: int) -> str:
    text = _render(f)
    return f"({text})" if _prec(f) < minimum else text


def render_formula(f: Formula) -> str:
    """Canonical single-line Unicode rendering; inverse of parse_formula."""
    return _render(f)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def _ast_depth(f: Formula) -> int:
    children = list(_children(f))
    if not children:
        return 1
    return 1 + max(_ast_depth(c) for c in children)


def _children(f: Formula) -> Iterator[Formula]:
    if isinstance(f, Not):
        yield f.body
    elif isinstance(f, (And, Or)):
        yield from f.items
    elif isinstance(f, Implies):
        yield f.antecedent
        yield f.consequent
    elif isinstance(f, Iff):
        yield f.left
        yield f.right
    elif isinstance(f, (ForAll, Exists)):
        yield f.body


def free_vars(f: Formula) -> set[str]:
    """Variables with at least one free occurrence in `f`."""
    if isinstance(f, Atom):
        return {t.name for t in f.args if isinstance(t, Variable)}
    if isinstance(f, Equality):
        return {t.name for t in (f.left, f.right) if isinstance(t, Variable)}
    if isinstance(f, (ForAll, Exists)):
        return free_vars(f.body) - {f.var}
    out: set[str] = set()
    for child in _children(f):
        out |= free_vars(child)
    return out
