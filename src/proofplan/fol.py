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

# Parser recursion cap, in nesting levels: a parenthesis counts 5, and a ¬, a
# quantifier or the right operand of → or ↔ counts 1 (the levels of a
# five-rule precedence ladder). It only protects the stack; the exact
# MAX_DEPTH check runs on the AST depth the parser computes as it builds.
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
# Parser: one regex splits the text into words, and precedence climbing
# (¬ > ∧ > ∨ > → > ↔; ∧ and ∨ collect flat, → and ↔ nest to the right) builds
# the AST and its depth in the same pass. Words carry no character positions;
# an error recomputes the one it reports.
# ---------------------------------------------------------------------------

_WORD_RE = re.compile(r"<->|->|[A-Za-z][A-Za-z0-9_]*|[∀∃¬~∧&∨|→↔=(),]")
_END = ""  # the word after the last; the regex never yields an empty word

# Binary connective -> (precedence, node class); both spellings share one tuple.
_CONJ, _DISJ, _IMP, _BICOND = (4, And), (3, Or), (2, Implies), (1, Iff)
_BINARY = {"∧": _CONJ, "&": _CONJ, "∨": _DISJ, "|": _DISJ, "→": _IMP, "->": _IMP, "↔": _BICOND, "<->": _BICOND}
_NEGATIONS = frozenset({"¬", "~", "not"})
_QUANTIFIERS = {"∀": ForAll, "forall": ForAll, "∃": Exists, "exists": Exists}
# Every word that is not an identifier.
_SYMBOLS = frozenset({*_BINARY, *_NEGATIONS, *_QUANTIFIERS, "=", "(", ")", ",", _END})


def _stray_character(text: str) -> FormulaSyntaxError:
    """The error for the first non-space character of `text` that starts no word."""
    rest = _WORD_RE.sub(lambda word: " " * len(word.group()), text)
    position = len(rest) - len(rest.lstrip())
    return FormulaSyntaxError(f"unexpected character {text[position]!r}", text, position)


class _Parser:
    __slots__ = ("text", "table", "words", "i", "bound")

    def __init__(self, text: str, table: SymbolTable | None):
        words = _WORD_RE.findall(text)
        if len("".join(words)) != len("".join(text.split())):
            raise _stray_character(text)
        words.append(_END)
        self.text = text
        self.table = table
        self.words = words
        self.i = 0
        self.bound: list[str] = []

    def position(self, index: int) -> int:
        """Character position of word `index` (the text's length for the end)."""
        starts = [word.start() for word in _WORD_RE.finditer(self.text)]
        return starts[index] if index < len(starts) else len(self.text)

    def error(self, message: str, index: int, expected: tuple[str, ...] = ()) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, self.text, self.position(index), expected)

    def unexpected(self, expected: tuple[str, ...]) -> FormulaSyntaxError:
        word = self.words[self.i]
        return self.error(f"unexpected {word!r}" if word else "unexpected end of input", self.i, expected)

    def parse(self) -> Formula:
        formula, depth = self.expr(1, 4)
        if self.words[self.i] != _END:
            raise self.error(f"trailing input {self.words[self.i]!r}", self.i, ("end of input",))
        if depth > MAX_DEPTH:
            raise FormulaSyntaxError(f"formula exceeds maximum depth {MAX_DEPTH}", self.text, 0)
        return formula

    def expr(self, floor: int, level: int) -> tuple[Formula, int]:
        """The formula at the current word whose connectives bind at least
        `floor`, with its AST depth; `level` is the nesting level of its
        first operand, in `_GRAMMAR_CAP`'s count."""
        left, depth = self.unary(level)
        words = self.words
        while True:
            connective = _BINARY.get(words[self.i])
            if connective is None or connective[0] < floor:
                return left, depth
            precedence, node = connective
            self.i += 1
            if precedence >= 3:  # ∧ and ∨ take every operand of the run into one node
                items = [left]
                while True:
                    item, item_depth = self.unary(level) if precedence == 4 else self.expr(4, level)
                    items.append(item)
                    depth = max(depth, item_depth)
                    if _BINARY.get(words[self.i]) is not connective:
                        break
                    self.i += 1
                left = node(tuple(items))
            else:  # → and ↔ nest to the right
                right, right_depth = self.expr(precedence, level + 1)
                left = node(left, right)
                depth = max(depth, right_depth)
            depth += 1

    def unary(self, level: int) -> tuple[Formula, int]:
        if level > _GRAMMAR_CAP:
            raise self.error(f"formula exceeds maximum depth {MAX_DEPTH}", self.i)
        word = self.words[self.i]
        if word in _NEGATIONS:
            self.i += 1
            body, depth = self.unary(level + 1)
            return Not(body), depth + 1
        quantifier = _QUANTIFIERS.get(word)
        if quantifier is not None:
            self.i += 1
            var = self.words[self.i]
            if var in _SYMBOLS:
                raise self.unexpected(("variable name",))
            if var in RESERVED_WORDS:
                raise self.error(f"{var!r} is reserved", self.i)
            self.i += 1
            self.bound.append(var)
            body, depth = self.unary(level + 1)
            self.bound.pop()
            return quantifier(var, body), depth + 1
        if word == "(":
            self.i += 1
            inner = self.expr(1, level + 5)
            if self.words[self.i] != ")":
                raise self.unexpected(("')'",))
            self.i += 1
            return inner
        if word in _SYMBOLS:
            raise self.unexpected(("formula",))
        return self.atom_or_equality(), 1

    def atom_or_equality(self) -> Formula:
        words = self.words
        start = self.i
        name = words[start]
        self.i += 1
        if words[self.i] == "=":
            self.i += 1
            right = self.term_index()
            return Equality(self.classify(start), self.classify(right))
        if words[self.i] != "(":
            raise self.unexpected(("'('", "'='"))
        if name in RESERVED_WORDS:
            raise self.error(f"{name!r} is reserved", start)
        self.i += 1
        args = [self.term_index()]
        while words[self.i] == ",":
            self.i += 1
            args.append(self.term_index())
        if words[self.i] != ")":
            raise self.unexpected(("',' or ')'",))
        self.i += 1
        # Fold the dataset-style trailing boolean into polarity.
        negated = False
        if len(args) >= 2 and words[args[-1]] in RESERVED_WORDS:
            negated = words[args.pop()] == "False"
        for index in args:
            if words[index] in RESERVED_WORDS:
                raise self.error(f"{words[index]!r} is reserved", index)
        if self.table is not None:
            if name not in self.table.predicates:
                raise UndeclaredSymbol(name, "predicate")
            declared = self.table.predicates[name]
            if declared != len(args):
                raise ArityMismatch(name, declared, len(args))
        atom = Atom(name, tuple(map(self.classify, args)))
        return Not(atom) if negated else atom

    def term_index(self) -> int:
        """Index of the identifier at the current word, which it consumes."""
        if self.words[self.i] in _SYMBOLS:
            raise self.unexpected(("term",))
        self.i += 1
        return self.i - 1

    def classify(self, index: int) -> Term:
        """Decide variable vs constant for the identifier at word `index`.

        Quantifier bindings shadow everything; declared constants come next;
        otherwise single lowercase letters read as variables and anything else
        as a constant (undeclared multi-character names are an error when a
        table is enforced).
        """
        name = self.words[index]
        if name in RESERVED_WORDS:
            raise self.error(f"{name!r} is reserved", index)
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
