"""Structured problem representation: aligned statements plus a symbol table.

A problem is held as natural-language/formula pairs split into ground facts,
closed rules, and the questions to adjudicate. The JSON document form pairs
each statement with its symbolic rendering so downstream stages can cite
either side. Parsing rejects undeclared symbols and wrong arities; the sort
clashes and open rules that remain are reported as warnings, not errors.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from . import solver as solvermod
from .errors import SchemaError
from .fol import (
    Atom,
    Constant,
    Equality,
    FolError,
    Formula,
    Not,
    SymbolTable,
    _children,
    _Parser,
    free_vars,
    render_formula,
)

__all__ = [
    "AlignedStatement",
    "StructuredRepr",
    "RawContext",
    "build_repr",
    "deserialize_repr",
    "repr_to_doc",
    "doc_to_repr",
    "is_ground_literal",
]


@dataclass(frozen=True)
class AlignedStatement:
    id: int
    nl: str
    symbol: Formula


@dataclass(frozen=True)
class StructuredRepr:
    """Immutable; its document form, prompt text, warnings, knowledge base and
    rule templates are computed on first use and kept."""

    table: SymbolTable
    facts: tuple[AlignedStatement, ...]
    rules: tuple[AlignedStatement, ...]
    questions: tuple[AlignedStatement, ...]

    def statements(self) -> Iterator[AlignedStatement]:
        """All statements in id order."""
        return iter(sorted((*self.facts, *self.rules, *self.questions), key=lambda s: s.id))

    @functools.cached_property
    def doc(self) -> dict[str, Any]:
        """`repr_to_doc` of this representation, computed once; treat it as read-only."""
        return repr_to_doc(self)

    @functools.cached_property
    def text(self) -> str:
        """The document as compact JSON, as prompts carry it; computed once."""
        return json.dumps(self.doc, ensure_ascii=False)

    @functools.cached_property
    def kb(self) -> solvermod.KnowledgeBase:
        """`kb_from_repr` of this representation, computed once; callers pass `cwa` when they chain it."""
        return solvermod.kb_from_repr(self)

    @functools.cached_property
    def templates(self) -> tuple[solvermod.RuleTemplate, ...]:
        """`rule_templates` of the knowledge base, computed once; its
        UnsupportedFragment or DomainTooLarge raises again on every use."""
        return solvermod.rule_templates(self.kb)

    @functools.cached_property
    def warnings(self) -> tuple[str, ...]:
        """Static findings as `"<kind> (statement <id>): <detail>"`, in statement order.

        Only two kinds can occur: `sort-mismatch`, a constant whose declared
        sort differs from the one its argument position declares, and
        `open-rule`, a rule with free variables. Parsing already rejects
        undeclared symbols and wrong arities against a declared table, an
        inferred table holds every symbol, and only ground literals are filed
        as facts.
        """
        table = self.table
        check_sorts = bool(table.predicate_sorts and table.constant_sorts)
        rule_ids = {s.id for s in self.rules}
        found: list[str] = []
        for stmt in self.statements():
            if check_sorts:
                for node in _walk_atoms(stmt.symbol):
                    if not isinstance(node, Atom):
                        continue
                    wanted = table.predicate_sorts.get(node.predicate, ())
                    for position, (want, term) in enumerate(zip(wanted, node.args)):
                        have = table.constant_sorts.get(term.name) if isinstance(term, Constant) else None
                        if want is not None and have is not None and want != have:
                            found.append(
                                f"sort-mismatch (statement {stmt.id}): "
                                f"{node.predicate} arg {position + 1} wants {want}, {term.name} is {have}"
                            )
            if stmt.id in rule_ids:
                open_vars = free_vars(stmt.symbol)
                if open_vars:
                    found.append(f"open-rule (statement {stmt.id}): {', '.join(sorted(open_vars))}")
        return tuple(found)


@dataclass(frozen=True)
class RawContext:
    """Unvalidated stage-one text, used when structured management is ablated."""

    text: str

    @functools.cached_property
    def structured(self) -> StructuredRepr:
        """`deserialize_repr` of the text, computed once; its SchemaError raises again on every use."""
        return deserialize_repr(self.text)


def is_ground_literal(f: Formula) -> bool:
    """Atom or negated atom over constants only."""
    if isinstance(f, Not):
        f = f.body
    return isinstance(f, Atom) and all(isinstance(t, Constant) for t in f.args)


def _walk_atoms(f: Formula) -> Iterator[Atom | Equality]:
    """Atoms and equalities in left-to-right order."""
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (Atom, Equality)):
            yield node
        else:
            stack.extend(reversed(tuple(_children(node))))


def build_repr(
    pairs: Iterable[tuple[str, str]],
    questions: Iterable[tuple[str, str]] = (),
    declared: SymbolTable | None = None,
) -> StructuredRepr:
    """Parse (nl, formula-text) pairs into a structured representation.

    Premise statements are classified structurally: a ground literal becomes a
    fact, anything else a rule. Question pairs are kept separate. Without a
    declared table, one is inferred from the parsed symbols. A SchemaError
    points into the document form: `/Premises/<i>` or `/Proposition/<j>`
    (then `statement` or `symbol`), or `/Premises` for conflicting arities.
    """
    pairs = list(pairs)
    questions = list(questions)
    parsed: list[AlignedStatement] = []
    arities: list[tuple[str, int]] = []
    constants: set[str] = set()
    for index, (nl, text) in enumerate([*pairs, *questions]):
        pointer = f"/Premises/{index}" if index < len(pairs) else f"/Proposition/{index - len(pairs)}"
        if not nl:
            raise SchemaError(f"{pointer}/statement", "empty natural-language statement")
        try:
            parser = _Parser(text, declared)
            symbol = parser.parse()
        except FolError as err:
            raise SchemaError(f"{pointer}/symbol", str(err)) from err
        parsed.append(AlignedStatement(id=index + 1, nl=nl, symbol=symbol))
        arities += parser.arities
        constants |= parser.constants

    table = declared
    if table is None:  # checked once every statement has parsed, so a syntax error is reported first
        predicates: dict[str, int] = {}
        for name, arity in arities:
            seen = predicates.setdefault(name, arity)
            if seen != arity:
                raise SchemaError("/Premises", f"predicate {name} used with conflicting arities {sorted({seen, arity})}")
        table = SymbolTable(predicates=predicates, constants=frozenset(constants))

    facts: list[AlignedStatement] = []
    rules: list[AlignedStatement] = []
    for s in parsed[: len(pairs)]:
        (facts if is_ground_literal(s.symbol) else rules).append(s)
    return StructuredRepr(table, tuple(facts), tuple(rules), tuple(parsed[len(pairs) :]))


# ---------------------------------------------------------------------------
# JSON document form
# ---------------------------------------------------------------------------

_TOP_KEYS = {"Predicates", "Constants", "Premises", "Proposition"}
_PAIR_KEYS = {"statement", "symbol"}


def repr_to_doc(repr_: StructuredRepr) -> dict[str, Any]:
    """Document form of a representation (premises merged in id order)."""
    predicates: dict[str, Any] = {}
    for name in sorted(repr_.table.predicates):
        entry: dict[str, Any] = {"arity": repr_.table.predicates[name]}
        sorts = repr_.table.predicate_sorts.get(name)
        if sorts:
            entry["sorts"] = [s if s is not None else "" for s in sorts]
        predicates[name] = entry
    constants: dict[str, Any] = {}
    for name in sorted(repr_.table.constants):
        entry = {}
        if name in repr_.table.constant_sorts:
            entry["sort"] = repr_.table.constant_sorts[name]
        constants[name] = entry
    question_ids = {s.id for s in repr_.questions}
    premises = [
        {"statement": s.nl, "symbol": render_formula(s.symbol)}
        for s in repr_.statements()
        if s.id not in question_ids
    ]
    proposition = [{"statement": s.nl, "symbol": render_formula(s.symbol)} for s in repr_.questions]
    return {
        "Predicates": predicates,
        "Constants": constants,
        "Premises": premises,
        "Proposition": proposition,
    }


def _require(value: Any, kind: type, pointer: str, what: str) -> Any:
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise SchemaError(pointer, f"expected {what}")
    return value


def _parse_pair(item: Any, pointer: str) -> tuple[str, str]:
    _require(item, dict, pointer, "object")
    unknown = set(item) - _PAIR_KEYS
    if unknown:
        raise SchemaError(f"{pointer}/{sorted(unknown)[0]}", "unknown field")
    for key in ("statement", "symbol"):
        if key not in item:
            raise SchemaError(f"{pointer}/{key}", "missing field")
        _require(item[key], str, f"{pointer}/{key}", "string")
    return item["statement"], item["symbol"]


def _parse_declarations(doc: dict[str, Any]) -> SymbolTable | None:
    if "Predicates" not in doc and "Constants" not in doc:
        return None
    predicates: dict[str, int] = {}
    predicate_sorts: dict[str, tuple[str | None, ...]] = {}
    constants: set[str] = set()
    constant_sorts: dict[str, str] = {}
    preds = doc.get("Predicates", {})
    _require(preds, dict, "/Predicates", "object")
    for name, entry in preds.items():
        pointer = f"/Predicates/{name}"
        _require(entry, dict, pointer, "object")
        unknown = set(entry) - {"arity", "sorts"}
        if unknown:
            raise SchemaError(f"{pointer}/{sorted(unknown)[0]}", "unknown field")
        if "arity" not in entry:
            raise SchemaError(f"{pointer}/arity", "missing field")
        arity = entry["arity"]
        if isinstance(arity, bool) or not isinstance(arity, int) or arity < 1:
            raise SchemaError(f"{pointer}/arity", "expected integer >= 1")
        predicates[name] = arity
        if "sorts" in entry:
            sorts = _require(entry["sorts"], list, f"{pointer}/sorts", "array")
            predicate_sorts[name] = tuple(
                (None if s == "" else _require(s, str, f"{pointer}/sorts/{i}", "string"))
                for i, s in enumerate(sorts)
            )
    consts = doc.get("Constants", {})
    if isinstance(consts, list):
        for i, name in enumerate(consts):
            constants.add(_require(name, str, f"/Constants/{i}", "string"))
    else:
        _require(consts, dict, "/Constants", "object")
        for name, entry in consts.items():
            pointer = f"/Constants/{name}"
            _require(entry, dict, pointer, "object")
            unknown = set(entry) - {"sort"}
            if unknown:
                raise SchemaError(f"{pointer}/{sorted(unknown)[0]}", "unknown field")
            constants.add(name)
            if "sort" in entry:
                constant_sorts[name] = _require(entry["sort"], str, f"{pointer}/sort", "string")
    try:
        return SymbolTable(
            predicates=predicates,
            constants=frozenset(constants),
            predicate_sorts=predicate_sorts,
            constant_sorts=constant_sorts,
        )
    except ValueError as err:
        raise SchemaError("/Predicates", str(err)) from err


def doc_to_repr(doc: Any) -> StructuredRepr:
    _require(doc, dict, "", "object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"/{sorted(unknown)[0]}", "unknown field")
    if "Premises" not in doc:
        raise SchemaError("/Premises", "missing field")
    premises_raw = _require(doc["Premises"], list, "/Premises", "array")
    proposition_raw = doc.get("Proposition", [])
    if isinstance(proposition_raw, dict):
        proposition_raw = [proposition_raw]
    _require(proposition_raw, list, "/Proposition", "object or array")

    premises = [_parse_pair(item, f"/Premises/{i}") for i, item in enumerate(premises_raw)]
    questions = [_parse_pair(item, f"/Proposition/{i}") for i, item in enumerate(proposition_raw)]
    return build_repr(premises, questions, _parse_declarations(doc))


def deserialize_repr(data: bytes | str) -> StructuredRepr:
    """Parse the JSON document form, as `StructuredRepr.text` holds it, in text or UTF-8 bytes."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as err:
        raise SchemaError("", f"not valid JSON: {err}") from err
    return doc_to_repr(doc)
