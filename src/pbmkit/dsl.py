"""Policy document language: parser and canonical serializer.

A document is line-oriented text with braced blocks.  Statements:

    meta <key> "<value>"
    entity <name> = any | entity <name> { 10.1.1.0/28, 10.1.1.17 }
    service <name> = any | service <name> { tcp 25, udp 6881-6889 }
    time <name> = any | time <name> { mon-fri 08:00-18:00, sat+sun 00:00-24:00 }
    goal <id> level <n> "<description>"
    refine <id> and|or { <id>, <id>, ... }
    bind <goal-id> { subject ... target ... if ... then ... }
    rule <id> [from <goal-id>] order <n> { subject ... target ... if ... then ... }

The text is read as tokens by one compiled pattern: words are runs of
the ASCII characters A-Za-z0-9_.:+/-, strings are double-quoted and end
on their own line (escapes: \\ \" \n), and { } , = stand alone.  Space,
tab and CR separate tokens, '#' starts a comment that runs to the end of
the line, and any other character is a ParseError.  Identifiers are runs
of letters, digits, '-' and '_'; names containing other characters are
written as quoted strings.  The three catalog statements (entity,
service, time) share one reader: '= any' or a braced list of items.

Day sets collapse consecutive days into runs ("mon-fri") and join
disjoint runs with '+' ("mon+wed-fri").  Bandwidth accepts kbps or mbps
on input; the canonical form always emits kbps.  serialize() produces a
canonical form: fixed section order, entries sorted by id, two-space
indentation; parse(serialize(d)) is structurally equal to d and
serialize is a fixpoint after one round.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from ipaddress import IPv4Network
from typing import NamedTuple, NoReturn

from .model import (
    ActionSet,
    Admission,
    Bandwidth,
    Catalogs,
    Condition,
    DAY_NAMES,
    EntityGroup,
    Goal,
    GoalGraph,
    PolicyRule,
    Refinement,
    RefinementMode,
    Scope,
    ServiceClass,
    ServiceMatcher,
    TimeClass,
    TimeWindow,
    WILDCARD,
    day_runs,
    natural_key,
    parse_tz_offset,
    validate_graph,
)

RESERVED = frozenset(
    {
        "meta", "entity", "service", "time", "goal", "refine", "bind", "rule",
        "and", "or", "level", "from", "order", "subject", "target", "if",
        "then", "source", "dest", "any", "allow", "deny", "min", "max",
        "kbps", "mbps", "per-connection", "aggregate", "priority",
        "tcp", "udp",
    }
)

_IDENT = re.compile(r"[A-Za-z0-9_-]+")
_BARE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
_INT = re.compile(r"\d+")
_PORT_SPEC = re.compile(r"(\d+)(?:-(\d+))?")
_TIME_RANGE = re.compile(r"(\d{1,2}):(\d{2})-(\d{1,2}):(\d{2})")


class ParseError(Exception):
    """Parse failure with a 1-based source position and the offending line."""

    def __init__(self, line: int, column: int, message: str, snippet: str = ""):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.snippet = snippet


@dataclass(frozen=True)
class Binding:
    """Enforcement template attached to one operational (leaf) goal."""

    goal: str
    subject: str
    target: str
    condition: Condition
    actions: ActionSet


@dataclass
class Document:
    """A complete policy document.

    rules are kept sorted by their order field; bindings are keyed by goal id.
    """

    meta: dict[str, str] = field(default_factory=dict)
    catalogs: Catalogs = field(default_factory=Catalogs)
    graph: GoalGraph = field(default_factory=GoalGraph)
    bindings: dict[str, Binding] = field(default_factory=dict)
    rules: tuple[PolicyRule, ...] = ()


class _Token(NamedTuple):
    kind: str  # word | string | { | } | , | = | eof
    text: str
    line: int
    column: int


# One alternative per token kind, tried in this order at each position.  A
# string stops at its line's end; without its closing quote it is reported
# as unterminated, after any unknown escape before that point.
_TOKEN = re.compile(
    r"(?P<word>[A-Za-z0-9_.:+/-]+)"
    r"|(?P<newline>\n)"
    r"|(?P<skip>[ \t\r]+|#[^\n]*)"
    r'|(?P<string>"(?:[^"\\\n]|\\.)*(?P<closed>")?)'
    r"|(?P<punct>[{},=])"
    r"|(?P<bad>.)"
)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPED = {"n": "\n", '"': '"', "\\": "\\"}


def _source_line(text: str, line: int) -> str:
    return text.split("\n")[line - 1]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        column = m.start() - line_start + 1
        if kind == "word":
            tokens.append(_Token("word", m.group(), line, column))
        elif kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "punct":
            tokens.append(_Token(m.group(), m.group(), line, column))
        elif kind == "string":
            closed = m.group("closed") is not None
            value = m.group()[1 : -1 if closed else None]
            if "\\" in value:
                value = _decode(value, text, line, column)
            if not closed:
                raise ParseError(line, column, "unterminated string", _source_line(text, line))
            tokens.append(_Token("string", value, line, column))
        else:
            raise ParseError(
                line, column, f"unexpected character {m.group()!r}", _source_line(text, line)
            )
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


def _decode(value: str, text: str, line: int, column: int) -> str:
    """Resolve the escapes of a string whose opening quote is at column."""

    def resolve(escape: re.Match) -> str:
        char = escape.group(1)
        if char not in _ESCAPED:
            raise ParseError(
                line, column + escape.start() + 2, f"unknown escape \\{char}",
                _source_line(text, line),
            )
        return _ESCAPED[char]

    return _ESCAPE.sub(resolve, value)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.meta: dict[str, str] = {}
        self.entities: dict[str, EntityGroup] = {}
        self.services: dict[str, ServiceClass] = {}
        self.times: dict[str, TimeClass] = {}
        self.goals: dict[str, Goal] = {}
        self.refinements: dict[str, Refinement] = {}
        self.bindings: dict[str, Binding] = {}
        self.rules: list[PolicyRule] = []
        self.orders: set[int] = set()
        # first token of each definition, for semantic error positions
        self.def_tokens: dict[tuple[str, str], _Token] = {}

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, token: _Token | None = None) -> NoReturn:
        tok = token if token is not None else self.peek()
        raise ParseError(tok.line, tok.column, message, _source_line(self.text, tok.line))

    def expect(self, kind: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, got {tok.text!r}", tok)
        return tok

    def expect_word(self, value: str) -> _Token:
        tok = self.advance()
        if tok.kind != "word" or tok.text != value:
            self.fail(f"expected {value!r}, got {tok.text!r}", tok)
        return tok

    def take_word(self, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != "word":
            self.fail(f"expected {what}, got {tok.text!r}", tok)
        return tok

    def take_int(self, what: str) -> int:
        tok = self.advance()
        if tok.kind != "word" or not _INT.fullmatch(tok.text):
            self.fail(f"expected {what}, got {tok.text!r}", tok)
        return int(tok.text)

    def take_ident(self, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != "word" or not _IDENT.fullmatch(tok.text):
            self.fail(f"expected {what}, got {tok.text!r}", tok)
        if tok.text in RESERVED:
            self.fail(f"{tok.text!r} is a reserved word", tok)
        return tok

    def take_name(self, what: str) -> _Token:
        """A catalog entry name: bare identifier or quoted string."""
        tok = self.advance()
        if tok.kind == "string":
            if not tok.text:
                self.fail(f"{what} must be non-empty", tok)
            return tok
        if tok.kind == "word":
            if tok.text in RESERVED:
                self.fail(f"{tok.text!r} is a reserved word", tok)
            return tok
        self.fail(f"expected {what}, got {tok.text!r}", tok)

    def take_ref(self, what: str) -> str:
        """A condition reference: a name or the wildcard keyword 'any'."""
        tok = self.advance()
        if tok.kind == "string":
            return tok.text
        if tok.kind == "word":
            if tok.text == WILDCARD:
                return WILDCARD
            if tok.text in RESERVED:
                self.fail(f"{tok.text!r} is a reserved word", tok)
            return tok.text
        self.fail(f"expected {what}, got {tok.text!r}", tok)

    def record_def(self, kind: str, key: str, token: _Token) -> None:
        if (kind, key) in self.def_tokens:
            self.fail(f"duplicate {kind} {key!r}", token)
        self.def_tokens[(kind, key)] = token

    def def_token(self, kind: str, key: str) -> _Token:
        return self.def_tokens[(kind, key)]

    # -- statements ---------------------------------------------------------

    def parse_document(self) -> Document:
        statements = {
            "meta": self.parse_meta,
            "entity": lambda: self.parse_catalog(
                "entity group", self.entities, EntityGroup, self._address
            ),
            "service": lambda: self.parse_catalog(
                "service class", self.services, ServiceClass, self._matcher
            ),
            "time": lambda: self.parse_catalog("time class", self.times, TimeClass, self._window),
            "goal": self.parse_goal,
            "refine": self.parse_refine,
            "bind": self.parse_bind,
            "rule": self.parse_rule,
        }
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "word":
                self.fail(f"expected a statement keyword, got {tok.text!r}")
            handler = statements.get(tok.text)
            if handler is None:
                self.fail(f"unknown keyword {tok.text!r}")
            handler()
        return self.assemble()

    def parse_meta(self) -> None:
        self.advance()
        key_tok = self.take_ident("meta key")
        value_tok = self.expect("string")
        self.record_def("meta key", key_tok.text, key_tok)
        if key_tok.text == "tz":
            try:
                parse_tz_offset(value_tok.text)
            except ValueError as exc:
                self.fail(str(exc), value_tok)
        self.meta[key_tok.text] = value_tok.text

    def parse_catalog(self, kind: str, table: dict, entry_type: type, item) -> None:
        """`<keyword> <name> = any` or `<keyword> <name> { item, item }`."""
        self.advance()
        name_tok = self.take_name(f"{kind} name")
        self.record_def(kind, name_tok.text, name_tok)
        if self.peek().kind == "=":
            self.advance()
            self.expect_word(WILDCARD)
            table[name_tok.text] = entry_type(name_tok.text, None)
        else:
            table[name_tok.text] = entry_type(name_tok.text, frozenset(self._block(item)))

    def _block(self, item) -> list:
        """The items of a '{ item, item }' block, each read by item()."""
        self.expect("{")
        items = []
        while True:
            items.append(item())
            tok = self.advance()
            if tok.kind == "}":
                return items
            if tok.kind != ",":
                self.fail(f"expected ',' or '}}', got {tok.text!r}", tok)

    def _address(self) -> IPv4Network:
        tok = self.take_word("address")
        try:
            return IPv4Network(tok.text)
        except ValueError as exc:
            self.fail(f"bad address {tok.text!r}: {exc}", tok)

    def _matcher(self) -> ServiceMatcher:
        proto_tok = self.advance()
        if proto_tok.kind != "word" or proto_tok.text not in ("tcp", "udp", "any"):
            self.fail(f"expected tcp, udp or any, got {proto_tok.text!r}", proto_tok)
        port_tok = self.advance()
        m = port_tok.kind == "word" and _PORT_SPEC.fullmatch(port_tok.text)
        if not m:
            self.fail(f"expected a port or port range, got {port_tok.text!r}", port_tok)
        low = int(m.group(1))
        high = int(m.group(2)) if m.group(2) else low
        try:
            return ServiceMatcher(proto_tok.text, low, high)
        except ValueError as exc:
            self.fail(str(exc), port_tok)

    def _window(self) -> TimeWindow:
        days = self._parse_dayspec()
        range_tok = self.advance()
        m = range_tok.kind == "word" and _TIME_RANGE.fullmatch(range_tok.text)
        if not m:
            self.fail(f"expected HH:MM-HH:MM, got {range_tok.text!r}", range_tok)
        start = int(m.group(1)) * 60 + int(m.group(2))
        end = int(m.group(3)) * 60 + int(m.group(4))
        try:
            return TimeWindow(days, start, end)
        except ValueError as exc:
            self.fail(str(exc), range_tok)

    def _parse_dayspec(self) -> frozenset[int]:
        tok = self.take_word("days")
        days: set[int] = set()
        for part in tok.text.split("+"):
            if "-" in part:
                first, _, last = part.partition("-")
                if first not in DAY_NAMES or last not in DAY_NAMES:
                    self.fail(f"bad day range {part!r}", tok)
                a, b = DAY_NAMES.index(first), DAY_NAMES.index(last)
                if a > b:
                    self.fail(f"day range {part!r} must run forward (mon..sun)", tok)
                days.update(range(a, b + 1))
            elif part in DAY_NAMES:
                days.add(DAY_NAMES.index(part))
            else:
                self.fail(f"bad day name {part!r}", tok)
        return frozenset(days)

    def parse_goal(self) -> None:
        self.advance()
        id_tok = self.take_ident("goal id")
        self.record_def("goal", id_tok.text, id_tok)
        self.expect_word("level")
        level_tok = self.peek()
        level = self.take_int("goal level")
        if level < 1:
            self.fail("goal level must be >= 1", level_tok)
        desc = self.expect("string")
        self.goals[id_tok.text] = Goal(id_tok.text, level, desc.text)

    def parse_refine(self) -> None:
        self.advance()
        parent_tok = self.take_ident("goal id")
        self.record_def("refinement", parent_tok.text, parent_tok)
        mode_tok = self.advance()
        if mode_tok.kind != "word" or mode_tok.text not in ("and", "or"):
            self.fail(f"expected 'and' or 'or', got {mode_tok.text!r}", mode_tok)
        children = tuple(self._block(lambda: self.take_word("goal id").text))
        self.refinements[parent_tok.text] = Refinement(
            parent_tok.text, RefinementMode(mode_tok.text), children
        )

    def parse_bind(self) -> None:
        self.advance()
        goal_tok = self.take_ident("goal id")
        self.record_def("binding", goal_tok.text, goal_tok)
        subject, target, condition, actions = self._parse_body()
        self.bindings[goal_tok.text] = Binding(
            goal_tok.text, subject, target, condition, actions
        )

    def parse_rule(self) -> None:
        self.advance()
        id_tok = self.take_ident("rule id")
        self.record_def("rule", id_tok.text, id_tok)
        based_on = None
        if self.peek().kind == "word" and self.peek().text == "from":
            self.advance()
            based_on = self.take_ident("goal id").text
        self.expect_word("order")
        order_tok = self.peek()
        order = self.take_int("rule order")
        if order in self.orders:
            self.fail(f"duplicate rule order {order}", order_tok)
        self.orders.add(order)
        subject, target, condition, actions = self._parse_body()
        self.rules.append(
            PolicyRule(id_tok.text, subject, target, condition, actions, order, based_on)
        )

    def _parse_body(self) -> tuple[str, str, Condition, ActionSet]:
        self.expect("{")
        self.expect_word("subject")
        subject = self.take_name("subject name").text
        self.expect_word("target")
        target = self.take_name("target name").text
        self.expect_word("if")
        self.expect_word("source")
        source = self.take_ref("entity group")
        self.expect_word("dest")
        destination = self.take_ref("entity group")
        self.expect_word("service")
        service = self.take_ref("service class")
        self.expect_word("time")
        time_ref = self.take_ref("time class")
        then_tok = self.expect_word("then")
        actions = self._parse_actions(then_tok)
        self.expect("}")
        return subject, target, Condition(source, destination, service, time_ref), actions

    def _parse_actions(self, then_tok: _Token) -> ActionSet:
        admission: Admission | None = None
        min_kbps: int | None = None
        max_kbps: int | None = None
        scope: Scope | None = None
        priority: int | None = None
        while self.peek().kind == "word":
            tok = self.advance()
            word = tok.text
            if word in ("allow", "deny"):
                if admission is not None:
                    self.fail("duplicate admission action", tok)
                admission = Admission(word)
            elif word in ("min", "max"):
                if (word == "min" and min_kbps is not None) or (
                    word == "max" and max_kbps is not None
                ):
                    self.fail(f"duplicate {word} bound", tok)
                value = self.take_int(f"{word} bandwidth value")
                unit_tok = self.advance()
                if unit_tok.kind != "word" or unit_tok.text not in ("kbps", "mbps"):
                    self.fail(f"expected kbps or mbps, got {unit_tok.text!r}", unit_tok)
                if unit_tok.text == "mbps":
                    value *= 1000
                if word == "min":
                    min_kbps = value
                else:
                    max_kbps = value
            elif word in ("per-connection", "aggregate"):
                if scope is not None:
                    self.fail("duplicate scope", tok)
                scope = Scope(word)
            elif word == "priority":
                if priority is not None:
                    self.fail("duplicate priority", tok)
                priority = self.take_int("priority value")
            else:
                self.fail(f"unknown action {word!r}", tok)
        bandwidth = None
        if min_kbps is not None or max_kbps is not None:
            try:
                bandwidth = Bandwidth(min_kbps, max_kbps, scope or Scope.AGGREGATE)
            except ValueError as exc:
                self.fail(str(exc), then_tok)
        elif scope is not None:
            self.fail("scope given without bandwidth bounds", then_tok)
        try:
            return ActionSet(admission, bandwidth, priority)
        except ValueError as exc:
            self.fail(str(exc), then_tok)

    # -- semantic checks and assembly ----------------------------------------

    def assemble(self) -> Document:
        graph = GoalGraph(dict(self.goals), dict(self.refinements))
        for parent, ref in self.refinements.items():
            tok = self.def_token("refinement", parent)
            if parent not in self.goals:
                self.fail(f"unknown goal {parent}", tok)
            for child in ref.children:
                if child not in self.goals:
                    self.fail(f"unknown goal {child}", tok)
            if parent in ref.children:
                self.fail(f"goal {parent} cannot refine to itself", tok)
        for violation in validate_graph(graph):
            if violation.startswith("cycle through goals "):
                first = violation[len("cycle through goals "):].split(", ")[0]
                self.fail(violation, self.def_token("refinement", first))
        tz = self.meta.get("tz")
        catalogs = Catalogs(
            dict(self.entities),
            dict(self.services),
            dict(self.times),
            parse_tz_offset(tz) if tz else 0,
        )
        for goal_id, binding in self.bindings.items():
            tok = self.def_token("binding", goal_id)
            if goal_id not in self.goals:
                self.fail(f"unknown goal {goal_id}", tok)
            if not graph.is_leaf(goal_id):
                self.fail(f"goal {goal_id} is refined further and cannot be bound", tok)
            self._check_refs(binding.condition, tok)
        for rule in self.rules:
            tok = self.def_token("rule", rule.id)
            if rule.based_on is not None and rule.based_on not in self.goals:
                self.fail(f"unknown goal {rule.based_on}", tok)
            self._check_refs(rule.condition, tok)
        rules = tuple(sorted(self.rules, key=lambda r: r.order))
        return Document(dict(self.meta), catalogs, graph, dict(self.bindings), rules)

    def _check_refs(self, condition: Condition, tok: _Token) -> None:
        if condition.source != WILDCARD and condition.source not in self.entities:
            self.fail(f"unknown entity group {condition.source!r}", tok)
        if condition.destination != WILDCARD and condition.destination not in self.entities:
            self.fail(f"unknown entity group {condition.destination!r}", tok)
        if condition.service != WILDCARD and condition.service not in self.services:
            self.fail(f"unknown service class {condition.service!r}", tok)
        if condition.time != WILDCARD and condition.time not in self.times:
            self.fail(f"unknown time class {condition.time!r}", tok)


def parse(text: str) -> Document:
    """Parse document text; raises ParseError with line/column on failure."""
    return _Parser(text).parse_document()


# -- canonical serialization -------------------------------------------------


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _quote(text: str) -> str:
    return f'"{_escape(text)}"'


def _name(text: str) -> str:
    if _BARE_NAME.fullmatch(text) and text not in RESERVED:
        return text
    return _quote(text)


def _ident(text: str) -> str:
    if not _IDENT.fullmatch(text) or text in RESERVED:
        raise ValueError(f"cannot serialize id {text!r}")
    return text


def _ref(text: str) -> str:
    return WILDCARD if text == WILDCARD else _name(text)


def _format_network(net: IPv4Network) -> str:
    return str(net.network_address) if net.prefixlen == 32 else str(net)


def _format_matcher(m: ServiceMatcher) -> str:
    ports = str(m.low) if m.low == m.high else f"{m.low}-{m.high}"
    return f"{m.protocol} {ports}"


def _format_days(days: frozenset[int]) -> str:
    return "+".join(
        DAY_NAMES[a] if a == b else f"{DAY_NAMES[a]}-{DAY_NAMES[b]}"
        for a, b in day_runs(days)
    )


def _format_minute(minute: int) -> str:
    return f"{minute // 60:02d}:{minute % 60:02d}"


def _format_window(w: TimeWindow) -> str:
    return (
        f"{_format_days(w.days)} "
        f"{_format_minute(w.start_minute)}-{_format_minute(w.end_minute)}"
    )


def _format_actions(actions: ActionSet) -> str:
    parts: list[str] = []
    if actions.admission is not None:
        parts.append(actions.admission.value)
    bw = actions.bandwidth
    if bw is not None:
        if bw.min_kbps is not None:
            parts.extend(["min", str(bw.min_kbps), "kbps"])
        if bw.max_kbps is not None:
            parts.extend(["max", str(bw.max_kbps), "kbps"])
        if bw.scope is Scope.PER_CONNECTION:
            parts.append("per-connection")
    if actions.priority is not None:
        parts.extend(["priority", str(actions.priority)])
    return " ".join(parts)


def _body_lines(subject: str, target: str, condition: Condition, actions: ActionSet):
    return [
        f"  subject {_name(subject)}",
        f"  target {_name(target)}",
        f"  if source {_ref(condition.source)} dest {_ref(condition.destination)}"
        f" service {_ref(condition.service)} time {_ref(condition.time)}",
        f"  then {_format_actions(actions)}",
        "}",
    ]


def serialize(doc: Document) -> str:
    """Render the canonical text form of a document."""
    sections: list[list[str]] = []
    if doc.meta:
        sections.append(
            [f"meta {_ident(k)} {_quote(doc.meta[k])}" for k in sorted(doc.meta)]
        )
    catalogs = doc.catalogs
    for keyword, table, item_field, item_key, format_item in (
        ("entity", catalogs.entities, "members",
         lambda n: (int(n.network_address), n.prefixlen), _format_network),
        ("service", catalogs.services, "matchers",
         lambda m: (m.protocol, m.low, m.high), _format_matcher),
        ("time", catalogs.times, "windows",
         lambda w: (min(w.days), w.start_minute, w.end_minute, sorted(w.days)), _format_window),
    ):
        if not table:
            continue
        lines = []
        for name in sorted(table, key=natural_key):
            items = getattr(table[name], item_field)
            if items is None:
                lines.append(f"{keyword} {_name(name)} = any")
            else:
                body = ", ".join(format_item(item) for item in sorted(items, key=item_key))
                lines.append(f"{keyword} {_name(name)} {{ {body} }}")
        sections.append(lines)
    if doc.graph.goals:
        sections.append(
            [
                f"goal {_ident(gid)} level {doc.graph.goals[gid].level}"
                f" {_quote(doc.graph.goals[gid].description)}"
                for gid in sorted(doc.graph.goals, key=natural_key)
            ]
        )
    if doc.graph.refinements:
        lines = []
        for parent in sorted(doc.graph.refinements, key=natural_key):
            ref = doc.graph.refinements[parent]
            children = ", ".join(_ident(c) for c in ref.children)
            lines.append(f"refine {_ident(parent)} {ref.mode.value} {{ {children} }}")
        sections.append(lines)
    if doc.bindings:
        lines = []
        for goal_id in sorted(doc.bindings, key=natural_key):
            b = doc.bindings[goal_id]
            lines.append(f"bind {_ident(goal_id)} {{")
            lines.extend(_body_lines(b.subject, b.target, b.condition, b.actions))
        sections.append(lines)
    if doc.rules:
        lines = []
        for rule in sorted(doc.rules, key=lambda r: natural_key(r.id)):
            from_part = f" from {_ident(rule.based_on)}" if rule.based_on else ""
            lines.append(f"rule {_ident(rule.id)}{from_part} order {rule.order} {{")
            lines.extend(_body_lines(rule.subject, rule.target, rule.condition, rule.actions))
        sections.append(lines)
    out = ["# pbm v1"]
    for section in sections:
        out.append("")
        out.extend(section)
    return "\n".join(out) + "\n"
