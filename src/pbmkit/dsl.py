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
the line, and any other character is a ParseError.  A token keeps only
its character offset; a ParseError's line, column and source line are
worked out from that offset when the error is raised.  Identifiers are
runs of letters, digits, '-' and '_'; names containing other characters
are written as quoted strings.  The three catalog statements (entity,
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
from typing import NoReturn

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
    UnknownReferenceError,
    WILDCARD,
    day_runs,
    goal_cycles,
    natural_key,
    parse_tz_offset,
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


# A token is a plain tuple (kind, text, offset): kind is word | string | eof
# or the punctuation character itself, and offset is that of the token's
# first character in the document text.
_Tok = tuple[str, str, int]


# Each match skips blanks, newlines and comments, then reads one token, tried
# in this order.  A string stops at its line's end; without its closing quote
# it is reported as unterminated, after any unknown escape before that point.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r"(?:(?P<word>[A-Za-z0-9_.:+/-]+)"
    r'|(?P<string>"(?:[^"\\\n]+|\\.)*(?P<closed>")?)'
    r"|(?P<punct>[{},=])"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))"
)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPED = {"n": "\n", '"': '"', "\\": "\\"}


def _error(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at a character offset of text, with its line as the snippet."""
    start = text.rfind("\n", 0, offset) + 1
    end = text.find("\n", offset)
    line = text.count("\n", 0, start) + 1
    return ParseError(line, offset - start + 1, message, text[start : end if end >= 0 else None])


def _tokenize(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, offset = m[kind], m.start(kind)
        if kind == "string":
            closed = m["closed"] is not None
            value = value[1 : -1 if closed else None]
            if "\\" in value:
                for escape in _ESCAPE.finditer(value):
                    if escape[1] not in _ESCAPED:
                        raise _error(text, offset + escape.end(), f"unknown escape {escape[0]}")
                value = _ESCAPE.sub(lambda escape: _ESCAPED[escape[1]], value)
            if not closed:
                raise _error(text, offset, "unterminated string")
        elif kind == "punct":
            kind = value
        elif kind == "bad":
            raise _error(text, offset, f"unexpected character {value!r}")
        elif kind == "eof":
            break  # after trailing blanks, \Z would match once more
        tokens.append((kind, value, offset))
    tokens.append(("eof", "", len(text)))
    return tokens


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
        self.def_tokens: dict[tuple[str, str], _Tok] = {}

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def advance(self) -> _Tok:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, token: _Tok | None = None) -> NoReturn:
        tok = token if token is not None else self.peek()
        raise _error(self.text, tok[2], message)

    def expect(self, kind: str) -> _Tok:
        tok = self.advance()
        if tok[0] != kind:
            self.fail(f"expected {kind!r}, got {tok[1]!r}", tok)
        return tok

    def expect_word(self, value: str) -> _Tok:
        tok = self.advance()
        if tok[0] != "word" or tok[1] != value:
            self.fail(f"expected {value!r}, got {tok[1]!r}", tok)
        return tok

    def take_word(self, what: str) -> _Tok:
        tok = self.advance()
        if tok[0] != "word":
            self.fail(f"expected {what}, got {tok[1]!r}", tok)
        return tok

    def take_int(self, what: str) -> int:
        tok = self.advance()
        if tok[0] != "word" or not _INT.fullmatch(tok[1]):
            self.fail(f"expected {what}, got {tok[1]!r}", tok)
        return int(tok[1])

    def take_ident(self, what: str) -> _Tok:
        tok = self.advance()
        kind, text, _ = tok
        if kind != "word" or not _IDENT.fullmatch(text):
            self.fail(f"expected {what}, got {text!r}", tok)
        if text in RESERVED:
            self.fail(f"{text!r} is a reserved word", tok)
        return tok

    def take_name(self, what: str) -> _Tok:
        """A catalog entry name: bare identifier or quoted string."""
        tok = self.advance()
        kind, text, _ = tok
        if kind == "string":
            if not text:
                self.fail(f"{what} must be non-empty", tok)
            return tok
        if kind == "word":
            if text in RESERVED:
                self.fail(f"{text!r} is a reserved word", tok)
            return tok
        self.fail(f"expected {what}, got {text!r}", tok)

    def take_ref(self, what: str) -> str:
        """A condition reference: a name or the wildcard keyword 'any'."""
        tok = self.advance()
        kind, text, _ = tok
        if kind == "string":
            return text
        if kind == "word":
            if text == WILDCARD:
                return WILDCARD
            if text in RESERVED:
                self.fail(f"{text!r} is a reserved word", tok)
            return text
        self.fail(f"expected {what}, got {text!r}", tok)

    def record_def(self, kind: str, token: _Tok) -> str:
        """Note where a definition starts; returns its key, the token's text."""
        key = token[1]
        if (kind, key) in self.def_tokens:
            self.fail(f"duplicate {kind} {key!r}", token)
        self.def_tokens[(kind, key)] = token
        return key

    def def_token(self, kind: str, key: str) -> _Tok:
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
            kind, text, _ = self.peek()
            if kind == "eof":
                break
            if kind != "word":
                self.fail(f"expected a statement keyword, got {text!r}")
            handler = statements.get(text)
            if handler is None:
                self.fail(f"unknown keyword {text!r}")
            handler()
        return self.assemble()

    def parse_meta(self) -> None:
        self.advance()
        key_tok = self.take_ident("meta key")
        value_tok = self.expect("string")
        key = self.record_def("meta key", key_tok)
        if key == "tz":
            try:
                parse_tz_offset(value_tok[1])
            except ValueError as exc:
                self.fail(str(exc), value_tok)
        self.meta[key] = value_tok[1]

    def parse_catalog(self, kind: str, table: dict, entry_type: type, item) -> None:
        """`<keyword> <name> = any` or `<keyword> <name> { item, item }`."""
        self.advance()
        name = self.record_def(kind, self.take_name(f"{kind} name"))
        if self.peek()[0] == "=":
            self.advance()
            self.expect_word(WILDCARD)
            table[name] = entry_type(name, None)
        else:
            table[name] = entry_type(name, frozenset(self._block(item)))

    def _block(self, item) -> list:
        """The items of a '{ item, item }' block, each read by item()."""
        self.expect("{")
        items = []
        while True:
            items.append(item())
            tok = self.advance()
            if tok[0] == "}":
                return items
            if tok[0] != ",":
                self.fail(f"expected ',' or '}}', got {tok[1]!r}", tok)

    def _address(self) -> IPv4Network:
        tok = self.take_word("address")
        try:
            return IPv4Network(tok[1])
        except ValueError as exc:
            self.fail(f"bad address {tok[1]!r}: {exc}", tok)

    def _matcher(self) -> ServiceMatcher:
        proto_tok = self.advance()
        kind, proto, _ = proto_tok
        if kind != "word" or proto not in ("tcp", "udp", "any"):
            self.fail(f"expected tcp, udp or any, got {proto!r}", proto_tok)
        port_tok = self.advance()
        m = port_tok[0] == "word" and _PORT_SPEC.fullmatch(port_tok[1])
        if not m:
            self.fail(f"expected a port or port range, got {port_tok[1]!r}", port_tok)
        low = int(m.group(1))
        high = int(m.group(2)) if m.group(2) else low
        try:
            return ServiceMatcher(proto, low, high)
        except ValueError as exc:
            self.fail(str(exc), port_tok)

    def _window(self) -> TimeWindow:
        days = self._parse_dayspec()
        range_tok = self.advance()
        m = range_tok[0] == "word" and _TIME_RANGE.fullmatch(range_tok[1])
        if not m:
            self.fail(f"expected HH:MM-HH:MM, got {range_tok[1]!r}", range_tok)
        start = int(m.group(1)) * 60 + int(m.group(2))
        end = int(m.group(3)) * 60 + int(m.group(4))
        try:
            return TimeWindow(days, start, end)
        except ValueError as exc:
            self.fail(str(exc), range_tok)

    def _parse_dayspec(self) -> frozenset[int]:
        tok = self.take_word("days")
        days: set[int] = set()
        for part in tok[1].split("+"):
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
        goal_id = self.record_def("goal", self.take_ident("goal id"))
        self.expect_word("level")
        level_tok = self.peek()
        level = self.take_int("goal level")
        if level < 1:
            self.fail("goal level must be >= 1", level_tok)
        description = self.expect("string")[1]
        self.goals[goal_id] = Goal(goal_id, level, description)

    def parse_refine(self) -> None:
        self.advance()
        parent = self.record_def("refinement", self.take_ident("goal id"))
        mode_tok = self.advance()
        kind, mode, _ = mode_tok
        if kind != "word" or mode not in ("and", "or"):
            self.fail(f"expected 'and' or 'or', got {mode!r}", mode_tok)
        children = tuple(self._block(lambda: self.take_word("goal id")[1]))
        self.refinements[parent] = Refinement(parent, RefinementMode(mode), children)

    def parse_bind(self) -> None:
        self.advance()
        goal_id = self.record_def("binding", self.take_ident("goal id"))
        subject, target, condition, actions = self._parse_body()
        self.bindings[goal_id] = Binding(goal_id, subject, target, condition, actions)

    def parse_rule(self) -> None:
        self.advance()
        rule_id = self.record_def("rule", self.take_ident("rule id"))
        based_on = None
        if self.peek()[:2] == ("word", "from"):
            self.advance()
            based_on = self.take_ident("goal id")[1]
        self.expect_word("order")
        order_tok = self.peek()
        order = self.take_int("rule order")
        if order in self.orders:
            self.fail(f"duplicate rule order {order}", order_tok)
        self.orders.add(order)
        subject, target, condition, actions = self._parse_body()
        self.rules.append(
            PolicyRule(rule_id, subject, target, condition, actions, order, based_on)
        )

    def _parse_body(self) -> tuple[str, str, Condition, ActionSet]:
        self.expect("{")
        self.expect_word("subject")
        subject = self.take_name("subject name")[1]
        self.expect_word("target")
        target = self.take_name("target name")[1]
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

    def _parse_actions(self, then_tok: _Tok) -> ActionSet:
        admission: Admission | None = None
        min_kbps: int | None = None
        max_kbps: int | None = None
        scope: Scope | None = None
        priority: int | None = None
        while self.peek()[0] == "word":
            tok = self.advance()
            word = tok[1]
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
                kind, unit, _ = unit_tok
                if kind != "word" or unit not in ("kbps", "mbps"):
                    self.fail(f"expected kbps or mbps, got {unit!r}", unit_tok)
                if unit == "mbps":
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
        for members in goal_cycles(graph):
            first = self.def_token("refinement", members[0])
            self.fail("cycle through goals " + ", ".join(members), first)
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
            self._check_refs(catalogs, binding.condition, tok)
        for rule in self.rules:
            tok = self.def_token("rule", rule.id)
            if rule.based_on is not None and rule.based_on not in self.goals:
                self.fail(f"unknown goal {rule.based_on}", tok)
            self._check_refs(catalogs, rule.condition, tok)
        rules = tuple(sorted(self.rules, key=lambda r: r.order))
        return Document(dict(self.meta), catalogs, graph, dict(self.bindings), rules)

    def _check_refs(self, catalogs: Catalogs, condition: Condition, tok: _Tok) -> None:
        try:
            catalogs.entity_group(condition.source)
            catalogs.entity_group(condition.destination)
            catalogs.service_class(condition.service)
            catalogs.time_class(condition.time)
        except UnknownReferenceError as exc:
            self.fail(str(exc), tok)


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
