"""Core domain model shared by every component of the toolkit.

Defines the goal graph (goals plus AND/OR refinements), the catalog types
(entity groups, service classes, time classes), policy rules with their
condition/action structure, and flow descriptors.  All values are immutable
after construction; constructors raise ValueError on local invariant
violations, while graph-level problems are reported by validate_graph().

What a catalog entry covers is given once, by its spans(): half-open
integer intervals of addresses, of ports under one protocol, or of
minutes of the week (0 = Monday 00:00).  pdp compiles rules from these
spans.  condition_matches(), which tests one rule against one flow, is
deprecated and kept for one release.
"""
from __future__ import annotations

import re
import socket
import warnings
from dataclasses import dataclass, field
from enum import Enum
from ipaddress import IPv4Address, IPv4Network

DAY_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")

# Distinguished reference that resolves to a match-everything catalog entry.
WILDCARD = "any"

PROTOCOLS = ("tcp", "udp")
MATCHER_PROTOCOLS = ("tcp", "udp", "any")

# ends of the span ranges: addresses, ports, minutes of the week
_ADDRESS_END = 1 << 32
_PORT_END = 65536
WEEK_MINUTES = 7 * 1440


class RefinementMode(Enum):
    AND = "and"
    OR = "or"


class Admission(Enum):
    ALLOW = "allow"
    DENY = "deny"


class Scope(Enum):
    PER_CONNECTION = "per-connection"
    AGGREGATE = "aggregate"


class PriorityBand(Enum):
    LOW = "low"
    MIDDLE = "middle"
    HIGH = "high"


class UnknownReferenceError(KeyError):
    """A condition referenced a catalog entry that does not exist."""

    def __init__(self, kind: str, name: str):
        super().__init__(f"unknown {kind} {name!r}")
        self.kind = kind
        self.name = name

    def __str__(self) -> str:
        return f"unknown {self.kind} {self.name!r}"


_NATURAL_SPLIT = re.compile(r"(\d+)")


def natural_key(ident: str) -> tuple:
    """Sort key that orders embedded integers numerically (G1-2 < G1-10)."""
    return tuple(
        int(part) if i % 2 else part
        for i, part in enumerate(_NATURAL_SPLIT.split(ident))
    )


def day_runs(days: frozenset[int]) -> list[tuple[int, int]]:
    """Collapse a day set into inclusive consecutive runs, e.g. {0,1,2,5} ->
    [(0, 2), (5, 5)]."""
    runs: list[tuple[int, int]] = []
    ordered = sorted(days)
    start = prev = ordered[0]
    for day in ordered[1:]:
        if day == prev + 1:
            prev = day
            continue
        runs.append((start, prev))
        start = prev = day
    runs.append((start, prev))
    return runs


@dataclass(frozen=True)
class Goal:
    id: str
    level: int
    description: str = ""


@dataclass(frozen=True)
class Refinement:
    parent: str
    mode: RefinementMode
    children: tuple[str, ...]


@dataclass(frozen=True)
class GoalGraph:
    """Goals keyed by id plus at most one refinement per parent goal."""

    goals: dict[str, Goal] = field(default_factory=dict)
    refinements: dict[str, Refinement] = field(default_factory=dict)

    def is_leaf(self, goal_id: str) -> bool:
        return goal_id in self.goals and goal_id not in self.refinements

    def leaves(self) -> list[str]:
        return [gid for gid in self.goals if gid not in self.refinements]


def validate_graph(graph: GoalGraph) -> list[str]:
    """Return all structural violations; an empty list means the graph is valid.

    Checks goal field validity, refinement reference resolution,
    self-refinement, and acyclicity.  Each violation names the offending
    goal or refinement.
    """
    violations: list[str] = []
    for gid, goal in graph.goals.items():
        if not goal.id:
            violations.append("goal with empty id")
        if gid != goal.id:
            violations.append(f"goal {goal.id!r} stored under key {gid!r}")
        if goal.level < 1:
            violations.append(f"goal {goal.id!r}: level must be >= 1, got {goal.level}")
    for parent, ref in graph.refinements.items():
        if parent != ref.parent:
            violations.append(f"refinement of {ref.parent!r} stored under key {parent!r}")
        if ref.parent not in graph.goals:
            violations.append(f"refinement of {ref.parent!r}: parent is not a defined goal")
        if not ref.children:
            violations.append(f"refinement of {ref.parent!r}: children list is empty")
        for child in ref.children:
            if child not in graph.goals:
                violations.append(
                    f"refinement of {ref.parent!r}: child {child!r} is not a defined goal"
                )
        if ref.parent in ref.children:
            violations.append(f"refinement of {ref.parent!r}: parent appears among its children")
    violations.extend(_find_cycles(graph))
    return violations


def _find_cycles(graph: GoalGraph) -> list[str]:
    # Iterative DFS over refinement edges; collects every distinct cycle once.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {gid: WHITE for gid in graph.goals}
    cycles: list[str] = []
    seen_cycles: set[frozenset[str]] = set()
    for start in graph.goals:
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        path: list[str] = []
        while stack:
            node, child_idx = stack[-1]
            if child_idx == 0:
                color[node] = GRAY
                path.append(node)
            ref = graph.refinements.get(node)
            children = ref.children if ref else ()
            if child_idx < len(children):
                stack[-1] = (node, child_idx + 1)
                child = children[child_idx]
                if child not in color:
                    continue  # dangling child is reported separately
                if color[child] == GRAY:
                    members = frozenset(path[path.index(child):])
                    if members not in seen_cycles:
                        seen_cycles.add(members)
                        cycles.append(
                            "cycle through goals " + ", ".join(sorted(members, key=natural_key))
                        )
                elif color[child] == WHITE:
                    stack.append((child, 0))
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return cycles


@dataclass(frozen=True)
class EntityGroup:
    """Named set of IPv4 addresses/blocks; members=None is the wildcard."""

    name: str
    members: frozenset[IPv4Network] | None

    def __post_init__(self):
        if not self.name:
            raise ValueError("entity group name must be non-empty")
        if self.members is not None and not self.members:
            raise ValueError(f"entity group {self.name!r} has no members")

    def spans(self) -> list[tuple[int, int]]:
        """The addresses the group covers, as half-open integer intervals."""
        if self.members is None:
            return [(0, _ADDRESS_END)]
        return [
            (int(net.network_address), int(net.broadcast_address) + 1) for net in self.members
        ]


@dataclass(frozen=True)
class ServiceMatcher:
    protocol: str  # tcp | udp | any
    low: int
    high: int

    def __post_init__(self):
        if self.protocol not in MATCHER_PROTOCOLS:
            raise ValueError(f"bad matcher protocol {self.protocol!r}")
        if not (0 <= self.low <= self.high <= 65535):
            raise ValueError(f"bad port range {self.low}-{self.high}")


@dataclass(frozen=True)
class ServiceClass:
    """Named set of protocol/port matchers; matchers=None is the wildcard."""

    name: str
    matchers: frozenset[ServiceMatcher] | None

    def __post_init__(self):
        if not self.name:
            raise ValueError("service class name must be non-empty")
        if self.matchers is not None and not self.matchers:
            raise ValueError(f"service class {self.name!r} has no matchers")

    def spans(self, protocol: str) -> list[tuple[int, int]]:
        """The ports the class covers under protocol, as half-open intervals."""
        if self.matchers is None:
            return [(0, _PORT_END)]
        return [
            (m.low, m.high + 1) for m in self.matchers if m.protocol in ("any", protocol)
        ]


@dataclass(frozen=True)
class TimeWindow:
    """Weekly recurring window: a set of days plus [start, end) minutes."""

    days: frozenset[int]  # 0 = Monday .. 6 = Sunday
    start_minute: int
    end_minute: int

    def __post_init__(self):
        if not self.days or not all(0 <= d <= 6 for d in self.days):
            raise ValueError("window days must be a non-empty subset of 0..6")
        if not (0 <= self.start_minute < self.end_minute <= 1440):
            raise ValueError(
                f"bad window minutes {self.start_minute}..{self.end_minute}"
            )


@dataclass(frozen=True)
class TimeClass:
    """Named set of weekly windows; windows=None is the wildcard."""

    name: str
    windows: frozenset[TimeWindow] | None

    def __post_init__(self):
        if not self.name:
            raise ValueError("time class name must be non-empty")
        if self.windows is not None and not self.windows:
            raise ValueError(f"time class {self.name!r} has no windows")

    def spans(self) -> list[tuple[int, int]]:
        """The minutes of the week the class covers, as half-open intervals."""
        if self.windows is None:
            return [(0, WEEK_MINUTES)]
        return [
            (day * 1440 + w.start_minute, day * 1440 + w.end_minute)
            for w in self.windows
            for day in w.days
        ]


@dataclass(frozen=True)
class Condition:
    """Four catalog references; each may be the built-in wildcard "any"."""

    source: str
    destination: str
    service: str
    time: str


@dataclass(frozen=True)
class Bandwidth:
    min_kbps: int | None = None
    max_kbps: int | None = None
    scope: Scope = Scope.AGGREGATE

    def __post_init__(self):
        if self.min_kbps is None and self.max_kbps is None:
            raise ValueError("bandwidth record needs a min or a max")
        for bound in (self.min_kbps, self.max_kbps):
            if bound is not None and bound < 1:
                raise ValueError("bandwidth bounds must be positive")
        if (
            self.min_kbps is not None
            and self.max_kbps is not None
            and self.min_kbps > self.max_kbps
        ):
            raise ValueError(
                f"min {self.min_kbps} kbps exceeds max {self.max_kbps} kbps"
            )


@dataclass(frozen=True)
class ActionSet:
    """What a rule does: admission, bandwidth bounds, priority (1..9).

    At least one component must be present.  A Deny carries neither
    bandwidth nor priority.
    """

    admission: Admission | None = None
    bandwidth: Bandwidth | None = None
    priority: int | None = None

    def __post_init__(self):
        if self.admission is None and self.bandwidth is None and self.priority is None:
            raise ValueError("action set must contain at least one component")
        if self.priority is not None and not (1 <= self.priority <= 9):
            raise ValueError(f"priority must be in 1..9, got {self.priority}")
        if self.admission is Admission.DENY and (
            self.bandwidth is not None or self.priority is not None
        ):
            raise ValueError("a deny action cannot carry bandwidth or priority")


@dataclass(frozen=True)
class PolicyRule:
    id: str
    subject: str
    target: str
    condition: Condition
    actions: ActionSet
    order: int
    based_on: str | None = None  # provenance link to an operational goal

    def __post_init__(self):
        if not self.id:
            raise ValueError("rule id must be non-empty")
        if self.order < 0:
            raise ValueError("rule order must be non-negative")


@dataclass(frozen=True)
class FlowDescriptor:
    """One observed or hypothetical traffic flow."""

    src: IPv4Address
    dst: IPv4Address
    protocol: str
    port: int
    timestamp: int  # epoch seconds
    demand_kbps: int

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"flow protocol must be tcp or udp, got {self.protocol!r}")
        if not (0 <= self.port <= 65535):
            raise ValueError(f"flow port out of range: {self.port}")
        if self.demand_kbps < 1:
            raise ValueError("flow demand must be at least 1 kbps")


_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
# the dotted quads IPv4Address accepts: ASCII digits, no leading zeros
_DOTTED_QUAD = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")


def read_address(text: str) -> IPv4Address:
    """IPv4Address(text), reading a plain dotted quad without its string parser."""
    if _DOTTED_QUAD.fullmatch(text):
        return IPv4Address(int.from_bytes(socket.inet_aton(text), "big"))
    return IPv4Address(text)


def flow_from_text(
    timestamp: str, src: str, dst: str, protocol: str, port: str, demand: str
) -> FlowDescriptor:
    """The flow six text fields describe, in trace column order.

    Raises ValueError on bad text, checking src, dst, port, timestamp and
    demand in that order and then the FlowDescriptor invariants.  An
    integer field is an optional '-' followed by ASCII digits; any other
    spelling gets the message int() gives for text it cannot read.
    """
    source, destination = read_address(src), read_address(dst)
    digits = port + timestamp + demand
    if not (digits.isascii() and digits.isdigit()):
        # one test of the three fields together keeps the common row cheap;
        # an empty field passes it and fails in int() with the same message
        for text in (port, timestamp, demand):
            unsigned = text.removeprefix("-")
            if not (unsigned.isascii() and unsigned.isdigit()):
                raise ValueError(f"invalid literal for int() with base 10: {text!r:.200}")
    return FlowDescriptor(source, destination, protocol, int(port), int(timestamp), int(demand))


_WILD_ENTITY = EntityGroup(WILDCARD, None)
_WILD_SERVICE = ServiceClass(WILDCARD, None)
_WILD_TIME = TimeClass(WILDCARD, None)


@dataclass(frozen=True)
class Catalogs:
    """Named catalogs that conditions resolve against, plus the document's
    UTC offset (minutes) used when classifying flow timestamps."""

    entities: dict[str, EntityGroup] = field(default_factory=dict)
    services: dict[str, ServiceClass] = field(default_factory=dict)
    times: dict[str, TimeClass] = field(default_factory=dict)
    tz_offset_minutes: int = 0

    def entity_group(self, name: str) -> EntityGroup:
        if name == WILDCARD:
            return _WILD_ENTITY
        try:
            return self.entities[name]
        except KeyError:
            raise UnknownReferenceError("entity group", name) from None

    def service_class(self, name: str) -> ServiceClass:
        if name == WILDCARD:
            return _WILD_SERVICE
        try:
            return self.services[name]
        except KeyError:
            raise UnknownReferenceError("service class", name) from None

    def time_class(self, name: str) -> TimeClass:
        if name == WILDCARD:
            return _WILD_TIME
        try:
            return self.times[name]
        except KeyError:
            raise UnknownReferenceError("time class", name) from None


_TZ_RE = re.compile(r"^([+-])(\d{2}):(\d{2})$")


def parse_tz_offset(text: str) -> int:
    """Parse a "+HH:MM"/"-HH:MM" offset into minutes east of UTC."""
    m = _TZ_RE.match(text)
    if not m or int(m.group(3)) > 59:
        raise ValueError(f"bad timezone offset {text!r}, expected +HH:MM or -HH:MM")
    minutes = int(m.group(2)) * 60 + int(m.group(3))
    return -minutes if m.group(1) == "-" else minutes


def format_tz_offset(minutes: int) -> str:
    sign = "-" if minutes < 0 else "+"
    minutes = abs(minutes)
    return f"{sign}{minutes // 60:02d}:{minutes % 60:02d}"


# First Monday of the epoch; anchor for the weekly minute arithmetic of
# week_minute() and its inverse timestamp_at().
_EPOCH_MONDAY = 4 * 86400


def week_minute(timestamp: int, tz_offset_minutes: int) -> int:
    """Minute of the week (0 = Monday 00:00 .. 10079) at the given offset.

    Integer week arithmetic, so any integer timestamp maps, including ones
    outside the range datetime can represent.
    """
    return ((timestamp - _EPOCH_MONDAY) // 60 + tz_offset_minutes) % WEEK_MINUTES


def timestamp_at(day: int, minute: int, tz_offset_minutes: int = 0) -> int:
    """Epoch timestamp whose local wall clock falls on the given weekday/minute."""
    return _EPOCH_MONDAY + day * 86400 + minute * 60 - tz_offset_minutes * 60


def priority_band(priority: int) -> PriorityBand:
    """Band for a priority value: 1-4 low, 5-7 middle, 8-9 high."""
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ValueError(f"priority must be an integer, got {priority!r}")
    if 1 <= priority <= 4:
        return PriorityBand.LOW
    if 5 <= priority <= 7:
        return PriorityBand.MIDDLE
    if 8 <= priority <= 9:
        return PriorityBand.HIGH
    raise ValueError(f"priority out of range 1..9: {priority}")


def condition_matches(
    condition: Condition, flow: FlowDescriptor, catalogs: Catalogs
) -> bool:
    """True when the flow falls inside all four dimensions of the condition.

    Deprecated: compile_policy(rules, catalogs).decide matches flows from
    the same spans.  All four references are resolved before any is
    tested, source first, then destination, service and time.
    """
    warnings.warn(
        "condition_matches is deprecated; use compile_policy(rules, catalogs).decide",
        DeprecationWarning, stacklevel=2,
    )
    spans = (
        catalogs.entity_group(condition.source).spans(),
        catalogs.entity_group(condition.destination).spans(),
        catalogs.service_class(condition.service).spans(flow.protocol),
        catalogs.time_class(condition.time).spans(),
    )
    minute = week_minute(flow.timestamp, catalogs.tz_offset_minutes)
    points = (int(flow.src), int(flow.dst), flow.port, minute)
    return all(any(low <= p < high for low, high in s) for s, p in zip(spans, points))
