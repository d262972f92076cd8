"""Policy decision point: flow decisions, conflict detection, translation.

A decision combines every rule whose condition matches a flow: an
explicit Deny dominates, an allowed decision lists each matched rule's
bandwidth action as its bounds, and priority comes from the first matched
rule that sets one.  A flow matching no rule is allowed at priority 1 with
no bounds.  Decision derives the effective limits from the bounds (the
tightest of them; min is clamped to max and flagged when they cross), and
enforcement turns the bounds into per-connection limits and aggregate
pipes.

compile_policy() turns a rule set into a CompiledPolicy: per dimension,
sorted elementary integer intervals, each holding the bitset of the rules
that match there.  Its decide() costs four bisects and an AND of four ints
per flow, and it remembers the Decision of each matched-rule set (up to
DECISION_MEMO_LIMIT sets).  replay() and PdpServer compile once per rule
set.  decide(rules, flow, catalogs) is the one-shot form: it compiles the
rules for a single flow.

detect_conflicts() reads the same tables.  Two rules overlap in a
dimension exactly when some elementary interval holds both their bits,
so each rule's reach, the OR of the interval bitsets holding it, marks
the rules it overlaps there; the AND of a rule's four reaches, shifted
past the rule itself, lists the later rules it overlaps (per-field bit
vectors, Lakshman & Stiliadis, SIGCOMM 1998, over the decomposition of
Hari, Suri & Parulkar, INFOCOM 2000).  Only those pairs have their
actions compared.  A conflict's witness flow is the lowest point of the
overlap: in each dimension the start of the first interval holding both
rules (the lower port of the two protocol tables, tcp on a tie).  It
resolves catalog names dimension by dimension, every rule's source
first, where compile_policy() resolves them rule by rule.
"""
from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from ipaddress import IPv4Address
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .model import (
    Admission,
    Bandwidth,
    Catalogs,
    DAY_NAMES,
    PROTOCOLS,
    WEEK_MINUTES,
    EntityGroup,
    FlowDescriptor,
    PolicyRule,
    Scope,
    ServiceClass,
    TimeClass,
    day_runs,
    timestamp_at,
    week_minute,
)


class DecisionFlag(Enum):
    MIN_EXCEEDS_MAX = "MinExceedsMax"
    ADMISSION_CONTRADICTION = "AdmissionContradiction"


class RuleBound(NamedTuple):
    """A matched rule's bandwidth action and the priority the rule sets."""

    rule_id: str
    bandwidth: Bandwidth
    priority: int | None


@dataclass(frozen=True)
class Decision:
    """Outcome of evaluating a rule set against one flow.

    bounds is the only stored form of the bandwidth limits.  The effective
    limits are their tightest fold (largest min, smallest max), computed
    once on construction; when that min exceeds that max, min is clamped
    to max and MinExceedsMax is added to flags.  MinExceedsMax on bounds
    that do not cross is rejected.
    """

    matched: tuple[str, ...]
    admission: Admission
    priority: int
    flags: frozenset[DecisionFlag] = frozenset()
    bounds: tuple[RuleBound, ...] = ()
    effective_min_kbps: int | None = field(init=False)
    effective_max_kbps: int | None = field(init=False)

    def __post_init__(self):
        if not (1 <= self.priority <= 9):
            raise ValueError(f"decision priority must be in 1..9, got {self.priority}")
        if self.admission is Admission.DENY and self.bounds:
            raise ValueError("a denied decision cannot carry bandwidth bounds")
        # one pass without temporaries: replay builds two Decisions per flow
        low = high = None
        for bound in self.bounds:
            bw = bound.bandwidth
            if bw.min_kbps is not None and (low is None or bw.min_kbps > low):
                low = bw.min_kbps
            if bw.max_kbps is not None and (high is None or bw.max_kbps < high):
                high = bw.max_kbps
        if low is not None and high is not None and low > high:
            low = high
            object.__setattr__(self, "flags", self.flags | {DecisionFlag.MIN_EXCEEDS_MAX})
        elif DecisionFlag.MIN_EXCEEDS_MAX in self.flags:
            raise ValueError("MinExceedsMax flagged on bounds that do not cross")
        object.__setattr__(self, "effective_min_kbps", low)
        object.__setattr__(self, "effective_max_kbps", high)


def _combine(matched: list[PolicyRule]) -> Decision:
    """The decision for the matched rules, given in document order."""
    denied = any(r.actions.admission is Admission.DENY for r in matched)
    allowed_explicitly = any(r.actions.admission is Admission.ALLOW for r in matched)
    priority = next(
        (r.actions.priority for r in matched if r.actions.priority is not None), 1
    )
    bounds: tuple[RuleBound, ...] = ()
    if not denied:
        bounds = tuple(
            RuleBound(r.id, r.actions.bandwidth, r.actions.priority)
            for r in matched
            if r.actions.bandwidth is not None
        )
    return Decision(
        matched=tuple(r.id for r in matched),
        admission=Admission.DENY if denied else Admission.ALLOW,
        priority=priority,
        flags=frozenset(
            {DecisionFlag.ADMISSION_CONTRADICTION} if denied and allowed_explicitly else ()
        ),
        bounds=bounds,
    )


# Decisions one CompiledPolicy remembers, one per distinct set of matched
# rules.  Fixed, so that flows crafted to hit many sets cannot grow it
# without bound; sets beyond it are combined again on every flow.
DECISION_MEMO_LIMIT = 4096

_ADDRESS_END = 1 << 32
_PORT_END = 65536

# (elementary-interval starts, rule bitset of each interval) for one dimension
_Table = tuple[list[int], list[int]]


def _address_spans(group: EntityGroup) -> list[tuple[int, int]]:
    if group.members is None:
        return [(0, _ADDRESS_END)]
    return [
        (int(net.network_address), int(net.broadcast_address) + 1) for net in group.members
    ]


def _port_spans(service: ServiceClass, protocol: str) -> list[tuple[int, int]]:
    if service.matchers is None:
        return [(0, _PORT_END)]
    return [
        (m.low, m.high + 1) for m in service.matchers if m.protocol in ("any", protocol)
    ]


def _minute_spans(time_class: TimeClass) -> list[tuple[int, int]]:
    if time_class.windows is None:
        return [(0, WEEK_MINUTES)]
    return [
        (day * 1440 + w.start_minute, day * 1440 + w.end_minute)
        for w in time_class.windows
        for day in w.days
    ]


def _interval_table(entries: Iterable[tuple[list[tuple[int, int]], int]]) -> _Table:
    """Elementary intervals of one dimension and the rules matching each.

    entries pairs the half-open integer intervals one catalog entry covers
    with the bitset of the rules naming that entry.  An entry's intervals
    are merged first, so its rules' bits switch on at the start of each
    merged run and off at its end.  The first interval starts at 0, and
    neighbouring intervals carry different bitsets.
    """
    toggles = {0: 0}
    for spans, holders in entries:
        runs: list[list[int]] = []
        for low, high in sorted(spans):
            if runs and low <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], high)
            else:
                runs.append([low, high])
        for low, high in runs:
            toggles[low] = toggles.get(low, 0) ^ holders
            toggles[high] = toggles.get(high, 0) ^ holders
    starts: list[int] = []
    bits: list[int] = []
    current = 0
    for point in sorted(toggles):
        current ^= toggles[point]
        if not bits or current != bits[-1]:
            starts.append(point)
            bits.append(current)
    return starts, bits


class CompiledPolicy:
    """A rule set compiled for deciding many flows; built by compile_policy().

    Each condition dimension is a table of elementary intervals over the
    integers (source and destination address, port per protocol, minute
    of the week at the document's offset), each interval holding the
    bitset of the rules that match there.  decide() finds the flow's
    interval in each table with one bisect and ANDs the four bitsets,
    stopping as soon as none is left (per-field bit vectors, Lakshman &
    Stiliadis, SIGCOMM 1998).  A Decision depends only on the set of
    matched rules and is immutable, so decide() remembers one per set,
    up to DECISION_MEMO_LIMIT sets.  Safe to share between threads.

    References are resolved once each, rule by rule in document order,
    each rule's source, destination, service and time in turn, so a
    missing catalog entry raises the UnknownReferenceError that matching
    the rules one by one would raise first.
    """

    def __init__(self, rules: Sequence[PolicyRule], catalogs: Catalogs):
        self._rules = tuple(rules)
        # per dimension: entry name -> (resolved entry, bitset of its rules)
        sources: dict[str, tuple[EntityGroup, int]] = {}
        destinations: dict[str, tuple[EntityGroup, int]] = {}
        services: dict[str, tuple[ServiceClass, int]] = {}
        times: dict[str, tuple[TimeClass, int]] = {}
        for index, rule in enumerate(self._rules):
            c = rule.condition
            _hold(sources, c.source, catalogs.entity_group, index)
            _hold(destinations, c.destination, catalogs.entity_group, index)
            _hold(services, c.service, catalogs.service_class, index)
            _hold(times, c.time, catalogs.time_class, index)
        self._sources = _interval_table(
            (_address_spans(group), bits) for group, bits in sources.values()
        )
        self._destinations = _interval_table(
            (_address_spans(group), bits) for group, bits in destinations.values()
        )
        self._ports = {
            protocol: _interval_table(
                (_port_spans(service, protocol), bits) for service, bits in services.values()
            )
            for protocol in PROTOCOLS
        }
        self._minutes = _interval_table(
            (_minute_spans(time_class), bits) for time_class, bits in times.values()
        )
        self._tz = catalogs.tz_offset_minutes
        self._memo: dict[int, Decision] = {}
        self._memo_lock = threading.Lock()

    def decide(self, flow: FlowDescriptor) -> Decision:
        """Combine all matching rules (in document order) into one decision."""
        starts, bits = self._sources
        matched = bits[bisect_right(starts, int(flow.src)) - 1]
        if matched:
            starts, bits = self._destinations
            matched &= bits[bisect_right(starts, int(flow.dst)) - 1]
        if matched:
            starts, bits = self._ports[flow.protocol]
            matched &= bits[bisect_right(starts, flow.port) - 1]
        if matched:
            starts, bits = self._minutes
            matched &= bits[bisect_right(starts, week_minute(flow.timestamp, self._tz)) - 1]
        decision = self._memo.get(matched)
        if decision is None:
            chosen = []
            rest = matched
            while rest:
                low = rest & -rest
                chosen.append(self._rules[low.bit_length() - 1])
                rest ^= low
            decision = _combine(chosen)
            with self._memo_lock:
                if len(self._memo) < DECISION_MEMO_LIMIT:
                    self._memo[matched] = decision
        return decision


def _hold(held: dict[str, Any], name: str, lookup: Callable[[str], Any], index: int) -> None:
    """Add rule index to the holders of entry name, resolving it on first use."""
    entry, bits = held[name] if name in held else (lookup(name), 0)
    held[name] = entry, bits | 1 << index


def compile_policy(rules: Sequence[PolicyRule], catalogs: Catalogs) -> CompiledPolicy:
    """Compile rules against their catalogs for CompiledPolicy.decide()."""
    return CompiledPolicy(rules, catalogs)


def decide(
    rules: tuple[PolicyRule, ...] | list[PolicyRule],
    flow: FlowDescriptor,
    catalogs: Catalogs,
) -> Decision:
    """Combine all matching rules (in document order) into one decision.

    One-shot: the rules are compiled for this one flow.  To decide many
    flows against one rule set, compile_policy() once and call its decide.
    """
    return compile_policy(rules, catalogs).decide(flow)


# -- conflict detection --------------------------------------------------------


class ConflictKind(Enum):
    ADMISSION = "AdmissionConflict"
    BANDWIDTH = "BandwidthConflict"
    PRIORITY_DIVERGENCE = "PriorityDivergence"


@dataclass(frozen=True)
class Conflict:
    rule_a: str
    rule_b: str
    kind: ConflictKind
    witness: FlowDescriptor

    @property
    def severity(self) -> str:
        return "warning" if self.kind is ConflictKind.PRIORITY_DIVERGENCE else "error"


def _pair_conflicts(a: PolicyRule, b: PolicyRule) -> list[ConflictKind]:
    kinds: list[ConflictKind] = []
    admissions = {a.actions.admission, b.actions.admission}
    if Admission.ALLOW in admissions and Admission.DENY in admissions:
        kinds.append(ConflictKind.ADMISSION)
    ba, bb = a.actions.bandwidth, b.actions.bandwidth
    if ba is not None and bb is not None and ba.scope is bb.scope:
        if (
            ba.min_kbps is not None
            and bb.max_kbps is not None
            and ba.min_kbps > bb.max_kbps
        ) or (
            bb.min_kbps is not None
            and ba.max_kbps is not None
            and bb.min_kbps > ba.max_kbps
        ):
            kinds.append(ConflictKind.BANDWIDTH)
    pa, pb = a.actions.priority, b.actions.priority
    if pa is not None and pb is not None and pa != pb:
        kinds.append(ConflictKind.PRIORITY_DIVERGENCE)
    return kinds


def _members(bits: int) -> Iterator[int]:
    """Indices of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield low.bit_length() - 1


def _overlaps(table: _Table, count: int) -> tuple[list[int], list[int]]:
    """Per rule of a dimension's table: its reach and its first interval.

    Rule i's reach is the OR of the distinct interval bitsets holding bit
    i, so it marks the rules sharing an interval with i.  first[i] is the
    index of the first interval holding bit i (the table's length when
    none does).
    """
    bits = table[1]
    reach = [0] * count
    for held in set(bits):
        for rule in _members(held):
            reach[rule] |= held
    first = [len(bits)] * count
    seen = 0
    for index, held in enumerate(bits):
        for rule in _members(held & ~seen):
            first[rule] = index
        seen |= held
    return reach, first


def _first_common(table: _Table, first: list[int], i: int, j: int) -> int | None:
    """Start of the first interval holding both rules i and j, or None."""
    starts, bits = table
    both = 1 << i | 1 << j
    return next(
        (starts[k] for k in range(max(first[i], first[j]), len(bits)) if bits[k] & both == both),
        None,
    )


def detect_conflicts(
    rules: tuple[PolicyRule, ...] | list[PolicyRule], catalogs: Catalogs
) -> list[Conflict]:
    """All pairwise conflicts between rules with overlapping conditions.

    The rules are compiled as for decide().  Two rules overlap in a
    dimension when some interval of its table holds both their bits (in
    either protocol's table, for ports), so each rule's reach there is the
    OR of the interval bitsets holding its bit.  For rule i, the AND of
    its four reaches shifted right by i + 1 has a set bit for each later
    rule whose condition overlaps; only those pairs have their actions
    compared.  A conflicting pair's witness is the start of the first
    interval holding both rules in each dimension: the lowest common
    address on each side, the lowest common port (tcp on a tie between
    the protocols) and the earliest common minute of the week.  Conflicts
    come ordered by (i, j) with i < j in document order, and one pair's
    kinds in ConflictKind order.

    Catalog names are resolved dimension by dimension before any pair is
    examined: every rule's source first, then destinations, services and
    times.  Of several missing entries, the first in that order raises
    UnknownReferenceError, even when no pair has conflicting actions.
    """
    ordered = list(rules)
    for lookup, dimension in (
        (catalogs.entity_group, "source"),
        (catalogs.entity_group, "destination"),
        (catalogs.service_class, "service"),
        (catalogs.time_class, "time"),
    ):
        for rule in ordered:
            lookup(getattr(rule.condition, dimension))
    policy = CompiledPolicy(ordered, catalogs)
    tables = (
        policy._sources, policy._destinations, policy._ports["tcp"], policy._ports["udp"],
        policy._minutes,
    )
    reaches, firsts = zip(*(_overlaps(table, len(ordered)) for table in tables))
    src, dst, tcp, udp, when = reaches
    conflicts: list[Conflict] = []
    for i, a in enumerate(ordered):
        later = (src[i] & dst[i] & (tcp[i] | udp[i]) & when[i]) >> (i + 1)
        for offset in _members(later):
            j = i + 1 + offset
            b = ordered[j]
            kinds = _pair_conflicts(a, b)
            if not kinds:
                continue
            low_src, low_dst, tcp_port, udp_port, minute = (
                _first_common(table, first, i, j) for table, first in zip(tables, firsts)
            )
            udp_lower = tcp_port is None or (udp_port is not None and udp_port < tcp_port)
            witness = FlowDescriptor(
                src=IPv4Address(low_src),
                dst=IPv4Address(low_dst),
                protocol="udp" if udp_lower else "tcp",
                port=udp_port if udp_lower else tcp_port,
                timestamp=timestamp_at(minute // 1440, minute % 1440, catalogs.tz_offset_minutes),
                demand_kbps=1,
            )
            conflicts.extend(Conflict(a.id, b.id, kind, witness) for kind in kinds)
    return conflicts


# -- device translation --------------------------------------------------------


class TranslationError(Exception):
    """The rule uses an action kind or dialect the profile cannot express."""


ACTION_KINDS = ("admission", "bandwidth", "priority")
SHAPERCONF_V1 = "shaperconf-v1"


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    dialect: str
    supported: frozenset[str]  # subset of ACTION_KINDS


DEFAULT_PROFILES = {
    "shaper": DeviceProfile("shaper", SHAPERCONF_V1, frozenset(ACTION_KINDS)),
    "filter": DeviceProfile("filter", SHAPERCONF_V1, frozenset(("admission", "priority"))),
}


def _rule_action_kinds(rule: PolicyRule) -> list[str]:
    kinds = []
    if rule.actions.admission is not None:
        kinds.append("admission")
    if rule.actions.bandwidth is not None:
        kinds.append("bandwidth")
    if rule.actions.priority is not None:
        kinds.append("priority")
    return kinds


def _render_addresses(group: EntityGroup) -> str:
    if group.members is None:
        return "0.0.0.0/0"
    ordered = sorted(group.members, key=lambda n: (int(n.network_address), n.prefixlen))
    return ",".join(str(net) for net in ordered)


def _render_service(svc: ServiceClass) -> tuple[str, str]:
    if svc.matchers is None:
        return "any", "any"
    protocols = {m.protocol for m in svc.matchers}
    proto = protocols.pop() if len(protocols) == 1 else "any"
    spans = sorted({(m.low, m.high) for m in svc.matchers})
    ports = ",".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in spans)
    return proto, ports


def _render_time(tc: TimeClass) -> str:
    if tc.windows is None:
        return "any"
    entries: list[tuple[int, int, str]] = []
    for window in tc.windows:
        clock = (
            f"{window.start_minute // 60:02d}:{window.start_minute % 60:02d}"
            f"-{window.end_minute // 60:02d}:{window.end_minute % 60:02d}"
        )
        for first, last in day_runs(window.days):
            run = DAY_NAMES[first] if first == last else f"{DAY_NAMES[first]}-{DAY_NAMES[last]}"
            entries.append((first, window.start_minute, f"{run}:{clock}"))
    return ",".join(text for _, _, text in sorted(entries))


def translate_to_device(
    rule: PolicyRule, catalogs: Catalogs, profile: DeviceProfile
) -> list[str]:
    """Render one rule as device configuration lines (shaperconf v1)."""
    if profile.dialect != SHAPERCONF_V1:
        raise TranslationError(f"unsupported dialect {profile.dialect!r}")
    for kind in _rule_action_kinds(rule):
        if kind not in profile.supported:
            raise TranslationError(
                f"profile {profile.name!r} does not support {kind} actions"
            )
    cond = rule.condition
    src = _render_addresses(catalogs.entity_group(cond.source))
    dst = _render_addresses(catalogs.entity_group(cond.destination))
    proto, ports = _render_service(catalogs.service_class(cond.service))
    when = _render_time(catalogs.time_class(cond.time))
    actions = rule.actions
    admit = "deny" if actions.admission is Admission.DENY else "allow"
    bw = actions.bandwidth
    min_part = str(bw.min_kbps) if bw is not None and bw.min_kbps is not None else "-"
    max_part = str(bw.max_kbps) if bw is not None and bw.max_kbps is not None else "-"
    prio = str(actions.priority) if actions.priority is not None else "-"
    scope = "conn" if bw is not None and bw.scope is Scope.PER_CONNECTION else "agg"
    return [
        f"rule {rule.id} match src={src} dst={dst} proto={proto} ports={ports}"
        f" time={when} action admit={admit} min={min_part} max={max_part}"
        f" prio={prio} scope={scope}"
    ]
