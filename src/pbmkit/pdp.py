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

detect_conflicts() examines every rule pair whose condition spaces overlap
and attaches a deterministic witness flow taken from the overlap: the
lowest common address on each side, the lowest common protocol/port, and
the earliest common weekly minute.  A condition names one catalog entry in
each of four dimensions, and rules share few entries, so the witnesses are
computed once per pair of entry names in a per-dimension table.  Each rule
then gets one bitset per dimension marking the rules whose entry overlaps
its own; the AND of a rule's four bitsets, shifted past the rule itself,
lists the later rules it overlaps (per-field bit vectors, Lakshman &
Stiliadis, SIGCOMM 1998).  Only those pairs have their actions compared.
"""
from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from ipaddress import IPv4Address, IPv4Network
from typing import Any, Callable, Iterable, NamedTuple, Sequence

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
    ServiceMatcher,
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


def _address_witness(a: EntityGroup, b: EntityGroup) -> IPv4Address | None:
    """Lowest address in the intersection of two groups, or None."""
    if a.members is None and b.members is None:
        return IPv4Address("0.0.0.0")
    if a.members is None or b.members is None:
        members = b.members if a.members is None else a.members
        assert members is not None
        return min(net.network_address for net in members)
    candidates = [
        max(na.network_address, nb.network_address)
        for na in a.members
        for nb in b.members
        if na.overlaps(nb)
    ]
    return min(candidates) if candidates else None


_WILD_MATCHERS = (ServiceMatcher("any", 0, 65535),)
_PROTO_RANK = {"tcp": 0, "udp": 1}


def _protocols(matcher: ServiceMatcher) -> frozenset[str]:
    return frozenset(("tcp", "udp")) if matcher.protocol == "any" else frozenset((matcher.protocol,))


def _service_witness(a: ServiceClass, b: ServiceClass) -> tuple[str, int] | None:
    """Lowest (port, protocol) point matched by both classes, or None."""
    ma = tuple(a.matchers) if a.matchers is not None else _WILD_MATCHERS
    mb = tuple(b.matchers) if b.matchers is not None else _WILD_MATCHERS
    best: tuple[int, int, str] | None = None
    for x in ma:
        for y in mb:
            protos = _protocols(x) & _protocols(y)
            low = max(x.low, y.low)
            if not protos or low > min(x.high, y.high):
                continue
            proto = min(protos, key=_PROTO_RANK.__getitem__)
            key = (low, _PROTO_RANK[proto], proto)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[2], best[0]


def _time_witness(a: TimeClass, b: TimeClass) -> tuple[int, int] | None:
    """Earliest (day, minute) of the week covered by both classes, or None."""
    if a.windows is None and b.windows is None:
        return 0, 0
    if a.windows is None or b.windows is None:
        windows = b.windows if a.windows is None else a.windows
        assert windows is not None
        return min((min(w.days), w.start_minute) for w in windows)
    best: tuple[int, int] | None = None
    for wa in a.windows:
        for wb in b.windows:
            common = wa.days & wb.days
            start = max(wa.start_minute, wb.start_minute)
            if not common or start >= min(wa.end_minute, wb.end_minute):
                continue
            candidate = (min(common), start)
            if best is None or candidate < best:
                best = candidate
    return best


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


def _overlap_index(
    names: list[str],
    lookup: Callable[[str], Any],
    witness: Callable[[Any, Any], Any],
) -> tuple[dict[tuple[str, str], Any], list[int]]:
    """Witness table and per-rule overlap bitsets for one condition dimension.

    names[i] is rule i's entry name.  witness() runs once per unordered
    pair of the names used (a name with itself included); the table holds
    its result under both orders of the pair, and no key for a pair that
    does not overlap.  Bit j of the i-th bitset is set when rule j's entry
    overlaps rule i's.
    """
    entries = {name: lookup(name) for name in names}
    holders = dict.fromkeys(entries, 0)
    for index, name in enumerate(names):
        holders[name] |= 1 << index
    reach = dict.fromkeys(entries, 0)
    table = {}
    distinct = list(entries)
    for k, u in enumerate(distinct):
        for v in distinct[k:]:
            found = witness(entries[u], entries[v])
            if found is None:
                continue
            table[u, v] = table[v, u] = found
            reach[u] |= holders[v]
            reach[v] |= holders[u]
    return table, [reach[name] for name in names]


def detect_conflicts(
    rules: tuple[PolicyRule, ...] | list[PolicyRule], catalogs: Catalogs
) -> list[Conflict]:
    """All pairwise conflicts between rules with overlapping conditions.

    Each dimension (source, destination, service, time) gets a witness
    table over the entry names the rules use and one overlap bitset per
    rule.  For rule i, the AND of its four bitsets shifted right by i + 1
    has a set bit for each later rule whose condition overlaps; only those
    pairs have their actions compared, and a conflicting pair's witness is
    assembled from the four table entries.  Conflicts come ordered by
    (i, j) with i < j in document order, and one pair's kinds in
    ConflictKind order.

    Every catalog name the rules use is resolved before any pair is
    examined, so a rule naming a missing entry raises
    UnknownReferenceError even when no pair has conflicting actions.
    """
    ordered = list(rules)
    conditions = [rule.condition for rule in ordered]
    sources, source_bits = _overlap_index(
        [c.source for c in conditions], catalogs.entity_group, _address_witness
    )
    destinations, destination_bits = _overlap_index(
        [c.destination for c in conditions], catalogs.entity_group, _address_witness
    )
    services, service_bits = _overlap_index(
        [c.service for c in conditions], catalogs.service_class, _service_witness
    )
    times, time_bits = _overlap_index(
        [c.time for c in conditions], catalogs.time_class, _time_witness
    )
    conflicts: list[Conflict] = []
    for i, a in enumerate(ordered):
        overlapping = source_bits[i] & destination_bits[i] & service_bits[i] & time_bits[i]
        later = overlapping >> (i + 1)
        while later:
            low = later & -later
            later ^= low
            b = ordered[i + low.bit_length()]
            kinds = _pair_conflicts(a, b)
            if not kinds:
                continue
            ca, cb = a.condition, b.condition
            proto, port = services[ca.service, cb.service]
            day, minute = times[ca.time, cb.time]
            witness = FlowDescriptor(
                src=sources[ca.source, cb.source],
                dst=destinations[ca.destination, cb.destination],
                protocol=proto,
                port=port,
                timestamp=timestamp_at(day, minute, catalogs.tz_offset_minutes),
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
