"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (recursive
set semantics, exhaustive sampling, one-kilobit loops, Fraction
arithmetic, a per-character scanner) so that agreement with the shipped
fast paths is meaningful.  Only data types and constants are imported
from the package, never its algorithms: reference_decide tests each rule
with its own rule-at-a-time matcher, not with the spans the package
compiles.
"""
from __future__ import annotations

from fractions import Fraction
from ipaddress import IPv4Address

from pbmkit.dsl import ParseError, _Token
from pbmkit.model import (
    Admission,
    FlowDescriptor,
    RefinementMode,
    Scope,
    ServiceMatcher,
)
from pbmkit.pdp import Conflict, ConflictKind, Decision, DecisionFlag, RuleBound

_EPOCH_MONDAY = 4 * 86400
_WEEK_MINUTES = 7 * 1440


# -- document tokens, one character at a time ---------------------------------

_WORD_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.:+/-"
)


def _scan_string(raw: str, start: int, lineno: int) -> tuple[str, int]:
    out: list[str] = []
    i = start + 1
    while i < len(raw):
        ch = raw[i]
        if ch == '"':
            return "".join(out), i + 1
        if ch == "\\":
            if i + 1 >= len(raw):
                break
            esc = raw[i + 1]
            if esc == "n":
                out.append("\n")
            elif esc in ('"', "\\"):
                out.append(esc)
            else:
                raise ParseError(lineno, i + 2, f"unknown escape \\{esc}", raw)
            i += 2
        else:
            out.append(ch)
            i += 1
    raise ParseError(lineno, start + 1, "unterminated string", raw)


def reference_tokenize(text: str) -> tuple[list[_Token], list[str]]:
    """Tokens of a policy document, scanned line by line and char by char."""
    tokens: list[_Token] = []
    lines = text.split("\n")
    for lineno, raw in enumerate(lines, 1):
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch in " \t\r":
                i += 1
                continue
            if ch == "#":
                break
            col = i + 1
            if ch == '"':
                value, i = _scan_string(raw, i, lineno)
                tokens.append(_Token("string", value, lineno, col))
            elif ch in "{},=":
                tokens.append(_Token(ch, ch, lineno, col))
                i += 1
            elif ch in _WORD_CHARS:
                j = i
                while j < len(raw) and raw[j] in _WORD_CHARS:
                    j += 1
                tokens.append(_Token("word", raw[i:j], lineno, col))
                i = j
            else:
                raise ParseError(lineno, col, f"unexpected character {ch!r}", raw)
    tokens.append(_Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens, lines


# -- strategy enumeration ------------------------------------------------------


def recursive_families(refinements, goal):
    """Set of leaf frozensets reaching goal, by the textbook recursion."""
    ref = refinements.get(goal)
    if ref is None:
        return {frozenset((goal,))}
    child_families = [recursive_families(refinements, child) for child in ref.children]
    if ref.mode is RefinementMode.OR:
        merged = set()
        for family in child_families:
            merged |= family
        return merged
    combos = {frozenset()}
    for family in child_families:
        combos = {chosen | pick for chosen in combos for pick in family}
    return combos


def satisfies(refinements, goal, chosen):
    """Does picking exactly the leaves in chosen achieve goal?"""
    ref = refinements.get(goal)
    if ref is None:
        return goal in chosen
    results = [satisfies(refinements, child, chosen) for child in ref.children]
    return all(results) if ref.mode is RefinementMode.AND else any(results)


def minimal_satisfying_sets(refinements, root, leaves):
    """All inclusion-minimal leaf subsets achieving root (trees only)."""
    ordered = sorted(leaves)
    hits = []
    for mask in range(1 << len(ordered)):
        subset = frozenset(ordered[i] for i in range(len(ordered)) if mask >> i & 1)
        if satisfies(refinements, root, subset):
            hits.append(subset)
    return {s for s in hits if not any(other < s for other in hits)}


# -- decisions, one rule at a time ----------------------------------------------


def _local_day_minute(ts, offset_minutes):
    week_minute = ((ts - _EPOCH_MONDAY) // 60 + offset_minutes) % _WEEK_MINUTES
    return week_minute // 1440, week_minute % 1440


def _addr_matches(members, addr):
    if members is None:
        return True
    return any(addr in network for network in members)


def _service_matches(matchers, proto, port):
    if matchers is None:
        return True
    return any(
        (m.protocol == "any" or m.protocol == proto) and m.low <= port <= m.high
        for m in matchers
    )


def _time_matches(windows, day, minute):
    if windows is None:
        return True
    return any(
        day in w.days and w.start_minute <= minute < w.end_minute for w in windows
    )


def reference_condition_matches(condition, flow, catalogs):
    """True when the flow falls inside all four dimensions of the condition.

    Resolves the four references before testing any (source, destination,
    service, time), so a missing catalog entry raises UnknownReferenceError
    whether or not the flow would match.
    """
    source = catalogs.entity_group(condition.source)
    destination = catalogs.entity_group(condition.destination)
    service = catalogs.service_class(condition.service)
    time_class = catalogs.time_class(condition.time)
    return (
        _addr_matches(source.members, flow.src)
        and _addr_matches(destination.members, flow.dst)
        and _service_matches(service.matchers, flow.protocol, flow.port)
        and _time_matches(
            time_class.windows, *_local_day_minute(flow.timestamp, catalogs.tz_offset_minutes)
        )
    )


def reference_decide(rules, flow, catalogs):
    """Combine all matching rules (in document order) into one decision.

    Tests every rule with reference_condition_matches, which resolves the
    rule's four references before testing any, so the first rule naming a
    missing catalog entry raises UnknownReferenceError.
    """
    matched = [r for r in rules if reference_condition_matches(r.condition, flow, catalogs)]
    denied = any(r.actions.admission is Admission.DENY for r in matched)
    allowed_explicitly = any(r.actions.admission is Admission.ALLOW for r in matched)
    priority = next(
        (r.actions.priority for r in matched if r.actions.priority is not None), 1
    )
    bounds = ()
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


# -- conflict detection by exhaustive sampling ---------------------------------


def _entity(catalogs, name):
    return None if name == "any" else catalogs.entities[name].members


def _service(catalogs, name):
    return None if name == "any" else catalogs.services[name].matchers


def _time(catalogs, name):
    return None if name == "any" else catalogs.times[name].windows


def _addr_points(catalogs, names):
    """Sample addresses: every member network boundary address.

    Complete for membership distinctions as long as every group is built
    from networks inside one small pool, which the generators guarantee.
    """
    points = set()
    for name in names:
        members = _entity(catalogs, name)
        if members is None:
            points.add(IPv4Address("0.0.0.0"))
            continue
        for network in members:
            for addr in network:
                points.add(addr)
    return sorted(points)


def _service_points(catalogs, names):
    """Sample (proto, port): each matcher's low port under its protocols.

    For two ranges that overlap, the larger of the two lows lies in both,
    so sampling every low catches every pairwise intersection.
    """
    points = {("tcp", 0), ("udp", 0)}
    for name in names:
        matchers = _service(catalogs, name)
        if matchers is None:
            continue
        for m in matchers:
            protos = ("tcp", "udp") if m.protocol == "any" else (m.protocol,)
            for proto in protos:
                points.add((proto, m.low))
    return sorted(points)


def sampled_conflict_pairs(rules, catalogs):
    """{(id_a, id_b, kind string)} for i<j pairs, by exhaustive sampling.

    Conditions are conjunctions of four independent dimensions, so two
    rules overlap exactly when every dimension overlaps; each dimension
    is checked against a complete sample of its space.  All generated
    time windows must sit on the 15-minute grid.
    """
    addr_names = {r.condition.source for r in rules} | {
        r.condition.destination for r in rules
    }
    svc_names = {r.condition.service for r in rules}
    addrs = _addr_points(catalogs, addr_names)
    services = _service_points(catalogs, svc_names)
    grid = [(day, q * 15) for day in range(7) for q in range(96)]

    entity_sets = {
        name: frozenset(
            a for a in addrs if _addr_matches(_entity(catalogs, name), a)
        )
        for name in addr_names
    }
    service_sets = {
        name: frozenset(
            p for p in services if _service_matches(_service(catalogs, name), *p)
        )
        for name in svc_names
    }
    time_sets = {
        name: frozenset(
            point
            for point in grid
            if _time_matches(_time(catalogs, name), *point)
        )
        for name in {r.condition.time for r in rules}
    }

    def overlap(a, b):
        return (
            entity_sets[a.condition.source] & entity_sets[b.condition.source]
            and entity_sets[a.condition.destination] & entity_sets[b.condition.destination]
            and service_sets[a.condition.service] & service_sets[b.condition.service]
            and time_sets[a.condition.time] & time_sets[b.condition.time]
        )

    pairs = set()
    ordered = list(rules)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if not overlap(a, b):
                continue
            admissions = {a.actions.admission, b.actions.admission}
            if Admission.ALLOW in admissions and Admission.DENY in admissions:
                pairs.add((a.id, b.id, "AdmissionConflict"))
            ba, bb = a.actions.bandwidth, b.actions.bandwidth
            if ba is not None and bb is not None and ba.scope is bb.scope:
                crossed = (
                    ba.min_kbps is not None
                    and bb.max_kbps is not None
                    and ba.min_kbps > bb.max_kbps
                ) or (
                    bb.min_kbps is not None
                    and ba.max_kbps is not None
                    and bb.min_kbps > ba.max_kbps
                )
                if crossed:
                    pairs.add((a.id, b.id, "BandwidthConflict"))
            pa, pb = a.actions.priority, b.actions.priority
            if pa is not None and pb is not None and pa != pb:
                pairs.add((a.id, b.id, "PriorityDivergence"))
    return pairs


def _reference_kinds(a, b):
    kinds = []
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


def _address_witness(a, b):
    """Lowest address in the intersection of two groups, or None."""
    if a.members is None and b.members is None:
        return IPv4Address("0.0.0.0")
    if a.members is None or b.members is None:
        members = b.members if a.members is None else a.members
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


def _protocols(matcher):
    if matcher.protocol == "any":
        return frozenset(("tcp", "udp"))
    return frozenset((matcher.protocol,))


def _service_witness(a, b):
    """Lowest (port, protocol) point matched by both classes, or None."""
    ma = tuple(a.matchers) if a.matchers is not None else _WILD_MATCHERS
    mb = tuple(b.matchers) if b.matchers is not None else _WILD_MATCHERS
    best = None
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


def _time_witness(a, b):
    """Earliest (day, minute) of the week covered by both classes, or None."""
    if a.windows is None and b.windows is None:
        return 0, 0
    if a.windows is None or b.windows is None:
        windows = b.windows if a.windows is None else a.windows
        return min((min(w.days), w.start_minute) for w in windows)
    best = None
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


def reference_detect_conflicts(rules, catalogs):
    """detect_conflicts by the all-pairs loop: every i < j pair in order.

    Catalog entries are looked up only for pairs whose actions conflict,
    and the witness flow is built from the three per-dimension witnesses
    of that pair.
    """
    conflicts = []
    ordered = list(rules)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            kinds = _reference_kinds(a, b)
            if not kinds:
                continue
            ca, cb = a.condition, b.condition
            src = _address_witness(
                catalogs.entity_group(ca.source), catalogs.entity_group(cb.source)
            )
            dst = _address_witness(
                catalogs.entity_group(ca.destination),
                catalogs.entity_group(cb.destination),
            )
            service = _service_witness(
                catalogs.service_class(ca.service), catalogs.service_class(cb.service)
            )
            when = _time_witness(catalogs.time_class(ca.time), catalogs.time_class(cb.time))
            if src is None or dst is None or service is None or when is None:
                continue
            proto, port = service
            day, minute = when
            timestamp = (
                _EPOCH_MONDAY + day * 86400 + minute * 60 - catalogs.tz_offset_minutes * 60
            )
            witness = FlowDescriptor(src, dst, proto, port, timestamp, 1)
            conflicts.extend(Conflict(a.id, b.id, kind, witness) for kind in kinds)
    return conflicts


# -- bandwidth allocation, one kilobit at a time -------------------------------


class _Ledger:
    def __init__(self, flows, pipes):
        self.decisions = [d for d, _ in flows]
        self.demands = [demand for _, demand in flows]
        self.granted = [0] * len(flows)
        self.pipes = list(pipes)
        self.pipe_used = [0] * len(pipes)
        self.allowed = [d.admission is Admission.ALLOW for d in self.decisions]
        self.members = [
            [i for i in pipe.members if self.allowed[i]] for pipe in pipes
        ]
        self.flow_pipes = [
            [p for p in range(len(pipes)) if i in self.members[p]]
            for i in range(len(flows))
        ]

    def room(self, i):
        decision = self.decisions[i]
        room = self.demands[i] - self.granted[i]
        if decision.effective_max_kbps is not None:
            room = min(room, decision.effective_max_kbps - self.granted[i])
        for p in self.flow_pipes[i]:
            if self.pipes[p].max_kbps is not None:
                room = min(room, self.pipes[p].max_kbps - self.pipe_used[p])
        return max(room, 0)

    def give(self, i, amount):
        self.granted[i] += amount
        for p in self.flow_pipes[i]:
            self.pipe_used[p] += amount


def _fraction_split(targets, pool):
    """Highest-ratio split using exact Fraction arithmetic."""
    shares = [0] * len(targets)
    for _ in range(pool):
        best = None
        best_q = None
        for i, target in enumerate(targets):
            if shares[i] >= target:
                continue
            q = Fraction(target, shares[i] + 1)
            if best_q is None or q > best_q:
                best, best_q = i, q
        if best is None:
            break
        shares[best] += 1
    return shares


def oracle_allocate(flows, capacity, pipes=()):
    """Reference two-phase allocator; literal one-kilobit inner loops."""
    state = _Ledger(flows, pipes)
    pool = capacity
    for tier in range(9, 0, -1):
        items = []
        for i, decision in enumerate(state.decisions):
            if not state.allowed[i] or decision.priority != tier:
                continue
            if decision.effective_min_kbps is None:
                continue
            target = min(decision.effective_min_kbps - state.granted[i], state.room(i))
            if target > 0:
                items.append(("flow", i, target))
        for p, pipe in enumerate(state.pipes):
            if pipe.priority != tier or pipe.min_kbps is None:
                continue
            absorbable = sum(state.room(i) for i in state.members[p])
            target = min(pipe.min_kbps - state.pipe_used[p], absorbable)
            if target > 0:
                items.append(("pipe", p, target))
        if not items or pool == 0:
            continue
        targets = [t for _, _, t in items]
        shares = targets if sum(targets) <= pool else _fraction_split(targets, pool)
        for (kind, index, _), share in zip(items, shares):
            if kind == "flow":
                amount = min(share, state.room(index))
                if amount > 0:
                    state.give(index, amount)
                pool -= amount
            else:
                applied = 0
                while applied < share:
                    moved = False
                    for i in state.members[index]:
                        if applied == share:
                            break
                        if state.room(i) > 0:
                            state.give(i, 1)
                            applied += 1
                            moved = True
                    if not moved:
                        break
                pool -= applied
    for tier in range(9, 0, -1):
        participants = [
            i
            for i, decision in enumerate(state.decisions)
            if state.allowed[i] and decision.priority == tier
        ]
        while pool > 0:
            moved = False
            for i in participants:
                if pool == 0:
                    break
                if state.room(i) > 0:
                    state.give(i, 1)
                    pool -= 1
                    moved = True
            if not moved:
                break
    return state.granted


def flow_guarantee(decision, demand):
    """What an admitted flow is owed when guarantees are feasible."""
    if decision.admission is not Admission.ALLOW or decision.effective_min_kbps is None:
        return 0
    return min(decision.effective_min_kbps, demand)
