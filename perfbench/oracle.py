"""Independent checks of the program's outputs.

The matcher compiles each rule's condition into integer ranges and
computes weekday and minute by arithmetic, so it shares no code with
pbmkit's condition_matches.  Only the package's data types are read.
"""
from __future__ import annotations

from dataclasses import dataclass

from inputs import Step

_EPOCH_WEEKDAY = 3  # 1970-01-01 was a Thursday


@dataclass(frozen=True)
class _Rule:
    id: str
    src: tuple | None
    dst: tuple | None
    service: tuple | None
    time: tuple | None
    deny: bool
    min_kbps: int | None
    max_kbps: int | None
    per_connection: bool


def _ranges(group):
    if group.members is None:
        return None
    return tuple((int(n.network_address), int(n.broadcast_address)) for n in group.members)


def _inside(ranges, value) -> bool:
    return ranges is None or any(low <= value <= high for low, high in ranges)


class Matcher:
    """Which rules a flow tuple matches, in document order."""

    def __init__(self, rules, catalogs):
        self.tz_seconds = catalogs.tz_offset_minutes * 60
        self.rules = []
        for rule in rules:
            cond, actions = rule.condition, rule.actions
            service = catalogs.service_class(cond.service)
            time_class = catalogs.time_class(cond.time)
            bw = actions.bandwidth
            self.rules.append(_Rule(
                id=rule.id,
                src=_ranges(catalogs.entity_group(cond.source)),
                dst=_ranges(catalogs.entity_group(cond.destination)),
                service=None if service.matchers is None else tuple(
                    (m.protocol, m.low, m.high) for m in service.matchers
                ),
                time=None if time_class.windows is None else tuple(
                    (w.days, w.start_minute, w.end_minute) for w in time_class.windows
                ),
                deny=actions.admission is not None and actions.admission.value == "deny",
                min_kbps=None if bw is None else bw.min_kbps,
                max_kbps=None if bw is None else bw.max_kbps,
                per_connection=bw is not None and bw.scope.value == "per-connection",
            ))

    def matches(self, flow) -> list[_Rule]:
        ts, src, dst, proto, port, _ = flow
        local = ts + self.tz_seconds
        day = (local // 86400 + _EPOCH_WEEKDAY) % 7
        minute = local % 86400 // 60
        found = []
        for rule in self.rules:
            if not (_inside(rule.src, src) and _inside(rule.dst, dst)):
                continue
            if rule.service is not None and not any(
                (p == "any" or p == proto) and low <= port <= high
                for p, low, high in rule.service
            ):
                continue
            if rule.time is not None and not any(
                day in days and start <= minute < end for days, start, end in rule.time
            ):
                continue
            found.append(rule)
        return found


DEFECT_1 = "a denied decision cannot carry bandwidth bounds"


def hits_defect_1(matcher: Matcher, step: Step) -> bool:
    """Does the step hold a denied flow that also matches a per-connection bound?

    ROADMAP defect 1: replay() then raises instead of reporting the step.
    """
    for flow in step.flows:
        matched = matcher.matches(flow)
        if any(r.deny for r in matched) and any(r.per_connection for r in matched):
            return True
    return False


def check_step(matcher: Matcher, step: Step, reports, capacity: int, step_seconds: int) -> list[str]:
    """Problems with one step's replay reports; empty when they are right.

    Checks matched rules and admission against the matcher, then the
    allocation invariants: grants within demand, per-connection maximums
    and aggregate pipe maximums; no capacity left over while some admitted
    flow could still take more; and, when the guarantees fit on the link,
    every per-connection and aggregate minimum met.
    """
    if len(reports) != 1:
        return [f"expected one report, got {len(reports)}"]
    report = reports[0]
    problems = []
    if report.timestep != step.bucket_start // step_seconds * step_seconds:
        problems.append(f"timestep {report.timestep}")
    if report.capacity_kbps != capacity or len(report.flows) != len(step.flows):
        return problems + ["capacity or flow count differs"]
    grants = [a.granted_kbps for a in report.flows]
    if sum(grants) != report.used_kbps or report.used_kbps > capacity:
        problems.append("used bandwidth is not the sum of grants or exceeds capacity")
    pipes: dict[str, list[int]] = {}
    limits = []  # per flow: (allowed, per-connection min, per-connection max)
    for i, (flow, alloc) in enumerate(zip(step.flows, report.flows)):
        matched = matcher.matches(flow)
        denied = any(r.deny for r in matched)
        if alloc.rules != tuple(r.id for r in matched) or alloc.denied != denied:
            problems.append(f"flow {i}: rules {alloc.rules} denied={alloc.denied}")
        if alloc.demand_kbps != flow[5] or not 0 <= alloc.granted_kbps <= flow[5]:
            problems.append(f"flow {i}: grant {alloc.granted_kbps} of demand {alloc.demand_kbps}")
        if denied and alloc.granted_kbps:
            problems.append(f"flow {i}: denied but granted")
        conn = [r for r in matched if r.per_connection]
        mins = [r.min_kbps for r in conn if r.min_kbps is not None]
        maxes = [r.max_kbps for r in conn if r.max_kbps is not None]
        cap = min(maxes) if maxes else None
        floor = min(max(mins), cap if cap is not None else max(mins)) if mins else None
        if cap is not None and alloc.granted_kbps > cap:
            problems.append(f"flow {i}: above its per-connection maximum")
        limits.append((not denied, floor, cap))
        if not denied:
            for r in matched:
                if not r.per_connection and (r.min_kbps is not None or r.max_kbps is not None):
                    pipes.setdefault(r.id, []).append(i)
    by_id = {r.id: r for r in matcher.rules}
    saturated = set()
    capped = set()
    for rule_id, members in pipes.items():
        rule = by_id[rule_id]
        used = sum(grants[i] for i in members)
        if rule.max_kbps is not None:
            capped.update(members)
            if used > rule.max_kbps:
                problems.append(f"pipe {rule_id}: {used} above its maximum")
            if used == rule.max_kbps:
                saturated.update(members)
    if report.used_kbps < capacity:
        for i, ((allowed, _, cap), flow) in enumerate(zip(limits, step.flows)):
            if allowed and grants[i] < flow[5] and grants[i] != cap and i not in saturated:
                problems.append(f"flow {i}: capacity left over but flow held below its limits")
    need = sum(
        min(floor, flow[5]) for (allowed, floor, _), flow in zip(limits, step.flows)
        if allowed and floor is not None
    ) + sum(
        min(by_id[p].min_kbps, sum(step.flows[i][5] for i in members))
        for p, members in pipes.items() if by_id[p].min_kbps is not None
    )
    if need <= capacity:
        for i, ((allowed, floor, _), flow) in enumerate(zip(limits, step.flows)):
            if allowed and floor is not None and i not in capped and grants[i] < min(floor, flow[5]):
                problems.append(f"flow {i}: guarantee not met on an uncontended link")
        for p, members in pipes.items():
            rule = by_id[p]
            if rule.min_kbps is None or capped.intersection(members):
                continue
            want = min(rule.min_kbps, sum(step.flows[i][5] for i in members))
            if sum(grants[i] for i in members) < want:
                problems.append(f"pipe {p}: guarantee not met on an uncontended link")
    return problems


def check_conflict(conflict, rules_by_id, catalogs, decide, flags) -> str | None:
    """A problem with one conflict finding, or None when its witness reproduces.

    The witness must match both rules, and decide() on the pair must show
    the conflict: an admission contradiction, a minimum above a maximum,
    or a priority that changes with rule order.
    """
    a, b = rules_by_id[conflict.rule_a], rules_by_id[conflict.rule_b]
    w = conflict.witness
    flow = (w.timestamp, int(w.src), int(w.dst), w.protocol, w.port, w.demand_kbps)
    ids = [r.id for r in Matcher([a, b], catalogs).matches(flow)]
    if ids != [a.id, b.id]:
        return f"{a.id}/{b.id}: witness matches {ids}"
    pair = decide([a, b], w, catalogs)
    kind = conflict.kind.value
    if kind == "AdmissionConflict":
        ok = flags.ADMISSION_CONTRADICTION in pair.flags
    elif kind == "BandwidthConflict":
        ok = flags.MIN_EXCEEDS_MAX in pair.flags
    else:
        ok = pair.priority != decide([b, a], w, catalogs).priority
    return None if ok else f"{a.id}/{b.id}: {kind} does not reproduce"
