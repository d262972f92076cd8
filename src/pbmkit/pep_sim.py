"""Enforcement-point simulator: bandwidth allocation and trace replay.

allocate() shares a link between admitted flows in two phases.

Phase A walks priority tiers from 9 down to 1 and reserves guarantees.
Within a tier the items are the flows carrying a minimum (in input order)
followed by the aggregate pipes at that priority (in given order); each
item's target is the part of its minimum it can still use.  When the
remaining pool cannot cover a tier's targets it is split d'Hondt-style by
highest target/(share+1) ratio (ties favour the earlier item), so growing
the pool never shrinks anybody's share: every share starts at its
proportional floor and the few kilobits left over go one at a time.

Both phases hand bandwidth out through one round-robin dealer, _deal(),
which gives one kilobit per taker per round under the live limits
(demand, own maximum, containing pipe maximums) and grants at once every
whole round that no limit can cut short.  Phase A deals each flow's share
to that flow and each pipe's share to the pipe's members; Phase B deals
the leftover pool to each tier's admitted flows.  Denied flows take no
part and receive nothing.  The ledger groups the admitted flows by tier
and inverts pipe membership once per call, and the dealer reads each
taker's room once per round.  A flow listed twice in a pipe takes two
kilobits a round.

read_trace() turns CSV rows into flows through model.flow_from_text, the
same conversion that decodes a wire REQUEST.  enforce() is the one
enforcement pipeline: it buckets a trace into time steps, asks a decide
callable for each flow, and allocates each step from the bandwidth
bounds the decisions carry.  allocate() gets a decision as it is unless
it holds aggregate bounds; those become pipes and the decision is copied
without them.  replay() feeds it the decide of the rules compiled once
per call; the `pep run` client feeds it remote decisions, so both give
the same reports.
"""
from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .model import (
    Admission, Bandwidth, Catalogs, FlowDescriptor, PolicyRule, Scope, flow_from_text,
)
# decide stays importable from here for callers that look it up on this module
from .pdp import Decision, RuleBound, compile_policy, decide


class TraceError(Exception):
    """A trace file line is malformed."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class Pipe:
    """Aggregate bandwidth constraint spanning a set of flows.

    members holds indices into the flow sequence given to allocate().
    min_kbps and max_kbps must form a valid Bandwidth, and construction
    raises Bandwidth's errors when they do not.
    """

    rule_id: str
    min_kbps: int | None
    max_kbps: int | None
    priority: int
    members: tuple[int, ...]

    def __post_init__(self):
        Bandwidth(self.min_kbps, self.max_kbps)
        if not (1 <= self.priority <= 9):
            raise ValueError("pipe priority must be in 1..9")


@dataclass(frozen=True)
class FlowAllocation:
    flow: str
    rules: tuple[str, ...]
    granted_kbps: int
    demand_kbps: int
    denied: bool

    def __post_init__(self):
        if self.granted_kbps < 0 or self.demand_kbps < 0:
            raise ValueError("negative bandwidth in allocation")
        if self.granted_kbps > self.demand_kbps:
            raise ValueError("granted bandwidth exceeds demand")
        if self.denied and self.granted_kbps != 0:
            raise ValueError("denied flow received bandwidth")


@dataclass(frozen=True)
class AllocationReport:
    timestep: int
    flows: tuple[FlowAllocation, ...]
    capacity_kbps: int
    used_kbps: int

    def __post_init__(self):
        total = sum(f.granted_kbps for f in self.flows)
        if total != self.used_kbps:
            raise ValueError("used bandwidth does not match flow grants")
        if self.used_kbps > self.capacity_kbps:
            raise ValueError("allocation exceeds link capacity")


class _LiveState:
    """Mutable grant ledger shared by both allocation phases."""

    def __init__(self, flows: Sequence[tuple[Decision, int]], pipes: Sequence[Pipe]):
        self.decisions = [d for d, _ in flows]
        self.granted = [0] * len(flows)
        self.pipes = list(pipes)
        self.pipe_used = [0] * len(pipes)
        self.allowed = [d.admission is Admission.ALLOW for d in self.decisions]
        # what each flow may take before pipes count: its demand under its own maximum
        self.ceiling = [
            demand if d.effective_max_kbps is None else min(demand, d.effective_max_kbps)
            for d, demand in flows
        ]
        # the admitted flows of each priority tier, in input order
        self.tiers: list[list[int]] = [[] for _ in range(10)]
        for i, decision in enumerate(self.decisions):
            if self.allowed[i]:
                self.tiers[decision.priority].append(i)
        # pipe membership restricted to admitted flows
        self.pipe_members: list[tuple[int, ...]] = [
            tuple(i for i in pipe.members if self.allowed[i]) for pipe in pipes
        ]
        # the inverse: each flow's pipes in ascending order, once each
        self.flow_pipes: list[list[int]] = [[] for _ in flows]
        for p, members in enumerate(self.pipe_members):
            for i in members:
                if not self.flow_pipes[i] or self.flow_pipes[i][-1] != p:
                    self.flow_pipes[i].append(p)

    def flow_room(self, i: int) -> int:
        """Kilobits flow i can still absorb under every live limit."""
        room = self.ceiling[i] - self.granted[i]
        for p in self.flow_pipes[i]:
            cap = self.pipes[p].max_kbps
            if cap is not None and cap - self.pipe_used[p] < room:
                room = cap - self.pipe_used[p]
        return room if room > 0 else 0

    def grant(self, i: int, amount: int):
        self.granted[i] += amount
        for p in self.flow_pipes[i]:
            self.pipe_used[p] += amount


def _dhondt_split(targets: list[int], pool: int) -> list[int]:
    """Split pool kilobits across items by highest target/(share+1) ratio.

    Ties go to the earliest item, and no item ever exceeds its target while
    another still sits below its own.  Call only when pool < sum(targets).
    Every quotient target/k >= sum(targets)/pool wins a kilobit, so each
    share starts at its proportional floor; fewer than len(targets)
    kilobits are then left to deal one at a time.
    """
    total = sum(targets)
    shares = [target * pool // total for target in targets]
    for _ in range(pool - sum(shares)):
        best = -1
        for i, target in enumerate(targets):
            if shares[i] >= target:
                continue
            # target[i]/(shares[i]+1) > target[best]/(shares[best]+1), cross-multiplied
            if best < 0 or target * (shares[best] + 1) > targets[best] * (shares[i] + 1):
                best = i
        if best < 0:
            break
        shares[best] += 1
    return shares


def _deal(state: _LiveState, takers: Sequence[int], pool: int) -> int:
    """Deal pool round-robin, one kilobit per taker per round; returns kilobits dealt.

    A flow listed k times among the takers takes up to k kilobits a round.
    Whole rounds that no live limit can cut short are granted at once; a
    round with less than one kilobit per taker is walked by hand.
    """
    weights = Counter(takers)
    dealt = 0
    while dealt < pool:
        rooms = {i: room for i in weights if (room := state.flow_room(i)) > 0}
        if not rooms:
            break
        width = sum(weights[i] for i in rooms)
        rounds = (pool - dealt) // width
        inside: dict[int, int] = {}
        for i, room in rooms.items():
            rounds = min(rounds, room // weights[i])
            for p in state.flow_pipes[i]:
                inside[p] = inside.get(p, 0) + weights[i]
        for p, count in inside.items():
            cap = state.pipes[p].max_kbps
            if cap is not None:
                rounds = min(rounds, (cap - state.pipe_used[p]) // count)
        if rounds > 0:
            for i in rooms:
                state.grant(i, rounds * weights[i])
            dealt += rounds * width
            continue
        # the first taker with room always gets its kilobit, so this round progresses
        for i in takers:
            if dealt == pool:
                break
            if i in rooms and state.flow_room(i) > 0:
                state.grant(i, 1)
                dealt += 1
    return dealt


def _guarantee_phase(state: _LiveState, capacity: int) -> int:
    pool = capacity
    for tier in range(9, 0, -1):
        items: list[tuple[Sequence[int], int]] = []  # (takers, target)
        for i in state.tiers[tier]:
            minimum = state.decisions[i].effective_min_kbps
            if minimum is None:
                continue
            target = min(minimum - state.granted[i], state.flow_room(i))
            if target > 0:
                items.append(((i,), target))
        for p, pipe in enumerate(state.pipes):
            if pipe.priority != tier or pipe.min_kbps is None:
                continue
            absorbable = sum(state.flow_room(i) for i in state.pipe_members[p])
            target = min(pipe.min_kbps - state.pipe_used[p], absorbable)
            if target > 0:
                items.append((state.pipe_members[p], target))
        if not items or pool == 0:
            continue
        targets = [target for _, target in items]
        if sum(targets) <= pool:
            shares = targets
        else:
            shares = _dhondt_split(targets, pool)
        for (takers, _), share in zip(items, shares):
            pool -= _deal(state, takers, share)
    return pool


def allocate(
    flows: Sequence[tuple[Decision, int]],
    capacity_kbps: int,
    pipes: Sequence[Pipe] = (),
) -> list[int]:
    """Grant bandwidth to each flow; returns kilobits in input order."""
    if capacity_kbps < 0:
        raise ValueError("capacity must not be negative")
    for _, demand in flows:
        if demand < 0:
            raise ValueError("demand must not be negative")
    for pipe in pipes:
        for i in pipe.members:
            if not 0 <= i < len(flows):
                raise ValueError(f"pipe {pipe.rule_id} references flow {i}")
    state = _LiveState(flows, pipes)
    pool = _guarantee_phase(state, capacity_kbps)
    for tier in range(9, 0, -1):
        pool -= _deal(state, state.tiers[tier], pool)
    return list(state.granted)


# -- trace replay --------------------------------------------------------------

TRACE_HEADER = ("ts", "src", "dst", "proto", "port", "demand_kbps")
REPORT_HEADER = ("ts", "flow", "rules", "granted_kbps", "demand_kbps", "denied")


def read_trace(lines: Iterable[str]) -> list[FlowDescriptor]:
    """Parse a flow trace in CSV form; raises TraceError on bad rows."""
    reader = csv.reader(lines)
    flows: list[FlowDescriptor] = []
    header = next(reader, None)
    if header is None:
        raise TraceError(1, "empty trace")
    if tuple(header) != TRACE_HEADER:
        raise TraceError(1, f"expected header {','.join(TRACE_HEADER)}")
    for number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(TRACE_HEADER):
            raise TraceError(number, f"expected {len(TRACE_HEADER)} fields, got {len(row)}")
        try:
            flow = flow_from_text(*[f.strip() for f in row])
        except ValueError as exc:
            raise TraceError(number, str(exc)) from None
        flows.append(flow)
    return flows


def check_trace(flows: Sequence[FlowDescriptor], step_seconds: int) -> None:
    """Raise ValueError unless step_seconds >= 1 and flows are in timestamp order."""
    if step_seconds < 1:
        raise ValueError("step must be at least 1")
    for earlier, later in zip(flows, flows[1:]):
        if later.timestamp < earlier.timestamp:
            raise ValueError("trace flows must be ordered by timestamp")


def enforce(
    flows: Sequence[FlowDescriptor],
    capacity_kbps: int,
    step_seconds: int,
    decide_flow: Callable[[FlowDescriptor], Decision],
) -> Iterator[AllocationReport]:
    """Decide each flow with decide_flow and allocate the link, one report per step.

    Per-connection bounds limit their own flow: allocate() sees a Decision
    holding only those bounds, so its effective limits are their fold.
    Each aggregate bound becomes one pipe over the flows of the step that
    matched it.
    """
    check_trace(flows, step_seconds)
    start = 0
    while start < len(flows):
        bucket = flows[start].timestamp // step_seconds
        end = start
        while end < len(flows) and flows[end].timestamp // step_seconds == bucket:
            end += 1
        batch = flows[start:end]
        decisions = [decide_flow(flow) for flow in batch]
        alloc_inputs = []
        pipe_members: dict[RuleBound, list[int]] = {}
        for index, (decision, flow) in enumerate(zip(decisions, batch)):
            per_connection = []
            for bound in decision.bounds:
                if bound.bandwidth.scope is Scope.PER_CONNECTION:
                    per_connection.append(bound)
                else:
                    pipe_members.setdefault(bound, []).append(index)
            view = decision
            if len(per_connection) < len(decision.bounds):
                view = Decision(
                    decision.matched, decision.admission, decision.priority,
                    bounds=tuple(per_connection),
                )
            alloc_inputs.append((view, flow.demand_kbps))
        pipes = [
            Pipe(
                rule_id=bound.rule_id,
                min_kbps=bound.bandwidth.min_kbps,
                max_kbps=bound.bandwidth.max_kbps,
                priority=bound.priority or 1,
                members=tuple(members),
            )
            for bound, members in pipe_members.items()
        ]
        grants = allocate(alloc_inputs, capacity_kbps, pipes)
        yield AllocationReport(
            timestep=bucket * step_seconds,
            flows=tuple(
                FlowAllocation(
                    flow=f"f{start + offset + 1}",
                    rules=decision.matched,
                    granted_kbps=grant,
                    demand_kbps=flow.demand_kbps,
                    denied=decision.admission is Admission.DENY,
                )
                for offset, (decision, flow, grant) in enumerate(zip(decisions, batch, grants))
            ),
            capacity_kbps=capacity_kbps,
            used_kbps=sum(grants),
        )
        start = end


def replay(
    rules: Sequence[PolicyRule],
    catalogs: Catalogs,
    flows: Sequence[FlowDescriptor],
    capacity_kbps: int,
    step_seconds: int = 1,
) -> list[AllocationReport]:
    """Decide locally and allocate a trace, one report per time step.

    The rules are compiled once per call, so a missing catalog entry
    raises UnknownReferenceError even for an empty trace.
    """
    policy = compile_policy(rules, catalogs)
    return list(enforce(flows, capacity_kbps, step_seconds, policy.decide))


def write_report(reports: Sequence[AllocationReport], out) -> None:
    """Write allocation reports as CSV rows, one per flow."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    for report in reports:
        for allocation in report.flows:
            writer.writerow(
                [
                    report.timestep,
                    allocation.flow,
                    ";".join(allocation.rules),
                    allocation.granted_kbps,
                    allocation.demand_kbps,
                    "true" if allocation.denied else "false",
                ]
            )
