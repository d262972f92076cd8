"""Seeded random object generators shared by the property tests."""
from __future__ import annotations

import random
from ipaddress import IPv4Address, IPv4Network

from pbmkit.dsl import Binding, Document
from pbmkit.model import (
    ActionSet,
    Admission,
    Bandwidth,
    Catalogs,
    Condition,
    EntityGroup,
    FlowDescriptor,
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
)
from pbmkit.netrepo import Message, MessageKind
from pbmkit.pdp import Decision, RuleBound
from pbmkit.pep_sim import Pipe

# networks inside one /29 pool, so exhaustive address sampling stays tiny
_POOL_NETWORKS = (
    [IPv4Network(f"10.0.0.{i}/32") for i in range(8)]
    + [IPv4Network("10.0.0.0/30"), IPv4Network("10.0.0.4/30")]
    + [IPv4Network(f"10.0.0.{i}/31") for i in (0, 2, 4, 6)]
    + [IPv4Network("10.0.0.0/29")]
)

_PORT_LOWS = (10, 20, 25, 53, 80, 100)


def gen_actions(rng: random.Random) -> ActionSet:
    if rng.random() < 0.25:
        return ActionSet(Admission.DENY, None, None)
    admission = Admission.ALLOW if rng.random() < 0.4 else None
    bandwidth = None
    style = rng.random()
    if style < 0.7:
        min_kbps = rng.randint(8, 2000) if style < 0.45 else None
        max_kbps = None
        if rng.random() < 0.5:
            max_kbps = rng.randint(min_kbps or 8, 2400)
        if min_kbps is not None or max_kbps is not None:
            scope = Scope.PER_CONNECTION if rng.random() < 0.4 else Scope.AGGREGATE
            bandwidth = Bandwidth(min_kbps, max_kbps, scope)
    priority = rng.randint(1, 9) if rng.random() < 0.6 else None
    if admission is None and bandwidth is None and priority is None:
        priority = rng.randint(1, 9)
    return ActionSet(admission, bandwidth, priority)


def gen_catalogs_and_rules(rng: random.Random) -> tuple[list[PolicyRule], Catalogs]:
    """Small random rule set over a compact address pool (conflict trials)."""
    entities = {}
    for i in range(rng.randint(2, 4)):
        name = f"E{i + 1}"
        if rng.random() < 0.2:
            entities[name] = EntityGroup(name, None)
        else:
            members = frozenset(rng.sample(_POOL_NETWORKS, rng.randint(1, 3)))
            entities[name] = EntityGroup(name, members)
    services = {}
    for i in range(rng.randint(1, 4)):
        name = f"S{i + 1}"
        if rng.random() < 0.2:
            services[name] = ServiceClass(name, None)
        else:
            matchers = set()
            for _ in range(rng.randint(1, 2)):
                low = rng.choice(_PORT_LOWS)
                matchers.add(
                    ServiceMatcher(
                        rng.choice(("tcp", "udp", "any")),
                        low,
                        low + rng.choice((0, 5, 15, 30)),
                    )
                )
            services[name] = ServiceClass(name, frozenset(matchers))
    times = {}
    for i in range(rng.randint(1, 3)):
        name = f"T{i + 1}"
        if rng.random() < 0.25:
            times[name] = TimeClass(name, None)
        else:
            windows = set()
            for _ in range(rng.randint(1, 2)):
                days = frozenset(rng.sample(range(7), rng.randint(1, 7)))
                start = 15 * rng.randint(0, 94)
                end = 15 * rng.randint(start // 15 + 1, 96)
                windows.add(TimeWindow(days, start, end))
            times[name] = TimeClass(name, frozenset(windows))
    catalogs = Catalogs(entities, services, times, rng.choice((-300, 0, 120)))

    def ref(pool):
        return "any" if rng.random() < 0.15 else rng.choice(sorted(pool))

    rules = [
        PolicyRule(
            id=f"R{i + 1}",
            subject="dev",
            target="dev",
            condition=Condition(
                ref(entities), ref(entities), ref(services), ref(times)
            ),
            actions=gen_actions(rng),
            order=i,
        )
        for i in range(rng.randint(1, 6))
    ]
    return rules, catalogs


def gen_decision(rng: random.Random) -> Decision:
    if rng.random() < 0.15:
        return Decision((), Admission.DENY, None, None, rng.randint(1, 9))
    min_kbps = rng.randint(1, 800) if rng.random() < 0.6 else None
    max_kbps = None
    if rng.random() < 0.4:
        max_kbps = rng.randint(min_kbps or 1, 1600)
    bounds = tuple(
        RuleBound(f"R{i + 1}", bandwidth, rng.choice((None, rng.randint(1, 9))))
        for i in range(rng.choice((0, 0, 1, 2, 3)))
        if (bandwidth := gen_actions(rng).bandwidth) is not None
    )
    return Decision((), Admission.ALLOW, min_kbps, max_kbps, rng.randint(1, 9), bounds=bounds)


def gen_allocate_instance(
    rng: random.Random, large: bool = False
) -> tuple[list[tuple[Decision, int]], int, list[Pipe]]:
    """Random allocate() input; large=True gives 10-60 flows, 0-5 pipes, up to 12,000 kbps."""
    flows = [
        (gen_decision(rng), rng.randint(0, 1500))
        for _ in range(rng.randint(10, 60) if large else rng.randint(1, 8))
    ]
    pipes = []
    for j in range(rng.randint(0, 5) if large else rng.choice((0, 0, 0, 1, 1, 2))):
        members = tuple(
            sorted(rng.sample(range(len(flows)), rng.randint(1, len(flows))))
        )
        min_kbps = rng.randint(1, 1200) if rng.random() < 0.7 else None
        max_kbps = None
        if min_kbps is None or rng.random() < 0.5:
            max_kbps = rng.randint(min_kbps or 1, 2400)
        pipes.append(Pipe(f"pipe{j + 1}", min_kbps, max_kbps, rng.randint(1, 9), members))
    if large:
        return flows, rng.randint(0, 12000), pipes
    roll = rng.random()
    if roll < 0.55:
        capacity = rng.randint(0, 250)
    elif roll < 0.85:
        capacity = rng.randint(0, 1000)
    elif roll < 0.95:
        capacity = rng.randint(0, 2000)
    else:
        capacity = rng.randint(0, 2500)
    return flows, capacity, pipes


def gen_goal_graph(
    rng: random.Random, max_leaves: int = 12, tree: bool = False
) -> tuple[GoalGraph, str, list[str]]:
    """Random acyclic AND/OR graph; tree=True keeps every leaf single-use."""
    leaves = [f"L{i + 1}" for i in range(rng.randint(1, max_leaves))]
    goals = {name: Goal(name, 1) for name in leaves}
    refinements: dict[str, Refinement] = {}
    counter = 0

    def fresh(children: list[str]) -> str:
        nonlocal counter
        counter += 1
        name = f"N{counter}"
        goals[name] = Goal(name, 1)
        refinements[name] = Refinement(
            name,
            rng.choice((RefinementMode.AND, RefinementMode.OR)),
            tuple(children),
        )
        return name

    if tree:

        def build(span: list[str]) -> str:
            if len(span) == 1:
                return span[0]
            cuts = sorted(rng.sample(range(1, len(span)), min(rng.randint(1, 2), len(span) - 1)))
            parts = [span[a:b] for a, b in zip([0] + cuts, cuts + [len(span)])]
            return fresh([build(part) for part in parts])

        root = build(leaves) if len(leaves) > 1 else fresh(leaves)
    else:
        nodes = list(leaves)
        for _ in range(rng.randint(1, 6)):
            children = rng.sample(nodes, min(rng.randint(2, 3), len(nodes)))
            nodes.append(fresh(children))
        # tie everything unreachable into one root
        used = {c for ref in refinements.values() for c in ref.children}
        top = [n for n in nodes if n not in used]
        root = top[0] if len(top) == 1 else fresh(top)
    return GoalGraph(goals, refinements), root, leaves


_NAME_STYLES = (
    "plain",
    "spaced",
    "quoted",
    "escaped",
    "unicode",
)


def _gen_name(rng: random.Random, prefix: str) -> str:
    style = rng.choice(_NAME_STYLES)
    base = f"{prefix}{rng.randint(1, 999)}"
    if style == "plain":
        return base
    if style == "spaced":
        return f"{base} group {rng.randint(1, 9)}"
    if style == "quoted":
        return f'{base} "inner"'
    if style == "escaped":
        return f"{base} back\\slash and\nnewline"
    return f"{base} café Ümläut ☃"


def gen_document(rng: random.Random) -> Document:
    """A random well-formed document exercising serializer escaping."""
    meta = {}
    if rng.random() < 0.6:
        sign = rng.choice(("+", "-"))
        meta["tz"] = f"{sign}{rng.randint(0, 11):02d}:{rng.choice((0, 30)):02d}"
    if rng.random() < 0.5:
        meta["name"] = _gen_name(rng, "doc")
    entities = {}
    for _ in range(rng.randint(1, 4)):
        name = _gen_name(rng, "net")
        if name in entities:
            continue
        members = (
            None
            if rng.random() < 0.2
            else frozenset(rng.sample(_POOL_NETWORKS, rng.randint(1, 3)))
        )
        entities[name] = EntityGroup(name, members)
    services = {}
    for _ in range(rng.randint(1, 3)):
        name = _gen_name(rng, "svc")
        if name in services:
            continue
        if rng.random() < 0.25:
            services[name] = ServiceClass(name, None)
        else:
            low = rng.choice(_PORT_LOWS)
            services[name] = ServiceClass(
                name,
                frozenset(
                    {
                        ServiceMatcher(
                            rng.choice(("tcp", "udp", "any")),
                            low,
                            low + rng.choice((0, 9)),
                        )
                    }
                ),
            )
    times = {}
    for _ in range(rng.randint(1, 3)):
        name = _gen_name(rng, "when")
        if name in times:
            continue
        if rng.random() < 0.25:
            times[name] = TimeClass(name, None)
        else:
            days = frozenset(rng.sample(range(7), rng.randint(1, 7)))
            start = 15 * rng.randint(0, 94)
            end = 15 * rng.randint(start // 15 + 1, 96)
            times[name] = TimeClass(name, frozenset({TimeWindow(days, start, end)}))
    catalogs = Catalogs(entities, services, times)
    if "tz" in meta:
        sign = 1 if meta["tz"][0] == "+" else -1
        hours, minutes = meta["tz"][1:].split(":")
        catalogs = Catalogs(
            entities, services, times, sign * (int(hours) * 60 + int(minutes))
        )

    goal_ids = [f"G{i + 1}" for i in range(rng.randint(2, 8))]
    goals = {
        gid: Goal(gid, rng.randint(1, 3), _gen_name(rng, "aim "))
        for gid in goal_ids
    }
    refinements = {}
    for index, gid in enumerate(goal_ids):
        rest = goal_ids[index + 1:]
        if len(rest) >= 2 and rng.random() < 0.5:
            children = tuple(rng.sample(rest, rng.randint(2, min(3, len(rest)))))
            refinements[gid] = Refinement(
                gid, rng.choice((RefinementMode.AND, RefinementMode.OR)), children
            )
    graph = GoalGraph(goals, refinements)

    def ref(pool):
        return "any" if rng.random() < 0.2 else rng.choice(sorted(pool))

    def condition():
        return Condition(ref(entities), ref(entities), ref(services), ref(times))

    bindings = {}
    for gid in goal_ids:
        if gid in refinements or rng.random() < 0.5:
            continue
        bindings[gid] = Binding(
            gid, _gen_name(rng, "dev"), _gen_name(rng, "dev"), condition(), gen_actions(rng)
        )
    rules = []
    order = 0
    for i in range(rng.randint(0, 4)):
        order += rng.randint(1, 3)
        rules.append(
            PolicyRule(
                id=f"R{i + 1}",
                subject=_gen_name(rng, "dev"),
                target=_gen_name(rng, "dev"),
                condition=condition(),
                actions=gen_actions(rng),
                order=order,
                based_on=rng.choice(goal_ids) if rng.random() < 0.4 else None,
            )
        )
    return Document(
        meta=meta,
        catalogs=catalogs,
        graph=graph,
        bindings=bindings,
        rules=tuple(rules),
    )


_VALUE_PIECES = (
    "",
    "plain",
    "with space",
    "equals=sign",
    "back\\slash",
    "new\nline",
    "tab\tand ☃ snowman",
    "trailing\\",
)


def gen_message(rng: random.Random) -> Message:
    kind = rng.choice(list(MessageKind))
    keys = rng.sample(
        ("alpha", "beta", "gamma", "delta", "payload", "x", "why_not", "zed"),
        rng.randint(0, 5),
    )
    fields = {
        key: "".join(rng.choice(_VALUE_PIECES) for _ in range(rng.randint(1, 3)))
        for key in keys
    }
    return Message(kind, fields)


def gen_flow(
    rng: random.Random, targeted: bool = False, pooled: bool = False
) -> FlowDescriptor:
    """Random flow; targeted flows aim at the bundled case-study rules,
    pooled flows at the addresses and ports of gen_catalogs_and_rules."""
    if pooled:
        src = IPv4Address(f"10.0.0.{rng.randrange(8)}")
        dst = IPv4Address(f"10.0.0.{rng.randrange(8)}")
        proto = rng.choice(("tcp", "udp"))
        port = rng.choice(_PORT_LOWS) + rng.randint(0, 30)
        ts = rng.choice((0, 300_000, 600_000)) + rng.randint(0, 1200)
    elif targeted:
        src = rng.choice(
            (
                IPv4Address("10.1.1.3"),
                IPv4Address("10.1.2.5"),
                IPv4Address("10.1.3.1"),
                IPv4Address("10.1.5.9"),
                IPv4Address("10.1.9.2"),
                IPv4Address("192.0.2.77"),
            )
        )
        dst = rng.choice(
            (
                IPv4Address("203.0.113.7"),
                IPv4Address("198.51.100.20"),
                IPv4Address("10.1.1.3"),
                IPv4Address("10.1.9.1"),
                IPv4Address("198.18.0.9"),
            )
        )
        proto = rng.choice(("tcp", "tcp", "udp"))
        port = rng.choice((25, 80, 443, 5060, 6881, 21, 9999))
        ts = rng.choice((399600, 435600, 849600)) + rng.randint(0, 3600)
    else:
        src = IPv4Address(rng.getrandbits(32))
        dst = IPv4Address(rng.getrandbits(32))
        proto = rng.choice(("tcp", "udp"))
        port = rng.randint(0, 65535)
        ts = rng.randint(0, 2_000_000)
    return FlowDescriptor(src, dst, proto, port, ts, rng.randint(1, 5000))
