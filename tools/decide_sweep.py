"""Time flow decisions and conflict detection against rule count.

For seeded generated policies of 16, 64, 256, 1024, 2048 and 4096 rules,
prints microseconds per call of the one-shot pdp.decide (which compiles
the rules for every flow, so it is timed up to 1024 rules and printed as
'-' above), of pdp.compile_policy (ten calls per pass), and of
CompiledPolicy.decide over a fixed flow set (its per-match-set memo
starts empty), and milliseconds per call of pdp.detect_conflicts (one
call per pass).  Each figure is the best of three timed passes.  Where
timed, the one-shot decisions are checked against the compiled ones.
Stdlib only:

    python3 tools/decide_sweep.py
"""
from __future__ import annotations

import random
import sys
from ipaddress import IPv4Address, IPv4Network
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pbmkit.model import (  # noqa: E402
    ActionSet,
    Admission,
    Bandwidth,
    Catalogs,
    Condition,
    EntityGroup,
    FlowDescriptor,
    PolicyRule,
    Scope,
    ServiceClass,
    ServiceMatcher,
    TimeClass,
    TimeWindow,
    timestamp_at,
)
from pbmkit.pdp import compile_policy, decide, detect_conflicts  # noqa: E402

SEED = 7
RULE_COUNTS = (16, 64, 256, 1024, 2048, 4096)
FLOWS = 2000
ONE_SHOT_FLOWS = 100
ONE_SHOT_MAX_RULES = 1024
COMPILES = 10
PASSES = 3


def _actions(rng: random.Random) -> ActionSet:
    if rng.random() < 0.2:
        return ActionSet(Admission.DENY)
    low = rng.randint(8, 500)
    bandwidth = Bandwidth(
        low if rng.random() < 0.5 else None,
        rng.randint(low, 4000),
        rng.choice((Scope.PER_CONNECTION, Scope.AGGREGATE)),
    )
    return ActionSet(None, bandwidth, rng.randint(1, 9) if rng.random() < 0.6 else None)


def _policy(rng: random.Random, count: int) -> tuple[list[PolicyRule], Catalogs]:
    """count rules over about count/4 entity groups, count/8 services, 8 time classes."""
    entities = {}
    for i in range(max(2, count // 4)):
        members = frozenset(
            IPv4Network((0x0A000000 | rng.getrandbits(24), prefix), strict=False)
            for prefix in rng.choices(range(12, 29), k=rng.randint(1, 3))
        )
        entities[f"E{i}"] = EntityGroup(f"E{i}", members)
    services = {}
    for i in range(max(2, count // 8)):
        matchers = set()
        for _ in range(rng.randint(1, 3)):
            low = rng.randrange(65536)
            matchers.add(
                ServiceMatcher(
                    rng.choice(("tcp", "udp", "any")),
                    low,
                    min(65535, low + rng.choice((0, 10, 1000))),
                )
            )
        services[f"S{i}"] = ServiceClass(f"S{i}", frozenset(matchers))
    times = {}
    for i in range(8):
        windows = set()
        for _ in range(rng.randint(1, 2)):
            start = 30 * rng.randrange(47)
            days = frozenset(rng.sample(range(7), rng.randint(1, 7)))
            windows.add(TimeWindow(days, start, 30 * rng.randint(start // 30 + 1, 48)))
        times[f"T{i}"] = TimeClass(f"T{i}", frozenset(windows))
    catalogs = Catalogs(entities, services, times, -300)

    def ref(pool: dict) -> str:
        return "any" if rng.random() < 0.15 else rng.choice(list(pool))

    rules = [
        PolicyRule(
            f"R{i}", "dev", "dev",
            Condition(ref(entities), ref(entities), ref(services), ref(times)),
            _actions(rng), i,
        )
        for i in range(count)
    ]
    return rules, catalogs


def _flows(rng: random.Random, catalogs: Catalogs) -> list[FlowDescriptor]:
    """Flows aimed at the policy's own networks and ports, with some strays."""
    # sorted: set order follows string hashing, which changes per process
    networks = sorted(net for group in catalogs.entities.values() for net in group.members)
    matchers = sorted(
        (m for svc in catalogs.services.values() for m in svc.matchers),
        key=lambda m: (m.protocol, m.low, m.high),
    )

    def address() -> IPv4Address:
        if rng.random() < 0.1:
            return IPv4Address(rng.getrandbits(32))
        net = rng.choice(networks)
        return net.network_address + rng.randrange(net.num_addresses)

    flows = []
    for _ in range(FLOWS):
        matcher = rng.choice(matchers)
        flows.append(FlowDescriptor(
            address(), address(),
            rng.choice(("tcp", "udp")) if matcher.protocol == "any" else matcher.protocol,
            rng.randint(matcher.low, matcher.high),
            timestamp_at(rng.randrange(7), rng.randrange(1440), catalogs.tz_offset_minutes),
            100,
        ))
    return flows


def _best_us(run, calls: int) -> float:
    """Best of PASSES timed runs of run(), in microseconds per call."""
    best = float("inf")
    for _ in range(PASSES):
        start = perf_counter()
        run()
        best = min(best, perf_counter() - start)
    return best / calls * 1e6


def main() -> None:
    print(f"{'rules':>6} {'match sets':>10} {'decide us/flow':>15}"
          f" {'compile_policy us':>18} {'compiled us/flow':>17} {'conflicts ms':>13}")
    for count in RULE_COUNTS:
        rng = random.Random(SEED * 100003 + count)
        rules, catalogs = _policy(rng, count)
        flows = _flows(rng, catalogs)
        sample = flows[:ONE_SHOT_FLOWS] if count <= ONE_SHOT_MAX_RULES else []
        one_shot = "-"
        if sample:
            one_shot_us = _best_us(
                lambda: [decide(rules, f, catalogs) for f in sample], len(sample)
            )
            one_shot = f"{one_shot_us:.1f}"
        compile_us = _best_us(
            lambda: [compile_policy(rules, catalogs) for _ in range(COMPILES)], COMPILES
        )
        fresh = iter([compile_policy(rules, catalogs) for _ in range(PASSES)])
        compiled = _best_us(lambda: list(map(next(fresh).decide, flows)), len(flows))
        policy = compile_policy(rules, catalogs)
        decisions = [policy.decide(f) for f in flows]
        for flow, decision in zip(sample, decisions):
            if decide(rules, flow, catalogs) != decision:
                raise SystemExit(f"one-shot and compiled decisions differ for {flow}")
        match_sets = len({d.matched for d in decisions})
        conflicts_ms = _best_us(lambda: detect_conflicts(rules, catalogs), 1) / 1000
        print(f"{count:6d} {match_sets:10d} {one_shot:>15} {compile_us:18.1f} {compiled:17.2f}"
              f" {conflicts_ms:13.1f}")


if __name__ == "__main__":
    main()
