"""Decision combination, conflict detection with witnesses, device translation."""
import ast
import random
import sys
import threading
from ipaddress import IPv4Address, IPv4Network
from pathlib import Path

import pytest

from pbmkit import pdp
from pbmkit.dsl import parse
from pbmkit.model import (
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
    WEEK_MINUTES,
    UnknownReferenceError,
    condition_matches,
    timestamp_at,
)
from pbmkit.pdp import (
    DEFAULT_PROFILES,
    Conflict,
    ConflictKind,
    Decision,
    DecisionFlag,
    DeviceProfile,
    RuleBound,
    TranslationError,
    compile_policy,
    decide,
    detect_conflicts,
    translate_to_device,
)
from pbmkit.refiner import compile_strategy, enumerate_strategies

from .generators import gen_actions, gen_catalogs_and_rules, gen_flow
from .oracles import reference_decide, reference_detect_conflicts, sampled_conflict_pairs

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "unicauca.pbm"

ANY = Condition("any", "any", "any", "any")


def _rule(rid, order, actions, condition=ANY):
    return PolicyRule(rid, "dev", "dev", condition, actions, order, None)


def _flow(port=80, proto="tcp", ts=0, demand=100, src="10.0.0.1", dst="10.0.0.2"):
    return FlowDescriptor(IPv4Address(src), IPv4Address(dst), proto, port, ts, demand)


@pytest.fixture(scope="module")
def campus():
    doc = parse(FIXTURE.read_text())
    [strategy] = enumerate_strategies(doc.graph, "G1-1")
    return doc, compile_strategy(doc, strategy)


def test_no_matching_rules_gives_open_default():
    decision = decide([], _flow(), Catalogs())
    assert decision == Decision(matched=(), admission=Admission.ALLOW, priority=1)
    assert decision.flags == frozenset()


def test_matched_keeps_document_order():
    rules = [
        _rule("A", 0, ActionSet(None, None, 3)),
        _rule("B", 1, ActionSet(Admission.ALLOW, None, None)),
        _rule("C", 2, ActionSet(None, Bandwidth(10, None), None)),
    ]
    assert decide(rules, _flow(), Catalogs()).matched == ("A", "B", "C")


def test_bounds_fold_across_matching_rules():
    rules = [
        _rule("A", 0, ActionSet(None, Bandwidth(100, 900), None)),
        _rule("B", 1, ActionSet(None, Bandwidth(250, None), None)),
        _rule("C", 2, ActionSet(None, Bandwidth(None, 700), None)),
    ]
    decision = decide(rules, _flow(), Catalogs())
    assert decision.effective_min_kbps == 250
    assert decision.effective_max_kbps == 700
    assert decision.flags == frozenset()


def test_min_clamped_to_max_with_flag():
    rules = [
        _rule("A", 0, ActionSet(None, Bandwidth(800, None), None)),
        _rule("B", 1, ActionSet(None, Bandwidth(None, 300), None)),
    ]
    decision = decide(rules, _flow(), Catalogs())
    assert decision.effective_min_kbps == 300
    assert decision.effective_max_kbps == 300
    assert decision.flags == {DecisionFlag.MIN_EXCEEDS_MAX}


def test_deny_wins_and_strips_bounds():
    rules = [
        _rule("A", 0, ActionSet(None, Bandwidth(100, 200), 5)),
        _rule("B", 1, ActionSet(Admission.DENY, None, None)),
    ]
    decision = decide(rules, _flow(), Catalogs())
    assert decision.admission is Admission.DENY
    assert decision.effective_min_kbps is None
    assert decision.effective_max_kbps is None
    # priority still reported from the first matched rule that set one
    assert decision.priority == 5
    assert decision.flags == frozenset()


def test_explicit_allow_and_deny_flag_contradiction():
    rules = [
        _rule("A", 0, ActionSet(Admission.ALLOW, None, None)),
        _rule("B", 1, ActionSet(Admission.DENY, None, None)),
    ]
    decision = decide(rules, _flow(), Catalogs())
    assert decision.admission is Admission.DENY
    assert decision.flags == {DecisionFlag.ADMISSION_CONTRADICTION}


def test_priority_comes_from_first_setter():
    a = _rule("A", 0, ActionSet(None, None, 2))
    b = _rule("B", 1, ActionSet(None, None, 8))
    assert decide([a, b], _flow(), Catalogs()).priority == 2
    assert decide([b, a], _flow(), Catalogs()).priority == 8


def test_admission_and_bounds_are_order_independent():
    rng = random.Random(41)
    for _ in range(200):
        rules, catalogs = gen_catalogs_and_rules(rng)
        flow = gen_flow(rng)
        base = decide(rules, flow, catalogs)
        shuffled = list(rules)
        rng.shuffle(shuffled)
        other = decide(shuffled, flow, catalogs)
        assert other.admission == base.admission
        assert other.effective_min_kbps == base.effective_min_kbps
        assert other.effective_max_kbps == base.effective_max_kbps
        assert other.flags == base.flags
        assert set(other.matched) == set(base.matched)


def test_deny_dominance_property():
    rng = random.Random(42)
    for _ in range(100):
        rules, catalogs = gen_catalogs_and_rules(rng)
        flow = gen_flow(rng)
        blocker = _rule("ZZ", 999, ActionSet(Admission.DENY, None, None))
        where = rng.randrange(len(rules) + 1)
        salted = list(rules)
        salted.insert(where, blocker)
        assert decide(salted, flow, catalogs).admission is Admission.DENY


def test_decision_invariants_enforced():
    with pytest.raises(ValueError, match="priority must be in 1..9"):
        Decision(matched=(), admission=Admission.ALLOW, priority=0)
    with pytest.raises(ValueError, match="denied decision cannot carry"):
        Decision(matched=("P1",), admission=Admission.DENY, priority=1,
                 bounds=(RuleBound("P1", Bandwidth(64, None, Scope.PER_CONNECTION), 5),))
    with pytest.raises(ValueError, match="do not cross"):
        Decision(matched=(), admission=Admission.ALLOW, priority=1,
                 flags=frozenset({DecisionFlag.MIN_EXCEEDS_MAX}),
                 bounds=(RuleBound("P1", Bandwidth(5, 10), None),))
    with pytest.raises(TypeError, match="effective_min_kbps"):
        Decision(matched=(), admission=Admission.ALLOW, priority=1, effective_min_kbps=5)


def _reference_limits(bounds):
    """(min, max, crossed): largest min and smallest max, min clamped to max when crossed."""
    mins = [b.bandwidth.min_kbps for b in bounds if b.bandwidth.min_kbps is not None]
    maxes = [b.bandwidth.max_kbps for b in bounds if b.bandwidth.max_kbps is not None]
    low = max(mins) if mins else None
    high = min(maxes) if maxes else None
    crossed = low is not None and high is not None and low > high
    return (high if crossed else low), high, crossed


def test_effective_limits_are_the_fold_of_bounds():
    rng = random.Random(43)
    min_flag = DecisionFlag.MIN_EXCEEDS_MAX
    crossings = 0
    for _ in range(500):
        bounds = tuple(
            RuleBound(f"R{i}", bandwidth, None)
            for i in range(rng.randint(0, 4))
            if (bandwidth := gen_actions(rng).bandwidth) is not None
        )
        low, high, crossed = _reference_limits(bounds)
        crossings += crossed
        for flags in ({min_flag}, {DecisionFlag.ADMISSION_CONTRADICTION}, set()):
            build = lambda: Decision(
                matched=(), admission=Admission.ALLOW, priority=1,
                flags=frozenset(flags), bounds=bounds,
            )
            if min_flag in flags and not crossed:
                with pytest.raises(ValueError, match="do not cross"):
                    build()
                continue
            decision = build()
            assert (decision.effective_min_kbps, decision.effective_max_kbps) == (low, high)
            assert decision.flags == frozenset(flags | ({min_flag} if crossed else set()))
    assert crossings >= 20


def test_fixture_decisions(campus):
    doc, rules = campus
    voip = _flow(port=5060, proto="udp", ts=timestamp_at(0, 600, -300),
                 src="10.1.3.1", dst="198.18.0.9", demand=64)
    decision = decide(rules, voip, doc.catalogs)
    assert decision.matched == ("P4",)
    assert decision.admission is Admission.ALLOW
    assert decision.effective_min_kbps == 64
    assert decision.priority == 9

    p2p_working = _flow(port=6881, ts=399600, src="10.1.20.7", dst="198.18.0.9")
    working = decide(rules, p2p_working, doc.catalogs)
    assert working.admission is Admission.DENY
    assert "P9" in working.matched

    p2p_evening = _flow(port=6881, ts=435600, src="10.1.20.7", dst="198.18.0.9")
    evening = decide(rules, p2p_evening, doc.catalogs)
    assert evening.admission is Admission.ALLOW
    assert "P10" in evening.matched and "P9" not in evening.matched


# -- compiled decisions ------------------------------------------------------

_LAST_ADDRESS = 2**32 - 1


def _edges(low, high, last):
    """low and high (inclusive) and their outer neighbours, clipped to 0..last."""
    return {p for p in (low - 1, low, high, high + 1) if 0 <= p <= last}


def _boundary_points(rules, catalogs):
    """Per dimension, the points around every edge of every entry the rules use."""
    addresses = {0, _LAST_ADDRESS}
    ports = {0, 65535}
    minutes = {WEEK_MINUTES - 1}
    for day in range(7):  # midnights, Sunday 23:59 -> Monday 00:00 among them
        minutes |= _edges(day * 1440, day * 1440, WEEK_MINUTES - 1)
    for rule in rules:
        c = rule.condition
        for name in (c.source, c.destination):
            for net in catalogs.entity_group(name).members or ():
                addresses |= _edges(
                    int(net.network_address), int(net.broadcast_address), _LAST_ADDRESS
                )
        for m in catalogs.service_class(c.service).matchers or ():
            ports |= _edges(m.low, m.high, 65535)
        for w in catalogs.time_class(c.time).windows or ():
            for day in w.days:  # start - 1, start, end - 1 and end
                base = day * 1440
                minutes |= _edges(
                    base + w.start_minute, base + w.end_minute - 1, WEEK_MINUTES - 1
                )
    return sorted(addresses), sorted(ports), sorted(minutes)


def _boundary_flows(rng, rules, catalogs, extra):
    """Each boundary point in a flow of its own, then extra random mixes of them."""
    addresses, ports, minutes = _boundary_points(rules, catalogs)

    def flow(src=None, dst=None, proto=None, port=None, minute=None):
        minute = rng.choice(minutes) if minute is None else minute
        ts = timestamp_at(minute // 1440, minute % 1440, catalogs.tz_offset_minutes)
        return FlowDescriptor(
            IPv4Address(rng.choice(addresses) if src is None else src),
            IPv4Address(rng.choice(addresses) if dst is None else dst),
            rng.choice(("tcp", "udp")) if proto is None else proto,
            rng.choice(ports) if port is None else port,
            ts + rng.choice((0, 59)) + 604800 * rng.randint(-2, 2),
            1,
        )

    return (
        [flow(src=a) for a in addresses]
        + [flow(dst=a) for a in addresses]
        + [flow(proto=proto, port=port) for proto in ("tcp", "udp") for port in ports]
        + [flow(minute=m) for m in minutes]
        + [flow() for _ in range(extra)]
    )


def _nets(*texts):
    return frozenset(IPv4Network(text) for text in texts)


def _matchers(*specs):
    return frozenset(ServiceMatcher(*spec) for spec in specs)


def _windows(*specs):
    return frozenset(TimeWindow(frozenset(days), start, end) for days, start, end in specs)


def _edge_catalogs(tz_offset_minutes):
    """Catalog entries whose edges touch, nest and overlap, at one UTC offset."""
    entities = {
        "nested": _nets("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.3/32"),
        "adjacent": _nets("10.2.0.0/16", "10.3.0.0/16", "10.5.0.0/16"),
        "inside": _nets("10.1.128.0/17", "10.3.255.255/32"),
        "extremes": _nets("0.0.0.0/8", "255.255.255.0/24", "255.255.255.255/32"),
        "everything": _nets("0.0.0.0/0"),
    }
    services = {
        "mixed": _matchers(("tcp", 25, 25), ("udp", 53, 53), ("any", 100, 200)),
        "adjacent": _matchers(("tcp", 10, 19), ("tcp", 20, 29), ("udp", 30, 39)),
        "overlap": _matchers(("tcp", 20, 40), ("any", 30, 50), ("udp", 45, 60)),
        "edges": _matchers(("tcp", 65535, 65535), ("udp", 0, 0), ("any", 0, 1)),
        "full": _matchers(("any", 0, 65535)),
    }
    times = {
        "wrap": _windows(({6}, 1380, 1440), ({0}, 0, 60)),
        "weekdays": _windows(({0, 1, 2, 3, 4}, 0, 1440)),
        "overlap": _windows(({2}, 540, 1020), ({2, 3}, 720, 1080)),
        "adjacent": _windows(({1}, 480, 720), ({1}, 720, 780), ({5, 6}, 0, 1)),
    }
    return Catalogs(
        {n: EntityGroup(n, m) for n, m in entities.items()},
        {n: ServiceClass(n, m) for n, m in services.items()},
        {n: TimeClass(n, w) for n, w in times.items()},
        tz_offset_minutes,
    )


def _edge_rules(rng, catalogs, count):
    def ref(pool):
        return "any" if rng.random() < 0.15 else rng.choice(sorted(pool))

    return [
        _rule(f"R{i + 1}", i, gen_actions(rng), Condition(
            ref(catalogs.entities), ref(catalogs.entities),
            ref(catalogs.services), ref(catalogs.times),
        ))
        for i in range(count)
    ]


def _assert_decisions_match_reference(rules, catalogs, flows, one_shot_every):
    policy = compile_policy(rules, catalogs)
    matched = set()
    for index, flow in enumerate(flows):
        expected = reference_decide(rules, flow, catalogs)
        assert policy.decide(flow) == expected, flow
        if index % one_shot_every == 0:
            assert decide(rules, flow, catalogs) == expected, flow
        matched.add(expected.matched)
    return matched


def test_compiled_decisions_equal_reference_on_fixture(campus):
    doc, rules = campus
    rng = random.Random(61)
    flows = _boundary_flows(rng, rules, doc.catalogs, 1500)
    flows += [gen_flow(rng, targeted=True) for _ in range(1500)]
    matched = _assert_decisions_match_reference(rules, doc.catalogs, flows, 5)
    assert len(matched) >= 15 and sum(len(m) >= 2 for m in matched) >= 5


def test_compiled_decisions_equal_reference_on_edge_catalogs():
    rng = random.Random(62)
    seen = set()
    for tz in (-720, -300, 0, 330, 840):
        catalogs = _edge_catalogs(tz)
        rules = _edge_rules(rng, catalogs, 40)
        flows = _boundary_flows(rng, rules, catalogs, 800)
        seen |= _assert_decisions_match_reference(rules, catalogs, flows, 10)
    assert len(seen) >= 200


def test_compiled_decisions_equal_reference_on_large_random_policies():
    rng = random.Random(63)
    seen = wide = 0
    for _ in range(12):
        rules, catalogs = gen_catalogs_and_rules(rng, large=True)
        flows = _boundary_flows(rng, rules, catalogs, 150)
        flows += [gen_flow(rng, pooled=True) for _ in range(150)]
        seen += len(_assert_decisions_match_reference(rules, catalogs, flows, 10))
        wide += len(rules) > 64
    assert seen >= 300 and wide >= 1


def test_unknown_reference_raises_like_rule_by_rule_matching():
    catalogs = _edge_catalogs(0)
    good = Condition("nested", "adjacent", "mixed", "wrap")
    cases = [
        ([good, Condition("any", "any", "any", "no-t"), Condition("no-s", "any", "any", "any")],
         ("time class", "no-t")),
        ([Condition("nested", "no-d", "no-svc", "any")], ("entity group", "no-d")),
        ([Condition("any", "any", "no-svc", "no-t")], ("service class", "no-svc")),
        ([good, Condition("no-s", "no-d", "no-svc", "no-t")], ("entity group", "no-s")),
        # the first rule cannot match the flow, and still raises first
        ([Condition("extremes", "no-d", "any", "any"), Condition("no-s", "any", "any", "any")],
         ("entity group", "no-d")),
    ]
    flow = _flow(src="10.1.2.3", dst="10.2.0.1", port=25)
    for conditions, expected in cases:
        rules = [
            _rule(f"R{i}", i, ActionSet(Admission.ALLOW, None, None), c)
            for i, c in enumerate(conditions)
        ]
        for attempt in (
            lambda: reference_decide(rules, flow, catalogs),
            lambda: decide(rules, flow, catalogs),
            lambda: compile_policy(rules, catalogs),
        ):
            with pytest.raises(UnknownReferenceError) as info:
                attempt()
            assert (info.value.kind, info.value.name) == expected


def test_decision_memo_is_capped_across_threads(monkeypatch):
    monkeypatch.setattr(pdp, "DECISION_MEMO_LIMIT", 6)
    rng = random.Random(64)
    catalogs = _edge_catalogs(0)
    rules = _edge_rules(rng, catalogs, 40)
    flows = _boundary_flows(rng, rules, catalogs, 300)
    expected = [reference_decide(rules, flow, catalogs) for flow in flows]
    assert len({d.matched for d in expected}) > 30
    policy = compile_policy(rules, catalogs)
    # each thread walks the flows from its own offset, so they race to store
    # different decisions while the memo fills
    offsets = (0, 7, 14, 21)
    results = [[] for _ in offsets]
    start = threading.Barrier(len(offsets))

    def work(out, offset):
        start.wait(timeout=60)
        out.extend(map(policy.decide, flows[offset:] + flows[:offset]))

    threads = [
        threading.Thread(target=work, args=(out, offset))
        for out, offset in zip(results, offsets)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out, offset in zip(results, offsets):
        assert out == expected[offset:] + expected[:offset]
    assert len(policy._memo) == 6


# -- conflicts ---------------------------------------------------------------


def test_admission_conflict_detected():
    a = _rule("A", 0, ActionSet(Admission.ALLOW, None, None))
    b = _rule("B", 1, ActionSet(Admission.DENY, None, None))
    [conflict] = detect_conflicts([a, b], Catalogs())
    assert conflict.kind is ConflictKind.ADMISSION
    assert (conflict.rule_a, conflict.rule_b) == ("A", "B")
    assert conflict.severity == "error"
    assert conflict.witness.src == IPv4Address("0.0.0.0")
    assert conflict.witness.demand_kbps == 1


def test_bandwidth_conflict_needs_same_scope():
    lo = ActionSet(None, Bandwidth(None, 100, Scope.AGGREGATE), None)
    hi_agg = ActionSet(None, Bandwidth(500, None, Scope.AGGREGATE), None)
    hi_conn = ActionSet(None, Bandwidth(500, None, Scope.PER_CONNECTION), None)
    [conflict] = detect_conflicts([_rule("A", 0, hi_agg), _rule("B", 1, lo)], Catalogs())
    assert conflict.kind is ConflictKind.BANDWIDTH
    assert detect_conflicts([_rule("A", 0, hi_conn), _rule("B", 1, lo)], Catalogs()) == []


def test_priority_divergence_is_warning():
    a = _rule("A", 0, ActionSet(None, None, 2))
    b = _rule("B", 1, ActionSet(None, None, 7))
    [conflict] = detect_conflicts([a, b], Catalogs())
    assert conflict.kind is ConflictKind.PRIORITY_DIVERGENCE
    assert conflict.severity == "warning"
    same = _rule("C", 2, ActionSet(None, None, 2))
    assert detect_conflicts([a, same], Catalogs()) == []


def test_disjoint_conditions_suppress_conflict():
    catalogs = Catalogs(
        entities={
            "left": EntityGroup("left", frozenset({IPv4Network("10.0.0.0/24")})),
            "right": EntityGroup("right", frozenset({IPv4Network("10.0.1.0/24")})),
        }
    )
    a = _rule("A", 0, ActionSet(Admission.ALLOW, None, None),
              Condition("left", "any", "any", "any"))
    b = _rule("B", 1, ActionSet(Admission.DENY, None, None),
              Condition("right", "any", "any", "any"))
    assert detect_conflicts([a, b], catalogs) == []


def test_witness_prefers_lowest_point():
    catalogs = Catalogs(
        entities={
            "wide": EntityGroup("wide", frozenset({IPv4Network("10.0.0.0/24")})),
            "narrow": EntityGroup("narrow", frozenset({IPv4Network("10.0.0.128/25")})),
        },
        services={
            "web": ServiceClass("web", frozenset({ServiceMatcher("any", 80, 99)})),
            "mixed": ServiceClass(
                "mixed",
                frozenset({ServiceMatcher("udp", 85, 99), ServiceMatcher("tcp", 88, 99)}),
            ),
        },
        times={
            "late": TimeClass("late", frozenset({TimeWindow(frozenset({2, 3}), 600, 700)})),
            "all": TimeClass("all", frozenset({TimeWindow(frozenset(range(7)), 0, 1440)})),
        },
    )
    a = _rule("A", 0, ActionSet(Admission.ALLOW, None, None),
              Condition("wide", "any", "web", "late"))
    b = _rule("B", 1, ActionSet(Admission.DENY, None, None),
              Condition("narrow", "any", "mixed", "all"))
    [conflict] = detect_conflicts([a, b], catalogs)
    w = conflict.witness
    assert w.src == IPv4Address("10.0.0.128")
    assert w.dst == IPv4Address("0.0.0.0")
    # udp 85 beats tcp 88: port is compared before protocol
    assert (w.protocol, w.port) == ("udp", 85)
    assert w.timestamp == timestamp_at(2, 600, 0)


def test_witness_protocol_tiebreak_prefers_tcp():
    catalogs = Catalogs(
        services={
            "both": ServiceClass("both", frozenset({ServiceMatcher("any", 80, 85)})),
            "pair": ServiceClass(
                "pair",
                frozenset({ServiceMatcher("udp", 80, 82), ServiceMatcher("tcp", 80, 82)}),
            ),
        }
    )
    a = _rule("A", 0, ActionSet(Admission.ALLOW, None, None),
              Condition("any", "any", "both", "any"))
    b = _rule("B", 1, ActionSet(Admission.DENY, None, None),
              Condition("any", "any", "pair", "any"))
    [conflict] = detect_conflicts([a, b], catalogs)
    assert (conflict.witness.protocol, conflict.witness.port) == ("tcp", 80)


def test_fixture_conflicts(campus):
    doc, rules = campus
    conflicts = detect_conflicts(rules, doc.catalogs)
    errors = [(c.rule_a, c.rule_b) for c in conflicts if c.severity == "error"]
    assert errors == [("P11", "P13"), ("P11", "P15"), ("P12", "P15")]
    for c in conflicts:
        if c.severity == "error":
            assert c.kind is ConflictKind.BANDWIDTH
    first = next(c for c in conflicts if c.severity == "error")
    w = first.witness
    assert (str(w.src), str(w.dst)) == ("10.1.6.0", "198.51.100.0")
    assert (w.protocol, w.port, w.timestamp) == ("tcp", 80, 363600)
    assert sum(1 for c in conflicts if c.severity == "warning") == 19


def _witness_reproduces(conflict: Conflict, rules, catalogs) -> bool:
    by_id = {r.id: r for r in rules}
    a, b = by_id[conflict.rule_a], by_id[conflict.rule_b]
    w = conflict.witness
    if not (condition_matches(a.condition, w, catalogs)
            and condition_matches(b.condition, w, catalogs)):
        return False
    pair = decide([a, b], w, catalogs)
    if conflict.kind is ConflictKind.ADMISSION:
        return DecisionFlag.ADMISSION_CONTRADICTION in pair.flags
    if conflict.kind is ConflictKind.BANDWIDTH:
        return DecisionFlag.MIN_EXCEEDS_MAX in pair.flags
    return pair.priority != decide([b, a], w, catalogs).priority


def test_random_rules_match_sampling_oracle():
    rng = random.Random(43)
    for _ in range(120):
        rules, catalogs = gen_catalogs_and_rules(rng)
        conflicts = detect_conflicts(rules, catalogs)
        got = {(c.rule_a, c.rule_b, c.kind.value) for c in conflicts}
        assert got == sampled_conflict_pairs(rules, catalogs)
        for conflict in conflicts:
            assert _witness_reproduces(conflict, rules, catalogs)


def _witness_edge_catalogs(tz_offset_minutes):
    """Entries whose lowest common points sit on the edges of each dimension."""
    entities = {
        "nested": _nets("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"),
        "inner": _nets("10.1.2.128/25"),
        "left": _nets("10.1.0.0/16"),
        "right": _nets("10.2.0.0/16", "10.3.0.0/16"),
        "zero": _nets("0.0.0.0/32"),
        "top": _nets("255.255.255.255/32"),
        "ends": _nets("0.0.0.0/32", "255.255.255.255/32"),
        "everything": _nets("0.0.0.0/0"),
    }
    services = {
        "any7": _matchers(("any", 7, 9)),
        "tcp7": _matchers(("tcp", 7, 7)),
        "udp7": _matchers(("udp", 7, 12)),
        "udp-first": _matchers(("udp", 5, 10), ("tcp", 8, 10)),
        "zero": _matchers(("tcp", 0, 0)),
        "top": _matchers(("udp", 65535, 65535)),
        "ends": _matchers(("any", 0, 0), ("any", 65535, 65535)),
    }
    times = {
        "morning": _windows(({0}, 480, 720)),
        "noon": _windows(({0}, 720, 780)),
        "sunday-late": _windows(({6}, 1380, 1440)),
        "monday-first": _windows(({0}, 0, 60)),
        "midnight-run": _windows(({0}, 1380, 1440), ({1}, 0, 60)),
        "tuesday-early": _windows(({1}, 0, 30)),
        "monday-late": _windows(({0}, 1400, 1440)),
    }
    return Catalogs(
        {n: EntityGroup(n, m) for n, m in entities.items()},
        {n: ServiceClass(n, m) for n, m in services.items()},
        {n: TimeClass(n, w) for n, w in times.items()},
        tz_offset_minutes,
    )


def test_conflicts_equal_all_pairs_reference(campus):
    doc, rules = campus
    assert detect_conflicts(rules, doc.catalogs) == reference_detect_conflicts(
        rules, doc.catalogs
    )
    rng = random.Random(54)
    edge_found = 0
    for tz in (-720, 0, 840):
        for catalogs in (_witness_edge_catalogs(tz), _edge_catalogs(tz)):
            for _ in range(3):
                rules = _edge_rules(rng, catalogs, 40)
                conflicts = detect_conflicts(rules, catalogs)
                assert conflicts == reference_detect_conflicts(rules, catalogs)
                edge_found += len(conflicts)
    assert edge_found >= 500
    rng = random.Random(53)
    wide = found = 0
    for large in [False] * 300 + [True] * 40:
        rules, catalogs = gen_catalogs_and_rules(rng, large=large)
        conflicts = detect_conflicts(rules, catalogs)
        assert conflicts == reference_detect_conflicts(rules, catalogs)
        wide += len(rules) > 64
        found += len(conflicts)
    # bitsets wider than one machine word, and plenty of findings to order
    assert wide >= 5 and found >= 1000


def test_unknown_reference_raises_without_conflicting_actions():
    a = _rule("A", 0, ActionSet(Admission.ALLOW, None, None))
    b = _rule("B", 1, ActionSet(Admission.ALLOW, None, None),
              Condition("any", "missing", "any", "any"))
    assert reference_detect_conflicts([a, b], Catalogs()) == []
    with pytest.raises(UnknownReferenceError) as info:
        detect_conflicts([a, b], Catalogs())
    assert (info.value.kind, info.value.name) == ("entity group", "missing")


def test_referee_imports_only_public_pdp_names():
    # the conflict referee keeps its own witness code: it may import pdp's
    # public types, never its private helpers or the module as a whole
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    names = [alias.name for node in imports if node.module == "pbmkit.pdp" for alias in node.names]
    assert names and all(not name.startswith("_") for name in names), names
    assert all(
        alias.name != "pdp" for node in imports if node.module == "pbmkit" for alias in node.names
    )


def test_unknown_reference_raises_dimension_by_dimension():
    # every rule's source is resolved before any destination, service or time
    catalogs = _edge_catalogs(0)
    allow = ActionSet(Admission.ALLOW, None, None)
    cases = [
        ([Condition("any", "any", "any", "night"), Condition("ghost", "any", "any", "any")],
         ("entity group", "ghost")),
    ]
    # one missing name per dimension, the time in the first rule and the source
    # in the last; each case repairs the name the one before it reported
    spread = [("nested", "any", "any", "no-t"), ("any", "any", "no-svc", "wrap"),
              ("any", "no-d", "mixed", "any"), ("no-s", "adjacent", "any", "any")]
    order = [("entity group", "no-s"), ("entity group", "no-d"),
             ("service class", "no-svc"), ("time class", "no-t")]
    for k, expected in enumerate(order):
        repaired = {name for _, name in order[:k]}
        cases.append((
            [Condition(*("any" if n in repaired else n for n in names)) for names in spread],
            expected,
        ))
    for conditions, expected in cases:
        rules = [_rule(f"R{i}", i, allow, c) for i, c in enumerate(conditions)]
        with pytest.raises(UnknownReferenceError) as info:
            detect_conflicts(rules, catalogs)
        assert (info.value.kind, info.value.name) == expected


# -- translation -------------------------------------------------------------


def test_translate_fixture_rules(campus):
    doc, rules = campus
    by_id = {r.id: r for r in rules}
    shaper = DEFAULT_PROFILES["shaper"]

    assert translate_to_device(by_id["P1"], doc.catalogs, shaper) == [
        "rule P1 match src=10.1.1.0/28 dst=0.0.0.0/0 proto=tcp ports=25,110,143"
        " time=any action admit=allow min=256 max=- prio=6 scope=conn"
    ]
    assert translate_to_device(by_id["P8"], doc.catalogs, shaper) == [
        "rule P8 match src=0.0.0.0/0 dst=203.0.113.0/26 proto=tcp ports=80,443,8080"
        " time=any action admit=deny min=- max=- prio=- scope=agg"
    ]
    assert translate_to_device(by_id["P9"], doc.catalogs, shaper) == [
        "rule P9 match src=0.0.0.0/0 dst=0.0.0.0/0 proto=any ports=6881-6889"
        " time=mon-fri:08:00-18:00 action admit=deny min=- max=- prio=- scope=agg"
    ]
    assert translate_to_device(by_id["P10"], doc.catalogs, shaper) == [
        "rule P10 match src=0.0.0.0/0 dst=0.0.0.0/0 proto=any ports=6881-6889"
        " time=mon-fri:00:00-08:00,mon-fri:18:00-24:00,sat-sun:00:00-24:00"
        " action admit=allow min=- max=- prio=- scope=agg"
    ]


def test_translate_filter_profile_rejects_bandwidth(campus):
    doc, rules = campus
    by_id = {r.id: r for r in rules}
    fw = DEFAULT_PROFILES["filter"]
    assert "admit=deny" in translate_to_device(by_id["P8"], doc.catalogs, fw)[0]
    with pytest.raises(TranslationError, match="bandwidth"):
        translate_to_device(by_id["P1"], doc.catalogs, fw)


def test_translate_unknown_dialect(campus):
    doc, rules = campus
    alien = DeviceProfile("x", "laserconf-v9", frozenset({"admission"}))
    with pytest.raises(TranslationError, match="laserconf-v9"):
        translate_to_device(rules[7], doc.catalogs, alien)
