"""Decision combination, conflict detection with witnesses, device translation."""
import random
from ipaddress import IPv4Address, IPv4Network
from pathlib import Path

import pytest

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
    decide,
    detect_conflicts,
    translate_to_device,
)
from pbmkit.refiner import compile_strategy, enumerate_strategies

from .generators import gen_actions, gen_catalogs_and_rules, gen_flow
from .oracles import reference_detect_conflicts, sampled_conflict_pairs

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


def test_conflicts_equal_all_pairs_reference(campus):
    doc, rules = campus
    assert detect_conflicts(rules, doc.catalogs) == reference_detect_conflicts(
        rules, doc.catalogs
    )
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
