"""Bandwidth allocation, trace parsing, replay and report output."""
import io
import random
from ipaddress import IPv4Address
from pathlib import Path

import pytest

from pbmkit import pep_sim
from pbmkit.dsl import parse
from pbmkit.model import (
    ActionSet,
    Admission,
    Bandwidth,
    Catalogs,
    Condition,
    FlowDescriptor,
    PolicyRule,
    Scope,
    UnknownReferenceError,
    timestamp_at,
)
from pbmkit.netrepo import decision_fields, decision_from_fields, encode_payload, parse_payload
from pbmkit.pdp import Decision, RuleBound, decide
from pbmkit.pep_sim import (
    AllocationReport,
    FlowAllocation,
    Pipe,
    TraceError,
    allocate,
    enforce,
    read_trace,
    replay,
    write_report,
)
from pbmkit.refiner import compile_strategy, enumerate_strategies

from .generators import gen_allocate_instance, gen_catalogs_and_rules, gen_flow
from .oracles import oracle_allocate

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def D(mn=None, mx=None, prio=1, deny=False):
    if deny:
        return Decision(matched=(), admission=Admission.DENY, priority=prio)
    bounds = ()
    if mn is not None or mx is not None:
        bounds = (RuleBound("D", Bandwidth(mn, mx, Scope.PER_CONNECTION), None),)
    return Decision(matched=(), admission=Admission.ALLOW, priority=prio, bounds=bounds)


@pytest.fixture(scope="module")
def campus():
    doc = parse((FIXTURES / "unicauca.pbm").read_text())
    [strategy] = enumerate_strategies(doc.graph, "G1-1")
    return doc, compile_strategy(doc, strategy)


# -- allocate ------------------------------------------------------------------


def test_guaranteed_minimums_then_priority_weighted_surplus():
    flows = [(D(64, prio=9), 64), (D(64, prio=9), 64), (D(prio=4), 10000)]
    assert allocate(flows, 200) == [64, 64, 72]


def test_uncontended_demands_fully_met():
    flows = [(D(), 120), (D(50), 300), (D(prio=8), 7)]
    assert allocate(flows, 1000) == [120, 300, 7]


def test_zero_capacity_grants_nothing():
    assert allocate([(D(100), 500), (D(), 50)], 0) == [0, 0]


def test_denied_flows_get_zero_and_free_capacity():
    assert allocate([(D(deny=True), 500), (D(), 10)], 1000) == [0, 10]


def test_max_bound_caps_grant():
    assert allocate([(D(mx=30), 100)], 1000) == [30]


def test_higher_tier_guarantees_served_first():
    flows = [(D(80, prio=9), 80), (D(80, prio=1), 80)]
    assert allocate(flows, 100) == [80, 20]


def test_scarce_pool_split_proportionally_house_monotone():
    flows = [(D(6), 6), (D(6), 6), (D(2), 2)]
    assert allocate(flows, 10) == [5, 4, 1]
    # one extra kilobit never shrinks anyone's share
    assert allocate(flows, 11) == [5, 5, 1]


def test_pipe_minimum_dealt_round_robin():
    pipes = [Pipe("X", 90, None, 5, (0, 1))]
    assert allocate([(D(), 100), (D(), 20)], 90, pipes) == [70, 20]


def test_pipe_maximum_shared_evenly():
    pipes = [Pipe("X", None, 100, 5, (0, 1))]
    assert allocate([(D(), 100), (D(), 100)], 1000, pipes) == [50, 50]


def test_pipe_max_binds_flow_minimum_draw():
    # the pipe's own max bounds what its min guarantee can pull in
    pipes = [Pipe("X", 60, 80, 5, (0, 1))]
    grants = allocate([(D(), 100), (D(), 100)], 1000, pipes)
    assert sum(grants) == 80


def test_denied_member_excluded_from_pipe():
    pipes = [Pipe("X", None, 100, 5, (0, 1))]
    grants = allocate([(D(deny=True), 500), (D(), 500)], 1000, pipes)
    assert grants == [0, 100]


def test_allocate_input_validation():
    with pytest.raises(ValueError, match="capacity"):
        allocate([], -1)
    with pytest.raises(ValueError, match="demand"):
        allocate([(D(), -5)], 100)
    with pytest.raises(ValueError, match="references flow"):
        allocate([(D(), 10)], 100, [Pipe("X", 50, None, 5, (3,))])


def test_pipe_validation():
    with pytest.raises(ValueError, match="needs a min or a max"):
        Pipe("X", None, None, 5, (0,))
    with pytest.raises(ValueError, match="must be positive"):
        Pipe("X", 0, None, 5, (0,))
    with pytest.raises(ValueError, match="min 100 kbps exceeds max 50 kbps"):
        Pipe("X", 100, 50, 5, (0,))
    with pytest.raises(ValueError, match="priority"):
        Pipe("X", 50, None, 0, (0,))


def test_allocation_record_validation():
    with pytest.raises(ValueError, match="exceeds demand"):
        FlowAllocation("f1", (), 10, 5, False)
    with pytest.raises(ValueError, match="denied flow"):
        FlowAllocation("f1", (), 3, 5, True)
    with pytest.raises(ValueError, match="negative"):
        FlowAllocation("f1", (), -1, 5, False)
    ok = FlowAllocation("f1", ("P1",), 5, 5, False)
    with pytest.raises(ValueError, match="does not match"):
        AllocationReport(0, (ok,), 100, 4)
    with pytest.raises(ValueError, match="exceeds link capacity"):
        AllocationReport(0, (ok,), 4, 5)


def test_random_instances_match_reference_allocator():
    rng = random.Random(44)
    # the large shape makes tiers take many whole dealing rounds and split wide pools
    for large in [False] * 400 + [True] * 40:
        flows, capacity, pipes = gen_allocate_instance(rng, large)
        got = allocate(flows, capacity, pipes)
        assert got == oracle_allocate(flows, capacity, pipes)
        assert sum(got) <= capacity
        for (decision, demand), grant in zip(flows, got):
            assert 0 <= grant <= demand
            if decision.admission is Admission.DENY:
                assert grant == 0
            elif decision.effective_max_kbps is not None:
                assert grant <= decision.effective_max_kbps
        for pipe in pipes:
            total = sum(got[i] for i in pipe.members)
            if pipe.max_kbps is not None:
                assert total <= pipe.max_kbps


def test_contended_instances_match_reference_allocator():
    rng = random.Random(45)
    repeated = 0
    for _ in range(10):
        flows, capacity, pipes = gen_allocate_instance(rng, contended=True)
        guaranteed = sum(
            decision.effective_min_kbps or 0
            for decision, _ in flows
            if decision.admission is Admission.ALLOW and decision.priority == 9
        )
        assert guaranteed > capacity
        assert allocate(flows, capacity, pipes) == oracle_allocate(flows, capacity, pipes)
        repeated += sum(len(set(pipe.members)) < len(pipe.members) for pipe in pipes)
    assert repeated >= 10


def test_repeated_pipe_member_takes_a_kilobit_per_listing():
    # a flow listed twice in a pipe takes up to two kilobits a round, never beyond its room
    pipes = [Pipe("X", 10, None, 5, (0, 0))]
    assert allocate([(D(), 5)], 100, pipes) == oracle_allocate([(D(), 5)], 100, pipes) == [5]
    flows = [(D(), 5), (D(), 7)]
    pipes = [Pipe("X", 10, None, 5, (0, 1, 0))]
    assert allocate(flows, 9, pipes) == oracle_allocate(flows, 9, pipes) == [5, 4]
    # the listing repeats, the pipe does not: a kilobit counts once against its maximum
    flows = [(D(), 50), (D(), 50)]
    pipes = [Pipe("X", None, 30, 5, (0, 0, 1))]
    assert allocate(flows, 1000, pipes) == oracle_allocate(flows, 1000, pipes) == [15, 15]
    flows = [(D(mn=20, prio=9), 50), (D(), 50)]
    pipes = [Pipe("X", 10, 30, 5, (0, 1, 0))]
    assert allocate(flows, 1000, pipes) == oracle_allocate(flows, 1000, pipes) == [30, 0]


# -- traces --------------------------------------------------------------------


def test_read_trace_fixture():
    flows = read_trace((FIXTURES / "sample_trace.csv").read_text().splitlines())
    assert len(flows) == 4
    assert flows[0].timestamp == 399600
    assert flows[0].port == 6881
    assert flows[1].demand_kbps == 300
    assert flows[2].protocol == "udp"


def test_read_trace_errors():
    with pytest.raises(TraceError, match="line 1: empty trace"):
        read_trace([])
    with pytest.raises(TraceError, match="line 1: expected header"):
        read_trace(["time,who\n"])
    header = "ts,src,dst,proto,port,demand_kbps"
    with pytest.raises(TraceError, match="line 3: expected 6 fields, got 2"):
        read_trace([header, "0,10.0.0.1,10.0.0.2,tcp,80,5", "0,oops"])
    with pytest.raises(TraceError, match="line 2: .*protocol"):
        read_trace([header, "0,10.0.0.1,10.0.0.2,icmp,80,5"])
    with pytest.raises(TraceError) as info:
        read_trace([header, "zero,10.0.0.1,10.0.0.2,tcp,80,5"])
    assert info.value.line == 2


# (third trace line, the TraceError text); line 2 is a good row with padded fields
BAD_TRACE_ROWS = [
    ("5,10.0.0.1,10.0.0.2,tcp,80", "line 3: expected 6 fields, got 5"),
    ("5,10.0.0.1,10.0.0.2,tcp,80,100,7", "line 3: expected 6 fields, got 7"),
    ("5,10.0.0.256,10.0.0.2,tcp,80,100", "line 3: Octet 256 (> 255) not permitted in '10.0.0.256'"),
    ("5,10.0.0.1,01.0.0.2,tcp,80,100", "line 3: Leading zeros are not permitted in '01' in '01.0.0.2'"),
    ("5,10.0.0.1,1.2.3,tcp,80,100", "line 3: Expected 4 octets in '1.2.3'"),
    ("5,1.2.3.4.5,10.0.0.2,tcp,80,100", "line 3: Expected 4 octets in '1.2.3.4.5'"),
    ("5,0x1.2.3.4,10.0.0.2,tcp,80,100", "line 3: Only decimal digits permitted in '0x1' in '0x1.2.3.4'"),
    ("5,1..2.3,10.0.0.2,tcp,80,100", "line 3: Empty octet not permitted in '1..2.3'"),
    ("5,,10.0.0.2,tcp,80,100", "line 3: Address cannot be empty"),
    ("5,10.0.0.\u0661,10.0.0.2,tcp,80,100", "line 3: Only decimal digits permitted in '\u0661' in '10.0.0.\u0661'"),
    ("5,10.0.0.1,10.0.0.2,icmp,80,100", "line 3: flow protocol must be tcp or udp, got 'icmp'"),
    ("5,10.0.0.1,10.0.0.2,TCP,80,100", "line 3: flow protocol must be tcp or udp, got 'TCP'"),
    ("5,10.0.0.1,10.0.0.2,tcp,http,100", "line 3: invalid literal for int() with base 10: 'http'"),
    ("5,10.0.0.1,10.0.0.2,tcp,70000,100", "line 3: flow port out of range: 70000"),
    ("5.5,10.0.0.1,10.0.0.2,tcp,80,100", "line 3: invalid literal for int() with base 10: '5.5'"),
    ("5,10.0.0.1,10.0.0.2,tcp,80,0", "line 3: flow demand must be at least 1 kbps"),
    ("5,10.0.0.1,10.0.0.2,tcp,80,lots", "line 3: invalid literal for int() with base 10: 'lots'"),
    ("x,10.0.0.300,10.0.0.2,udp,-1,0", "line 3: Octet 300 (> 255) not permitted in '10.0.0.300'"),
]


def test_read_trace_error_messages():
    header = "ts,src,dst,proto,port,demand_kbps"
    for row, message in BAD_TRACE_ROWS:
        with pytest.raises(TraceError) as info:
            read_trace([header, "1, 10.0.0.9 ,10.0.0.8,udp,53,10", row])
        assert str(info.value) == message
        assert info.value.line == 3


def test_read_trace_skips_blank_rows():
    header = "ts,src,dst,proto,port,demand_kbps"
    flows = read_trace([header, "", "5,10.0.0.1,10.0.0.2,tcp,80,9", ""])
    assert len(flows) == 1


# -- replay --------------------------------------------------------------------


def test_replay_empty_trace():
    assert replay([], Catalogs(), [], 100) == []


def test_replay_compiles_once_per_call(campus, monkeypatch):
    doc, rules = campus
    calls = []
    compile_policy = pep_sim.compile_policy
    monkeypatch.setattr(
        pep_sim, "compile_policy", lambda *args: calls.append(args) or compile_policy(*args)
    )
    flows = read_trace((FIXTURES / "sample_trace.csv").read_text().splitlines())
    assert len(replay(rules, doc.catalogs, flows, 2000)) == 2
    assert len(calls) == 1
    replay(rules, doc.catalogs, flows, 2000, step_seconds=86400)
    assert len(calls) == 2


def test_replay_resolves_references_before_any_flow():
    rule = PolicyRule(
        "R1", "dev", "dev", Condition("any", "any", "missing", "any"),
        ActionSet(Admission.ALLOW), 0,
    )
    with pytest.raises(UnknownReferenceError, match="service class 'missing'"):
        replay([rule], Catalogs(), [], 100)


def test_replay_fixture_report(campus):
    doc, rules = campus
    flows = read_trace((FIXTURES / "sample_trace.csv").read_text().splitlines())
    reports = replay(rules, doc.catalogs, flows, 2000)
    buf = io.StringIO()
    write_report(reports, buf)
    assert buf.getvalue() == (
        "ts,flow,rules,granted_kbps,demand_kbps,denied\n"
        "399600,f1,P9,0,2000,true\n"
        "399600,f2,P1,300,300,false\n"
        "399600,f3,P4,64,64,false\n"
        "435600,f4,P10,2000,2000,false\n"
    )
    assert [r.timestep for r in reports] == [399600, 435600]
    assert reports[0].used_kbps == 364


def test_replay_builds_aggregate_pipes(campus):
    doc, rules = campus
    ts = timestamp_at(1, 600, -300)
    header = "ts,src,dst,proto,port,demand_kbps"
    rows = [
        f"{ts},10.1.7.1,198.18.0.50,tcp,21,400",
        f"{ts},10.1.7.1,198.18.0.51,tcp,20,400",
    ]
    [report] = replay(rules, doc.catalogs, read_trace([header] + rows), 2000)
    # both uploads sit in one aggregate ceiling of 512
    assert [f.rules for f in report.flows] == [("P12",), ("P12",)]
    assert [f.granted_kbps for f in report.flows] == [256, 256]


def test_replay_buckets_compose(campus):
    doc, rules = campus
    header = "ts,src,dst,proto,port,demand_kbps"
    rows = [
        "399600,10.1.1.3,198.18.0.10,tcp,25,300",
        "399630,10.1.3.1,198.18.0.11,udp,5060,64",
        "399659,10.1.5.9,198.18.0.12,tcp,9999,800",
        "435600,10.1.20.7,198.18.0.9,tcp,6881,2000",
    ]
    flows = read_trace([header] + rows)
    whole = replay(rules, doc.catalogs, flows, 500, step_seconds=60)
    assert [r.timestep for r in whole] == [399600, 435600]
    first_alone = replay(rules, doc.catalogs, flows[:3], 500, step_seconds=60)
    assert whole[0].flows == first_alone[0].flows
    # flow names continue across buckets
    assert [f.flow for r in whole for f in r.flows] == ["f1", "f2", "f3", "f4"]


def test_replay_rejects_bad_input(campus):
    doc, rules = campus
    header = "ts,src,dst,proto,port,demand_kbps"
    flows = read_trace([
        header,
        "100,10.0.0.1,10.0.0.2,tcp,80,5",
        "50,10.0.0.1,10.0.0.2,tcp,80,5",
    ])
    with pytest.raises(ValueError, match="ordered by timestamp"):
        replay(rules, doc.catalogs, flows, 100)
    with pytest.raises(ValueError, match="at least 1"):
        replay(rules, doc.catalogs, [], 100, step_seconds=0)


def test_wire_decisions_enforce_like_replay():
    """Decisions that crossed the DECISION codec allocate exactly as replay does."""
    rng = random.Random(48)
    denied_with_conn_bound = shared_pipe_steps = 0
    for _ in range(250):
        rules, catalogs = gen_catalogs_and_rules(rng)
        flows = sorted(
            (gen_flow(rng, pooled=True) for _ in range(rng.randint(1, 10))),
            key=lambda flow: flow.timestamp,
        )
        capacity, step = rng.randint(0, 1500), rng.choice((60, 600))

        def remote(flow):
            fields = decision_fields(decide(rules, flow, catalogs))
            return decision_from_fields(parse_payload(encode_payload(fields)))

        reports = replay(rules, catalogs, flows, capacity, step)
        assert list(enforce(flows, capacity, step, remote)) == reports

        scopes = {r.id: r.actions.bandwidth.scope for r in rules if r.actions.bandwidth}
        for report in reports:
            pipe_sizes: dict[str, int] = {}
            for allocation in report.flows:
                matched = [scopes[r] for r in allocation.rules if r in scopes]
                if allocation.denied:
                    denied_with_conn_bound += Scope.PER_CONNECTION in matched
                    continue
                for rule_id in allocation.rules:
                    if scopes.get(rule_id) is Scope.AGGREGATE:
                        pipe_sizes[rule_id] = pipe_sizes.get(rule_id, 0) + 1
            shared_pipe_steps += any(size >= 2 for size in pipe_sizes.values())
    assert denied_with_conn_bound > 0
    assert shared_pipe_steps > 0


def test_enforce_copies_a_decision_only_to_strip_aggregate_bounds(monkeypatch):
    conn = RuleBound("C", Bandwidth(10, 50, Scope.PER_CONNECTION), 4)
    agg = RuleBound("A", Bandwidth(20, None, Scope.AGGREGATE), 6)
    plain = Decision(("C",), Admission.ALLOW, 4, bounds=(conn,))
    mixed = Decision(("C", "A"), Admission.ALLOW, 4, bounds=(conn, agg))
    seen = []

    def spy(flows, capacity, pipes=()):
        seen.append((flows, pipes))
        return allocate(flows, capacity, pipes)

    monkeypatch.setattr(pep_sim, "allocate", spy)
    flow = FlowDescriptor(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), "tcp", 80, 0, 100)
    picks = iter([plain, mixed])
    [report] = enforce([flow, flow], 1000, 60, lambda _: next(picks))
    [(views, pipes)] = seen
    assert views[0][0] is plain
    assert views[1][0] == Decision(("C", "A"), Admission.ALLOW, 4, bounds=(conn,))
    assert pipes == [Pipe("A", 20, None, 6, (1,))]
    assert [a.granted_kbps for a in report.flows] == [50, 50]
