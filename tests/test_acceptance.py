"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a [PASS] line with
the measured result once its assertions hold.  The reference behaviors
come from tests/oracles.py, implemented independently of the package.
"""
import dataclasses
import random
import time
from ipaddress import IPv4Address
from pathlib import Path

import pytest

from pbmkit.dsl import parse, serialize
from pbmkit.model import (
    Admission,
    FlowDescriptor,
    PriorityBand,
    Scope,
    priority_band,
    timestamp_at,
)
from pbmkit.netrepo import (
    PdpServer,
    PepSession,
    RepoError,
    decision_fields,
    decode_message,
    encode_message,
    encode_payload,
    repo_commit,
    repo_load,
)
from pbmkit.pdp import ConflictKind, DecisionFlag, decide, detect_conflicts
from pbmkit.pep_sim import allocate
from pbmkit.refiner import compile_strategy, enumerate_strategies

from .generators import (
    gen_allocate_instance,
    gen_catalogs_and_rules,
    gen_document,
    gen_flow,
    gen_goal_graph,
    gen_message,
)
from .oracles import (
    flow_guarantee,
    minimal_satisfying_sets,
    oracle_allocate,
    recursive_families,
    reference_condition_matches,
    sampled_conflict_pairs,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "unicauca.pbm"

# one row per compiled rule:
# (id, source, dest, service, time, admission, min, max, scope, priority)
CAMPUS_RULES = [
    ("P1", "Mail Servers", "Any", "Mail", "Any",
     None, 256, None, Scope.PER_CONNECTION, 6),
    ("P2", "Any", "Mail Servers", "Mail", "Any",
     None, None, None, None, 6),
    ("P3", "Hosts with Important Downloads", "Any", "All IP", "Any",
     None, 500, None, Scope.AGGREGATE, 9),
    ("P4", "VoIP Server", "Any", "VoIP", "Any",
     None, 64, None, Scope.AGGREGATE, 9),
    ("P5", "Videoconference Equipments", "Any", "All IP", "Any",
     None, 384, None, Scope.PER_CONNECTION, 6),
    ("P6", "Web Servers", "Any", "All IP", "Any",
     None, 512, None, Scope.AGGREGATE, 7),
    ("P7", "Any", "Web Servers", "All IP", "Any",
     None, None, None, None, 4),
    ("P8", "Any", "RapidShare Servers", "Web Applications", "Any",
     Admission.DENY, None, None, None, None),
    ("P9", "Any", "Any", "P2P Applications", "Working Hours",
     Admission.DENY, None, None, None, None),
    ("P10", "Any", "Any", "P2P Applications", "Non Working Hours",
     Admission.ALLOW, None, None, None, None),
    ("P11", "Host with NAT or Public IP", "Any", "All IP", "Any",
     None, None, 400, Scope.AGGREGATE, 7),
    ("P12", "FTP Server", "Any", "FTP", "Any",
     None, None, 512, Scope.AGGREGATE, 4),
    ("P13", "Any", "Important Web Sites", "Web Applications", "Any",
     None, 1024, None, Scope.AGGREGATE, None),
    ("P14", "Streaming Servers", "Any", "All IP", "Any",
     None, 300, None, Scope.PER_CONNECTION, 6),
    ("P15", "Any", "Proxy Servers", "All IP", "Any",
     None, 5000, None, Scope.AGGREGATE, 7),
    ("P16", "Proxy Servers", "Any", "All IP", "Any",
     None, 500, None, Scope.AGGREGATE, 5),
]


def test_criterion_1_campus_pipeline_reproduced():
    started = time.perf_counter()
    doc = parse(FIXTURE.read_text())
    strategies = enumerate_strategies(doc.graph, "G1-1")
    assert len(strategies) == 1
    assert strategies[0].leaves == tuple(f"SG3-{i}" for i in range(1, 17))
    rules = compile_strategy(doc, strategies[0])
    elapsed = time.perf_counter() - started

    assert len(rules) == 16
    for rule, row in zip(rules, CAMPUS_RULES):
        rid, source, dest, service, when, admission, mn, mx, scope, prio = row
        assert rule.id == rid
        assert rule.condition.source == source
        assert rule.condition.destination == dest
        assert rule.condition.service == service
        assert rule.condition.time == when
        assert rule.actions.admission == admission
        bw = rule.actions.bandwidth
        if mn is None and mx is None:
            assert bw is None
        else:
            assert bw is not None
            assert (bw.min_kbps, bw.max_kbps, bw.scope) == (mn, mx, scope)
        assert rule.actions.priority == prio
        assert rule.based_on == f"SG3-{rid[1:]}"

    assert elapsed < 1.0
    print(f"[PASS] criterion 1: campus fixture compiles to the 16 expected "
          f"rules in {elapsed * 1000:.0f} ms")


def test_criterion_2_priority_bands():
    expected = {
        1: PriorityBand.LOW, 2: PriorityBand.LOW, 3: PriorityBand.LOW,
        4: PriorityBand.LOW, 5: PriorityBand.MIDDLE, 6: PriorityBand.MIDDLE,
        7: PriorityBand.MIDDLE, 8: PriorityBand.HIGH, 9: PriorityBand.HIGH,
    }
    for value, band in expected.items():
        assert priority_band(value) is band
    print("[PASS] criterion 2: all nine priorities land in the documented bands")


def test_criterion_3_time_gated_admission():
    doc = parse(FIXTURE.read_text())
    [strategy] = enumerate_strategies(doc.graph, "G1-1")
    rules = compile_strategy(doc, strategy)

    def p2p_at(ts):
        return FlowDescriptor(
            IPv4Address("10.1.20.7"), IPv4Address("198.18.0.9"),
            "tcp", 6881, ts, 2000,
        )

    monday_morning = timestamp_at(0, 10 * 60, -300)
    assert monday_morning == 399600
    working = decide(rules, p2p_at(monday_morning), doc.catalogs)
    assert working.admission is Admission.DENY
    assert working.matched == ("P9",)

    monday_evening = timestamp_at(0, 20 * 60, -300)
    assert monday_evening == 435600
    evening = decide(rules, p2p_at(monday_evening), doc.catalogs)
    assert evening.admission is Admission.ALLOW
    assert evening.matched == ("P10",)
    print("[PASS] criterion 3: peer-to-peer traffic denied at Monday 10:00, "
          "allowed at Monday 20:00")


def test_criterion_4_conflicts_match_exhaustive_oracle():
    rng = random.Random(2026_08_04)
    trials = 1000
    total_conflicts = 0
    for _ in range(trials):
        rules, catalogs = gen_catalogs_and_rules(rng)
        conflicts = detect_conflicts(rules, catalogs)
        got = {(c.rule_a, c.rule_b, c.kind.value) for c in conflicts}
        assert got == sampled_conflict_pairs(rules, catalogs)
        total_conflicts += len(conflicts)
        by_id = {r.id: r for r in rules}
        for c in conflicts:
            a, b, w = by_id[c.rule_a], by_id[c.rule_b], c.witness
            assert reference_condition_matches(a.condition, w, catalogs)
            assert reference_condition_matches(b.condition, w, catalogs)
            pair = decide([a, b], w, catalogs)
            if c.kind is ConflictKind.ADMISSION:
                assert DecisionFlag.ADMISSION_CONTRADICTION in pair.flags
            elif c.kind is ConflictKind.BANDWIDTH:
                assert DecisionFlag.MIN_EXCEEDS_MAX in pair.flags
            else:
                swapped = decide([b, a], w, catalogs)
                assert pair.priority != swapped.priority
    print(f"[PASS] criterion 4: {trials} random rule sets agree with the "
          f"flow-space oracle; all {total_conflicts} witnesses reproduce")


def test_criterion_5_allocation_properties():
    rng = random.Random(2026_08_05)
    instances = 10_000
    oracle_checked = 0
    for _ in range(instances):
        flows, capacity, pipes = gen_allocate_instance(rng)
        grants = allocate(flows, capacity, pipes)

        # conservation and cap respect
        assert sum(grants) <= capacity
        for (decision, demand), grant in zip(flows, grants):
            assert 0 <= grant <= demand
            if decision.admission is Admission.DENY:
                assert grant == 0
            elif decision.effective_max_kbps is not None:
                assert grant <= decision.effective_max_kbps
        for pipe in pipes:
            if pipe.max_kbps is not None:
                assert sum(grants[i] for i in pipe.members) <= pipe.max_kbps

        # guarantee satisfaction when feasible (pipe-free instances, where
        # feasibility is exactly the sum of reachable minimums)
        if not pipes:
            guarantees = [flow_guarantee(d, demand) for d, demand in flows]
            if sum(guarantees) <= capacity:
                for grant, wanted in zip(grants, guarantees):
                    assert grant >= wanted

        # more capacity never shrinks the total grant; without shared
        # aggregate caps it never shrinks any individual grant either
        # (inside a pipe, a larger proportional share for one member can
        # legitimately displace another member's cut of the fixed ceiling)
        wider = allocate(flows, capacity + rng.randint(1, 40), pipes)
        assert sum(wider) >= sum(grants)
        if not pipes:
            for before, after in zip(grants, wider):
                assert after >= before

        # exact agreement with the kilobit-by-kilobit reference
        if len(flows) <= 6 and capacity <= 2000:
            oracle_checked += 1
            assert grants == oracle_allocate(flows, capacity, pipes)
    print(f"[PASS] criterion 5: {instances} allocation instances satisfy all "
          f"invariants; {oracle_checked} matched the reference exactly")


def test_criterion_6_strategy_enumeration_semantics():
    rng = random.Random(2026_08_06)
    dags = trees = 0
    for _ in range(250):
        graph, root, _ = gen_goal_graph(rng, max_leaves=12, tree=False)
        got = [frozenset(s.leaves) for s in enumerate_strategies(graph, root)]
        assert len(got) == len(set(got))
        assert set(got) == set(recursive_families(graph.refinements, root))
        dags += 1
    for _ in range(150):
        graph, root, leaves = gen_goal_graph(rng, max_leaves=7, tree=True)
        got = {frozenset(s.leaves) for s in enumerate_strategies(graph, root)}
        assert got == minimal_satisfying_sets(graph.refinements, root, leaves)
        trees += 1
    print(f"[PASS] criterion 6: {dags} random graphs match the recursive "
          f"semantics; {trees} trees match exhaustive subset checking")


def test_criterion_7_round_trips(tmp_path):
    rng = random.Random(2026_08_07)
    documents = 1000
    for _ in range(documents):
        doc = gen_document(rng)
        text = serialize(doc)
        assert parse(text) == doc
        assert serialize(parse(text)) == text

    messages = 1000
    for _ in range(messages):
        message = gen_message(rng)
        assert decode_message(encode_message(message)) == message

    repo = str(tmp_path)
    stored = gen_document(rng)
    entry = repo_commit(repo, stored)
    assert repo_load(repo, entry.version) == stored
    blob = tmp_path / entry.path
    corrupted = bytearray(blob.read_bytes())
    corrupted[len(corrupted) // 2] ^= 0x01
    blob.write_bytes(bytes(corrupted))
    with pytest.raises(RepoError, match="checksum mismatch"):
        repo_load(repo, entry.version)
    print(f"[PASS] criterion 7: {documents} document fixpoints, {messages} "
          f"frame identities, and checksummed storage round-trips hold")


def test_criterion_8_wire_equals_local(tmp_path):
    doc = parse(FIXTURE.read_text())
    [strategy] = enumerate_strategies(doc.graph, "G1-1")
    compiled = dataclasses.replace(
        doc, rules=tuple(compile_strategy(doc, strategy))
    )
    repo_commit(str(tmp_path), compiled)

    rng = random.Random(2026_08_08)
    flows = [gen_flow(rng, targeted=True) for _ in range(100)]
    with PdpServer(str(tmp_path)) as server:
        host, port = server.address
        with PepSession(host, port) as session:
            for flow in flows:
                remote = session.request(flow)
                local = decide(compiled.rules, flow, compiled.catalogs)
                assert remote == local
                assert session.last_dec_payload == encode_payload(
                    decision_fields(local)
                )
    print("[PASS] criterion 8: 100 live decisions are byte-identical to "
          "in-process results")
