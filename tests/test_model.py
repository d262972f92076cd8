"""Core model: catalogs, matching, time arithmetic, graph validation."""
import random
from datetime import datetime, timedelta, timezone
from ipaddress import IPv4Address, IPv4Network

import pytest

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
    PriorityBand,
    Refinement,
    RefinementMode,
    Scope,
    ServiceClass,
    ServiceMatcher,
    TimeClass,
    TimeWindow,
    WEEK_MINUTES,
    UnknownReferenceError,
    condition_matches,
    day_runs,
    format_tz_offset,
    natural_key,
    parse_tz_offset,
    priority_band,
    read_address,
    timestamp_at,
    validate_graph,
    week_minute,
)


def test_natural_key_orders_numeric_segments():
    names = ["SG3-10", "SG3-2", "SG3-1", "G1-1", "SG2-3"]
    assert sorted(names, key=natural_key) == ["G1-1", "SG2-3", "SG3-1", "SG3-2", "SG3-10"]


def test_day_runs_collapses_consecutive_days():
    assert day_runs(frozenset({0, 1, 2, 3, 4})) == [(0, 4)]
    assert day_runs(frozenset({5, 6})) == [(5, 6)]
    assert day_runs(frozenset({0, 2, 3, 6})) == [(0, 0), (2, 3), (6, 6)]


def test_tz_offset_parse_and_format():
    assert parse_tz_offset("+00:00") == 0
    assert parse_tz_offset("-05:00") == -300
    assert parse_tz_offset("+05:30") == 330
    for text in ("+05:30", "-11:00", "+00:00"):
        assert format_tz_offset(parse_tz_offset(text)) == text
    for bad in ("05:30", "+5:30", "+05:60", "utc", "+05"):
        with pytest.raises(ValueError):
            parse_tz_offset(bad)


def test_timestamp_at_inverts_local_day_minute():
    for day in (0, 3, 6):
        for minute in (0, 479, 480, 1439):
            for off in (0, -300, 330):
                ts = timestamp_at(day, minute, off)
                assert divmod(week_minute(ts, off), 1440) == (day, minute)


def test_local_day_minute_matches_datetime_reference():
    rng = random.Random(51)
    samples = [(ts, off) for ts in (-1, 0, 59, 345_599, 345_600) for off in (-720, 0, 840)]
    samples += [(rng.randint(-2_000_000_000, 4_000_000_000), rng.randint(-720, 840))
                for _ in range(3000)]
    for ts, off in samples:
        moment = datetime.fromtimestamp(ts, timezone.utc) + timedelta(minutes=off)
        assert divmod(week_minute(ts, off), 1440) == (
            moment.weekday(), moment.hour * 60 + moment.minute
        )
    # beyond datetime's range a timestamp maps like one whole weeks earlier
    week = 7 * 86400
    for ts, off in samples[:50]:
        far = ts + rng.choice((10**20 // week, -(10**20 // week))) * week
        assert divmod(week_minute(far, off), 1440) == divmod(week_minute(ts, off), 1440)


def test_case_study_timestamps():
    # Monday 10:00 and 20:00 at UTC-5
    assert timestamp_at(0, 600, -300) == 399600
    assert timestamp_at(0, 1200, -300) == 435600


def test_priority_band_covers_all_nine_values():
    expected = {
        1: PriorityBand.LOW,
        2: PriorityBand.LOW,
        3: PriorityBand.LOW,
        4: PriorityBand.LOW,
        5: PriorityBand.MIDDLE,
        6: PriorityBand.MIDDLE,
        7: PriorityBand.MIDDLE,
        8: PriorityBand.HIGH,
        9: PriorityBand.HIGH,
    }
    for value, band in expected.items():
        assert priority_band(value) is band
    for bad in (0, 10, -1):
        with pytest.raises(ValueError):
            priority_band(bad)
    with pytest.raises(ValueError):
        priority_band(True)


def _covered(spans, point):
    return any(low <= point < high for low, high in spans)


def test_time_window_half_open_interval():
    window = TimeWindow(frozenset({0, 1, 2, 3, 4}), 480, 1080)
    spans = TimeClass("work", frozenset({window})).spans()
    assert sorted(spans) == [(d * 1440 + 480, d * 1440 + 1080) for d in range(5)]
    assert _covered(spans, 0 * 1440 + 480)
    assert _covered(spans, 4 * 1440 + 1079)
    assert not _covered(spans, 0 * 1440 + 1080)
    assert not _covered(spans, 5 * 1440 + 600)
    midnight = TimeClass("weekend", frozenset({TimeWindow(frozenset({5, 6}), 0, 1440)})).spans()
    assert _covered(midnight, 6 * 1440 + 1439)
    assert not _covered(midnight, 0)
    assert TimeClass("always", None).spans() == [(0, WEEK_MINUTES)]


def test_time_window_validation():
    with pytest.raises(ValueError):
        TimeWindow(frozenset(), 0, 60)
    with pytest.raises(ValueError):
        TimeWindow(frozenset({0}), 60, 60)
    with pytest.raises(ValueError):
        TimeWindow(frozenset({0}), 0, 1441)
    with pytest.raises(ValueError):
        TimeWindow(frozenset({7}), 0, 60)


def test_entity_group_membership():
    group = EntityGroup("lab", frozenset({IPv4Network("10.0.0.0/30")}))
    assert group.spans() == [(int(IPv4Address("10.0.0.0")), int(IPv4Address("10.0.0.4")))]
    assert _covered(group.spans(), int(IPv4Address("10.0.0.3")))
    assert not _covered(group.spans(), int(IPv4Address("10.0.0.4")))
    assert _covered(EntityGroup("all", None).spans(), int(IPv4Address("192.0.2.1")))
    assert EntityGroup("all", None).spans() == [(0, 1 << 32)]
    edges = EntityGroup("edges", frozenset({IPv4Network("255.255.255.255/32")}))
    assert edges.spans() == [((1 << 32) - 1, 1 << 32)]


def test_service_matching():
    mail = ServiceClass(
        "mail", frozenset({ServiceMatcher("tcp", 25, 25), ServiceMatcher("tcp", 110, 143)})
    )
    assert sorted(mail.spans("tcp")) == [(25, 26), (110, 144)]
    assert _covered(mail.spans("tcp"), 25)
    assert _covered(mail.spans("tcp"), 120)
    assert not _covered(mail.spans("udp"), 25)
    assert not _covered(mail.spans("tcp"), 144)
    anyproto = ServiceClass("p2p", frozenset({ServiceMatcher("any", 6881, 6889)}))
    assert _covered(anyproto.spans("udp"), 6885)
    assert anyproto.spans("tcp") == anyproto.spans("udp") == [(6881, 6890)]
    assert _covered(ServiceClass("all", None).spans("udp"), 12345)
    assert ServiceClass("all", None).spans("tcp") == [(0, 65536)]
    with pytest.raises(ValueError):
        ServiceMatcher("tcp", 100, 99)
    with pytest.raises(ValueError):
        ServiceMatcher("icmp", 1, 2)
    with pytest.raises(ValueError):
        ServiceMatcher("tcp", -1, 5)


def _catalogs():
    return Catalogs(
        entities={
            "mail": EntityGroup("mail", frozenset({IPv4Network("10.1.1.0/28")})),
        },
        services={
            "mail": ServiceClass("mail", frozenset({ServiceMatcher("tcp", 25, 25)})),
        },
        times={
            "work": TimeClass(
                "work", frozenset({TimeWindow(frozenset(range(5)), 480, 1080)})
            ),
        },
        tz_offset_minutes=-300,
    )


def test_condition_matches_uses_all_four_dimensions():
    catalogs = _catalogs()
    condition = Condition("mail", "any", "mail", "work")
    flow = FlowDescriptor(
        IPv4Address("10.1.1.3"), IPv4Address("8.8.8.8"), "tcp", 25,
        timestamp_at(0, 600, -300), 100,
    )
    wrong_src = FlowDescriptor(
        IPv4Address("10.9.9.9"), flow.dst, "tcp", 25, flow.timestamp, 100
    )
    wrong_port = FlowDescriptor(flow.src, flow.dst, "tcp", 26, flow.timestamp, 100)
    wrong_time = FlowDescriptor(
        flow.src, flow.dst, "tcp", 25, timestamp_at(6, 600, -300), 100
    )
    with pytest.warns(DeprecationWarning, match="compile_policy"):
        assert condition_matches(condition, flow, catalogs)
        assert not condition_matches(condition, wrong_src, catalogs)
        assert not condition_matches(condition, wrong_port, catalogs)
        assert not condition_matches(condition, wrong_time, catalogs)


def test_unknown_references_raise():
    catalogs = _catalogs()
    with pytest.raises(UnknownReferenceError):
        catalogs.entity_group("nope")
    with pytest.raises(UnknownReferenceError):
        catalogs.service_class("nope")
    with pytest.raises(UnknownReferenceError):
        catalogs.time_class("nope")
    assert catalogs.entity_group("any").members is None


def test_bandwidth_validation():
    assert Bandwidth(100, 200, Scope.AGGREGATE).min_kbps == 100
    with pytest.raises(ValueError):
        Bandwidth(None, None)
    with pytest.raises(ValueError):
        Bandwidth(200, 100)
    with pytest.raises(ValueError):
        Bandwidth(0, None)


def test_action_set_validation():
    with pytest.raises(ValueError):
        ActionSet(None, None, None)
    with pytest.raises(ValueError):
        ActionSet(Admission.DENY, Bandwidth(10, None), None)
    with pytest.raises(ValueError):
        ActionSet(Admission.DENY, None, 5)
    with pytest.raises(ValueError):
        ActionSet(None, None, 0)
    with pytest.raises(ValueError):
        ActionSet(None, None, 10)
    assert ActionSet(Admission.DENY, None, None).admission is Admission.DENY


def test_flow_descriptor_validation():
    with pytest.raises(ValueError):
        FlowDescriptor(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), "icmp", 1, 0, 1)
    with pytest.raises(ValueError):
        FlowDescriptor(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), "tcp", 70000, 0, 1)
    with pytest.raises(ValueError):
        FlowDescriptor(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), "tcp", 80, 0, 0)


def _address_outcome(read, text):
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc)


ADDRESS_CHARS = "0123456789. x+-_\u0661\n"


def _address_text(rng):
    """Random text near a dotted quad, drawn from ADDRESS_CHARS."""
    if rng.random() < 0.3:
        return "".join(rng.choice(ADDRESS_CHARS) for _ in range(rng.randint(0, 16)))
    parts = []
    for _ in range(rng.choice((3, 4, 4, 4, 4, 5))):
        roll = rng.random()
        if roll < 0.75:
            parts.append(str(rng.randint(0, rng.choice((9, 99, 299)))))
        elif roll < 0.85:
            parts.append("0" + str(rng.randint(0, 99)))
        else:
            parts.append("".join(rng.choice(ADDRESS_CHARS) for _ in range(rng.randint(0, 3))))
    text = ".".join(parts)
    if rng.random() < 0.05:
        text = rng.choice(ADDRESS_CHARS) + text
    if rng.random() < 0.05:
        text += rng.choice(ADDRESS_CHARS)
    return text


def test_read_address_equals_ipv4address_on_edges():
    edges = [
        "0.0.0.0", "255.255.255.255", "256.1.1.1", "01.2.3.4", "1.2.3", "1.2.3.4.5",
        "0x1.2.3.4", "1..2.3", "", "1.2.3.4\n", " 1.2.3.4", "1.2.3.4 ", "+1.2.3.4",
        "1_0.2.3.4", "\u0661.2.3.4", "255.255.255.256", "249.250.199.100", "00.0.0.0",
        "1.2.3.", ".1.2.3", "1.2.3.-4", "10.0.0.1",
    ]
    for text in edges:
        assert _address_outcome(read_address, text) == _address_outcome(IPv4Address, text)


def test_read_address_equals_ipv4address_on_random_text():
    rng = random.Random(48)
    accepted = rejected = 0
    for _ in range(100_000):
        text = _address_text(rng)
        got = _address_outcome(read_address, text)
        assert got == _address_outcome(IPv4Address, text), text
        if isinstance(got, IPv4Address):
            accepted += 1
        else:
            rejected += 1
    assert accepted > 1000 and rejected > 1000


def _graph(goals, refinements):
    return GoalGraph(
        {g: Goal(g, 1) for g in goals},
        {
            parent: Refinement(parent, RefinementMode(mode), tuple(children))
            for parent, (mode, children) in refinements.items()
        },
    )


def test_validate_graph_accepts_clean_tree():
    graph = _graph(
        ["root", "a", "b"],
        {"root": ("and", ["a", "b"])},
    )
    assert validate_graph(graph) == []


def test_validate_graph_reports_problems():
    unknown_child = _graph(["root"], {"root": ("and", ["ghost"])})
    assert any("ghost" in v for v in validate_graph(unknown_child))

    self_loop = _graph(["root"], {"root": ("or", ["root"])})
    assert any("among its children" in v for v in validate_graph(self_loop))

    cycle = _graph(
        ["a", "b"],
        {"a": ("and", ["b"]), "b": ("and", ["a"])},
    )
    assert any(v.startswith("cycle through goals") for v in validate_graph(cycle))

    level = GoalGraph({"g": Goal("g", 0)}, {})
    assert any("level" in v for v in validate_graph(level))

    empty_children = GoalGraph(
        {"g": Goal("g", 1)}, {"g": Refinement("g", RefinementMode.AND, ())}
    )
    assert any("no children" in v or "children" in v for v in validate_graph(empty_children))


def test_goal_graph_leaves():
    graph = _graph(["root", "a", "b"], {"root": ("and", ["a", "b"])})
    assert graph.is_leaf("a")
    assert not graph.is_leaf("root")
    assert set(graph.leaves()) == {"a", "b"}
