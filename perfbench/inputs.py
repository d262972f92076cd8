"""Seeded input generation for the benchmark workloads.

Everything here is stdlib only and imports nothing from pbmkit, so the
inputs for a given seed stay the same whatever the package or its tests
do.  Addresses are kept as integers; the independent matcher in
oracle.py works on the same tuples.

A flow is the tuple (ts, src, dst, proto, port, demand_kbps).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CAMPUS_POLICY = HERE / "data" / "campus.pbm"
CONTENDED_POLICY = HERE / "data" / "contended.pbm"

TRACE_HEADER = "ts,src,dst,proto,port,demand_kbps\n"

# Monday 2023-10-09, 00:00 local time (UTC-05:00).
CAMPUS_TZ_MINUTES = -300
WEEK_START = 4 * 86400 - CAMPUS_TZ_MINUTES * 60 + 2805 * 7 * 86400


def ip(text: str) -> int:
    a, b, c, d = (int(part) for part in text.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


def dotted(value: int) -> str:
    return f"{value >> 24}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


def block(cidr: str) -> tuple[int, int]:
    """Inclusive integer range of a CIDR block."""
    text, _, bits = cidr.partition("/")
    size = 1 << (32 - int(bits or 32))
    low = ip(text) & ~(size - 1) & 0xFFFFFFFF
    return low, low + size - 1


def _host(rng: random.Random, *cidrs: str) -> int:
    low, high = block(rng.choice(cidrs))
    return rng.randint(low, high)


@dataclass(frozen=True)
class Step:
    """One replay call's worth of flows, all inside one time bucket."""

    bucket_start: int
    flows: tuple[tuple[int, int, int, str, int, int], ...]
    csv: str  # TRACE_HEADER plus one row per flow


def _make_step(bucket_start: int, flows: list) -> Step:
    flows.sort(key=lambda f: f[0])
    rows = "".join(
        f"{ts},{dotted(src)},{dotted(dst)},{proto},{port},{demand}\n"
        for ts, src, dst, proto, port, demand in flows
    )
    return Step(bucket_start, tuple(flows), TRACE_HEADER + rows)


# -- campus trace --------------------------------------------------------------

MAIL, DOWNLOADS, VOIP = "10.1.1.0/28", "10.1.2.0/28", "10.1.3.1/32"
VIDEO, WEB, RAPIDSHARE = "10.1.4.0/29", "10.1.5.0/28", "203.0.113.0/26"
NAT, FTP, SITES = ("10.1.6.0/27", "200.21.98.0/28"), "10.1.7.1/32", "198.51.100.0/26"
STREAM, PROXY = "10.1.8.0/29", "10.1.9.0/30"
UNLISTED_INSIDE, UNLISTED_OUTSIDE = "10.1.20.0/22", "198.18.0.0/15"

MAIL_SVC = (("tcp", 25), ("tcp", 110), ("tcp", 143))
VOIP_SVC = (("udp", 5060), ("udp", 5061))
WEB_SVC = (("tcp", 80), ("tcp", 443), ("tcp", 8080))
FTP_SVC = (("tcp", 20), ("tcp", 21))
OTHER_SVC = (
    ("tcp", 22), ("tcp", 3389), ("tcp", 5432), ("tcp", 993),
    ("udp", 53), ("udp", 123), ("udp", 3478), ("udp", 1194),
)


def _p2p(rng):
    return rng.choice(("tcp", "udp")), rng.randint(6881, 6889)


# Each category returns (src, dst, (proto, port), demand range).  None
# of them puts a per-connection source (videoconference or streaming)
# behind a deny rule, so no step hits ROADMAP defect 1 and every step is
# an operation that completes; defect_1_probe() holds such a flow.
_CAMPUS_CATEGORIES = (
    # weight, builder
    (3, lambda r: (_host(r, MAIL), _host(r, UNLISTED_OUTSIDE), r.choice(MAIL_SVC), (100, 800))),
    (3, lambda r: (_host(r, UNLISTED_INSIDE), _host(r, MAIL), r.choice(MAIL_SVC), (50, 600))),
    (2, lambda r: (_host(r, DOWNLOADS), _host(r, UNLISTED_OUTSIDE), r.choice(WEB_SVC + OTHER_SVC), (200, 1500))),
    (2, lambda r: (_host(r, VOIP), _host(r, UNLISTED_OUTSIDE), r.choice(VOIP_SVC), (64, 100))),
    (2, lambda r: (_host(r, VIDEO), _host(r, UNLISTED_OUTSIDE), r.choice(WEB_SVC + VOIP_SVC + OTHER_SVC), (384, 1500))),
    (2, lambda r: (_host(r, WEB), _host(r, UNLISTED_OUTSIDE), r.choice(WEB_SVC + OTHER_SVC), (100, 1200))),
    (3, lambda r: (_host(r, UNLISTED_OUTSIDE), _host(r, WEB), r.choice(WEB_SVC), (50, 600))),
    (2, lambda r: (_host(r, UNLISTED_INSIDE), _host(r, RAPIDSHARE), r.choice(WEB_SVC), (200, 1500))),
    (3, lambda r: (_host(r, UNLISTED_INSIDE, *NAT), _host(r, UNLISTED_OUTSIDE), _p2p(r), (100, 1500))),
    (2, lambda r: (_host(r, *NAT), _host(r, UNLISTED_OUTSIDE), r.choice(WEB_SVC + OTHER_SVC), (100, 900))),
    (1, lambda r: (_host(r, FTP), _host(r, UNLISTED_OUTSIDE), r.choice(FTP_SVC), (200, 1500))),
    (2, lambda r: (_host(r, UNLISTED_INSIDE), _host(r, SITES), r.choice(WEB_SVC), (100, 1200))),
    (2, lambda r: (_host(r, STREAM), _host(r, UNLISTED_OUTSIDE), r.choice(WEB_SVC + OTHER_SVC), (300, 1500))),
    (2, lambda r: (_host(r, UNLISTED_INSIDE), _host(r, PROXY), r.choice(WEB_SVC), (100, 1500))),
    (1, lambda r: (_host(r, PROXY), _host(r, UNLISTED_OUTSIDE), r.choice(WEB_SVC), (100, 1500))),
    (10, lambda r: (_host(r, UNLISTED_INSIDE), _host(r, UNLISTED_OUTSIDE), r.choice(OTHER_SVC), (32, 800))),
)
_CAMPUS_WEIGHTS = [w for w, _ in _CAMPUS_CATEGORIES]
_CAMPUS_BUILDERS = [b for _, b in _CAMPUS_CATEGORIES]




CAMPUS_CAPACITY_KBPS = 20_000
CAMPUS_STEP_SECONDS = 600
CAMPUS_FLOWS_PER_STEP = 50
CAMPUS_STEPS = 7 * 86400 // CAMPUS_STEP_SECONDS  # one week


def campus_trace(seed: int) -> list[Step]:
    """A week of campus traffic, 50 flows per 10-minute step."""
    rng = random.Random(f"campus-{seed}")
    steps = []
    for k in range(CAMPUS_STEPS):
        start = WEEK_START + k * CAMPUS_STEP_SECONDS
        flows = []
        for _ in range(CAMPUS_FLOWS_PER_STEP):
            builder = rng.choices(_CAMPUS_BUILDERS, _CAMPUS_WEIGHTS)[0]
            src, dst, (proto, port), (low, high) = builder(rng)
            ts = start + rng.randrange(CAMPUS_STEP_SECONDS)
            flows.append((ts, src, dst, proto, port, rng.randint(low, high)))
        steps.append(_make_step(start, flows))
    return steps


def defect_1_probe(seed: int) -> Step:
    """A Monday 10:00 step whose one flow hits ROADMAP defect 1.

    A videoconference or streaming host, which has a per-connection
    minimum, runs peer-to-peer traffic, which office hours deny.  It is
    replayed once, outside the measured run, to show whether the defect
    is still there; the measured trace holds no such flow.
    """
    rng = random.Random(f"probe-{seed}")
    start = WEEK_START + 10 * 3600
    src, dst = _host(rng, VIDEO, STREAM), _host(rng, UNLISTED_OUTSIDE)
    proto, port = _p2p(rng)
    return _make_step(start, [(start + 60, src, dst, proto, port, rng.randint(100, 500))])


# -- contended trace -----------------------------------------------------------

# allocate() deals bandwidth one kilobit per round, so a step's cost
# grows with the link: at 20 Mbps a step takes tens of milliseconds, and a
# run holds hundreds of them, enough for a steady p99.
CONTENDED_CAPACITY_KBPS = 20_000
CONTENDED_STEP_SECONDS = 60
CONTENDED_STEPS = 64
# (count per step, source block, destination block, demand range); the
# counts are fixed so every step costs allocate() the same.
_CONTENDED_MIX = (
    (20, "10.20.0.0/22", UNLISTED_OUTSIDE, (1000, 1600)),   # bulk: 1 Mbps each, prio 9
    (30, "10.30.0.0/24", UNLISTED_OUTSIDE, (300, 800)),     # backup pipe: 6 Mbps, prio 9
    (20, UNLISTED_INSIDE, "10.40.0.0/24", (400, 1000)),     # replica pipe: 4..12 Mbps, prio 8
    (20, "10.50.0.0/24", UNLISTED_OUTSIDE, (100, 600)),     # video: at most 400 kbps each
    (110, UNLISTED_INSIDE, UNLISTED_OUTSIDE, (20, 400)),    # unmatched
)


def contended_trace(seed: int) -> list[Step]:
    """64 one-minute steps of 200 flows whose minimums exceed the link."""
    rng = random.Random(f"contended-{seed}")
    steps = []
    for k in range(CONTENDED_STEPS):
        start = WEEK_START + k * CONTENDED_STEP_SECONDS
        flows = []
        for count, src_block, dst_block, (low, high) in _CONTENDED_MIX:
            for _ in range(count):
                proto, port = rng.choice(WEB_SVC + OTHER_SVC)
                flows.append((
                    start + rng.randrange(CONTENDED_STEP_SECONDS),
                    _host(rng, src_block), _host(rng, dst_block),
                    proto, port, rng.randint(low, high),
                ))
        steps.append(_make_step(start, flows))
    return steps


# -- remote policy edits -------------------------------------------------------


@dataclass(frozen=True)
class RuleEdit:
    """New bandwidth minimum and priority for one compiled campus rule."""

    rule_id: str
    min_kbps: int
    priority: int


def campus_edits(seed: int) -> list[RuleEdit]:
    """Edits that the remote workload commits in turn.

    They target the aggregate-minimum rules (P3 downloads, P6 web
    servers, P16 proxies), so the decisions for their flows change with
    every version.
    """
    rng = random.Random(f"edits-{seed}")
    return [
        RuleEdit(rng.choice(("P3", "P6", "P16")), rng.randrange(300, 900, 10), rng.randint(5, 9))
        for _ in range(6)
    ]


# -- policy-check documents ----------------------------------------------------

POLICY_GROUPS = 6       # level-2 goals under the root
POLICY_LEAVES = 50      # leaves per level-2 goal (or per alternative)
POLICY_CHOICES = 2      # level-2 goals that are an OR of two alternatives
POLICY_RULES = POLICY_GROUPS * POLICY_LEAVES  # rules in every strategy
POLICY_STRATEGIES = 2 ** POLICY_CHOICES

_TIMES = (
    'time Any = any',
    'time "Working Hours" { mon-fri 08:00-18:00 }',
    'time Night { mon-sun 00:00-06:00 }',
    'time Weekend { sat+sun 00:00-24:00 }',
    'time Evening { mon-fri 18:00-23:00 }',
)


def _q(name: str) -> str:
    return f'"{name}"'


def policy_document(seed: int, index: int) -> str:
    """A goal-graph document whose root has 4 strategies of 300 rules.

    The catalogs imitate the campus fixture at a larger scale: 48 entity
    groups of one to three blocks, 16 service classes and 5 time classes.
    """
    rng = random.Random(f"policy-{seed}-{index}")
    lines = ['meta name "Generated campus policy"', 'meta tz "-05:00"', ""]
    entities = ["Anywhere"]
    lines.append("entity Anywhere = any")
    for e in range(48):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            bits = rng.choice((24, 26, 28, 29, 30, 32))
            base = (10 << 24) | (rng.randrange(16) << 16) | (rng.randrange(8) << 8) | rng.randrange(256)
            low, _ = block(f"{dotted(base)}/{bits}")
            blocks.append(f"{dotted(low)}/{bits}" if bits < 32 else dotted(low))
        name = f"Group {e}"
        entities.append(name)
        lines.append(f"entity {_q(name)} {{ {', '.join(blocks)} }}")
    services = ['"All IP"']
    lines.append('service "All IP" = any')
    for s in range(16):
        matchers = []
        for _ in range(rng.randint(1, 3)):
            proto = rng.choice(("tcp", "tcp", "udp", "any"))
            low = rng.randrange(1, 10000)
            high = low + rng.choice((0, 0, 0, 9, 99))
            matchers.append(f"{proto} {low}" if high == low else f"{proto} {low}-{high}")
        name = f"Service {s}"
        services.append(_q(name))
        lines.append(f"service {_q(name)} {{ {', '.join(matchers)} }}")
    lines.extend(_TIMES)
    times = ("Any", '"Working Hours"', "Night", "Weekend", "Evening")
    lines.append("")

    goals = ['goal G1 level 1 "Run the generated campus network"']
    refines = []
    leaves = []
    groups = []
    for g in range(1, POLICY_GROUPS + 1):
        parent = f"SG2-{g}"
        goals.append(f'goal {parent} level 2 "Policy area {g}"')
        groups.append(parent)
        alternatives = [parent]
        if g <= POLICY_CHOICES:
            alternatives = [f"SG3-{g}{letter}" for letter in "ab"]
            for alt in alternatives:
                goals.append(f'goal {alt} level 3 "Policy area {g}, option {alt[-1]}"')
            refines.append(f"refine {parent} or {{ {', '.join(alternatives)} }}")
        for alt in alternatives:
            children = [f"L{g}{alt[-1] if alt != parent else ''}-{i}" for i in range(1, POLICY_LEAVES + 1)]
            for child in children:
                goals.append(f'goal {child} level 4 "Leaf {child}"')
            refines.append(f"refine {alt} and {{ {', '.join(children)} }}")
            leaves.extend(children)
    refines.insert(0, f"refine G1 and {{ {', '.join(groups)} }}")
    lines.extend(goals)
    lines.append("")
    lines.extend(refines)
    lines.append("")

    for position, leaf in enumerate(leaves):
        src = "Anywhere" if rng.random() < 0.2 else _q(rng.choice(entities[1:]))
        dst = "Anywhere" if rng.random() < 0.2 else _q(rng.choice(entities[1:]))
        service = rng.choice(services)
        when = rng.choice(times)
        lines.append(f"bind {leaf} {{")
        lines.append('  subject "Edge Shaper"')
        lines.append('  target "Edge Shaper"')
        lines.append(f"  if source {src} dest {dst} service {service} time {when}")
        lines.append(f"  then {_policy_action(rng, position * _GOLDEN % 1)}")
        lines.append("}")
    return "\n".join(lines) + "\n"


# The action kinds follow a low-discrepancy sequence over the leaves, not
# random draws, so every document has the same mix of kinds: the number of
# rule pairs that detect_conflicts must inspect, and with it the cost of a
# publish, then varies less from document to document.
_GOLDEN = (5 ** 0.5 - 1) / 2


def _policy_action(rng, roll: float) -> str:
    priority = rng.randint(1, 9)
    if roll < 0.1:
        return "deny"
    if roll < 0.2:
        return "allow"
    if roll < 0.4:
        return f"priority {priority}"
    low = rng.randrange(64, 4096, 64)
    if roll < 0.6:
        scope = " per-connection" if rng.random() < 0.5 else ""
        return f"min {low} kbps{scope} priority {priority}"
    if roll < 0.8:
        return f"max {low} kbps priority {priority}"
    return f"min {low} kbps max {low * 2} kbps priority {priority}"


def policy_flow_sample(seed: int, count: int = 200) -> list[tuple[int, int, int, str, int, int]]:
    """Flows spread over the generated documents' address and port space."""
    rng = random.Random(f"policy-flows-{seed}")
    return [
        (
            WEEK_START + rng.randrange(7 * 86400),
            (10 << 24) | (rng.randrange(16) << 16) | (rng.randrange(8) << 8) | rng.randrange(256),
            (10 << 24) | (rng.randrange(16) << 16) | (rng.randrange(8) << 8) | rng.randrange(256),
            rng.choice(("tcp", "udp")),
            rng.randrange(1, 10100),
            rng.randint(32, 2000),
        )
        for _ in range(count)
    ]
