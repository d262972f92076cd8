"""Document text format: parsing, canonical serialization, error reporting."""
import collections
import random
from ipaddress import IPv4Network
from pathlib import Path

import pytest

from pbmkit.dsl import ParseError, _tokenize, parse, serialize
from pbmkit.model import Admission, Scope, ServiceMatcher, TimeWindow

from .generators import gen_document
from .oracles import reference_tokenize

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "unicauca.pbm"


@pytest.fixture(scope="module")
def campus():
    return parse(FIXTURE.read_text())


def test_fixture_overall_shape(campus):
    assert len(campus.graph.goals) == 20
    assert len(campus.graph.refinements) == 4
    assert len(campus.bindings) == 16
    assert campus.rules == ()
    assert campus.meta["tz"] == "-05:00"
    assert campus.catalogs.tz_offset_minutes == -300


def test_fixture_catalog_details(campus):
    mail = campus.catalogs.entities["Mail Servers"]
    assert mail.members == frozenset({IPv4Network("10.1.1.0/28")})
    assert campus.catalogs.entities["Any"].members is None
    voip = campus.catalogs.services["VoIP"]
    assert voip.matchers == frozenset(
        {ServiceMatcher("udp", 5060, 5060), ServiceMatcher("udp", 5061, 5061)}
    )
    p2p = campus.catalogs.services["P2P Applications"]
    assert ServiceMatcher("tcp", 6881, 6889) in p2p.matchers
    assert ServiceMatcher("udp", 6881, 6889) in p2p.matchers
    work = campus.catalogs.times["Working Hours"]
    assert work.windows == frozenset({TimeWindow(frozenset(range(5)), 480, 1080)})
    off = campus.catalogs.times["Non Working Hours"]
    assert TimeWindow(frozenset({5, 6}), 0, 1440) in off.windows


def test_fixture_binding_details(campus):
    proxy_in = campus.bindings["SG3-15"]
    # 5 mbps normalizes to kbps
    assert proxy_in.actions.bandwidth.min_kbps == 5000
    assert proxy_in.actions.bandwidth.scope is Scope.AGGREGATE
    assert proxy_in.actions.priority == 7

    mail_out = campus.bindings["SG3-1"]
    assert mail_out.actions.bandwidth.scope is Scope.PER_CONNECTION
    assert mail_out.actions.bandwidth.min_kbps == 256
    assert mail_out.subject == "NetEnforcer AC404"

    block = campus.bindings["SG3-8"]
    assert block.actions.admission is Admission.DENY
    assert block.actions.bandwidth is None
    assert block.actions.priority is None

    p2p_ok = campus.bindings["SG3-10"]
    assert p2p_ok.actions.admission is Admission.ALLOW
    assert p2p_ok.condition.time == "Non Working Hours"


def test_fixture_serialize_fixpoint(campus):
    once = serialize(campus)
    again = serialize(parse(once))
    assert once == again
    assert parse(once) == campus


def test_serialize_layout(campus):
    text = serialize(campus)
    lines = text.split("\n")
    assert lines[0] == "# pbm v1"
    assert text.endswith("}\n")
    # single-address groups render bare, without /32
    assert 'entity "VoIP Server" { 10.1.3.1 }' in text
    # natural id order in the goal section
    goal_lines = [l for l in lines if l.startswith("goal ")]
    ids = [l.split()[1] for l in goal_lines]
    assert ids == sorted(ids, key=lambda i: [int(p) if p.isdigit() else p
                                             for p in i.replace("-", " ").split()])
    assert ids.index("SG3-2") < ids.index("SG3-10")


def test_serialize_orders_catalog_entries_and_items():
    # entries by natural name; members by address then prefix length,
    # matchers by protocol then ports, windows by first day, minutes, days
    doc = parse(
        "time T10 { sat-sun 00:00-24:00, mon 09:00-10:00, mon 08:00-12:00,"
        " mon+wed 08:00-09:00, mon 08:00-09:00 }\n"
        "service S2 { udp 53, tcp 80, tcp 25, any 25-30, tcp 25-26 }\n"
        "time T9 = any\n"
        "entity E1 { 10.0.0.0/16, 10.0.0.0/8, 9.0.0.7 }\n"
        "entity E10 = any\n"
        "service S1 = any\n"
    )
    assert serialize(doc) == (
        "# pbm v1\n"
        "\n"
        "entity E1 { 9.0.0.7, 10.0.0.0/8, 10.0.0.0/16 }\n"
        "entity E10 = any\n"
        "\n"
        "service S1 = any\n"
        "service S2 { any 25-30, tcp 25, tcp 25-26, tcp 80, udp 53 }\n"
        "\n"
        "time T9 = any\n"
        "time T10 { mon 08:00-09:00, mon+wed 08:00-09:00, mon 08:00-12:00,"
        " mon 09:00-10:00, sat-sun 00:00-24:00 }\n"
    )


def test_empty_document_parses():
    doc = parse("")
    assert doc.meta == {}
    assert doc.graph.goals == {}
    assert doc.rules == ()
    assert serialize(doc) == "# pbm v1\n"


def test_comments_and_blank_lines_ignored():
    doc = parse("# heading\n\n  # indented comment\nmeta name \"x\"\n")
    assert doc.meta == {"name": "x"}


def test_string_escapes_decode():
    doc = parse('meta a "a\\\\q"\nmeta b "say \\"hi\\"\\n"\n')
    assert doc.meta == {"a": "a\\q", "b": 'say "hi"\n'}


def test_crlf_fixture_parses_like_lf():
    text = FIXTURE.read_text()
    assert "\r" not in text
    assert parse(text.replace("\n", "\r\n")) == parse(text)


def _lex(tokenize, text):
    """Tokens as (kind, text, line, column), or the ParseError's fields."""
    try:
        tokens = tokenize(text)
    except ParseError as err:
        return ("error", err.line, err.column, err.message, err.snippet)
    return [tuple(tok) for tok in tokens]


def test_tokenizer_matches_reference_scanner():
    texts = [FIXTURE.read_text()]
    rng = random.Random(20261018)
    texts += [serialize(gen_document(rng)) for _ in range(50)]
    # quotes and backslashes weigh more, so that strings and escapes are common
    alphabet = {'"': 6, "\\": 4, "n": 2, "q": 1, "#": 1, "{": 1, "}": 1, ",": 1, "=": 1,
                "\r": 1, "\t": 1, "\n": 2, " ": 1, "$": 1, "\u00e9": 1, "\x0b": 1, "\u2028": 1}
    chars, weights = list(alphabet), list(alphabet.values())
    texts += [
        "".join(rng.choices(chars, weights, k=rng.randrange(12))) for _ in range(100_000)
    ]
    outcomes = collections.Counter()
    for text in texts:
        expected = _lex(lambda t: reference_tokenize(t)[0], text)
        assert _lex(_tokenize, text) == expected, text
        outcomes[expected[3].split(" ")[1] if expected[0] == "error" else "tokens"] += 1
    assert set(outcomes) == {"tokens", "character", "string", "escape"}
    assert min(outcomes.values()) > 1000


def test_rules_sorted_by_order():
    doc = parse(
        'rule B order 20 { subject s target t'
        ' if source any dest any service any time any then deny }\n'
        'rule A order 10 { subject s target t'
        ' if source any dest any service any time any then allow }\n'
    )
    assert [r.id for r in doc.rules] == ["A", "B"]


def test_mbps_and_scope_parsing():
    doc = parse(
        'rule R1 order 1 { subject s target t'
        ' if source any dest any service any time any'
        ' then min 2 mbps max 3 mbps per-connection priority 3 }\n'
    )
    bw = doc.rules[0].actions.bandwidth
    assert (bw.min_kbps, bw.max_kbps, bw.scope) == (2000, 3000, Scope.PER_CONNECTION)


@pytest.mark.parametrize(
    "text, line, col, fragment",
    [
        ("bogus X\n", 1, 1, "unknown keyword"),
        ('meta name "open\n', 1, 11, "unterminated string"),
        ('meta name "a\\qb"\n', 1, 14, "unknown escape"),
        ('meta tz "05:00"\n', 1, 9, "bad timezone offset"),
        ("meta name \"a\"\nmeta name \"b\"\n", 2, 6, "duplicate meta key"),
        ("entity any { 10.0.0.1 }\n", 1, 8, "reserved word"),
        ("entity E { 999.0.0.1 }\n", 1, 12, "bad address"),
        ("service S { tcp 80-70 }\n", 1, 17, "bad port range"),
        ("time T { mon-xyz 08:00-10:00 }\n", 1, 10, "bad day"),
        ("time T { fri-mon 08:00-10:00 }\n", 1, 10, "must run forward"),
        ("time T { mon 19:00-09:00 }\n", 1, 14, "window"),
        ("goal G level 0 \"x\"\n", 1, 14, "goal level must be >= 1"),
        ("goal G level 1 \"x\"\ngoal G level 1 \"y\"\n", 2, 6, "duplicate goal"),
        ("refine G and { H }\n", 1, 8, "unknown goal"),
        ("entity caf\u00e9 = any\n", 1, 11, "unexpected character '\u00e9'"),
        ("meta\x0bname \"x\"\n", 1, 5, "unexpected character '\\x0b'"),
        ("goal $G level 1 \"x\"\n", 1, 6, "unexpected character '$'"),
        ('meta a "x"\nmeta name "ab\\qc"\n', 2, 15, "unknown escape \\q"),
        ('meta name "a\\qb\n', 1, 14, "unknown escape \\q"),
        ('meta name "abc\\\n', 1, 11, "unterminated string"),
    ],
)
def test_parse_errors_carry_position(text, line, col, fragment):
    with pytest.raises(ParseError) as info:
        parse(text)
    err = info.value
    assert (err.line, err.column) == (line, col)
    assert fragment in str(err)


def test_cycle_detected():
    text = (
        'goal A level 1 "a"\ngoal B level 2 "b"\n'
        "refine A and { B }\nrefine B and { A }\n"
    )
    with pytest.raises(ParseError, match="cycle through goals A, B"):
        parse(text)


def test_bind_requires_leaf_goal():
    text = (
        'goal A level 1 "a"\ngoal B level 2 "b"\n'
        "refine A and { B }\n"
        "bind A { subject s target t"
        " if source any dest any service any time any then allow }\n"
    )
    with pytest.raises(ParseError, match="refined further"):
        parse(text)


def test_unknown_condition_reference():
    text = (
        "bind G { subject s target t"
        " if source Lab dest any service any time any then allow }\n"
    )
    with pytest.raises(ParseError, match="unknown goal G"):
        parse(text)
    text2 = (
        'goal G level 1 "g"\n'
        "bind G { subject s target t"
        " if source Lab dest any service any time any then allow }\n"
    )
    with pytest.raises(ParseError, match="unknown entity group 'Lab'"):
        parse(text2)


def test_rule_from_unknown_goal():
    text = (
        "rule R1 from GX order 1 { subject s target t"
        " if source any dest any service any time any then allow }\n"
    )
    with pytest.raises(ParseError, match="unknown goal GX"):
        parse(text)


def test_duplicate_rule_order_rejected():
    text = (
        "rule R1 order 5 { subject s target t"
        " if source any dest any service any time any then allow }\n"
        "rule R2 order 5 { subject s target t"
        " if source any dest any service any time any then deny }\n"
    )
    with pytest.raises(ParseError, match="duplicate rule order 5"):
        parse(text)


@pytest.mark.parametrize(
    "actions, fragment",
    [
        ("per-connection", "scope given without bandwidth"),
        ("deny min 5 kbps", "cannot carry bandwidth"),
        ("deny priority 5", "cannot carry bandwidth or priority"),
        ("priority 12", "priority must be in 1..9"),
        ("min 0 kbps", "bandwidth bounds must be positive"),
        ("min 9 kbps max 3 kbps", "exceeds"),
        ("", "at least one component"),
        ("allow allow", "duplicate admission"),
        ("min 5 kbps min 6 kbps", "duplicate min bound"),
    ],
)
def test_action_validation(actions, fragment):
    text = (
        "rule R1 order 1 { subject s target t"
        f" if source any dest any service any time any then {actions} }}\n"
    )
    with pytest.raises(ParseError, match=fragment):
        parse(text)


def test_random_documents_round_trip():
    rng = random.Random(20260814)
    for _ in range(150):
        doc = gen_document(rng)
        text = serialize(doc)
        back = parse(text)
        assert back == doc
        assert serialize(back) == text
