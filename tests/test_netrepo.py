"""Wire framing, field codecs, the versioned store, and the live service."""
import builtins
import dataclasses
import io
import logging
import random
import re
import socket
import threading
import time
from ipaddress import IPv4Address
from pathlib import Path

import pytest

from pbmkit import netrepo
from pbmkit.dsl import parse, serialize
from pbmkit.model import Admission, FlowDescriptor
from pbmkit.netrepo import (
    MAGIC,
    MANIFEST_NAME,
    MAX_PAYLOAD,
    Message,
    MessageKind,
    PdpServer,
    PepSession,
    ProtocolError,
    RepoError,
    checksum_hex,
    decision_fields,
    decision_from_fields,
    decode_message,
    encode_message,
    encode_payload,
    flow_fields,
    flow_from_fields,
    fnv1a64,
    parse_payload,
    read_frame,
    read_message,
    repo_commit,
    repo_load,
    repo_log,
)
from pbmkit.pdp import Decision, DecisionFlag, decide
from pbmkit.refiner import compile_strategy, enumerate_strategies

from .generators import gen_decision, gen_flow, gen_message

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "unicauca.pbm"


# -- checksums -------------------------------------------------------------------


def test_fnv1a64_known_vectors():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_checksum_hex_known_vectors():
    # CRC-32 as in zlib, gzip and PNG; "123456789" is its standard check value
    assert checksum_hex(b"") == "crc32:00000000"
    assert checksum_hex(b"a") == "crc32:e8b7be43"
    assert checksum_hex(b"foobar") == "crc32:9ef61f95"
    assert checksum_hex(b"123456789") == "crc32:cbf43926"


# -- framing ---------------------------------------------------------------------


def test_ack_frame_bytes():
    frame = encode_message(Message(MessageKind.ACK, {}))
    assert frame.hex() == "5042010500000000"
    assert frame[:2] == MAGIC


def test_payload_sorted_and_escaped():
    payload = encode_payload({"b": "x\ny", "a": "back\\slash"})
    assert payload == b"a=back\\\\slash\nb=x\\ny\n"
    assert parse_payload(payload) == {"a": "back\\slash", "b": "x\ny"}


def test_payload_values_round_trip():
    rng = random.Random(46)
    for _ in range(2000):
        fields = {
            f"k{i}": "".join(rng.choice("\\nq=\n") for _ in range(rng.randrange(10)))
            for i in range(rng.randrange(1, 4))
        }
        assert parse_payload(encode_payload(fields)) == fields


def test_message_round_trips():
    rng = random.Random(45)
    for _ in range(300):
        message = gen_message(rng)
        assert decode_message(encode_message(message)) == message


@pytest.mark.parametrize(
    "data, fragment",
    [
        (b"PB", "truncated frame header"),
        (b"XX\x01\x05\x00\x00\x00\x00", "bad magic"),
        (b"\x00\x00\x01\x05\x00\x00\x00\x00", "bad magic"),
        (b"PB\x02\x05\x00\x00\x00\x00", "unsupported protocol version"),
        (b"PB\x01\x99\x00\x00\x00\x00", "unknown message kind 0x99"),
        (b"PB\x01\x05\x00\x00\x00\x05ab", "truncated frame payload"),
        (b"PB\x01\x05\x00\x00\x00\x00extra", "trailing bytes"),
        (b"PB\x01\x05\x01\x00\x00\x01", "exceeds the limit"),
    ],
)
def test_decode_errors(data, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        decode_message(data)


@pytest.mark.parametrize(
    "payload, fragment",
    [
        (b"k=v", "does not end with a newline"),
        (b"novalue\n", "without key=value"),
        (b"=v\n", "without key=value"),
        (b"k=1\nk=2\n", "duplicate payload key"),
        (b"k=a\\qb\n", "bad escape"),
        (b"k=tail\\\n", "dangling escape"),
        (b"k=\\\\\\q\\x\n", r"bad escape \\q"),  # leftmost bad escape first
        (b"k=\\x\\\n", r"bad escape \\x"),
        (b"\xff\xfe\n", "not UTF-8"),
    ],
)
def test_payload_errors(payload, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        parse_payload(payload)


def test_encode_rejects_bad_keys_and_oversize():
    for key in ("", "a=b", "a\nb", "a\\b"):
        with pytest.raises(ProtocolError, match="bad payload key"):
            encode_payload({key: "v"})
    with pytest.raises(ProtocolError, match="frame limit"):
        encode_message(Message(MessageKind.SYNC, {"doc": "x" * MAX_PAYLOAD}))


def test_read_frame_over_socket():
    left, right = socket.socketpair()
    try:
        message = Message(MessageKind.SYNC, {"doc": "hello", "version": "3"})
        left.sendall(encode_message(message))
        kind, payload = read_frame(right)
        assert kind is MessageKind.SYNC
        assert parse_payload(payload) == message.fields
        left.close()
        assert read_frame(right) is None  # clean EOF
    finally:
        right.close()


def test_read_frame_mid_frame_eof():
    left, right = socket.socketpair()
    try:
        left.sendall(encode_message(Message(MessageKind.ACK, {}))[:5])
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_frame(right)
    finally:
        right.close()


# -- field codecs ------------------------------------------------------------


def test_decision_fields_round_trip():
    rng = random.Random(46)
    for _ in range(300):
        decision = gen_decision(rng)
        # matched may also name rules that carry no bound
        extra = ("P1", "P2")[: rng.randrange(3)]
        decision = dataclasses.replace(decision, matched=decision.matched + extra)
        fields = decision_fields(decision)
        assert set(fields) == {"admission", "bounds", "flags", "matched", "priority"}
        assert decision_from_fields(parse_payload(encode_payload(fields))) == decision
        # the retired min/max keys, as older servers sent them or otherwise, are ignored
        low, high = decision.effective_min_kbps, decision.effective_max_kbps
        for old in ({"min": str(low or "-"), "max": str(high or "-")}, {"min": "5", "max": "1"}):
            assert decision_from_fields({**fields, **old}) == decision


def test_decoded_limits_and_flag_follow_bounds():
    # no frame decodes to a Decision whose limits or MinExceedsMax disagree with its bounds
    rng = random.Random(50)
    outcomes = {"crossed": 0, "rejected": 0, "plain": 0}
    for _ in range(300):
        fields = decision_fields(gen_decision(rng))
        fields["flags"] = rng.choice(["-", "MinExceedsMax", "AdmissionContradiction,MinExceedsMax"])
        try:
            decision = decision_from_fields(fields)
        except ProtocolError as exc:
            assert "do not cross" in str(exc)
            outcomes["rejected"] += 1
            continue
        # a Decision built directly from the decoded bounds (checked against a
        # reference fold in test_pdp) derives the same limits and flag
        direct = Decision(
            matched=decision.matched, admission=decision.admission, priority=decision.priority,
            flags=decision.flags - {DecisionFlag.MIN_EXCEEDS_MAX}, bounds=decision.bounds,
        )
        assert direct == decision
        outcomes["crossed" if DecisionFlag.MIN_EXCEEDS_MAX in direct.flags else "plain"] += 1
    assert min(outcomes.values()) >= 20


def test_flow_fields_round_trip():
    rng = random.Random(47)
    for _ in range(300):
        flow = gen_flow(rng)
        fields = flow_fields(flow)
        assert set(fields) == {"demand", "dst", "port", "proto", "src", "ts"}
        assert flow_from_fields(fields) == flow


# (fields replaced in a good REQUEST payload, the ProtocolError text)
BAD_FLOW_PAYLOADS = [
    ({"src": "10.0.0.256"}, "bad flow payload: Octet 256 (> 255) not permitted in '10.0.0.256'"),
    ({"src": " 10.0.0.1"}, "bad flow payload: Only decimal digits permitted in ' 10' in ' 10.0.0.1'"),
    ({"dst": "10.0.0.2\n"}, "bad flow payload: Only decimal digits permitted in '2\\n' in '10.0.0.2\\n'"),
    ({"dst": "01.0.0.2"}, "bad flow payload: Leading zeros are not permitted in '01' in '01.0.0.2'"),
    ({"src": ""}, "bad flow payload: Address cannot be empty"),
    ({"src": "10.0.0.\u0661"}, "bad flow payload: Only decimal digits permitted in '\u0661' in '10.0.0.\u0661'"),
    ({"src": "1.2.3.4.5"}, "bad flow payload: Expected 4 octets in '1.2.3.4.5'"),
    ({"src": "1.2.3", "dst": "x", "port": "y"}, "bad flow payload: Expected 4 octets in '1.2.3'"),
    ({"proto": "icmp"}, "bad flow payload: flow protocol must be tcp or udp, got 'icmp'"),
    ({"port": "http"}, "bad flow payload: invalid literal for int() with base 10: 'http'"),
    ({"port": "-1"}, "bad flow payload: flow port out of range: -1"),
    ({"ts": "5.5"}, "bad flow payload: invalid literal for int() with base 10: '5.5'"),
    ({"demand": "0"}, "bad flow payload: flow demand must be at least 1 kbps"),
    ({"src": None}, "payload lacks fields: src"),
]


def test_bad_flow_payload_messages():
    good = {
        "demand": "100", "dst": "10.0.0.2", "port": "80",
        "proto": "tcp", "src": "10.0.0.1", "ts": "5",
    }
    for changes, message in BAD_FLOW_PAYLOADS:
        fields = {k: v for k, v in {**good, **changes}.items() if v is not None}
        with pytest.raises(ProtocolError) as info:
            flow_from_fields(fields)
        assert str(info.value) == message


# integer spellings int() reads that the wire format does not describe;
# REQUEST values are not stripped
BAD_INTEGER_PAYLOADS = [
    ({"port": " 80"}, "bad flow payload: invalid literal for int() with base 10: ' 80'"),
    ({"port": "8_0"}, "bad flow payload: invalid literal for int() with base 10: '8_0'"),
    ({"ts": "+5"}, "bad flow payload: invalid literal for int() with base 10: '+5'"),
    ({"ts": "5\n"}, "bad flow payload: invalid literal for int() with base 10: '5\\n'"),
    ({"ts": "-1_0"}, "bad flow payload: invalid literal for int() with base 10: '-1_0'"),
    ({"demand": "100 "}, "bad flow payload: invalid literal for int() with base 10: '100 '"),
    ({"demand": "\u0661\u0660"},
     "bad flow payload: invalid literal for int() with base 10: '\u0661\u0660'"),
]


def test_flow_payload_integers_are_ascii_digits():
    good = {
        "demand": "100", "dst": "10.0.0.2", "port": "80",
        "proto": "tcp", "src": "10.0.0.1", "ts": "5",
    }
    for changes, message in BAD_INTEGER_PAYLOADS:
        with pytest.raises(ProtocolError) as info:
            flow_from_fields({**good, **changes})
        assert str(info.value) == message
    # every flow flow_fields encodes still decodes, negative timestamps too
    for ts in (-(10**12), -1, 0, 7):
        flow = FlowDescriptor(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), "udp", 0, ts, 1)
        assert flow_from_fields(flow_fields(flow)) == flow


def test_codec_error_reporting():
    with pytest.raises(ProtocolError, match="payload lacks fields"):
        decision_from_fields({"admission": "allow"})
    with pytest.raises(ProtocolError, match="payload lacks fields"):
        flow_from_fields({})
    fields = flow_fields(gen_flow(random.Random(1)))
    fields["port"] = "abc"
    with pytest.raises(ProtocolError, match="bad flow payload"):
        flow_from_fields(fields)
    good = decision_fields(gen_decision(random.Random(2)))
    good["flags"] = "NoSuchFlag"
    with pytest.raises(ProtocolError, match="bad decision payload"):
        decision_from_fields(good)
    allowed = decision_fields(Decision(matched=("R1",), admission=Admission.ALLOW, priority=1))
    denied = decision_fields(Decision(matched=("R1",), admission=Admission.DENY, priority=1))
    for base, bounds in [
        (allowed, "R1:conn:5:-"),        # wrong arity
        (allowed, "R1:conn:5:-:1:2"),
        (allowed, "R1:conn:5:-:-,"),
        (allowed, "R1:both:5:-:-"),      # bad scope
        (allowed, "R1:agg:five:-:-"),    # non-integer bound
        (allowed, "R1:agg:5:-:high"),
        (allowed, "R1:agg:-:-:-"),       # no bound at all
        (allowed, "R1:agg:5:-:10"),      # priority out of range
        (denied, "R1:conn:5:-:-"),       # entries on a denied decision
    ]:
        with pytest.raises(ProtocolError, match="bad decision payload"):
            decision_from_fields({**base, "bounds": bounds})
    for bounds in ("-", "R1:conn:5:10:-", "R1:conn:5:-:-,R2:agg:-:10:-"):
        # MinExceedsMax on bounds that do not cross, even beside old min/max keys
        flagged = {**allowed, "bounds": bounds, "flags": "MinExceedsMax", "min": "5", "max": "10"}
        with pytest.raises(ProtocolError, match="bad decision payload: .*do not cross"):
            decision_from_fields(flagged)


def test_repeated_bound_is_rejected():
    # a repeated bound would make enforce list the flow twice in one pipe
    allowed = decision_fields(Decision(matched=("A",), admission=Admission.ALLOW, priority=1))
    for bounds, repeated in [
        ("A:agg:10:-:3,A:agg:10:-:3", "A:agg:10:-:3"),
        ("R1:conn:5:-:-,R2:agg:9:-:-,R1:conn:05:-:-", "R1:conn:05:-:-"),  # equal once decoded
    ]:
        with pytest.raises(ProtocolError) as info:
            decision_from_fields({**allowed, "bounds": bounds})
        assert str(info.value) == f"bad decision payload: repeated bound {repeated!r}"


def test_decision_that_no_server_produces_is_rejected():
    # a local decision lists each matched rule once, with at most one bound
    allowed = {"admission": "allow", "bounds": "-", "flags": "-", "matched": "A", "priority": "3"}
    for changes, message in [
        ({"matched": "B,B"}, "matched repeats rule 'B'"),
        ({"matched": "A,B,C,B"}, "matched repeats rule 'B'"),
        ({"bounds": "A:agg:10:-:3,A:conn:20:-:3"}, "two bounds for rule 'A'"),
        ({"bounds": "A:agg:10:-:3,B:agg:5:-:-,A:agg:20:-:3"}, "two bounds for rule 'A'"),
        ({"bounds": "A:agg:10:-:3,A:agg:10:-:3"}, "repeated bound 'A:agg:10:-:3'"),
        ({"bounds": "A:agg:10:-:3,A:conn:20:-:3", "matched": "B,B"}, "two bounds for rule 'A'"),
        # a bound belongs to a matched rule
        ({"bounds": "Z:agg:10:-:3"}, "bound for unmatched rule 'Z'"),
        ({"bounds": "A:agg:9:-:3,C:conn:5:-:-", "matched": "A,B"}, "bound for unmatched rule 'C'"),
        ({"bounds": "A:agg:10:-:3", "matched": "-"}, "bound for unmatched rule 'A'"),
    ]:
        with pytest.raises(ProtocolError) as info:
            decision_from_fields({**allowed, **changes})
        assert str(info.value) == f"bad decision payload: {message}"
    fields = {**allowed, "matched": "A,B", "bounds": "A:agg:10:-:3,B:conn:20:-:-"}
    assert decision_from_fields(fields).matched == ("A", "B")


# integer spellings int() reads that the DECISION format does not describe
BAD_DECISION_INTEGERS = [
    ({"priority": "+3"}, "'+3'"),
    ({"priority": "0_3"}, "'0_3'"),
    ({"priority": " 3"}, "' 3'"),
    ({"priority": "3\n"}, "'3\\n'"),
    ({"priority": "\u0663"}, "'\u0663'"),
    ({"bounds": "A:agg:1_0:-:+3"}, "'1_0'"),
    ({"bounds": "A:agg:10:-:+3"}, "'+3'"),
    ({"bounds": "A:agg:+10:-:-"}, "'+10'"),
    ({"bounds": "A:agg:-: 20:-"}, "' 20'"),
    ({"bounds": "A:conn:\uff11\uff10:-:-"}, "'\uff11\uff10'"),
]


def test_decision_integers_are_ascii_digits():
    allowed = {"admission": "allow", "bounds": "-", "flags": "-", "matched": "A", "priority": "3"}
    for changes, literal in BAD_DECISION_INTEGERS:
        with pytest.raises(ProtocolError) as info:
            decision_from_fields({**allowed, **changes})
        assert str(info.value) == (
            f"bad decision payload: invalid literal for int() with base 10: {literal}"
        )
    # a minus still reads, and the range checks give their own messages
    for changes, message in [
        ({"priority": "-3"}, "decision priority must be in 1..9, got -3"),
        ({"bounds": "A:agg:-5:-:-"}, "bandwidth bounds must be positive"),
    ]:
        with pytest.raises(ProtocolError) as info:
            decision_from_fields({**allowed, **changes})
        assert str(info.value) == f"bad decision payload: {message}"


def test_sync_version_is_ascii_digits():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        host, port = listener.getsockname()
        for version, error in [
            ("+2", "bad sync version '+2'"),
            ("2_0", "bad sync version '2_0'"),
            (" 2", "bad sync version ' 2'"),
            ("\u0662", "bad sync version '\u0662'"),
            ("2", None),
        ]:
            with PepSession(host, port, timeout=5) as session:
                server_side, _ = listener.accept()
                with server_side:
                    sync = Message(MessageKind.SYNC, {"doc": "d", "version": version})
                    ack = Message(MessageKind.ACK, {})
                    server_side.sendall(encode_message(sync) + encode_message(ack))
                    if error is None:
                        session.report(0, 1, 1)
                        assert session.synced_version == 2
                        continue
                    with pytest.raises(ProtocolError) as info:
                        session.report(0, 1, 1)
                    assert str(info.value) == error


# -- repository ----------------------------------------------------------------


@pytest.fixture()
def campus_doc():
    return parse(FIXTURE.read_text())


def test_repo_round_trip(tmp_path, campus_doc):
    repo = str(tmp_path)
    assert repo_log(repo) == []
    entry = repo_commit(repo, campus_doc)
    assert (entry.version, entry.path) == (1, "v0001.pbm")
    assert entry.checksum == checksum_hex(serialize(campus_doc).encode())
    assert repo_load(repo, 1) == campus_doc

    again = repo_commit(repo, campus_doc)
    assert (again.version, again.path) == (2, "v0002.pbm")
    assert again.checksum == entry.checksum
    assert [e.version for e in repo_log(repo)] == [1, 2]

    manifest = (tmp_path / MANIFEST_NAME).read_text().splitlines()
    assert manifest[0] == f"1\t{entry.created}\t{entry.checksum}\tv0001.pbm"


def test_repo_corruption_detected(tmp_path, campus_doc):
    repo = str(tmp_path)
    repo_commit(repo, campus_doc)
    stored = tmp_path / "v0001.pbm"
    data = bytearray(stored.read_bytes())
    data[10] ^= 0xFF
    stored.write_bytes(bytes(data))
    with pytest.raises(RepoError, match="checksum mismatch for v0001.pbm"):
        repo_load(repo, 1)


def test_repo_error_paths(tmp_path, campus_doc):
    repo = str(tmp_path)
    with pytest.raises(RepoError, match="not a directory"):
        repo_log(str(tmp_path / "missing"))
    with pytest.raises(RepoError, match="unknown version 7"):
        repo_load(repo, 7)

    repo_commit(repo, campus_doc)
    (tmp_path / "v0002.pbm").write_text("squatter")
    with pytest.raises(RepoError, match="refusing to overwrite v0002.pbm"):
        repo_commit(repo, campus_doc)


def test_repo_commit_rejects_bad_read_back(tmp_path, campus_doc, monkeypatch):
    repo = str(tmp_path)
    repo_commit(repo, campus_doc)

    def flipped_open(path, mode="r", *args, **kwargs):
        if mode != "rb":
            return builtins.open(path, mode, *args, **kwargs)
        with builtins.open(path, mode) as handle:
            data = bytearray(handle.read())
        data[10] ^= 0xFF
        return io.BytesIO(bytes(data))

    monkeypatch.setattr(netrepo, "open", flipped_open, raising=False)
    with pytest.raises(RepoError, match="read-back of v0002.pbm does not match"):
        repo_commit(repo, campus_doc)
    monkeypatch.undo()
    assert [e.version for e in repo_log(repo)] == [1]
    assert len((tmp_path / MANIFEST_NAME).read_text().splitlines()) == 1


def test_manifest_validation(tmp_path):
    manifest = tmp_path / MANIFEST_NAME
    for text, message in [
        ("1\t0\tcrc32:deadbeef\tv0001.pbm\n3\t0\tcrc32:deadbeef\tv0003.pbm\n",
         "line 2: version 3, expected 2"),
        ("1\t0\tcrc32:deadbeef\n", "line 1: expected 4 fields"),
        ("one\t0\tcrc32:deadbeef\tv0001.pbm\n", "line 1: bad numbers"),
        # numbers are an optional '-' and ASCII digits, as int() alone is not
        ("+1\t0\tcrc32:deadbeef\tv0001.pbm\n", "line 1: bad numbers"),
        (" 1\t+5\tcrc32:deadbeef\tv0001.pbm\n", "line 1: bad numbers"),
        ("\u0661\t0\tcrc32:deadbeef\tv0001.pbm\n", "line 1: bad numbers"),
        ("1\t1_0\tcrc32:deadbeef\tv0001.pbm\n", "line 1: bad numbers"),
        # a version names its own file, never another path
        ("1\t0\tcrc32:deadbeef\tv0002.pbm\n",
         "line 1: path 'v0002.pbm', expected 'v0001.pbm'"),
        ("1\t0\tcrc32:deadbeef\tv0001.pbm\n2\t0\tcrc32:deadbeef\t/etc/hostname\n",
         "line 2: path '/etc/hostname', expected 'v0002.pbm'"),
        ("1\t0\tcrc32:deadbeef\t../v0001.pbm\n",
         "line 1: path '../v0001.pbm', expected 'v0001.pbm'"),
        # a checksum is crc32: and 8 lowercase hex digits, or 16 (legacy FNV-1a)
        ("1\t0\tdeadbeef\tv0001.pbm\n", "line 1: bad checksum"),
        ("1\t0\tcrc32:DEADBEEF\tv0001.pbm\n", "line 1: bad checksum"),
        ("1\t0\tcrc32:deadbee\tv0001.pbm\n", "line 1: bad checksum"),
        ("1\t0\tcrc32:deadbeef0\tv0001.pbm\n", "line 1: bad checksum"),
        ("1\t0\tcrc32:deadbeef\tv0001.pbm\n2\t0\t85944171f73967e\tv0002.pbm\n",
         "line 2: bad checksum"),
        ("1\t0\t85944171F73967E8\tv0001.pbm\n", "line 1: bad checksum"),
        ("1\t0\tsha256:" + "0" * 64 + "\tv0001.pbm\n", "line 1: bad checksum"),
        ("1\t0\t\tv0001.pbm\n", "line 1: bad checksum"),
    ]:
        manifest.write_text(text, encoding="utf-8")
        with pytest.raises(RepoError, match=re.escape(message)):
            repo_log(str(tmp_path))


def test_manifest_that_is_not_utf8_is_a_repo_error(tmp_path, campus_doc):
    repo = str(tmp_path)
    repo_commit(repo, campus_doc)
    manifest = tmp_path / MANIFEST_NAME
    with open(manifest, "ab") as handle:
        handle.write(b"2\t0\tcrc32:deadbeef\tv0002\xff.pbm\n")
    with pytest.raises(RepoError, match=r"^manifest line 2: not UTF-8$"):
        repo_log(repo)


def test_stored_file_that_is_not_utf8_is_a_repo_error(tmp_path, campus_doc):
    repo = str(tmp_path)
    repo_commit(repo, campus_doc)
    data = b'meta note "\xff"\n'
    (tmp_path / "v0001.pbm").write_bytes(data)
    first = (tmp_path / MANIFEST_NAME).read_text().split("\t")
    first[2] = checksum_hex(data)  # the checksum matches: only the decode fails
    (tmp_path / MANIFEST_NAME).write_text("\t".join(first))
    with pytest.raises(RepoError, match=r"^cannot decode v0001.pbm$"):
        repo_load(repo, 1)


def test_legacy_fnv_versions_still_load(tmp_path, campus_doc):
    # a repository whose manifest holds 16-hex FNV-1a entries, as earlier
    # releases wrote them, takes new crc32: versions on top
    repo = str(tmp_path)
    data = serialize(campus_doc).encode("utf-8")
    (tmp_path / "v0001.pbm").write_bytes(data)
    (tmp_path / MANIFEST_NAME).write_text(
        f"1\t1786747236\t{fnv1a64(data):016x}\tv0001.pbm\n", encoding="utf-8"
    )
    compiled = _compiled(campus_doc)
    entry = repo_commit(repo, compiled)
    assert re.fullmatch(r"crc32:[0-9a-f]{8}", entry.checksum)
    assert [e.checksum for e in repo_log(repo)] == [f"{fnv1a64(data):016x}", entry.checksum]
    assert repo_load(repo, 1) == campus_doc
    assert repo_load(repo, 2) == compiled
    (tmp_path / "v0001.pbm").write_bytes(data.replace(b"pbm v1", b"pbm v2"))
    with pytest.raises(RepoError, match="checksum mismatch for v0001.pbm"):
        repo_load(repo, 1)


# -- live service ----------------------------------------------------------------


def _compiled(campus_doc):
    [strategy] = enumerate_strategies(campus_doc.graph, "G1-1")
    rules = compile_strategy(campus_doc, strategy)
    return dataclasses.replace(campus_doc, rules=tuple(rules))


def _voip_flow():
    return FlowDescriptor(
        IPv4Address("10.1.3.1"), IPv4Address("198.18.0.9"), "udp", 5060, 399600, 64
    )


def test_server_requires_a_version(tmp_path):
    with pytest.raises(RepoError, match="has no versions"):
        PdpServer(str(tmp_path)).start()


def test_request_decision_matches_local_decide(tmp_path, campus_doc):
    compiled = _compiled(campus_doc)
    repo_commit(str(tmp_path), compiled)
    with PdpServer(str(tmp_path)) as server:
        host, port = server.address
        with PepSession(host, port) as session:
            flow = _voip_flow()
            decision = session.request(flow)
            local = decide(compiled.rules, flow, compiled.catalogs)
            assert decision == local
            assert session.last_dec_payload == encode_payload(decision_fields(local))
            assert decision.matched == ("P4",)
            assert decision.effective_min_kbps == 64

            session.report(399600, 2000, 364)  # RPT answered with ACK
        stopping = time.perf_counter()
    assert time.perf_counter() - stopping < 0.1  # stop() wakes the blocked accept()


def test_two_concurrent_sessions(tmp_path, campus_doc):
    compiled = _compiled(campus_doc)
    repo_commit(str(tmp_path), compiled)
    with PdpServer(str(tmp_path)) as server:
        host, port = server.address
        with PepSession(host, port) as one, PepSession(host, port) as two:
            p2p = FlowDescriptor(
                IPv4Address("10.1.20.7"), IPv4Address("198.18.0.9"), "tcp", 6881,
                399600, 2000,
            )
            first = one.request(_voip_flow())
            second = two.request(p2p)
            assert first.admission is Admission.ALLOW
            assert second.admission is Admission.DENY
            assert one.request(_voip_flow()) == first


def test_sync_pushed_on_new_version(tmp_path, campus_doc):
    repo = str(tmp_path)
    repo_commit(repo, campus_doc)  # v1: no rules
    compiled = _compiled(campus_doc)
    with PdpServer(repo, poll_interval=0.05) as server:
        host, port = server.address
        with PepSession(host, port) as session:
            before = session.request(_voip_flow())
            assert before.matched == ()

            repo_commit(repo, compiled)  # v2: sixteen rules
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                decision = session.request(_voip_flow())
                if decision.matched == ("P4",):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("server never swapped to version 2")
            assert session.synced_version == 2
            assert session.synced_text == serialize(compiled)
            assert session.synced_text == (tmp_path / "v0002.pbm").read_bytes().decode("utf-8")


def _request_frame() -> bytes:
    return encode_message(Message(MessageKind.REQUEST, flow_fields(_voip_flow())))


def _wait_for_version(server, version, deadline=None):
    deadline = deadline or time.monotonic() + 5.0
    while server._snapshot.version < version:
        if time.monotonic() > deadline:
            pytest.fail(f"no version {version}: the server is at {server._snapshot.version}")
        time.sleep(0.001)


def test_first_reply_carries_the_current_sync(tmp_path, campus_doc):
    repo_commit(str(tmp_path), campus_doc)
    with PdpServer(str(tmp_path)) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(_request_frame())
            sync, reply = read_message(sock), read_message(sock)
            assert sync.kind is MessageKind.SYNC
            stored = (tmp_path / "v0001.pbm").read_bytes().decode("utf-8")
            assert sync.fields == {"doc": stored, "version": "1"}
            assert reply.kind is MessageKind.DECISION
            sock.sendall(_request_frame())  # the client knows version 1 now
            assert read_message(sock).kind is MessageKind.DECISION


def test_commits_between_requests_give_one_sync(tmp_path, campus_doc):
    repo = str(tmp_path)
    repo_commit(repo, campus_doc)  # v1: no rules
    with PdpServer(repo, poll_interval=0.02) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(_request_frame())
            assert [read_message(sock).kind for _ in range(2)] == [
                MessageKind.SYNC, MessageKind.DECISION,
            ]
            repo_commit(repo, campus_doc)
            _wait_for_version(server, 2)
            repo_commit(repo, _compiled(campus_doc))  # v3: sixteen rules
            _wait_for_version(server, 3)
            sock.sendall(_request_frame())
            sync, reply = read_message(sock), read_message(sock)
            assert (sync.kind, sync.fields["version"]) == (MessageKind.SYNC, "3")
            assert reply.kind is MessageKind.DECISION
            assert decision_from_fields(reply.fields).matched == ("P4",)
            sock.sendall(_request_frame())
            assert read_message(sock).kind is MessageKind.DECISION


@pytest.fixture()
def padded(campus_doc):
    """The campus document padded to about 400 kB, so its SYNC fills buffers fast."""
    return dataclasses.replace(campus_doc, meta={**campus_doc.meta, "pad": "x" * 400_000})


def test_idle_client_does_not_hold_back_new_versions(tmp_path, padded):
    repo = str(tmp_path)
    repo_commit(repo, padded)
    with PdpServer(repo, poll_interval=0.002) as server, socket.socket() as idle:
        idle.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        idle.connect(server.address)  # and never reads
        deadline = time.monotonic() + 5.0
        while not server._clients:
            assert time.monotonic() < deadline, "the server never took the connection"
            time.sleep(0.005)
        for version in range(2, 22):
            repo_commit(repo, padded)
            _wait_for_version(server, version, deadline)
        idle.setblocking(False)
        with pytest.raises(BlockingIOError):
            idle.recv(1)  # a client that sends nothing receives nothing


def test_no_decision_from_a_version_before_its_sync(tmp_path, campus_doc, monkeypatch):
    repo = str(tmp_path)
    repo_commit(repo, campus_doc)  # v1: no rules
    building, release = threading.Event(), threading.Event()
    encode = netrepo.encode_message

    def held(message):
        # hold version 2's SYNC frame until the test lets it go
        if message.kind is MessageKind.SYNC and message.fields["version"] == "2":
            building.set()
            release.wait(5.0)
        return encode(message)

    with PdpServer(repo, poll_interval=0.02) as server, PepSession(*server.address) as session:
        try:
            assert session.request(_voip_flow()).matched == ()
            monkeypatch.setattr(netrepo, "encode_message", held)
            repo_commit(repo, _compiled(campus_doc))  # v2: sixteen rules
            assert building.wait(5.0), "the server never built version 2's SYNC"
            decision = session.request(_voip_flow())
            # every decision comes from the version of the last SYNC received
            assert session.synced_version == (2 if decision.matched == ("P4",) else 1)
        finally:
            release.set()
        deadline = time.monotonic() + 5.0
        while session.synced_version != 2:
            assert time.monotonic() < deadline, "version 2 was never announced"
            time.sleep(0.02)
            decision = session.request(_voip_flow())
            assert session.synced_version == (2 if decision.matched == ("P4",) else 1)


def test_stop_returns_while_a_client_never_reads(tmp_path, padded):
    repo = str(tmp_path)
    repo_commit(repo, padded)
    with PdpServer(repo, poll_interval=0.002) as server, socket.socket() as writer:
        writer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        writer.connect(server.address)
        writer.settimeout(0.1)
        deadline = time.monotonic() + 4.0
        for version in range(2, 14):
            # about 5 MB of SYNC frames, one ahead of each reply, block the
            # serving thread in its write
            repo_commit(repo, padded)
            _wait_for_version(server, version, deadline)
            writer.sendall(_request_frame())
        with pytest.raises(socket.timeout):
            while time.monotonic() < deadline:
                writer.sendall(_request_frame() * 64)  # until the server's buffer is full
        stopping = time.perf_counter()
        server.stop()
        assert time.perf_counter() - stopping < 0.5


def test_request_beyond_datetime_range_answered(tmp_path, campus_doc):
    compiled = _compiled(campus_doc)
    repo_commit(str(tmp_path), compiled)
    flow = dataclasses.replace(_voip_flow(), timestamp=10**20)
    with PdpServer(str(tmp_path)) as server:
        host, port = server.address
        with PepSession(host, port) as session:
            decision = session.request(flow)
            assert decision == decide(compiled.rules, flow, compiled.catalogs)
            assert decision.matched == ("P4",)


def test_server_compiles_once_per_version(tmp_path, campus_doc, monkeypatch):
    repo = str(tmp_path)
    repo_commit(repo, campus_doc)  # v1: no rules
    calls = []
    compile_policy = netrepo.compile_policy
    monkeypatch.setattr(
        netrepo, "compile_policy", lambda *args: calls.append(args) or compile_policy(*args)
    )
    with PdpServer(repo, poll_interval=0.05) as server:
        host, port = server.address
        with PepSession(host, port) as session:
            for _ in range(5):
                assert session.request(_voip_flow()).matched == ()
            assert len(calls) == 1

            repo_commit(repo, _compiled(campus_doc))  # v2: sixteen rules
            deadline = time.monotonic() + 5.0
            while session.request(_voip_flow()).matched != ("P4",):
                assert time.monotonic() < deadline, "server never swapped to version 2"
                time.sleep(0.05)
            for _ in range(5):
                assert session.request(_voip_flow()).matched == ("P4",)
    assert len(calls) == 2


def test_internal_error_answered_with_error_frame(tmp_path, campus_doc, monkeypatch, caplog):
    repo_commit(str(tmp_path), _compiled(campus_doc))

    def fail(flow):
        raise RuntimeError("decide failed")

    with caplog.at_level(logging.ERROR, logger="pbmkit.netrepo"):
        with PdpServer(str(tmp_path)) as server:
            monkeypatch.setattr(server._snapshot.policy, "decide", fail)
            host, port = server.address
            with PepSession(host, port) as session:
                with pytest.raises(ProtocolError, match=r"^internal error: RuntimeError$"):
                    session.request(_voip_flow())
    [record] = caplog.records
    assert record.exc_info is not None and record.exc_info[0] is RuntimeError


def test_watcher_logs_a_failed_load_once(tmp_path, campus_doc, caplog):
    repo = str(tmp_path)
    repo_commit(repo, campus_doc)  # v1: no rules
    repo_commit(repo, _compiled(campus_doc))  # v2: sixteen rules, corrupted below
    stored = tmp_path / "v0002.pbm"
    data = bytearray(stored.read_bytes())
    data[10] ^= 0xFF
    stored.write_bytes(bytes(data))
    manifest = tmp_path / MANIFEST_NAME
    first, second = manifest.read_text().splitlines(keepends=True)
    manifest.write_text(first)  # hide v2 until the server runs on v1
    with caplog.at_level(logging.WARNING, logger="pbmkit.netrepo"):
        with PdpServer(repo, poll_interval=0.02) as server:
            with open(manifest, "a") as handle:
                handle.write(second)
            deadline = time.monotonic() + 5.0
            while not caplog.records and time.monotonic() < deadline:
                time.sleep(0.02)
            time.sleep(0.3)  # about fifteen more polls of the corrupt v2
            host, port = server.address
            with PepSession(host, port) as session:
                assert session.request(_voip_flow()).matched == ()  # still v1
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "cannot load version 2, still serving version 1" in record.getMessage()
    assert "checksum mismatch for v0002.pbm" in record.getMessage()


def test_watcher_outlives_a_manifest_that_is_not_utf8(tmp_path, campus_doc, monkeypatch):
    repo = str(tmp_path)
    repo_commit(repo, campus_doc)  # v1: no rules
    manifest = tmp_path / MANIFEST_NAME
    good = manifest.read_bytes()
    failures = threading.Semaphore(0)
    log = netrepo.repo_log

    def watched(repo_dir):
        try:
            return log(repo_dir)
        except Exception:
            failures.release()
            raise

    monkeypatch.setattr(netrepo, "repo_log", watched)
    with PdpServer(repo, poll_interval=0.005) as server:
        manifest.write_bytes(good + b"\xff\n")
        for _ in range(3):  # the watcher polls the broken manifest, and again
            assert failures.acquire(timeout=5.0), "the watcher never read the manifest"
        manifest.write_bytes(good)
        repo_commit(repo, _compiled(campus_doc))  # v2: sixteen rules
        _wait_for_version(server, 2, time.monotonic() + 2.0)


def test_malformed_request_answered_with_error(tmp_path, campus_doc):
    repo_commit(str(tmp_path), campus_doc)
    with PdpServer(str(tmp_path)) as server:
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=5)
        try:
            bad = {
                "demand": "5", "dst": "10.0.0.2", "port": "abc",
                "proto": "tcp", "src": "10.0.0.1", "ts": "0",
            }
            sock.sendall(encode_message(Message(MessageKind.REQUEST, bad)))
            reply = read_message(sock)
            assert reply is not None and reply.kind is MessageKind.ERROR
            assert "bad flow payload" in reply.fields["reason"]
            assert read_message(sock) is None  # server closed the connection
        finally:
            sock.close()


def test_unexpected_kind_answered_with_error(tmp_path, campus_doc):
    repo_commit(str(tmp_path), campus_doc)
    with PdpServer(str(tmp_path)) as server:
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=5)
        try:
            sock.sendall(encode_message(Message(MessageKind.DECISION, {})))
            reply = read_message(sock)
            assert reply is not None and reply.kind is MessageKind.ERROR
            assert "unexpected DECISION frame" in reply.fields["reason"]
        finally:
            sock.close()
