"""Versioned policy repository and the decision-point wire protocol.

The repository is a directory holding canonical documents as vNNNN.pbm
files plus a `manifest` whose tab-separated lines record version number,
creation time, FNV-1a checksum, and filename.  Versions only ever grow
and committed files are never rewritten; every load verifies the
checksum before parsing.

The wire protocol frames text payloads over TCP: magic "PB", version
byte 0x01, a kind byte, a big-endian 32-bit payload length, then the
payload as sorted key=value lines.  A value escapes backslash as \\\\
and newline as \\n; decoding resolves them with one regular-expression
substitution and rejects any other escape, leftmost first.  PdpServer
answers REQ frames with DEC decisions and acknowledges RPT usage reports;
PepSession is the matching client.  A SYNC frame carries a version's
stored (canonical) text, as verified against its checksum.  Each
connection's serving thread is the only writer to its socket: a reply
from a version the client has not been told about goes out in one write
behind that version's SYNC, so every DEC comes from the version of the
last SYNC the client received.  A DEC frame carries the whole Decision:
its bandwidth bounds, one per matched rule, are the only limits sent,
and the client's Decision derives its effective limits from them, so it
allocates exactly as local replay does.
"""
from __future__ import annotations

import os
import re
import socket
import struct
import threading
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

from .dsl import Document, parse, serialize
from .model import Admission, Bandwidth, FlowDescriptor, Scope, flow_from_text, read_int
from .pdp import CompiledPolicy, Decision, DecisionFlag, RuleBound, compile_policy


class ProtocolError(Exception):
    """A wire frame or payload violates the protocol."""


class RepoError(Exception):
    """The repository directory or manifest is unusable."""


# -- checksums -----------------------------------------------------------------

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_FNV_MASK = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & _FNV_MASK
    return value


def checksum_hex(data: bytes) -> str:
    return format(fnv1a64(data), "016x")


# -- framing -------------------------------------------------------------------

MAGIC = b"PB"
PROTOCOL_VERSION = 1
MAX_PAYLOAD = 1 << 24
_HEADER = struct.Struct(">2sBBI")


class MessageKind(IntEnum):
    REQUEST = 0x01
    DECISION = 0x02
    REPORT = 0x03
    SYNC = 0x04
    ACK = 0x05
    ERROR = 0x7F


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    fields: dict[str, str]


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


_ESCAPE = re.compile(r"\\(.?)")
_ESCAPED = {"\\": "\\", "n": "\n"}


def _resolve(escape: re.Match) -> str:
    char = escape.group(1)
    if char in _ESCAPED:
        return _ESCAPED[char]
    if not char:
        raise ProtocolError("dangling escape in payload value")
    raise ProtocolError(f"bad escape \\{char} in payload value")


def _unescape(value: str) -> str:
    return _ESCAPE.sub(_resolve, value) if "\\" in value else value


def encode_payload(fields: dict[str, str]) -> bytes:
    lines = []
    for key in sorted(fields):
        if not key or "=" in key or "\n" in key or "\\" in key:
            raise ProtocolError(f"bad payload key {key!r}")
        lines.append(f"{key}={_escape(fields[key])}\n")
    return "".join(lines).encode("utf-8")


def parse_payload(data: bytes) -> dict[str, str]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"payload is not UTF-8: {exc}") from None
    fields: dict[str, str] = {}
    if not text:
        return fields
    if not text.endswith("\n"):
        raise ProtocolError("payload does not end with a newline")
    for line in text[:-1].split("\n"):
        key, sep, raw = line.partition("=")
        if not sep or not key:
            raise ProtocolError(f"payload line without key=value: {line!r}")
        if key in fields:
            raise ProtocolError(f"duplicate payload key {key!r}")
        fields[key] = _unescape(raw)
    return fields


def encode_message(message: Message) -> bytes:
    payload = encode_payload(message.fields)
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError("payload exceeds the frame limit")
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, message.kind.value, len(payload)) + payload


def _parse_header(header: bytes) -> tuple[MessageKind, int]:
    magic, version, kind_byte, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    try:
        kind = MessageKind(kind_byte)
    except ValueError:
        raise ProtocolError(f"unknown message kind 0x{kind_byte:02x}") from None
    if length > MAX_PAYLOAD:
        raise ProtocolError("frame length exceeds the limit")
    return kind, length


def decode_message(data: bytes) -> Message:
    if len(data) < _HEADER.size:
        raise ProtocolError("truncated frame header")
    kind, length = _parse_header(data[: _HEADER.size])
    payload = data[_HEADER.size:]
    if len(payload) < length:
        raise ProtocolError("truncated frame payload")
    if len(payload) > length:
        raise ProtocolError("trailing bytes after frame")
    return Message(kind, parse_payload(payload))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly count bytes; None on EOF before the first byte."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ProtocolError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[MessageKind, bytes] | None:
    """Read one frame; returns (kind, raw payload) or None on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    kind, length = _parse_header(header)
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return kind, payload


def read_message(sock: socket.socket) -> Message | None:
    frame = read_frame(sock)
    if frame is None:
        return None
    kind, payload = frame
    return Message(kind, parse_payload(payload))


# -- field codecs --------------------------------------------------------------

_FLAG_BY_NAME = {flag.value: flag for flag in DecisionFlag}
_SCOPE_TAGS = {Scope.PER_CONNECTION: "conn", Scope.AGGREGATE: "agg"}
_SCOPE_BY_TAG = {tag: scope for scope, tag in _SCOPE_TAGS.items()}


def _optional(value: int | None) -> str:
    return "-" if value is None else str(value)


def _bound_text(bound: RuleBound) -> str:
    bw = bound.bandwidth
    return ":".join(
        (bound.rule_id, _SCOPE_TAGS[bw.scope], _optional(bw.min_kbps),
         _optional(bw.max_kbps), _optional(bound.priority))
    )


def _bound_from_text(text: str) -> RuleBound:
    parts = text.split(":")
    if len(parts) != 5:
        raise ValueError(f"bound {text!r} needs 5 parts, got {len(parts)}")
    rule_id, scope, low, high, priority = parts
    low_kbps, high_kbps, prio = (None if v == "-" else read_int(v) for v in (low, high, priority))
    if prio is not None and not 1 <= prio <= 9:
        raise ValueError(f"bound priority must be in 1..9, got {prio}")
    return RuleBound(rule_id, Bandwidth(low_kbps, high_kbps, _SCOPE_BY_TAG[scope]), prio)


def decision_fields(decision: Decision) -> dict[str, str]:
    return {
        "admission": decision.admission.value,
        "bounds": ",".join(_bound_text(b) for b in decision.bounds) or "-",
        "flags": ",".join(sorted(f.value for f in decision.flags)) or "-",
        "matched": ",".join(decision.matched) or "-",
        "priority": str(decision.priority),
    }


def _require(fields: dict[str, str], keys: Sequence[str]) -> list[str]:
    missing = [key for key in keys if key not in fields]
    if missing:
        raise ProtocolError(f"payload lacks fields: {', '.join(missing)}")
    return [fields[key] for key in keys]


def decision_from_fields(fields: dict[str, str]) -> Decision:
    admission, bounds, flags, matched, priority = _require(
        fields, ("admission", "bounds", "flags", "matched", "priority")
    )
    try:
        flag_set = frozenset(
            _FLAG_BY_NAME[name] for name in flags.split(",") if name != "-"
        ) if flags != "-" else frozenset()
        # a local decision lists a rule once and gives at most one bound,
        # and only to a matched rule
        decoded: dict[str, RuleBound] = {}
        for entry in bounds.split(",") if bounds != "-" else ():
            bound = _bound_from_text(entry)
            earlier = decoded.setdefault(bound.rule_id, bound)
            if earlier is not bound:
                raise ValueError(
                    f"repeated bound {entry!r}" if earlier == bound
                    else f"two bounds for rule {bound.rule_id!r}"
                )
        rule_ids = tuple(matched.split(",")) if matched != "-" else ()
        seen: set[str] = set()
        for rule_id in rule_ids:
            if rule_id in seen:
                raise ValueError(f"matched repeats rule {rule_id!r}")
            seen.add(rule_id)
        decision = Decision(
            matched=rule_ids,
            admission=Admission(admission),
            priority=read_int(priority),
            flags=flag_set,
            bounds=tuple(decoded.values()),
        )
        for rule_id in decoded:
            if rule_id not in seen:
                raise ValueError(f"bound for unmatched rule {rule_id!r}")
        return decision
    except (KeyError, ValueError) as exc:
        raise ProtocolError(f"bad decision payload: {exc}") from None


def flow_fields(flow: FlowDescriptor) -> dict[str, str]:
    return {
        "demand": str(flow.demand_kbps),
        "dst": str(flow.dst),
        "port": str(flow.port),
        "proto": flow.protocol,
        "src": str(flow.src),
        "ts": str(flow.timestamp),
    }


def flow_from_fields(fields: dict[str, str]) -> FlowDescriptor:
    demand, dst, port, proto, src, ts = _require(
        fields, ("demand", "dst", "port", "proto", "src", "ts")
    )
    try:
        return flow_from_text(ts, src, dst, proto, port, demand)
    except ValueError as exc:
        raise ProtocolError(f"bad flow payload: {exc}") from None


# -- repository ----------------------------------------------------------------

MANIFEST_NAME = "manifest"


@dataclass(frozen=True)
class RepoVersion:
    version: int
    created: int
    checksum: str
    path: str


def _manifest_path(repo_dir: str) -> str:
    return os.path.join(repo_dir, MANIFEST_NAME)


def _version_file(version: int) -> str:
    return f"v{version:04d}.pbm"


def repo_log(repo_dir: str) -> list[RepoVersion]:
    """All committed versions in order; empty for a fresh directory."""
    path = _manifest_path(repo_dir)
    if not os.path.exists(path):
        if not os.path.isdir(repo_dir):
            raise RepoError(f"not a directory: {repo_dir}")
        return []
    entries: list[RepoVersion] = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise RepoError(f"manifest line {number}: expected 4 fields")
            try:
                entry = RepoVersion(read_int(parts[0]), read_int(parts[1]), parts[2], parts[3])
            except ValueError:
                raise RepoError(f"manifest line {number}: bad numbers") from None
            expected = len(entries) + 1
            if entry.version != expected:
                raise RepoError(
                    f"manifest line {number}: version {entry.version}, expected {expected}"
                )
            if entry.path != _version_file(expected):
                raise RepoError(
                    f"manifest line {number}: path {entry.path!r},"
                    f" expected {_version_file(expected)!r}"
                )
            entries.append(entry)
    return entries


def repo_commit(repo_dir: str, doc: Document) -> RepoVersion:
    """Store the canonical form of doc as the next version."""
    entries = repo_log(repo_dir)
    version = len(entries) + 1
    filename = _version_file(version)
    target = os.path.join(repo_dir, filename)
    if os.path.exists(target):
        raise RepoError(f"refusing to overwrite {filename}")
    data = serialize(doc).encode("utf-8")
    with open(target, "wb") as handle:
        handle.write(data)
    with open(target, "rb") as handle:
        stored = handle.read()
    if stored != data:
        raise RepoError(f"read-back of {filename} does not match what was written")
    entry = RepoVersion(version, int(time.time()), checksum_hex(data), filename)
    with open(_manifest_path(repo_dir), "a", encoding="utf-8") as handle:
        handle.write(f"{entry.version}\t{entry.created}\t{entry.checksum}\t{entry.path}\n")
    return entry


def _read_verified(repo_dir: str, version: int) -> str:
    """The stored text of one version, after its checksum is verified."""
    entries = repo_log(repo_dir)
    matches = [entry for entry in entries if entry.version == version]
    if not matches:
        raise RepoError(f"unknown version {version}")
    entry = matches[0]
    path = os.path.join(repo_dir, entry.path)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise RepoError(f"cannot read {entry.path}: {exc}") from None
    if checksum_hex(data) != entry.checksum:
        raise RepoError(f"checksum mismatch for {entry.path}")
    return data.decode("utf-8")


def repo_load(repo_dir: str, version: int) -> Document:
    """Load one version, verifying its checksum before parsing."""
    return parse(_read_verified(repo_dir, version))


# -- decision service ----------------------------------------------------------


@dataclass(frozen=True)
class _Snapshot:
    version: int
    policy: CompiledPolicy
    sync: bytes  # the encoded SYNC frame that announces this version


class PdpServer:
    """Serves decisions over TCP from the newest repository version.

    The active rule snapshot is immutable; a background watcher polls the
    manifest and swaps in new versions atomically, and never writes to a
    client.  Each connection has one thread, the only writer to its
    socket.  It reads the snapshot once per frame and answers from it;
    when that snapshot is not the one it last announced, the reply goes
    out behind the snapshot's SYNC in the same write.  So a connection's
    first reply follows the current SYNC, several versions between two
    frames give one SYNC for the newest, a client that sends nothing gets
    nothing, and one that never reads holds up only its own thread.  A
    version that fails to load keeps the current snapshot in service and
    is retried on every poll, with one warning per failing version on
    this module's logger.
    """

    def __init__(
        self,
        repo_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.2,
    ):
        self.repo_dir = repo_dir
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self.address: tuple[str, int] | None = None
        self._snapshot: _Snapshot | None = None
        self._listener: socket.socket | None = None
        self._closing = threading.Event()
        self._clients: set[socket.socket] = set()
        self._clients_lock = threading.Lock()
        self._threads: list[threading.Thread] = []

    def _load_snapshot(self, version: int) -> _Snapshot:
        # stored text is canonical already: serialize is a fixpoint
        text = _read_verified(self.repo_dir, version)
        doc = parse(text)
        sync = encode_message(Message(MessageKind.SYNC, {"doc": text, "version": str(version)}))
        return _Snapshot(version, compile_policy(doc.rules, doc.catalogs), sync)

    def start(self) -> "PdpServer":
        entries = repo_log(self.repo_dir)
        if not entries:
            raise RepoError(f"repository {self.repo_dir} has no versions")
        self._snapshot = self._load_snapshot(entries[-1].version)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        self._listener = listener
        self.address = listener.getsockname()
        for target in (self._accept_loop, self._watch_loop):
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self):
        self._closing.set()
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._clients_lock:
            clients = list(self._clients)
        for sock in clients:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "PdpServer":
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    def serve_forever(self):
        if self._listener is None:
            self.start()
        try:
            while not self._closing.wait(0.5):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def _accept_loop(self):
        assert self._listener is not None
        while not self._closing.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve_client, args=(sock,), daemon=True)
            thread.start()

    def _watch_loop(self):
        failed_version = None  # newest version whose load failure was logged
        while not self._closing.wait(self.poll_interval):
            try:
                entries = repo_log(self.repo_dir)
            except RepoError:
                continue
            current = self._snapshot
            if not entries or current is None or entries[-1].version <= current.version:
                continue
            version = entries[-1].version
            try:
                snapshot = self._load_snapshot(version)
            except Exception as exc:
                # keep serving the current snapshot and retry on the next poll
                if version != failed_version:
                    failed_version = version
                    # imported here, not at the top: logging would add about a
                    # tenth to the time every pbmkit command spends importing
                    import logging

                    logging.getLogger(__name__).warning(
                        "cannot load version %d, still serving version %d: %s",
                        version, current.version, exc, exc_info=exc,
                    )
                continue
            self._snapshot = snapshot

    def _serve_client(self, sock: socket.socket):
        with self._clients_lock:
            self._clients.add(sock)
        sent = None  # the snapshot this client was last told about
        try:
            while not self._closing.is_set():
                message = read_message(sock)
                if message is None:
                    return
                if message.kind is MessageKind.ACK:
                    continue  # enforcement point confirming a SYNC
                snapshot = self._snapshot
                if message.kind is MessageKind.REQUEST:
                    decision = snapshot.policy.decide(flow_from_fields(message.fields))
                    reply = encode_message(Message(MessageKind.DECISION, decision_fields(decision)))
                elif message.kind is MessageKind.REPORT:
                    reply = encode_message(Message(MessageKind.ACK, {}))
                else:
                    raise ProtocolError(f"unexpected {message.kind.name} frame")
                if snapshot is not sent:
                    reply = snapshot.sync + reply
                    sent = snapshot
                sock.sendall(reply)
        except ProtocolError as exc:
            _send_error(sock, str(exc))
        except OSError:
            pass
        except Exception as exc:
            # any other fault answering a frame still ends in an ERROR frame
            import logging  # imported here for the reason given in _watch_loop

            logging.getLogger(__name__).error(
                "internal error answering a client, closing the connection", exc_info=exc
            )
            _send_error(sock, f"internal error: {type(exc).__name__}")
        finally:
            with self._clients_lock:
                self._clients.discard(sock)
            try:
                sock.close()
            except OSError:
                pass


def _send_error(sock: socket.socket, reason: str) -> None:
    """Send an ERROR frame; the connection is closed next, so a failed send is moot."""
    try:
        sock.sendall(encode_message(Message(MessageKind.ERROR, {"reason": reason})))
    except OSError:
        pass


class PepSession:
    """Client side of the decision protocol.

    The socket is read only while a reply is awaited.  A SYNC that comes
    ahead of the reply is acknowledged transparently, and the newest
    synced version and document are kept on the session, so a decision
    always comes from synced_version.  last_dec_payload holds the raw
    payload bytes of the most recent DEC frame.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # the ACK of a SYNC and the next REQUEST are two small writes in a
        # row: Nagle's algorithm would hold the REQUEST for the delayed ACK
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.last_dec_payload: bytes | None = None
        self.synced_version: int | None = None
        self.synced_text: str | None = None

    def _await(self, want: MessageKind) -> bytes:
        while True:
            frame = read_frame(self._sock)
            if frame is None:
                raise ProtocolError("connection closed mid-exchange")
            kind, payload = frame
            if kind is MessageKind.SYNC:
                fields = parse_payload(payload)
                version, text = _require(fields, ("version", "doc"))
                try:
                    self.synced_version = read_int(version)
                except ValueError:
                    raise ProtocolError(f"bad sync version {version!r}") from None
                self.synced_text = text
                self._sock.sendall(encode_message(Message(MessageKind.ACK, {})))
                continue
            if kind is MessageKind.ERROR:
                fields = parse_payload(payload)
                raise ProtocolError(fields.get("reason", "remote error"))
            if kind is not want:
                raise ProtocolError(f"expected {want.name}, got {kind.name}")
            return payload

    def request(self, flow: FlowDescriptor) -> Decision:
        self._sock.sendall(encode_message(Message(MessageKind.REQUEST, flow_fields(flow))))
        payload = self._await(MessageKind.DECISION)
        self.last_dec_payload = payload
        return decision_from_fields(parse_payload(payload))

    def report(self, timestep: int, capacity_kbps: int, used_kbps: int):
        fields = {
            "capacity": str(capacity_kbps),
            "ts": str(timestep),
            "used": str(used_kbps),
        }
        self._sock.sendall(encode_message(Message(MessageKind.REPORT, fields)))
        self._await(MessageKind.ACK)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "PepSession":
        return self

    def __exit__(self, *exc_info):
        self.close()
