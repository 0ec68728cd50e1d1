"""Datagram wire format for the streaming service.

One UDP datagram carries exactly one frame. The hot-path frames (DATA,
ACK) are fixed-layout ``struct`` packs; the rare control frames (HELLO,
WELCOME, FIN_ACK, REJECT) carry a compact-JSON body so the handshake can
grow fields without a version bump.

Layout (network byte order)::

    header   !HBB   magic=0x5241 ("RA"), version, frame type   (4 bytes)
    HELLO    header + !I nonce + JSON options
    WELCOME  header + !I session_id + JSON session config
    DATA     header + !IIBBd session_id, seq, layer, active, send_ts
             + zero padding to the session's packet_size
    ACK      header + !IId session_id, acked_seq, echo_ts
    FIN      header + !I session_id
    FIN_ACK  header + !I session_id + JSON server-side session summary
    REJECT   header + JSON reason

DATA padding makes the on-wire size equal the model's nominal
``packet_size``, so loopback byte rates match what the adapter's math
assumes. ``send_ts`` is the sender's service-relative clock; the client
echoes it in ACKs (``echo_ts``) so the server derives RTT samples
without keeping per-packet state beyond its outstanding map.

Distributed-tracing context rides the JSON control frames, never the
hot path: a traced client puts ``{"trace": {"trace_id", "span_id"}}``
(see :data:`TRACE_KEY`) in its HELLO ``options``, the server adopts it
and echoes it in the WELCOME ``config``. DATA/ACK frames stay binary —
they correlate to the trace through ``session_id`` + ``seq``, which
both ends already carry. No version bump: untraced peers simply omit
the key.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Union

from repro.telemetry.tracing import TRACE_OPTION

MAGIC = 0x5241
VERSION = 1

#: JSON key under which HELLO options / WELCOME config carry the trace
#: context (shared with :mod:`repro.telemetry.tracing`).
TRACE_KEY = TRACE_OPTION

HELLO = 1
WELCOME = 2
DATA = 3
ACK = 4
FIN = 5
FIN_ACK = 6
REJECT = 7

_HEADER = struct.Struct("!HBB")
_DATA = struct.Struct("!IIBBd")
_ACK = struct.Struct("!IId")
_SESSION = struct.Struct("!I")
#: A whole ACK frame in one pack (DATA's, padding included, is built
#: per frame size: see ``_data_pack``).
_ACK_FRAME = struct.Struct("!HBB" + _ACK.format[1:])

#: Bytes of a DATA frame that are header, not padding.
DATA_OVERHEAD = _HEADER.size + _DATA.size
#: Bytes of an ACK frame, which has no padding.
ACK_SIZE = _ACK_FRAME.size
#: Smallest packet_size the service accepts (room for the DATA header).
MIN_PACKET_SIZE = DATA_OVERHEAD

_JSON_SEPARATORS = (",", ":")


class ProtocolError(ValueError):
    """A datagram that is not a well-formed service frame."""


@dataclass(frozen=True)
class HelloFrame:
    nonce: int
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class WelcomeFrame:
    session_id: int
    config: dict = field(default_factory=dict)


class DataFrame(NamedTuple):
    # The hot-path frames are named tuples: immutable, and about a
    # third of a frozen dataclass's construction cost.
    session_id: int
    seq: int
    layer: int
    active: int
    send_ts: float
    size: int  # nominal on-wire size including padding


class AckFrame(NamedTuple):
    session_id: int
    acked_seq: int
    echo_ts: float


@dataclass(frozen=True)
class FinFrame:
    session_id: int


@dataclass(frozen=True)
class FinAckFrame:
    session_id: int
    summary: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RejectFrame:
    reason: str


Frame = Union[
    HelloFrame, WelcomeFrame, DataFrame, AckFrame,
    FinFrame, FinAckFrame, RejectFrame,
]


def _json_body(payload: dict) -> bytes:
    # Control frames only (HELLO/WELCOME/FIN): DATA and ACK use struct.
    return json.dumps(
        payload, sort_keys=True, separators=_JSON_SEPARATORS).encode()


def _parse_json(body: bytes, what: str) -> dict:
    try:
        # Control frames only; DATA/ACK decode goes through struct.
        out = json.loads(body.decode())
    except (ValueError, RecursionError) as exc:
        # Bad UTF-8/JSON, a >4300-digit int (ValueError); deep nesting.
        raise ProtocolError(f"bad {what} body: {exc}") from exc
    if not isinstance(out, dict):
        raise ProtocolError(f"bad {what} body: expected object")
    return out


# ------------------------------------------------------------------ encode


def encode_hello(nonce: int, options: dict) -> bytes:
    return (_HEADER.pack(MAGIC, VERSION, HELLO)
            + _SESSION.pack(nonce) + _json_body(options))


def encode_welcome(session_id: int, config: dict) -> bytes:
    return (_HEADER.pack(MAGIC, VERSION, WELCOME)
            + _SESSION.pack(session_id) + _json_body(config))


#: ``Struct.pack`` of a whole DATA frame (zero padding included), by
#: frame size; a service uses one size, so this holds one or two.
_DATA_PACKS: dict[int, Callable[..., bytes]] = {}


def _data_pack(size: int) -> Callable[..., bytes]:
    if size < DATA_OVERHEAD:
        raise ProtocolError(
            f"DATA size {size} below frame overhead {DATA_OVERHEAD}")
    pack = _DATA_PACKS[size] = struct.Struct(
        f"!HBB{_DATA.format[1:]}{size - DATA_OVERHEAD}x").pack
    return pack


def encode_data(session_id: int, seq: int, layer: int, active: int,
                send_ts: float, size: int) -> bytes:
    pack = _DATA_PACKS.get(size) or _data_pack(size)
    return pack(MAGIC, VERSION, DATA, session_id, seq, layer, active,
                send_ts)


def encode_ack(session_id: int, acked_seq: int, echo_ts: float) -> bytes:
    return _ACK_FRAME.pack(MAGIC, VERSION, ACK, session_id, acked_seq,
                           echo_ts)


def encode_fin(session_id: int) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, FIN) + _SESSION.pack(session_id)


def encode_fin_ack(session_id: int, summary: dict) -> bytes:
    return (_HEADER.pack(MAGIC, VERSION, FIN_ACK)
            + _SESSION.pack(session_id) + _json_body(summary))


def encode_reject(reason: str) -> bytes:
    return (_HEADER.pack(MAGIC, VERSION, REJECT)
            + _json_body({"reason": reason}))


# ------------------------------------------------------------------ decode


def decode(datagram: bytes) -> Frame:
    """Parse one datagram; raises :class:`ProtocolError` when malformed."""
    if len(datagram) < _HEADER.size:
        raise ProtocolError(f"short frame ({len(datagram)} bytes)")
    magic, version, ftype = _HEADER.unpack_from(datagram)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04x}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    if ftype == DATA:
        size = len(datagram)
        if size < DATA_OVERHEAD:
            raise ProtocolError("truncated DATA frame")
        return DataFrame(*_DATA.unpack_from(datagram, _HEADER.size), size)
    if ftype == ACK:
        if len(datagram) != ACK_SIZE:
            raise ProtocolError("malformed ACK frame")
        return AckFrame(*_ACK.unpack_from(datagram, _HEADER.size))
    # Control frames only from here: their bodies are short.
    body = datagram[_HEADER.size:]
    if ftype == HELLO:
        if len(body) < _SESSION.size:
            raise ProtocolError("truncated HELLO frame")
        (nonce,) = _SESSION.unpack_from(body)
        return HelloFrame(nonce, _parse_json(body[_SESSION.size:], "HELLO"))
    if ftype == WELCOME:
        if len(body) < _SESSION.size:
            raise ProtocolError("truncated WELCOME frame")
        (session_id,) = _SESSION.unpack_from(body)
        return WelcomeFrame(
            session_id, _parse_json(body[_SESSION.size:], "WELCOME"))
    if ftype == FIN:
        if len(body) != _SESSION.size:
            raise ProtocolError("malformed FIN frame")
        (session_id,) = _SESSION.unpack(body)
        return FinFrame(session_id)
    if ftype == FIN_ACK:
        if len(body) < _SESSION.size:
            raise ProtocolError("truncated FIN_ACK frame")
        (session_id,) = _SESSION.unpack_from(body)
        return FinAckFrame(
            session_id, _parse_json(body[_SESSION.size:], "FIN_ACK"))
    if ftype == REJECT:
        payload = _parse_json(body, "REJECT")
        reason = payload.get("reason")
        if not isinstance(reason, str):
            raise ProtocolError("REJECT without a reason")
        return RejectFrame(reason)
    raise ProtocolError(f"unknown frame type {ftype}")
