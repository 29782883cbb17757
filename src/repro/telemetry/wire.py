"""Length-prefixed JSON wire format for the telemetry socket.

Every message is a 4-byte big-endian length followed by a compact
(UTF-8, no-whitespace) JSON object.  The same framing is spoken in both
directions — frames and events from the server, commands from a client
— and by both endpoints' transports (the asyncio server and the plain
blocking-socket client), so one encoder and one incremental decoder
serve everything.

The compact encoding is load-bearing for the tap-equivalence contract:
a frame's ``{"cycle": ..., "values": {...}}`` payload is serialized
with the same separators the post-hoc report artefacts use, so the live
byte stream of a point equals its recorded timeseries byte-for-byte.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Optional

HEADER = struct.Struct(">I")

#: Upper bound on a single message body; a peer announcing more than
#: this is treated as corrupt framing, not a large message.
MAX_MESSAGE = 16 * 1024 * 1024


class WireError(Exception):
    """Corrupt framing, oversized message, or a closed peer."""


def encode_payload(obj: Any) -> bytes:
    """Compact JSON encoding of *obj* (no length prefix)."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def encode_message(obj: Any) -> bytes:
    """One complete wire message: length prefix + compact JSON body."""
    body = encode_payload(obj)
    if len(body) > MAX_MESSAGE:
        raise WireError(f"message of {len(body)} bytes exceeds the "
                        f"{MAX_MESSAGE}-byte limit")
    return HEADER.pack(len(body)) + body


class MessageDecoder:
    """Incremental decoder: feed arbitrary chunks, get whole messages.

    Usable from blocking reads and asyncio data callbacks alike — the
    decoder owns nothing but a byte buffer.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        """Consume *data*; return every now-complete message, in order."""
        self._buffer.extend(data)
        messages: list[dict] = []
        while True:
            if len(self._buffer) < HEADER.size:
                return messages
            (length,) = HEADER.unpack_from(self._buffer)
            if length > MAX_MESSAGE:
                raise WireError(
                    f"framing announces {length} bytes "
                    f"(> {MAX_MESSAGE}); stream is corrupt"
                )
            end = HEADER.size + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[HEADER.size:end])
            del self._buffer[:end]
            try:
                message = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise WireError(f"undecodable message body: {exc}") from exc
            if not isinstance(message, dict):
                raise WireError("message body is not a JSON object")
            messages.append(message)


def send_message(sock: socket.socket, obj: Any) -> None:
    """Blocking send of one message (plain-socket client side)."""
    try:
        sock.sendall(encode_message(obj))
    except OSError as exc:
        raise WireError(f"send failed: {exc}") from exc


def recv_message(
    sock: socket.socket, decoder: MessageDecoder
) -> Optional[dict]:
    """Blocking receive of the next message, ``None`` on clean EOF.

    *decoder* carries partial data between calls; always pass the same
    one for a given socket.
    """
    pending = decoder.feed(b"")
    if pending:
        # feed(b"") cannot complete a new message unless one was already
        # whole in the buffer — return it before blocking again.
        return _first(decoder, pending)
    while True:
        try:
            chunk = sock.recv(65536)
        except socket.timeout as exc:
            raise WireError("timed out waiting for a message") from exc
        except OSError as exc:
            raise WireError(f"receive failed: {exc}") from exc
        if not chunk:
            if len(decoder._buffer):
                raise WireError("peer closed mid-message")
            return None
        messages = decoder.feed(chunk)
        if messages:
            return _first(decoder, messages)


def _first(decoder: MessageDecoder, messages: list[dict]) -> dict:
    """Return the first of *messages* and stash the rest back.

    ``feed`` removes every whole message it returns from the buffer, so
    the extras are re-fed, encoded, ahead of the buffered remainder; a
    dropped extra would be a lost frame.
    """
    if len(messages) > 1:
        rest = b"".join(encode_message(m) for m in messages[1:])
        decoder._buffer[:0] = rest
    return messages[0]
