"""Message types exchanged between master and workers.

A message is ``(tag, sender, payload)``; tags mirror the MW protocol: the
master sends ``task`` and ``shutdown``; workers answer with ``result`` or
``error``.  Connection-oriented transports add a session layer on the same
frames: ``hello`` / ``welcome`` for the join handshake and ``heartbeat``
for liveness.  Encoding rides on the typed codec, so the same bytes work
over in-process queues, thread queues, pipes, spool files or sockets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.mw.codec import CodecError, pack, unpack

MSG_TASK = "task"
MSG_RESULT = "result"
MSG_ERROR = "error"
MSG_SHUTDOWN = "shutdown"
# Session-control tags used by connection-oriented transports (repro.mw.tcp):
# a joining worker introduces itself (hello: protocol version + optional
# "caps" capability vector), the master assigns it a rank, seed stream and
# executor spec (welcome), and the worker proves liveness between tasks
# (heartbeat).
MSG_HELLO = "hello"
MSG_WELCOME = "welcome"
MSG_HEARTBEAT = "heartbeat"

_VALID_TAGS = (
    MSG_TASK,
    MSG_RESULT,
    MSG_ERROR,
    MSG_SHUTDOWN,
    MSG_HELLO,
    MSG_WELCOME,
    MSG_HEARTBEAT,
)


@dataclass(frozen=True)
class Message:
    """One unit of master/worker communication."""

    tag: str
    sender: int
    payload: Any = None

    def __post_init__(self) -> None:
        if self.tag not in _VALID_TAGS:
            raise ValueError(f"invalid message tag {self.tag!r}; valid: {_VALID_TAGS}")
        if self.sender < 0:
            raise ValueError(f"sender rank must be >= 0, got {self.sender}")


def encode_message(message: Message) -> bytes:
    """Serialize a message for the wire."""
    return pack((message.tag, message.sender, message.payload))


def decode_message(data: bytes) -> Message:
    """Inverse of :func:`encode_message`.

    Raises :class:`~repro.mw.codec.CodecError` for any malformed frame,
    including a well-formed payload that is not a valid message.
    """
    obj = unpack(data)
    if not (isinstance(obj, tuple) and len(obj) == 3):
        raise CodecError("malformed message frame")
    tag, sender, payload = obj
    if not isinstance(tag, str) or type(sender) is not int:
        raise CodecError(f"malformed message header ({tag!r}, {sender!r})")
    try:
        return Message(tag=tag, sender=sender, payload=payload)
    except ValueError as exc:
        raise CodecError(f"malformed message frame: {exc}") from None
