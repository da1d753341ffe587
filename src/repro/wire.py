"""Length-prefixed frames over TCP: the one socket stack of the package.

Both long-lived manager processes of the master–worker design speak
this framing — the mw master (:mod:`repro.mw.tcp`, payloads in the
typed TLV codec of :mod:`repro.mw.codec`) and the network result store
(:mod:`repro.campaign.backends.netstore`, payloads in JSON).  What they
share lives here, once:

* the frame format — a big-endian u32 length prefix, then the payload,
  at most :data:`MAX_FRAME_BYTES` (:func:`encode_frame`,
  :func:`decode_frame_length`);
* the blocking reader for request/response clients
  (:func:`recv_exact`, :func:`read_frame`) and the buffered reader for
  selector loops (:func:`split_frames`) — truncated or oversized frames
  raise :class:`CodecError`, never hang;
* dialing with exponential backoff (:func:`dial_with_backoff`),
  accepting on a selector loop's listener (:func:`accept_pending`), the
  socket options every connection gets (:func:`enable_keepalive`,
  :func:`disable_nagle`), and closing (:func:`close_quietly`);
* the ``scheme://host:port`` URL grammar (:func:`parse_url`).

The payload encoding is each protocol's own business: this module moves
opaque bytes.
"""

from __future__ import annotations

import random
import socket
import struct
import time
from typing import Iterator, List, Optional, Tuple


class CodecError(ValueError):
    """Raised for unsupported types or malformed wire data."""


#: Hard ceiling on one framed payload (64 MiB).  A corrupt or hostile
#: length prefix must fail loudly instead of allocating unbounded memory
#: or stalling a socket read for data that will never arrive.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_FRAME_HEADER = struct.Struct(">I")

#: Bytes in a frame's length prefix.
FRAME_HEADER_BYTES = _FRAME_HEADER.size

#: Bytes a selector loop asks the kernel for per readable connection; a
#: typical frame is well under this, and larger ones take several reads.
RECV_CHUNK_BYTES = 64 * 1024


def encode_frame(payload: bytes, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Length-prefix ``payload`` for a stream transport (big-endian u32).

    Raises :class:`CodecError` if the payload exceeds ``max_bytes`` — the
    sender-side half of the frame-size contract enforced by
    :func:`decode_frame_length` on the receiver.
    """
    if len(payload) > max_bytes:
        raise CodecError(
            f"frame of {len(payload)} bytes exceeds the {max_bytes}-byte limit"
        )
    return _FRAME_HEADER.pack(len(payload)) + payload


def decode_frame_length(header: bytes, max_bytes: int = MAX_FRAME_BYTES) -> int:
    """Validate a frame header and return the payload length it declares.

    Raises :class:`CodecError` on a short header (truncated stream) or an
    oversized declared length, so framed readers never hang waiting for —
    or allocate — data a corrupt prefix promises.
    """
    if len(header) != FRAME_HEADER_BYTES:
        raise CodecError(
            f"truncated frame header: got {len(header)} of "
            f"{FRAME_HEADER_BYTES} bytes"
        )
    (length,) = _FRAME_HEADER.unpack(header)
    if length > max_bytes:
        raise CodecError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    return length


def recv_exact(sock: socket.socket, n: int, allow_eof: bool = False) -> Optional[bytes]:
    """Read exactly ``n`` bytes from a blocking socket.

    A clean EOF *between* frames returns ``None`` when ``allow_eof`` is
    set; EOF mid-read always raises :class:`CodecError` (a truncated
    frame must be an error, never a hang or a silent short read).
    """
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if allow_eof and not buf:
                return None
            raise CodecError(f"connection closed mid-frame ({len(buf)}/{n} bytes)")
        buf += chunk
    return bytes(buf)


def read_frame(sock: socket.socket) -> Optional[bytes]:
    """Read one frame's payload from a blocking socket.

    ``None`` on a clean EOF at a frame boundary; a truncated or
    oversized frame raises :class:`CodecError`.
    """
    header = recv_exact(sock, FRAME_HEADER_BYTES, allow_eof=True)
    if header is None:
        return None
    return recv_exact(sock, decode_frame_length(header))


def split_frames(buf: bytearray) -> Iterator[bytes]:
    """Yield each complete frame payload at the head of ``buf``, consuming it.

    The buffered reader of a selector loop: append whatever ``recv``
    returned to the connection's buffer, then iterate.  A partial frame
    stays in ``buf`` for the next read; a bad length prefix raises
    :class:`CodecError` after the frames before it were yielded.
    """
    start = 0
    try:
        while len(buf) - start >= FRAME_HEADER_BYTES:
            body = start + FRAME_HEADER_BYTES
            end = body + decode_frame_length(buf[start:body])
            if end > len(buf):
                break
            start = end
            yield bytes(buf[body:end])
    finally:
        del buf[:start]


def parse_url(url: str, scheme: str) -> Tuple[str, int]:
    """Split ``scheme://host:port`` into ``(host, port)``; port may be 0.

    Port 0 is accepted because a server may listen ephemerally; clients
    reject it separately since they need a concrete peer.
    """
    prefix = f"{scheme}://"
    host, sep, port_s = url[len(prefix):].rpartition(":")
    if not url.startswith(prefix) or not sep or not host:
        raise ValueError(f"expected a {prefix}host:port URL, got {url!r}")
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(f"invalid port {port_s!r} in {url!r}") from None
    if not (0 <= port <= 65535):
        raise ValueError(f"port out of range in {url!r}")
    return host, port


def dial_with_backoff(
    host: str,
    port: int,
    timeout: float,
    attempt_timeout: float = 5.0,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
) -> socket.socket:
    """Dial ``(host, port)``, retrying with exponential backoff until ``timeout``.

    The shared dial loop of every client in the package (mw workers, the
    network store client): each failed attempt doubles the sleep from
    ``base_delay`` up to ``max_delay``, jittered by a random factor in
    ``[0.5, 1.0]`` so a fleet of workers restarting together does not
    reconnect in lockstep.  When the deadline passes, the raised
    ``OSError`` names the peer and carries the *last* underlying error —
    a refused port, an unresolvable host, and an unreachable network all
    read differently instead of vanishing into a bare timeout.
    """
    deadline = time.monotonic() + float(timeout)
    delay = float(base_delay)
    while True:
        try:
            return socket.create_connection((host, port), timeout=attempt_timeout)
        except OSError as exc:
            now = time.monotonic()
            if now >= deadline:
                raise OSError(
                    f"could not connect to {host}:{port} within "
                    f"{float(timeout):g}s (last error: {exc})"
                ) from exc
            time.sleep(min(delay, deadline - now) * random.uniform(0.5, 1.0))
            delay = min(delay * 2.0, float(max_delay))


def accept_pending(
    listener: socket.socket, timeout: Optional[float]
) -> List[socket.socket]:
    """Accept every connection pending on a non-blocking ``listener``.

    The accept step of both selector loops (the mw master and the store
    server), run when the listener reads ready.  Each new socket gets
    ``timeout`` (``None`` blocks), keepalive and ``TCP_NODELAY``; the
    caller registers it with its selector.
    """
    accepted = []
    while True:
        try:
            sock, _addr = listener.accept()
        except OSError:  # none pending (or a transient accept error)
            return accepted
        sock.settimeout(timeout)
        enable_keepalive(sock)
        disable_nagle(sock)
        accepted.append(sock)


def enable_keepalive(
    sock: socket.socket, idle: int = 30, interval: int = 10, count: int = 3
) -> None:
    """Arm kernel TCP keepalive so a vanished peer surfaces as an error.

    Heartbeat frames only protect the *master* against silent workers; a
    master host that power-cuts or partitions away would otherwise leave
    workers blocked in ``recv`` on a half-open connection forever.  With
    these defaults a dead peer is detected within roughly
    ``idle + interval * count`` seconds.  Tuning options are set
    best-effort (not every platform exposes them); the base switch is
    POSIX-universal.
    """
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    except OSError:  # pragma: no cover - keepalive unsupported
        return
    for option, value in (
        (getattr(socket, "TCP_KEEPIDLE", None), idle),
        (getattr(socket, "TCP_KEEPINTVL", None), interval),
        (getattr(socket, "TCP_KEEPCNT", None), count),
    ):
        if option is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, option, value)
            except OSError:  # pragma: no cover - platform-specific
                pass


def disable_nagle(sock: socket.socket) -> None:
    """Turn off Nagle's algorithm (``TCP_NODELAY``) best-effort.

    Both protocols are strict request/response per connection — the peer
    cannot make progress until the frame it is waiting for arrives — so
    Nagle's coalescing delay buys nothing and its interaction with
    delayed ACKs taxes every small frame.  Measurable on the async hot
    path, where a campaign master pushes thousands of frames per second.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - option unsupported
        pass


def close_quietly(sock: socket.socket) -> None:
    """Close ``sock``, ignoring the ``OSError`` a failed ``close`` raises.

    Every caller is tearing a connection down already; a close error
    must not stop it from closing the others or reporting the peer dead.
    """
    try:
        sock.close()
    except OSError:
        pass
