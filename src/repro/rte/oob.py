"""The out-of-band channel: framed JSON messages over simulated TCP.

The OOB channel is how processes talk to the RTE seed daemon (and how the
RTE reaches processes) *without* the high-performance network — it must work
before any PTL is wired up, and it keeps working when the fast network's
membership is in flux (dynamic join, restart).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Dict, Optional

from repro.tcpip.socket import Listener, TcpSocket

__all__ = ["OobChannel", "OobServer", "OobError", "encode"]

_LEN = struct.Struct(">I")


def encode(obj: Any) -> bytes:
    """The wire body of one OOB message."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


class OobError(Exception):
    """Malformed frame or protocol violation on the OOB channel."""


class OobChannel:
    """Length-prefixed JSON messages over one TCP connection."""

    def __init__(self, sock: TcpSocket):
        self.sock = sock

    def send_msg(self, thread, obj: Any):
        """Coroutine: frame and send one message."""
        yield from self.send_encoded(thread, encode(obj))

    def send_encoded(self, thread, body: bytes):
        """Coroutine: frame and send a body :func:`encode` already made
        (a reply sent many times is encoded once)."""
        yield from self.sock.send(thread, _LEN.pack(len(body)) + body)

    def recv_msg(self, thread):
        """Coroutine: receive one framed message (None on orderly EOF)."""
        header = yield from self._recv_exact_or_eof(thread, _LEN.size)
        if header is None:
            return None
        (length,) = _LEN.unpack(header)
        if length > 1 << 24:
            raise OobError(f"implausible OOB frame of {length} bytes")
        body = yield from self.sock.recv_exact(thread, length)
        try:
            return json.loads(body.decode("utf-8"))
        except ValueError as e:
            raise OobError(f"bad OOB payload: {e}") from e

    def _recv_exact_or_eof(self, thread, n: int):
        parts = b""
        while len(parts) < n:
            chunk = yield from self.sock.recv(thread, n - len(parts))
            if not chunk:
                if parts:
                    raise OobError("EOF inside OOB frame header")
                return None
            parts += chunk
        return parts

    def rpc(self, thread, obj: Any):
        """Coroutine: send a request and wait for its single reply."""
        yield from self.send_msg(thread, obj)
        reply = yield from self.recv_msg(thread)
        if reply is None:
            raise OobError("peer closed during RPC")
        return reply

    def close(self) -> None:
        self.sock.close()


class OobServer:
    """Accept loop: one handler thread per OOB connection.

    ``handler(thread, channel)`` is a generator run on a fresh thread of the
    hosting node for every accepted connection.
    """

    def __init__(self, net, node, port: int, handler: Callable, name: str = "oob"):
        self.net = net
        self.node = node
        self.port = port
        self.handler = handler
        self.listener = Listener(net, node, port)
        self.connections = 0
        self._stopped = False
        node.spawn_thread(self._accept_loop, name=f"{name}-accept", daemon=True)

    def _accept_loop(self, thread):
        while not self._stopped:
            sock = yield from self.listener.accept(thread)
            self.connections += 1
            channel = OobChannel(sock)
            self.node.spawn_thread(
                lambda t, ch=channel: self.handler(t, ch),
                name=f"oob-conn{self.connections}",
                daemon=True,
            )

    def stop(self) -> None:
        self._stopped = True
        self.listener.close()
