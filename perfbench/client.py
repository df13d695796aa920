"""Blocking IMAP client that times every command and keeps the raw bytes."""

from __future__ import annotations

import re
import socket
import time

from chamail.imapcodec import read_response_blob

_BODY_LITERAL_RE = re.compile(rb"BODY\[\] \{(\d+)\}\r\n")


class Op:
    """One timed client operation."""

    __slots__ = ("name", "start", "end", "first_byte", "blobs")

    def __init__(self, name: str, start: int, end: int, first_byte: int, blobs: list[bytes]):
        self.name = name
        self.start = start  # monotonic ns, comparable across processes
        self.end = end
        self.first_byte = first_byte
        self.blobs = blobs

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6

    @property
    def tagged(self) -> bytes:
        return self.blobs[-1]

    def body_bytes(self) -> int:
        """Bytes of BODY[] literals in the response: the payload a user waits for."""
        return sum(int(m.group(1)) for blob in self.blobs for m in _BODY_LITERAL_RE.finditer(blob))


class SessionLost(ConnectionError):
    """The server ended the connection before a command's tagged completion."""

    def __init__(self, op: str, blobs: list[bytes]):
        super().__init__(f"{op}: connection closed after {b''.join(blobs)[-120:]!r}")


class Client:
    """One connection. `ops` collects every timed command in order."""

    def __init__(self, port: int, timeout: float = 60.0):
        self.connect_start = time.monotonic_ns()
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.rfile = self.sock.makefile("rb")
        self.ops: list[Op] = []
        self._tag = 0
        self.greeting = self._read()

    def _read(self) -> bytes:
        blob = read_response_blob(self.rfile)
        if not blob:
            raise ConnectionError("server closed the connection")
        return blob

    def run(self, op: str, command: bytes) -> Op:
        """Send `<tag> <command>` and read through its tagged completion."""
        self._tag += 1
        tag = b"c%d" % self._tag
        line = tag + b" " + command + b"\r\n"
        start = time.monotonic_ns()
        self.sock.sendall(line)
        self.rfile.peek(1)
        first = time.monotonic_ns()
        blobs = []
        try:
            while True:
                blob = self._read()
                blobs.append(blob)
                if blob.startswith(tag + b" "):
                    break
        except ConnectionError:
            raise SessionLost(op, blobs) from None
        result = Op(op, start, time.monotonic_ns(), first, blobs)
        self.ops.append(result)
        return result

    def close(self) -> None:
        for closer in (self.rfile.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass
