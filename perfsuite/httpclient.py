"""A minimal blocking HTTP/1.1 keep-alive client for the load generator.

The generator times requests itself, so the client does as little as
possible between the send and the last byte of the answer: one
``sendall``, then ``recv`` into a buffer until a whole response (headers
plus ``Content-Length`` bytes) is there.  ``take`` parses without blocking,
which lets the open-loop phase multiplex two connections with a selector.
"""

from __future__ import annotations

import socket
from typing import Dict, Optional, Tuple

Response = Tuple[int, Dict[str, str], bytes]


class Conn:
    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self._host_header = f"{host}:{port}"

    def close(self) -> None:
        self.sock.close()

    def send(self, method: str, path: str, body: bytes = b"") -> None:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host_header}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.sock.sendall(head + body)

    def read_some(self) -> None:
        data = self.sock.recv(262144)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buf += data

    def take(self) -> Optional[Response]:
        """One complete response from the buffer, or None if incomplete."""
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        lines = bytes(self.buf[:end]).decode("latin-1").split("\r\n")
        parts = lines[0].split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line {lines[0]!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        total = end + 4 + length
        if len(self.buf) < total:
            return None
        body = bytes(self.buf[end + 4:total])
        del self.buf[:total]
        return int(parts[1]), headers, body

    def request(self, method: str, path: str, body: bytes = b"") -> Response:
        self.send(method, path, body)
        while True:
            response = self.take()
            if response is not None:
                return response
            self.read_some()
