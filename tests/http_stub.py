"""A loopback OpenAI-style HTTP server for wire-level tests of the HTTP backends.

The stub answers every POST, ``/chat/completions`` and ``/embeddings``
alike, with whatever its ``script`` returns for the request, and records
each request. The script runs on the request's own handler thread, so a
script that waits (on a barrier, say) holds its request in flight while
others arrive. A client that goes away mid-request (a killed process, say)
ends its handler quietly: a body cut short is not recorded, and a reply
that can no longer be sent is dropped.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable


@dataclass(frozen=True)
class Request:
    path: str
    headers: dict[str, str]
    json: object
    connection: tuple[str, int]  # the client's address: one per connection


@dataclass(frozen=True)
class Reply:
    status: int = 200
    body: object = None  # sent as JSON, unless ``raw`` is given
    raw: bytes | None = None  # sent as is, for replies that are not JSON


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so a client can reuse its connection
    disable_nagle_algorithm = True  # else Nagle and delayed ACK add ~40 ms per call

    def do_POST(self) -> None:
        length = int(self.headers["Content-Length"])
        body = self.rfile.read(length)
        if len(body) < length:  # the client closed the connection mid-body
            self.close_connection = True
            return
        request = Request(self.path, dict(self.headers), json.loads(body), self.client_address)
        self.server.requests.append(request)
        reply = self.server.script(request)
        payload = reply.raw if reply.raw is not None else json.dumps(reply.body).encode()
        self.send_response(reply.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:
        pass  # no access log on stderr


class StubServer(ThreadingHTTPServer):
    """Serves on an ephemeral loopback port; ``url`` is its base URL."""

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.url = f"http://127.0.0.1:{self.server_port}"
        self.requests: list[Request] = []
        self.script: Callable[[Request], Reply] = lambda request: Reply(404, raw=b"unscripted")

    def handle_error(self, request, client_address) -> None:
        if not isinstance(sys.exc_info()[1], ConnectionError):  # reset, broken pipe
            super().handle_error(request, client_address)

    @property
    def per_path(self) -> Counter:
        return Counter(r.path for r in self.requests)

    @property
    def per_connection(self) -> Counter:
        return Counter(r.connection for r in self.requests)
