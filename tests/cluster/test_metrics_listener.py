"""The coordinator's ``/metrics`` listener reads requests within limits.

It shares the serving front end's bounded request reader: a request line
over 64 KiB is answered ``414``, an oversized header line or more than 100
headers ``431``, and the connection closes — never an empty reply or an
exception left in the handler task.  Raw-socket probes, as in
``tests/serving/test_frontend.py``.
"""

import asyncio
import logging
import socket

from repro.cluster import ClusterCoordinator
from repro.graphgen import generate_synthetic_web


def exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes, return everything answered until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and hung up mid-request
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                chunk = b""
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def status_of(raw: bytes) -> int:
    return int(raw.split(b"\r\n", 1)[0].split()[1])


async def scrape_all(requests):
    coordinator = ClusterCoordinator(
        generate_synthetic_web(n_sites=3, n_documents=30, seed=2), n_peers=1)
    await coordinator.start(metrics_port=0)
    try:
        return [await asyncio.to_thread(exchange, coordinator.metrics_port,
                                        request)
                for request in requests]
    finally:
        await coordinator._shutdown()


def test_request_limits(caplog):
    headers = b"".join(b"X-%d: y\r\n" % number for number in range(5000))
    requests = [
        b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
        b"GET /elsewhere HTTP/1.1\r\n\r\n",
        b"GET /" + b"a" * 70 * 1024 + b" HTTP/1.1\r\n\r\n",
        b"GET /metrics HTTP/1.1\r\nX-Long: " + b"b" * 70 * 1024 + b"\r\n\r\n",
        b"GET /metrics HTTP/1.1\r\n" + headers + b"\r\n",
        b"nonsense\r\n\r\n",
    ]
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        answers = asyncio.run(scrape_all(requests))
    assert [status_of(answer) for answer in answers] \
        == [200, 404, 414, 431, 431, 400]
    assert b"repro_" in answers[0]
    assert all(b"connection: close" in answer.lower() for answer in answers)
    assert [record.getMessage() for record in caplog.records] == []


def test_a_connection_closed_before_a_request_gets_no_reply():
    assert asyncio.run(scrape_all([b""])) == [b""]
