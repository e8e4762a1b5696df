"""Load generation against the HTTP front end: closed-loop clients and an
open-loop updater, with the output checks done where the response is read.

One client is one thread holding one keep-alive connection; it sends its
next request only after the previous body is read (closed loop).  The
updater applies ``add_link`` on a fixed schedule whatever the system does
(open loop) and times every update from the instant it was *due*.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serving.httpd import route_request

#: One response in this many is compared byte for byte with the body the
#: router computes for the same request (5 % of the requests).
CHECK_EVERY = 20


def expected_body(service, path: str) -> bytes:
    """The body both HTTP servers must send for *path* (they dump the
    router's payload with ``json.dumps`` defaults)."""
    split = urlsplit(path)
    payload, _status = route_request(service, split.path,
                                     parse_qs(split.query))
    return json.dumps(payload).encode("utf-8")


class Connection:
    """One keep-alive HTTP/1.1 connection to the server under test."""

    def __init__(self, server) -> None:
        self._conn = http.client.HTTPConnection(server.host, server.port,
                                                timeout=30.0)

    def get(self, path: str) -> Tuple[int, bytes]:
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


@dataclass
class ClientLog:
    """What one closed-loop client saw during one round."""

    sent_at: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    error: Optional[str] = None


def client_loop(server, service, paths: Sequence[str], deadline: float,
                log: ClientLog,
                stop: Optional[threading.Event] = None) -> None:
    """Send *paths* in order until *deadline* passes or *stop* is set."""
    connection = Connection(server)
    try:
        for position, path in enumerate(paths):
            if perf_counter() >= deadline or (stop and stop.is_set()):
                return
            check = position % CHECK_EVERY == 0
            generation = service.store.generation if check else -1
            log.attempted += 1
            sent = perf_counter()
            status, body = connection.get(path)
            done = perf_counter()
            if status != 200 or not body.startswith(b"{"):
                log.failed += 1
                continue
            if check:
                expected = expected_body(service, path)
                # A rebuild that swapped the store in between makes either
                # body legitimate; only compare within one generation.
                if (service.store.generation == generation
                        and body != expected):
                    log.failed += 1
                    continue
            log.sent_at.append(sent)
            log.latencies.append(done - sent)
        if deadline < float("inf"):
            log.error = "request stream exhausted before the round ended"
    except Exception as error:  # noqa: BLE001 - thread boundary: report it
        log.error = f"{type(error).__name__}: {error}"
    finally:
        connection.close()


@dataclass
class UpdateLog:
    """What the open-loop updater saw during one round."""

    latencies: List[float] = field(default_factory=list)  #: from due time
    start_lag: List[float] = field(default_factory=list)  #: start - due
    attempted: int = 0
    failed: int = 0
    error: Optional[str] = None


def _update_loop(server, service, live, updates, start: float,
                 interval: float, deadline: float, log: UpdateLog) -> None:
    connection = Connection(server)
    try:
        for index, (source, target, target_id) in enumerate(updates):
            due = start + (index + 0.5) * interval
            if due >= deadline:
                return
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            log.attempted += 1
            began = perf_counter()
            generation = service.store.generation
            live.add_link(source, target)
            path = f"/score?doc={target_id}"
            status, body = connection.get(path)
            done = perf_counter()
            # The point lookup must be answered by the rebuilt store.
            if (status != 200 or service.store.generation <= generation
                    or body != expected_body(service, path)):
                log.failed += 1
                continue
            log.latencies.append(done - due)
            log.start_lag.append(began - due)
        log.error = "update stream exhausted before the round ended"
    except Exception as error:  # noqa: BLE001 - thread boundary: report it
        log.error = f"{type(error).__name__}: {error}"
    finally:
        connection.close()


@dataclass
class RoundLog:
    """One round of traffic: wall time plus every generator's log."""

    wall: float
    clients: List[ClientLog]
    updates: Optional[UpdateLog] = None

    @property
    def latencies(self) -> List[float]:
        return [value for log in self.clients for value in log.latencies]

    @property
    def attempted(self) -> int:
        return (sum(log.attempted for log in self.clients)
                + (self.updates.attempted if self.updates else 0))

    @property
    def failed(self) -> int:
        return (sum(log.failed for log in self.clients)
                + (self.updates.failed if self.updates else 0))

    @property
    def errors(self) -> List[str]:
        logs = [*self.clients, *([self.updates] if self.updates else [])]
        return [log.error for log in logs if log.error]


def run_round(server, service, streams: Sequence[Sequence[str]],
              seconds: Optional[float], *, live=None, updates=(),
              update_interval: float = 0.0) -> RoundLog:
    """Drive one round: a client thread per stream, plus the updater when
    *live* (the incremental ranker under the service) is given.  With
    *seconds* ``None`` the round ends when every stream has been sent."""
    start = perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")
    logs = [ClientLog() for _ in streams]
    threads = [threading.Thread(target=client_loop, name=f"client-{index}",
                                args=(server, service, paths, deadline, log))
               for index, (paths, log) in enumerate(zip(streams, logs))]
    update_log = None
    if live is not None:
        update_log = UpdateLog()
        threads.append(threading.Thread(
            target=_update_loop, name="updater",
            args=(server, service, live, updates, start, update_interval,
                  deadline, update_log)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return RoundLog(wall=perf_counter() - start, clients=logs,
                    updates=update_log)
