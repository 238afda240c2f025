"""Closed-loop HTTP load: at most two clients, one keep-alive
connection each.

A client sends its next request only when the previous response has
been read in full.  Each client holds one HTTP/1.1 connection for the
whole round and never opens another: a connection the server closes
fails the round instead of being silently reopened.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

CLIENTS = 2
TIMEOUT_S = 120.0


class Client:
    """One keep-alive connection and the requests sent over it."""

    def __init__(self, port: int, index: int):
        self.index = index
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        self.records: list = []
        self._opened = False

    def post(self, path: str, body: dict, **tags) -> dict:
        if self._opened and self.conn.sock is None:
            raise ConnectionError("the server closed a keep-alive connection")
        data = json.dumps(body).encode()
        start = time.perf_counter()
        self.conn.request(
            "POST", path, body=data, headers={"Content-Type": "application/json"}
        )
        self._opened = True
        response = self.conn.getresponse()
        raw = response.read()
        end = time.perf_counter()
        try:
            payload = json.loads(raw)
        except ValueError:
            detail = raw[:200].decode(errors="replace")
            payload = {"error": "unparseable body", "detail": detail}
        record = {
            "path": path,
            "body": body,
            "status": response.status,
            "payload": payload,
            "start": start,
            "end": end,
            "client": self.index,
            **tags,
        }
        self.records.append(record)
        return record

    def close(self) -> None:
        self.conn.close()


def run_clients(port: int, scripts: list) -> "tuple[list, tuple[float, float]]":
    """Run each script (``script(client)``) on its own client thread.

    Returns every request record and the timed window, from the first
    request sent to the last response read.
    """
    if not 0 < len(scripts) <= CLIENTS:
        raise ValueError(f"between 1 and {CLIENTS} clients, got {len(scripts)}")
    clients = [Client(port, i) for i in range(len(scripts))]
    errors: list = []

    def drive(script, client):
        try:
            script(client)
        except BaseException as exc:  # reported after the join below
            errors.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(target=drive, args=(script, client), daemon=True)
        for script, client in zip(scripts, clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=TIMEOUT_S * 2)
        if thread.is_alive():
            raise TimeoutError("a load-generator client did not finish")
    if errors:
        raise errors[0]
    records = [record for client in clients for record in client.records]
    if not records:
        raise RuntimeError("the round sent no requests")
    window = (min(r["start"] for r in records), max(r["end"] for r in records))
    return records, window


def shared_queue_scripts(phases: list, path: str) -> list:
    """Scripts for CLIENTS clients pulling request bodies off one shared
    queue per phase; both clients finish a phase before either starts
    the next."""
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS, timeout=TIMEOUT_S)
    queues = [list(reversed(phase)) for phase in phases]

    def script(client):
        try:
            for phase, queue in enumerate(queues):
                while True:
                    with lock:
                        if not queue:
                            break
                        body = queue.pop()
                    client.post(path, body, phase=phase)
                barrier.wait()
        except BaseException:
            barrier.abort()
            raise

    return [script] * CLIENTS
