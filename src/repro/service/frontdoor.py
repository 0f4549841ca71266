"""JSONL-over-HTTP network front door for the solver service.

:class:`FrontDoor` binds a stdlib :class:`~http.server.
ThreadingHTTPServer` in front of a :class:`~repro.service.service.
SolverService` whose queue a :class:`~repro.service.dispatch.
ConcurrentDispatcher` drains continuously, so the service takes
sustained external traffic (``repro serve --listen HOST:PORT``).

Endpoints (all JSON / JSONL, no dependencies beyond the stdlib):

- ``POST /submit`` — body is one job spec per line, the exact schema
  of the ``repro batch`` jobs file (:meth:`~repro.service.jobs.
  JobSpec.to_dict`).  Each line is admitted through ``try_submit``;
  the response body echoes one JSONL ack per line: ``{"job_id": ...,
  "accepted": true}`` or ``{"accepted": false, "error": ...}`` when a
  bound rejected or the line is not a valid spec (bad JSON, a JSON
  value that is not an object, a failed field check).  Admission
  control is the service's own: queue depth and per-tenant caps apply
  unchanged.  A ``Content-Length`` that is not a non-negative integer
  gets a 400 JSON reply (both POST endpoints).
- ``POST /resolve`` — body is one :class:`~repro.service.jobs.
  ResolveSpec` per line (``base_job_id`` required): parameter-only
  warm re-solves against an already-submitted job's structure.  Acks
  mirror ``/submit``; a line naming a base job the service never
  admitted is rejected with ``{"accepted": false, "code": 404, ...}``
  (a structured reject, never a connection error), and the response
  status is 404 when *every* line was an unknown-base reject.  A line
  whose ``b`` / ``c`` do not fit the base problem is rejected before
  anything is queued.
- ``GET /stream?since=N&timeout=S`` — completed job records as JSONL,
  each line ``{"seq": i, ...record}`` in completion order.  ``since``
  (default 0) skips records already seen; ``timeout`` (seconds,
  default 0) long-polls for at least one new record.  Clients resume
  by passing the last ``seq + 1``.
- ``GET /stats`` — the live one-line telemetry summary plus raw
  counts, when the service has telemetry attached.
- ``GET /healthz`` — liveness plus queue depth and brownout tier.

Thread safety: handler threads touch the service only through its
thread-safe admission methods, and each admission wakes an idle
dispatcher worker through the service's condition; completed records
flow through the dispatcher's ``on_record`` hook (held under the
service lock) into a front-door list guarded by the door's own
condition.  The door's condition is only ever acquired *after* the
service lock on that path and never the other way around, so the two
locks cannot deadlock.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlparse

from repro.exceptions import UnknownJobError
from repro.service.dispatch import ConcurrentDispatcher
from repro.service.jobs import JobSpec, ResolveSpec
from repro.service.service import JobRecord, SolverService


class FrontDoor:
    """HTTP facade + continuous dispatcher over one service.

    Parameters
    ----------
    service:
        The service to expose.  Its ``config.workers`` worker threads
        drain the queue for as long as the front door runs.
    host / port:
        Bind address; port ``0`` picks a free port (see
        :attr:`address` after construction — the socket binds in the
        constructor, so tests can read the port before :meth:`start`).
    on_record:
        Optional per-completion hook (fired under the service lock,
        after the record is published to ``/stream`` waiters) — the
        CLI's ``--stats-every`` printer.

    Lifecycle: ``start()`` → traffic → ``stop()``; or
    ``serve_forever()`` which blocks until ``KeyboardInterrupt``.
    Thread-safe by construction (see module note).
    """

    def __init__(
        self,
        service: SolverService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        on_record: Callable[[JobRecord], None] | None = None,
    ) -> None:
        self.service = service
        self._user_on_record = on_record
        self._records: list[JobRecord] = []
        self._cond = threading.Condition()
        self._dispatcher = ConcurrentDispatcher(service)
        self._server = ThreadingHTTPServer((host, port), _Handler)
        # The handler reaches the door through its server; stop()
        # unlinks the two so a stopped door is freed by refcounting.
        self._server.door = self
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolved even for port 0."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def records(self) -> list[JobRecord]:
        """Snapshot of completed records so far (completion order)."""
        with self._cond:
            return list(self._records)

    def _on_record(self, record: JobRecord) -> None:
        """Dispatcher completion hook (runs under the service lock)."""
        with self._cond:
            self._records.append(record)
            self._cond.notify_all()
        if self._user_on_record is not None:
            self._user_on_record(record)

    def start(self) -> None:
        """Start the dispatcher workers and the HTTP listener."""
        self._dispatcher.start(on_record=self._on_record)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-frontdoor",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> list[JobRecord]:
        """Stop listening, finish queued work, return all records.

        In-flight and queued jobs complete before this returns (an
        accepted job is never lost); new submissions are refused as
        soon as the socket closes.
        """
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
        self._server.door = None
        return self._dispatcher.stop()

    def serve_forever(self) -> list[JobRecord]:
        """Block until ``KeyboardInterrupt``; then drain and return."""
        self.start()
        try:
            while True:
                if self._thread is not None:
                    self._thread.join(timeout=1.0)
        except KeyboardInterrupt:
            pass
        return self.stop()


def _spec_from_line(line: str, spec_type: type):
    """Parse one JSONL line into ``spec_type``; ``ValueError`` /
    ``TypeError`` for anything that is not a valid spec object."""
    data = json.loads(line)
    if not isinstance(data, dict):
        raise ValueError(
            f"each line must be a JSON object, got {type(data).__name__}"
        )
    if spec_type is JobSpec and data.get("base_job_id") is not None:
        raise ValueError("re-solve specs go to POST /resolve")
    return spec_type.from_dict(data)


class _Handler(BaseHTTPRequestHandler):
    """Per-request handler; one instance per request, on a stdlib
    server thread.  The front door is ``self.server.door``; all shared
    state lives there and is guarded by the door's condition / the
    service lock."""

    def log_message(self, format, *args):  # noqa: A002 - stdlib API
        """Quiet: no per-request lines on stderr."""

    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(self, status: int, payload: dict) -> None:
        self._reply(
            status,
            (json.dumps(payload, sort_keys=True) + "\n").encode(),
            "application/json",
        )

    def do_GET(self) -> None:  # noqa: D102 - dispatch table below
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._healthz()
        elif parsed.path == "/stats":
            self._stats()
        elif parsed.path == "/stream":
            self._stream(parse_qs(parsed.query))
        else:
            self._reply_json(404, {"error": "not found"})

    def do_POST(self) -> None:  # noqa: D102 - dispatch table below
        path = urlparse(self.path).path
        if path == "/submit":
            self._admit_lines(JobSpec)
        elif path == "/resolve":
            self._admit_lines(ResolveSpec)
        else:
            self._reply_json(404, {"error": "not found"})

    def _healthz(self) -> None:
        door = self.server.door
        service = door.service
        self._reply_json(
            200,
            {
                "status": "ok",
                "queue_depth": len(service.queue),
                "completed": len(door.records),
                "tier": int(service.tier),
            },
        )

    def _stats(self) -> None:
        telemetry = self.server.door.service.telemetry
        if telemetry is None:
            self._reply_json(
                404, {"error": "service has no telemetry attached"}
            )
            return
        self._reply_json(
            200,
            {
                "line": telemetry.stats_line(),
                "jobs": telemetry.jobs,
                "succeeded": telemetry.succeeded,
                "energy_j_total": telemetry.energy_j_total,
                "queue_depth": telemetry.queue_depth,
            },
        )

    def _read_body(self) -> str | None:
        """The request body, or ``None`` after a 400 reply when
        ``Content-Length`` is not a non-negative integer."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            self._reply_json(
                400,
                {"error": "Content-Length must be a non-negative integer"},
            )
            return None
        return self.rfile.read(length).decode("utf-8", errors="replace")

    def _admit_lines(self, spec_type: type) -> None:
        """``POST /submit`` (``JobSpec`` lines) and ``POST /resolve``
        (``ResolveSpec`` lines): one ack per non-blank line."""
        body = self._read_body()
        if body is None:
            return
        service = self.server.door.service
        acks = []
        for line in body.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                spec = _spec_from_line(line, spec_type)
            except (ValueError, TypeError) as exc:
                acks.append({"accepted": False, "error": str(exc)})
                continue
            try:
                pending = service.try_submit(spec)
            except UnknownJobError as exc:
                # Client error, structured: the caller named a base
                # job the service never admitted.
                acks.append(
                    {
                        "job_id": spec.job_id,
                        "accepted": False,
                        "code": 404,
                        "error": str(exc),
                    }
                )
                continue
            except ValueError as exc:
                # A resolve whose b / c do not fit its base: rejected
                # before the queue saw it, so nothing was admitted.
                acks.append(
                    {"job_id": spec.job_id, "accepted": False, "error": str(exc)}
                )
                continue
            if pending is None:
                acks.append(
                    {
                        "job_id": spec.job_id,
                        "accepted": False,
                        "error": "admission rejected (queue or tenant bound)",
                    }
                )
            else:
                acks.append({"job_id": spec.job_id, "accepted": True})
        status = (
            404
            if acks and all(ack.get("code") == 404 for ack in acks)
            else 200
        )
        payload = "".join(
            json.dumps(ack, sort_keys=True) + "\n" for ack in acks
        )
        self._reply(status, payload.encode(), "application/jsonl")

    def _stream(self, query: dict) -> None:
        try:
            since = int(query.get("since", ["0"])[0])
            timeout = float(query.get("timeout", ["0"])[0])
        except ValueError:
            self._reply_json(400, {"error": "since/timeout must be numeric"})
            return
        door = self.server.door
        with door._cond:
            if timeout > 0 and len(door._records) <= since:
                door._cond.wait_for(
                    lambda: len(door._records) > since,
                    timeout=timeout,
                )
            tail = list(door._records[since:])
        payload = "".join(
            json.dumps(
                {"seq": since + offset, **record.to_dict()},
                sort_keys=True,
            )
            + "\n"
            for offset, record in enumerate(tail)
        )
        self._reply(200, payload.encode(), "application/jsonl")
