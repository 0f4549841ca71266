"""Tests for the JSONL-over-HTTP front door."""

import gc
import http.client
import json
import socket
import sys
import threading
import time
import urllib.request
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.service.dispatch
from repro.service import frontdoor
from repro.service import (
    FrontDoor,
    ServiceConfig,
    ServiceTelemetry,
    SolverService,
    synthesize_jobs,
)


@pytest.fixture
def door():
    config = ServiceConfig(
        pool_size=2, queue_depth=8, base_seed=7, workers=2
    )
    service = SolverService(config, telemetry=ServiceTelemetry())
    door = FrontDoor(service)
    door.start()
    yield door
    door.stop()


def url(door, path):
    host, port = door.address
    return f"http://{host}:{port}{path}"


def post_jobs(door, specs):
    body = "".join(
        json.dumps(spec.to_dict()) + "\n" for spec in specs
    ).encode()
    request = urllib.request.Request(
        url(door, "/submit"), data=body, method="POST"
    )
    with urllib.request.urlopen(request) as response:
        return [
            json.loads(line)
            for line in response.read().decode().splitlines()
        ]


class TestSubmit:
    def test_acks_every_line(self, door):
        acks = post_jobs(door, synthesize_jobs(4, constraints=8))
        assert len(acks) == 4
        assert all(ack["accepted"] for ack in acks)
        assert [ack["job_id"] for ack in acks] == [
            f"job-{i:04d}" for i in range(4)
        ]

    def test_invalid_line_rejected_not_fatal(self, door):
        body = (
            b'{"job_id": "good", "constraints": 8}\n'
            b'{"job_id": "", "constraints": 8}\n'
            b"not json at all\n"
            b"[1, 2]\n"
            b"null\n"
            b"3\n"
            b'{"job_id": "also-good", "constraints": 8}\n'
        )
        request = urllib.request.Request(
            url(door, "/submit"), data=body, method="POST"
        )
        with urllib.request.urlopen(request) as response:
            acks = [
                json.loads(line)
                for line in response.read().decode().splitlines()
            ]
        assert [ack["accepted"] for ack in acks] == [
            True, False, False, False, False, False, True,
        ]
        assert all("error" in ack for ack in acks[1:6])

    def test_wrongly_typed_line_rejected_and_next_admitted(self, door):
        body = (
            b'{"job_id": "bad", "constraints": 8, "priority": "high"}\n'
            b'{"job_id": 5, "constraints": 8}\n'
            b'{"job_id": "bad-tenant", "constraints": 8, "tenant": 7}\n'
            b'{"job_id": "good", "constraints": 8}\n'
        )
        status, acks = post_lines(door, "/submit", body)
        assert status == 200
        assert [ack["accepted"] for ack in acks] == [False, False, False, True]
        assert "priority" in acks[0]["error"]
        assert "job_id" in acks[1]["error"]
        assert "tenant" in acks[2]["error"]
        with urllib.request.urlopen(
            url(door, "/stream?since=0&timeout=30")
        ) as response:
            (line,) = response.read().decode().splitlines()
        assert json.loads(line)["job_id"] == "good"

    def test_unknown_path_is_404(self, door):
        request = urllib.request.Request(
            url(door, "/nope"), data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value as error:  # closes the unread reply's socket
            assert error.code == 404


def post_lines(door, path, body):
    request = urllib.request.Request(
        url(door, path), data=body, method="POST"
    )
    try:
        with urllib.request.urlopen(request) as response:
            status = response.status
            payload = response.read()
    except urllib.error.HTTPError as error:
        status = error.code
        payload = error.read()
    return status, [
        json.loads(line) for line in payload.decode().splitlines()
    ]


class TestResolveEndpoint:
    def test_resolve_round_trip(self, door):
        (base_spec,) = synthesize_jobs(1, constraints=8)
        acks = post_jobs(door, [base_spec])
        assert acks[0]["accepted"]
        body = json.dumps(
            {
                "job_id": "step-0",
                "base_job_id": base_spec.job_id,
                "perturb": 0.02,
            }
        ).encode() + b"\n"
        status, acks = post_lines(door, "/resolve", body)
        assert status == 200
        assert acks == [{"job_id": "step-0", "accepted": True}]
        collected = {}
        while len(collected) < 2:
            with urllib.request.urlopen(
                url(door, f"/stream?since={len(collected)}&timeout=30")
            ) as response:
                for line in response.read().decode().splitlines():
                    record = json.loads(line)
                    collected[record["job_id"]] = record
        assert collected["step-0"]["status"] == "optimal"

    def test_unknown_base_is_structured_404(self, door):
        body = (
            b'{"job_id": "r0", "base_job_id": "never-submitted"}\n'
        )
        status, acks = post_lines(door, "/resolve", body)
        assert status == 404
        (ack,) = acks
        assert ack["accepted"] is False
        assert ack["code"] == 404
        assert "never-submitted" in ack["error"]
        # The door survives the rejection and keeps serving.
        with urllib.request.urlopen(url(door, "/healthz")) as response:
            assert json.loads(response.read())["status"] == "ok"

    def test_mixed_lines_keep_200_with_per_line_codes(self, door):
        (base_spec,) = synthesize_jobs(1, constraints=8)
        post_jobs(door, [base_spec])
        body = (
            json.dumps(
                {"job_id": "ok-step", "base_job_id": base_spec.job_id}
            ).encode()
            + b"\n"
            + b'{"job_id": "bad-step", "base_job_id": "ghost"}\n'
            + b"not json\n"
        )
        status, acks = post_lines(door, "/resolve", body)
        assert status == 200
        assert [ack["accepted"] for ack in acks] == [True, False, False]
        assert acks[1]["code"] == 404
        assert "error" in acks[2]

    def test_invalid_line_rejected_not_fatal(self, door):
        (base_spec,) = synthesize_jobs(1, constraints=8)
        post_jobs(door, [base_spec])
        good = json.dumps(
            {"job_id": "step-0", "base_job_id": base_spec.job_id}
        ).encode()
        body = (
            b'{"job_id": "", "base_job_id": "job-0000"}\n'
            b"not json at all\n"
            b"[1, 2]\n"
            b"null\n"
            b"3\n" + good + b"\n"
        )
        status, acks = post_lines(door, "/resolve", body)
        assert status == 200
        assert [ack["accepted"] for ack in acks] == [
            False, False, False, False, False, True,
        ]
        assert all("error" in ack for ack in acks[:5])

    def test_wrong_shape_resolve_rejected_with_nothing_queued(self, door):
        (base_spec,) = synthesize_jobs(1, constraints=8)
        post_jobs(door, [base_spec])
        bad = {
            "job_id": "bad-shape",
            "base_job_id": base_spec.job_id,
            "b": [1.0, 2.0],
        }
        good = {"job_id": "good-step", "base_job_id": base_spec.job_id}
        body = (json.dumps(bad) + "\n" + json.dumps(good) + "\n").encode()
        status, acks = post_lines(door, "/resolve", body)
        assert status == 200
        assert [ack["accepted"] for ack in acks] == [False, True]
        assert acks[0]["job_id"] == "bad-shape"
        assert "shape" in acks[0]["error"]
        collected = {}
        while len(collected) < 2:
            with urllib.request.urlopen(
                url(door, f"/stream?since={len(collected)}&timeout=30")
            ) as response:
                for line in response.read().decode().splitlines():
                    record = json.loads(line)
                    collected[record["job_id"]] = record
        assert set(collected) == {base_spec.job_id, "good-step"}
        service = door.service
        assert len(service.queue) == 0
        assert "bad-shape" not in service._catalog
        registry = service.telemetry.registry
        assert registry.counter_value("service.jobs_submitted") == 2.0

    def test_submit_rejects_resolve_lines(self, door):
        body = b'{"job_id": "r0", "base_job_id": "whatever"}\n'
        status, acks = post_lines(door, "/submit", body)
        assert status == 200
        (ack,) = acks
        assert ack["accepted"] is False
        assert "/resolve" in ack["error"]


def raw_exchange(door, request: bytes) -> bytes:
    """Send ``request`` as raw bytes and read until the server closes
    the connection; a server that keeps it open fails on the timeout."""
    with socket.create_connection(door.address, timeout=5) as connection:
        connection.sendall(request)
        data = b""
        while chunk := connection.recv(65536):
            data += chunk
    return data


def one_reply(data: bytes) -> tuple[int, dict, dict]:
    """``(status, headers, JSON payload)`` of the only reply in ``data``."""
    assert data.count(b"HTTP/1.") == 1, data
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode().split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, json.loads(body)


class TestContentLength:
    @pytest.mark.parametrize("path", ["/submit", "/resolve"])
    @pytest.mark.parametrize("length", ["abc", "-1", "1.5"])
    def test_bad_content_length_is_400(self, door, path, length):
        # The unread body would otherwise be parsed as a request line.
        data = raw_exchange(
            door,
            f"POST {path} HTTP/1.1\r\nHost: door\r\n"
            f"Content-Length: {length}\r\n\r\n".encode()
            + b"{}\n",
        )
        status, headers, payload = one_reply(data)
        assert status == 400
        assert headers["Connection"] == "close"
        assert "Content-Length" in payload["error"]
        # The door keeps serving.
        acks = post_jobs(door, synthesize_jobs(1, constraints=8))
        assert acks[0]["accepted"]

    def test_chunked_post_is_refused_and_closes(self, door):
        line = json.dumps({"job_id": "chunked", "constraints": 8}) + "\n"
        data = raw_exchange(
            door,
            b"POST /submit HTTP/1.1\r\nHost: door\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + f"{len(line):x}\r\n{line}\r\n0\r\n\r\n".encode(),
        )
        status, headers, payload = one_reply(data)
        assert 400 <= status < 500
        assert headers["Connection"] == "close"
        assert "Transfer-Encoding" in payload["error"]
        assert "chunked" not in door.service._catalog

    def test_body_cut_short_admits_nothing(self, door):
        line = json.dumps({"job_id": "cut", "constraints": 8}) + "\n"
        with socket.create_connection(door.address, timeout=5) as connection:
            connection.sendall(
                b"POST /submit HTTP/1.1\r\nHost: door\r\n"
                + f"Content-Length: {len(line) + 10}\r\n\r\n{line}".encode()
            )
            connection.shutdown(socket.SHUT_WR)
            assert connection.recv(65536) == b""
        assert "cut" not in door.service._catalog


class TestPersistentConnections:
    def test_resolve_and_stream_share_one_connection(self, door, monkeypatch):
        accepted = []
        serve = door._server.process_request

        def counting(request, client_address):
            accepted.append(client_address)
            serve(request, client_address)

        monkeypatch.setattr(door._server, "process_request", counting)
        (base_spec,) = synthesize_jobs(1, constraints=8)
        connection = http.client.HTTPConnection(*door.address, timeout=30)
        try:

            def exchange(method, path, body=None):
                connection.request(method, path, body=body)
                response = connection.getresponse()
                assert response.status == 200
                lines = response.read().decode().splitlines()
                return [json.loads(line) for line in lines]

            exchange("POST", "/submit", json.dumps(base_spec.to_dict()))
            exchange("GET", "/stream?since=0&timeout=30")
            step = {"job_id": "step-0", "base_job_id": base_spec.job_id}
            (ack,) = exchange("POST", "/resolve", json.dumps(step))
            assert ack["accepted"]
            (record,) = exchange("GET", "/stream?since=1&timeout=30")
            assert record["job_id"] == "step-0"
        finally:
            connection.close()
        assert len(accepted) == 1

    def test_connection_close_request_gets_one_reply(self, door):
        data = raw_exchange(
            door,
            b"GET /healthz HTTP/1.1\r\nHost: door\r\n"
            b"Connection: close\r\n\r\n",
        )
        status, _, payload = one_reply(data)
        assert (status, payload["status"]) == (200, "ok")

    def test_http10_request_gets_one_reply(self, door):
        status, _, payload = one_reply(
            raw_exchange(door, b"GET /healthz HTTP/1.0\r\n\r\n")
        )
        assert (status, payload["status"]) == (200, "ok")


#: The fuzz's one admitted job; its resolves fit ``b`` of length 8 and
#: ``c`` of length 8 // 3 = 2.
FUZZ_BASE = {"job_id": "fuzz-base", "constraints": 8}
FUZZ_STEP = {"job_id": "fuzz-step", "base_job_id": "fuzz-base"}

#: Per field, values the spec checks refuse on both schemas (``None``
#: only where the field is not optional), numbers no float holds among
#: them.
UNFIT = {
    "job_id": [5, 1.5, None, [], {}, True],
    "base_job_id": [5, None, ["fuzz-base"], False],
    "tenant": [7, None, [], {}],
    "constraints": ["8", 8.0, 1.5, None, [8], True],
    "group": ["0", 0.5, None, {}],
    "priority": ["high", 1.5, None, False],
    "max_attempts": ["3", 2.5, [], True, 0],
    "variation": ["5", None, [], True, float("nan"), float("inf"), 10**400],
    "deadline_s": ["1", [], True, float("nan"), -float("inf"), 10**400, 0],
    "perturb": ["0.1", None, True, float("nan"), 10**400, 1.0],
}
#: Values only a job spec refuses: a resolve inherits these fields from
#: its base, whatever its line carries.
UNFIT_JOB = {
    "kind": ["bogus", 1, None],
    "constraints": [2],
    "variation": [-1.0, 100.0],
}

#: What a job line may carry wrong: no ``base_job_id`` or ``perturb``
#: (a job spec has neither), plus the values only it refuses.
UNFIT_JOB_LINE = {
    field: UNFIT.get(field, []) + UNFIT_JOB.get(field, [])
    for field in (set(UNFIT) - {"base_job_id", "perturb"}) | set(UNFIT_JOB)
}


def unfit_field_lines(valid, refused):
    """Lines of ``valid`` but for one ``refused`` field value."""
    return st.sampled_from(sorted(refused)).flatmap(
        lambda field: st.sampled_from(refused[field]).map(
            lambda value: json.dumps({**valid, field: value})
        )
    )


def misshaped_vectors(size):
    """``b`` / ``c`` values that are not ``size`` finite numbers."""
    number = st.floats(-1e3, 1e3, allow_nan=False)
    return st.one_of(
        st.integers(0, 12).filter(lambda k: k != size).flatmap(
            lambda k: st.lists(number, min_size=k, max_size=k)
        ),
        st.sampled_from(
            [
                3.0,
                "12345678"[:size],
                dict.fromkeys("12345678"[:size], 0.0),
                [[1.0]] * size,
                ["1"] * size,
                [None] * size,
                [float("nan")] * size,
                [10**400] * size,
            ]
        ),
    )


@st.composite
def misshaped_resolve_lines(draw):
    """A resolve of the fuzz base whose ``b`` or ``c`` does not fit."""
    label, size = draw(st.sampled_from([("b", 8), ("c", 2)]))
    return json.dumps({**FUZZ_STEP, label: draw(misshaped_vectors(size))})


def one_line(text: str) -> bool:
    """Whether ``text`` is one non-blank line to the door's parser."""
    return bool(text.strip()) and text.splitlines() == [text]


def not_an_object(text: str) -> bool:
    try:
        return not isinstance(json.loads(text), dict)
    except (ValueError, RecursionError):
        return True


#: Lines either endpoint must reject.
MALFORMED_LINES = st.one_of(
    # Malformed JSON: a cut-off spec, stray text, unclosed nesting.
    st.integers(1, len(json.dumps(FUZZ_BASE)) - 1).map(
        lambda k: json.dumps(FUZZ_BASE)[:k]
    ),
    st.text(st.characters(codec="utf-8"), min_size=1)
    .filter(one_line)
    .filter(not_an_object),
    st.integers(1, 50_000).map(lambda depth: "[" * depth),
    # JSON values that are not objects.
    st.one_of(
        st.integers(), st.floats(), st.text(), st.none(), st.booleans(),
        st.lists(st.integers(), max_size=3),
    ).map(json.dumps),
)

#: Per endpoint, the lines it must reject, each with its own ack.
REFUSED_LINES = {
    "/submit": st.one_of(
        MALFORMED_LINES, unfit_field_lines(FUZZ_BASE, UNFIT_JOB_LINE)
    ),
    "/resolve": st.one_of(
        MALFORMED_LINES,
        unfit_field_lines(FUZZ_STEP, UNFIT),
        misshaped_resolve_lines(),
    ),
}

BLANK_LINES = st.sampled_from(["", " ", "\t", " \t "])


class TestMalformedBodiesFuzz:
    def test_every_line_acked_and_connection_kept(self, door, monkeypatch):
        accepted = []
        serve = door._server.process_request

        def counting(request, client_address):
            accepted.append(client_address)
            serve(request, client_address)

        monkeypatch.setattr(door._server, "process_request", counting)
        connection = http.client.HTTPConnection(*door.address, timeout=30)

        def exchange(method, path, body=None):
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read().decode()

        @given(
            st.sampled_from(sorted(REFUSED_LINES)).flatmap(
                lambda path: st.tuples(
                    st.just(path),
                    st.lists(
                        st.one_of(REFUSED_LINES[path], BLANK_LINES),
                        max_size=6,
                    ),
                )
            )
        )
        @settings(
            max_examples=150,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def every_line_refused(request):
            path, lines = request
            body = "\n".join(lines).encode()
            status, payload = exchange("POST", path, body)
            assert status == 200
            acks = [json.loads(line) for line in payload.splitlines()]
            assert len(acks) == sum(1 for line in lines if line.strip())
            for ack in acks:
                assert ack["accepted"] is False
                assert isinstance(ack["error"], str)
            status, payload = exchange("GET", "/healthz")
            assert (status, json.loads(payload)["status"]) == (200, "ok")

        try:
            status, payload = exchange("POST", "/submit", json.dumps(FUZZ_BASE))
            assert json.loads(payload)["accepted"]
            every_line_refused()
        finally:
            connection.close()
        assert len(accepted) == 1
        # Nothing refused reached the queue or the catalog.
        assert set(door.service._catalog) == {"fuzz-base"}


class TestStream:
    def test_streams_completions_with_sequence_numbers(self, door):
        post_jobs(door, synthesize_jobs(3, constraints=8))
        collected = {}
        while len(collected) < 3:
            with urllib.request.urlopen(
                url(door, f"/stream?since={len(collected)}&timeout=30")
            ) as response:
                for line in response.read().decode().splitlines():
                    record = json.loads(line)
                    collected[record["seq"]] = record
        assert sorted(collected) == [0, 1, 2]
        assert {r["job_id"] for r in collected.values()} == {
            f"job-{i:04d}" for i in range(3)
        }
        assert all(r["status"] == "optimal" for r in collected.values())

    def test_bad_query_is_400(self, door):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url(door, "/stream?since=abc"))
        with excinfo.value as error:  # closes the unread reply's socket
            assert error.code == 400


class TestStatusEndpoints:
    def test_healthz(self, door):
        with urllib.request.urlopen(url(door, "/healthz")) as response:
            payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert {"queue_depth", "completed", "tier"} <= set(payload)

    def test_stats_reflects_completions(self, door):
        post_jobs(door, synthesize_jobs(2, constraints=8))
        # Wait for both completions, then read the stats surface.
        with urllib.request.urlopen(
            url(door, "/stream?since=1&timeout=30")
        ):
            pass
        with urllib.request.urlopen(url(door, "/stats")) as response:
            payload = json.loads(response.read())
        assert payload["jobs"] >= 2
        assert "jobs=" in payload["line"]


class TestLifecycle:
    def test_stop_drains_accepted_jobs(self):
        config = ServiceConfig(
            pool_size=2, queue_depth=16, base_seed=7, workers=2
        )
        door = FrontDoor(SolverService(config))
        door.start()
        acks = post_jobs(door, synthesize_jobs(6, constraints=8))
        assert all(ack["accepted"] for ack in acks)
        records = door.stop()
        # An accepted job is never lost: all six complete.
        assert {record.spec.job_id for record in records} == {
            f"job-{i:04d}" for i in range(6)
        }

    def test_idle_door_wakes_on_submit(self, monkeypatch):
        # A 30 s safety-net poll: only the admission notify can deliver
        # the record inside the 5 s long-poll.
        monkeypatch.setattr(repro.service.dispatch, "_WAIT_S", 30.0)
        config = ServiceConfig(pool_size=1, base_seed=7, workers=1)
        door = FrontDoor(SolverService(config))
        door.start()
        try:
            time.sleep(0.2)  # let the worker go idle on the condition
            acks = post_jobs(door, synthesize_jobs(1, constraints=8))
            assert acks[0]["accepted"]
            with urllib.request.urlopen(
                url(door, "/stream?since=0&timeout=5")
            ) as response:
                lines = response.read().decode().splitlines()
            assert [json.loads(line)["job_id"] for line in lines] == [
                "job-0000"
            ]
        finally:
            door.stop()

    def test_stopped_door_is_freed_by_refcounting(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            service = SolverService(
                ServiceConfig(pool_size=2, base_seed=7, workers=1),
                telemetry=ServiceTelemetry(),
            )
            assert service.pool.members[0].breaker is not None
            door = FrontDoor(service)
            door.start()
            post_jobs(door, synthesize_jobs(1, constraints=8))
            with urllib.request.urlopen(
                url(door, "/stream?since=0&timeout=30")
            ) as response:
                assert response.read()
            assert len(door.stop()) == 1
            refs = [weakref.ref(obj) for obj in (door, service, service.pool)]
            del door, service
            assert [ref() is None for ref in refs] == [True, True, True]
        finally:
            if enabled:
                gc.enable()

    def test_stop_closes_idle_and_polling_connections(self, monkeypatch):
        polling_started = threading.Event()
        stream = frontdoor._Handler._stream

        def signalling(handler, query):
            polling_started.set()
            stream(handler, query)

        monkeypatch.setattr(frontdoor._Handler, "_stream", signalling)
        door = FrontDoor(
            SolverService(ServiceConfig(pool_size=1, base_seed=7, workers=1))
        )
        door.start()
        idle = http.client.HTTPConnection(*door.address, timeout=30)
        polling = http.client.HTTPConnection(*door.address, timeout=30)
        try:
            idle.request("GET", "/healthz")
            assert idle.getresponse().read()
            replies = []

            def long_poll():
                polling.request("GET", "/stream?since=0&timeout=30")
                response = polling.getresponse()
                replies.append((response.status, response.read()))

            poller = threading.Thread(target=long_poll)
            poller.start()
            # The long-poll is pending once its request has been read.
            assert polling_started.wait(5)
            handlers = list(door._server._connections.values())
            assert len(handlers) == 2
            started = time.monotonic()
            assert door.stop() == []
            assert time.monotonic() - started < 2.0
            assert not any(thread.is_alive() for thread in handlers)
            poller.join(5)
            assert not poller.is_alive()
            # The pending long-poll returned the records it had: none.
            assert replies == [(200, b"")]
        finally:
            idle.close()
            polling.close()

    def test_connection_churn_then_stop_leaves_nothing_open(self):
        # More clients than cores open, use and close persistent
        # connections under a short switch interval; stop() must still
        # leave no connection tracked and no handler thread running.
        door = FrontDoor(
            SolverService(ServiceConfig(pool_size=1, base_seed=7, workers=1))
        )
        door.start()
        failures = []

        def client():
            try:
                for _ in range(5):
                    connection = http.client.HTTPConnection(
                        *door.address, timeout=30
                    )
                    try:
                        for _ in range(3):
                            connection.request("GET", "/healthz")
                            response = connection.getresponse()
                            assert response.status == 200
                            response.read()
                    finally:
                        connection.close()
            except Exception as exc:  # reported below, on the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(30)
            assert not any(thread.is_alive() for thread in clients)
        finally:
            sys.setswitchinterval(interval)
            door.stop()
        assert failures == []
        assert door._server._connections == {}
        assert not [
            thread
            for thread in threading.enumerate()
            if thread.name == "repro-frontdoor-conn"
        ]

    def test_port_zero_binds_ephemeral(self, door):
        host, port = door.address
        assert host == "127.0.0.1"
        assert port > 0
