"""Tests for the JSONL-over-HTTP front door."""

import gc
import http.client
import json
import time
import urllib.request
import weakref

import pytest

import repro.service.dispatch
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
        assert excinfo.value.code == 404


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


def raw_post(door, path, length_header, body=b""):
    """POST with a hand-written ``Content-Length``; returns the reply."""
    connection = http.client.HTTPConnection(*door.address, timeout=5)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Length", length_header)
        connection.endheaders()
        if body:
            connection.send(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestContentLength:
    @pytest.mark.parametrize("path", ["/submit", "/resolve"])
    @pytest.mark.parametrize("length", ["abc", "-1", "1.5"])
    def test_bad_content_length_is_400(self, door, path, length):
        status, payload = raw_post(door, path, length, b"{}\n")
        assert status == 400
        assert "Content-Length" in payload["error"]
        # The door keeps serving.
        acks = post_jobs(door, synthesize_jobs(1, constraints=8))
        assert acks[0]["accepted"]


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
        assert excinfo.value.code == 400


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

    def test_port_zero_binds_ephemeral(self, door):
        host, port = door.address
        assert host == "127.0.0.1"
        assert port > 0
