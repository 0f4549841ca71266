"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

import repro.experiments.reproduce as reproduce
from repro.__main__ import build_parser, main
from repro.experiments import SweepConfig
from repro.obs import read_trace_jsonl


class TestSolveCommand:
    def test_solve_runs(self, capsys):
        code = main(
            ["solve", "--constraints", "10", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scipy optimum" in out
        assert "relative error" in out
        assert "modeled hardware" in out

    def test_reference_solver_has_no_hardware_line(self, capsys):
        code = main(
            [
                "solve",
                "--constraints",
                "10",
                "--solver",
                "reference",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "modeled hardware" not in out

    def test_variation_accepted(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--constraints",
                    "10",
                    "--variation",
                    "10",
                ]
            )
            == 0
        )


class TestObservabilityFlags:
    def test_trace_out_writes_valid_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "solve",
                "--constraints",
                "10",
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        events = read_trace_jsonl(trace)
        # Every line is standalone JSON with a known event kind.
        kinds = {event["kind"] for event in events}
        assert kinds <= {"span", "count", "gauge"}
        span_names = {
            e["name"] for e in events if e["kind"] == "span"
        }
        assert {"solve", "attempt", "iteration"} <= span_names

    def test_metrics_out_writes_prometheus_textfile(
        self, capsys, tmp_path
    ):
        metrics = tmp_path / "metrics.prom"
        code = main(
            [
                "solve",
                "--constraints",
                "10",
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        assert "metrics written" in capsys.readouterr().out
        body = metrics.read_text()
        assert "repro_analog_multiplies_total" in body
        for line in body.splitlines():
            if not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

    def test_both_flags_with_reliability_path(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.prom"
        code = main(
            [
                "solve",
                "--constraints",
                "10",
                "--probe",
                "--trace-out",
                str(trace),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        events = read_trace_jsonl(trace)
        span_names = {
            e["name"] for e in events if e["kind"] == "span"
        }
        assert "probe" in span_names
        assert metrics.read_text().startswith("# HELP")

    def test_default_leaves_no_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["solve", "--constraints", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace written" not in out
        assert "metrics written" not in out
        assert list(tmp_path.iterdir()) == []

    def test_trace_works_for_reference_solver(self, capsys, tmp_path):
        # The reference solver accepts the flags; the trace is just a
        # valid (possibly empty) event stream.
        trace = tmp_path / "ref.jsonl"
        code = main(
            [
                "solve",
                "--constraints",
                "10",
                "--solver",
                "reference",
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0
        header = json.loads(trace.read_text().splitlines()[0])
        assert header["format"] == "repro-trace"


class TestParasiticsCommand:
    def test_runs_and_reports_budget(self, capsys):
        assert main(["parasitics", "--budget", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "ir_drop_rel_err" in out
        assert "budget" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig99"])

    def test_figures_all_accepted(self):
        args = build_parser().parse_args(["figures", "all"])
        assert args.targets == ["all"]

    def test_both_infeasibility_figures_accepted(self):
        args = build_parser().parse_args(
            ["figures", "infeasibility_s1", "infeasibility_s2"]
        )
        assert args.targets == ["infeasibility_s1", "infeasibility_s2"]


class TestFiguresCommand:
    def test_figs_5_to_7_run_one_sweep(self, capsys, monkeypatch):
        tiny = SweepConfig(sizes=(8,), variations=(0,), trials=1)
        sweeps = []
        real = reproduce.run_sweep

        def counting(experiment, solver, config, **kwargs):
            sweeps.append((experiment, solver))
            return real(experiment, solver, tiny, **kwargs)

        monkeypatch.setattr(reproduce, "run_sweep", counting)
        assert main(["figures", "fig5a", "fig6a", "fig7a"]) == 0
        assert sweeps == [("feasible", "crossbar")]
        out = capsys.readouterr().out
        for name in ("fig5a", "fig6a", "fig7a"):
            assert f"=== {name} (crossbar) ===" in out
        for column in ("mean_rel_err", "crossbar_ms", "crossbar_J"):
            assert column in out


class TestSweepCommand:
    ARGS = [
        "sweep",
        "feasible",
        "--solver",
        "reference",
        "--sizes",
        "8",
        "--variations",
        "0",
        "--trials",
        "2",
    ]

    def test_sweep_runs_and_prints_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "mean_rel_err" in out
        assert "2 executed" in out

    def test_sweep_resume_skips_cached_cells(self, capsys, tmp_path):
        cache = tmp_path / "cells.jsonl"
        assert main(self.ARGS + ["--resume", str(cache)]) == 0
        first = capsys.readouterr().out
        assert "2 executed, 0 restored" in first
        assert main(self.ARGS + ["--resume", str(cache)]) == 0
        second = capsys.readouterr().out
        assert "0 executed, 2 restored" in second
        # The table itself is byte-identical across the resume.
        assert first.splitlines()[:4] == second.splitlines()[:4]

    def test_sweep_workers_match_serial_output(self, capsys):
        assert main(self.ARGS) == 0
        serial = capsys.readouterr().out.splitlines()[:4]
        assert main(self.ARGS + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out.splitlines()[:4]
        assert serial == parallel

    def test_sweep_trace_out(self, capsys, tmp_path):
        trace = tmp_path / "sweep-trace.jsonl"
        assert main(self.ARGS + ["--trace-out", str(trace)]) == 0
        events = read_trace_jsonl(trace)
        cells = [
            e
            for e in events
            if e["kind"] == "span" and e["name"] == "sweep_cell"
        ]
        assert len(cells) == 2
        assert all("worker" in c["attrs"] for c in cells)

    def test_sweep_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            main(["sweep", "bogus"])

    def test_sweep_accepts_module_spec_reference(self, capsys):
        code = main(
            [
                "sweep",
                "tests.experiments.crash_spec:SPEC",
                "--solver",
                "reference",
                "--sizes",
                "8",
                "--variations",
                "0",
                "--trials",
                "2",
            ]
        )
        # The planted (8, 0, 1) crash is isolated, reported, and
        # turned into a nonzero exit — not a crashed sweep.
        assert code == 1
        out = capsys.readouterr().out
        assert "1 failed" in out
        assert "FAILED cell size=8 variation=0 trial=1" in out
        assert "cell_crashed" in out


class TestSolveExitCode:
    def test_success_exits_zero(self):
        assert main(["solve", "--constraints", "10", "--seed", "3"]) == 0

    def test_failed_solve_exits_nonzero(self, capsys):
        # A heavily stuck-off array fails the health probe; the
        # failure must surface as a nonzero exit for scripting.
        code = main(
            [
                "solve",
                "--constraints",
                "10",
                "--seed",
                "3",
                "--stuck-off",
                "0.4",
                "--probe",
            ]
        )
        assert code == 1
        assert "status" in capsys.readouterr().out


class TestServeCommand:
    ARGS = [
        "serve",
        "--jobs",
        "6",
        "--groups",
        "2",
        "--constraints",
        "10",
        "--seed",
        "7",
    ]

    def test_serve_prints_per_job_lines_and_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert out.count("job-") == 6
        assert "warm" in out and "cold" in out
        assert "jobs/s" in out
        assert "cache hit rate" in out

    def test_serve_writes_records_jsonl(self, capsys, tmp_path):
        records = tmp_path / "records.jsonl"
        assert main(self.ARGS + ["--out", str(records)]) == 0
        lines = records.read_text().splitlines()
        assert len(lines) == 6
        record = json.loads(lines[0])
        assert record["status"] == "optimal"
        assert {"job_id", "member", "warm", "requeues"} <= set(record)

    def test_serve_trace_has_job_spans(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(self.ARGS + ["--trace-out", str(trace)]) == 0
        events = read_trace_jsonl(trace)
        jobs = [
            e
            for e in events
            if e["kind"] == "span" and e["name"] == "service.job"
        ]
        assert len(jobs) == 6
        assert all("fingerprint" in j["attrs"] for j in jobs)

    def test_serve_metrics_declare_each_family_once(self, capsys, tmp_path):
        # The Prometheus text format allows one TYPE line per family:
        # every service and pool number is written once, into the
        # telemetry registry, never a second time into the trace.
        metrics = tmp_path / "m.prom"
        assert main(self.ARGS + ["--metrics-out", str(metrics)]) == 0
        body = metrics.read_text()
        families = [
            line.split()[2]
            for line in body.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert len(families) == len(set(families)), sorted(
            name for name in families if families.count(name) > 1
        )
        assert "repro_service_jobs_completed_total" in families
        assert "repro_service_latency_s" in families
        assert "repro_crossbar_cells_written_total" in families

    def test_serve_survives_injected_fault(self, capsys):
        code = main(self.ARGS + ["--inject-fault", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "requeues=" in out  # at least one job was rescheduled

    def test_inject_fault_validates_member(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--inject-fault", "9"])

    def test_stats_final_flush_on_fast_batch(self, capsys):
        # Regression: a batch that drains between intervals must still
        # get a closing stats line covering every job.
        assert main(self.ARGS + ["--stats-every", "10"]) == 0
        out = capsys.readouterr().out
        stats = [l for l in out.splitlines() if l.startswith("[stats]")]
        assert len(stats) == 1
        assert "jobs=6" in stats[0]

    def test_stats_no_duplicate_final_line(self, capsys):
        # When the batch size lands exactly on an interval, the final
        # flush must not repeat the line the interval already printed.
        assert main(self.ARGS + ["--stats-every", "3"]) == 0
        out = capsys.readouterr().out
        stats = [l for l in out.splitlines() if l.startswith("[stats]")]
        assert len(stats) == 2
        assert "jobs=6" in stats[-1]

    def test_concurrent_workers_complete_all_jobs(self, capsys):
        code = main(
            self.ARGS
            + [
                "--workers", "0",  # auto: one worker per pool member
                "--tenants", "2",
                "--tenant", "tenant-00:2.0:2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(6 ok, 0 failed)" in out
        assert out.count("job-") == 6

    def test_bad_tenant_spec_exits(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--tenant", "a:not-a-number"])

    def test_bad_listen_address_exits(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--listen", "nope"])


class TestBatchCommand:
    def make_jobs_file(self, tmp_path, count=5):
        from repro.service import synthesize_jobs, write_jobs_jsonl

        specs = synthesize_jobs(count, groups=2, constraints=10)
        return write_jobs_jsonl(specs, tmp_path / "jobs.jsonl")

    def test_batch_runs_jobs_file(self, capsys, tmp_path):
        path = self.make_jobs_file(tmp_path)
        assert main(["batch", str(path), "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("job-") == 5
        assert "jobs/s" in out

    def test_batch_rejects_empty_file(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["batch", str(empty)])


class TestChaosFlag:
    def write_scenario(self, tmp_path):
        scenario = {
            "name": "cli-storm",
            "seed": 7,
            "events": [
                {
                    "at_job": 1,
                    "kind": "stuck_cells",
                    "member": 0,
                    "row_fraction": 1.0,
                },
                {"at_job": 3, "kind": "queue_pulse", "jobs": 2,
                 "constraints": 9},
            ],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        return path

    def base_args(self):
        return [
            "serve", "--jobs", "6", "--groups", "2",
            "--constraints", "10", "--seed", "7",
            "--fallback", "reference",
        ]

    def test_chaos_scenario_runs_and_reports(self, capsys, tmp_path):
        path = self.write_scenario(tmp_path)
        assert main(self.base_args() + ["--chaos", str(path)]) == 0
        out = capsys.readouterr().out
        assert "chaos:         2/2 events fired (cli-storm)" in out
        assert out.count("pulse-cli-storm-") == 2

    def test_chaos_records_are_deterministic(self, capsys, tmp_path):
        path = self.write_scenario(tmp_path)
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            records = tmp_path / name
            assert (
                main(
                    self.base_args()
                    + ["--chaos", str(path), "--out", str(records)]
                )
                == 0
            )
            outs.append(records.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_scenario_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(
                self.base_args()
                + ["--chaos", str(tmp_path / "nope.json")]
            )

    def test_deadline_flag_accepted(self, capsys):
        assert main(self.base_args() + ["--deadline", "30"]) == 0


class TestTelemetryFlags:
    def base_args(self):
        return [
            "serve", "--jobs", "8", "--groups", "2",
            "--constraints", "10", "--seed", "7",
            "--fallback", "reference",
        ]

    def test_stats_every_prints_stats_lines(self, capsys):
        assert main(self.base_args() + ["--stats-every", "3"]) == 0
        out = capsys.readouterr().out
        stats = [line for line in out.splitlines() if line.startswith("[stats]")]
        # Every 3rd completion plus the closing line: jobs 3, 6, 8.
        assert len(stats) == 3
        assert "p99=" in stats[-1]
        assert "energy/job=" in stats[-1]
        assert "tier=NORMAL" in stats[-1]

    def test_no_stats_lines_by_default(self, capsys):
        assert main(self.base_args()) == 0
        assert "[stats]" not in capsys.readouterr().out

    def test_stats_do_not_change_record_bytes(self, capsys, tmp_path):
        outs = []
        for name, extra in (
            ("plain.jsonl", []),
            ("telem.jsonl", ["--stats-every", "2"]),
        ):
            records = tmp_path / name
            assert (
                main(self.base_args() + ["--out", str(records)] + extra)
                == 0
            )
            outs.append(records.read_bytes())
        assert outs[0] == outs[1]

    def test_summary_includes_latency_and_energy(self, capsys):
        assert main(self.base_args()) == 0
        out = capsys.readouterr().out
        assert "latency:" in out and "p50" in out and "p99" in out
        assert "energy:" in out and "J/job" in out

    def test_records_carry_energy(self, capsys, tmp_path):
        records = tmp_path / "records.jsonl"
        assert main(self.base_args() + ["--out", str(records)]) == 0
        payloads = [
            json.loads(line)
            for line in records.read_text().splitlines()
        ]
        assert all("energy_j" in p for p in payloads)
        assert any(p["energy_j"] > 0 for p in payloads)

    def test_metrics_out_includes_registry_series(self, capsys, tmp_path):
        metrics = tmp_path / "m.prom"
        assert (
            main(self.base_args() + ["--metrics-out", str(metrics)]) == 0
        )
        body = metrics.read_text()
        assert "repro_service_latency_s_bucket" in body
        assert "repro_service_job_energy_j_sum" in body
        assert "repro_slo_availability_budget_remaining" in body

    def storm_scenario(self, tmp_path):
        # Degrade live members (stuck cells + drift) so analog attempts
        # fail while still acquiring a pool member — those failures feed
        # the degradation window and force a brownout tier change, one
        # of the flight-recorder trip triggers.  (member_death alone
        # does not: dead members are never acquired, so no samples.)
        scenario = {
            "name": "storm",
            "seed": 7,
            "events": [
                {"at_job": 2, "kind": "stuck_cells", "member": 0,
                 "row_fraction": 0.5},
                {"at_job": 5, "kind": "member_death", "member": 1},
                {"at_job": 8, "kind": "drift", "member": 0,
                 "magnitude": 0.2},
            ],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        return path

    def test_flight_dir_dumps_on_chaos_trip(self, capsys, tmp_path):
        path = self.storm_scenario(tmp_path)
        flights = tmp_path / "flights"
        code = main(
            self.base_args()
            + [
                "--jobs", "24",
                "--chaos", str(path),
                "--flight-dir", str(flights),
            ]
        )
        assert code == 0
        dumps = sorted(flights.glob("flight-*.jsonl"))
        assert dumps, "expected at least one flight recording"
        events = [json.loads(line) for line in dumps[0].read_text().splitlines()]
        assert events[-1]["kind"] == "trip"
        assert "flight recordings:" in capsys.readouterr().out

    def test_trips_without_flight_dir_are_reported(self, capsys, tmp_path):
        path = self.storm_scenario(tmp_path)
        code = main(
            self.base_args() + ["--jobs", "24", "--chaos", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trip(s) not dumped" in out
        assert "--flight-dir" in out
