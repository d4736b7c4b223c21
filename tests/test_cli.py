"""Unit tests for the ``python -m repro`` command-line tools."""

import json

import pytest

from repro.cli import main, parse_coord, parse_fault, parse_loads, parse_shape


class TestParsers:
    def test_shape(self):
        assert parse_shape("4x3") == (4, 3)
        assert parse_shape("16X16x8") == (16, 16, 8)

    def test_shape_bad(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_shape("4by3")

    def test_coord(self):
        assert parse_coord("2,0") == (2, 0)
        assert parse_coord("1,2,3") == (1, 2, 3)

    def test_fault_router(self):
        f = parse_fault("rtr:2,0")
        assert f.coord == (2, 0)

    def test_fault_xb(self):
        f = parse_fault("xb:0:1")
        assert f.dim == 0 and f.line == (1,)

    def test_fault_bad(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_fault("link:3")

    def test_loads_comma_list(self):
        assert parse_loads("0.05,0.1,0.2") == [0.05, 0.1, 0.2]

    def test_loads_linear_range(self):
        loads = parse_loads("0.1:0.4:4")
        assert len(loads) == 4
        assert loads[0] == pytest.approx(0.1) and loads[-1] == pytest.approx(0.4)
        assert parse_loads("0.3:0.9:1") == [0.3]

    def test_loads_bad(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_loads("0.1;0.2")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_loads("0.1:0.4:0")


class TestCommands:
    def test_route(self, capsys):
        rc = main(["route", "--shape", "4x3", "--src", "0,0", "--dst", "2,2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PE(0, 0)" in out and "PE(2, 2)" in out

    def test_route_with_fault_detours(self, capsys):
        rc = main(
            ["route", "--shape", "4x3", "--src", "0,0", "--dst", "2,2",
             "--fault", "rtr:2,0"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "-d->" in out

    def test_route_broadcast(self, capsys):
        rc = main(["route", "--shape", "4x3", "--src", "1,1", "--bcast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "12 PEs covered" in out

    def test_route_missing_dst(self, capsys):
        rc = main(["route", "--shape", "4x3", "--src", "0,0"])
        assert rc == 2

    def test_check_safe(self, capsys):
        rc = main(["check", "--shape", "4x3", "--fault", "rtr:2,0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "deadlock free: True" in out
        assert "certificate" in out

    def test_check_naive_fails(self, capsys):
        rc = main(
            ["check", "--shape", "4x3", "--fault", "rtr:2,0", "--detour", "naive"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "deadlock free: False" in out

    def test_census_single(self, capsys):
        rc = main(["census", "--shape", "3x2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "TOLERATED" in out

    @pytest.mark.parametrize(
        "extra", [["--fault", "rtr:0,0"], ["--broadcast", "naive"]]
    )
    def test_census_rejects_options_it_does_not_read(self, extra):
        """The census places its own faults and always certifies the
        serialized facility, so it takes neither option."""
        with pytest.raises(SystemExit) as exc:
            main(["census", "--shape", "3x2"] + extra)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["trace", "report"])
    @pytest.mark.parametrize(
        "extra", [["--detour", "naive"], ["--broadcast", "naive"]], ids=str
    )
    def test_a_scheme_refuses_the_facility_options(self, capsys, command, extra):
        """Only the dxb facility reads ``--detour`` / ``--broadcast``; any
        other scheme names them in an ``error:`` line and exits 2."""
        argv = [command, "--shape", "3x3", "--scheme", "mesh", "--cycles", "20"]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --scheme mesh does not read ")
        assert " ".join(extra) in err

    def test_census_pairs(self, capsys):
        rc = main(["census", "--shape", "3x2", "--pairs", "--max-sets", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault sets analysed" in out

    def test_simulate(self, capsys):
        rc = main(
            ["simulate", "--shape", "4x3", "--load", "0.2", "--cycles", "200"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "latency:" in out

    def test_figures(self, capsys):
        rc = main(["figures"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("as the paper predicts") == 4

    def test_figures_recovery(self, capsys):
        """With --recovery the two by-design deadlocks (Figs. 5 and 9)
        drain after online rotations; the safe scenarios are untouched."""
        rc = main(["figures", "--recovery"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("deadlock broken online") == 2
        assert out.count("as the paper predicts") == 2
        assert "deadlock (" not in out

    def test_machine(self, capsys):
        rc = main(["machine", "--config", "SR2201/64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "64 PEs" in out

    def test_machine_all(self, capsys):
        rc = main(["machine"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2048 PEs" in out

    def test_error_path(self, capsys):
        rc = main(["machine", "--config", "SR2201/512"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_infeasible_config_reported(self, capsys):
        rc = main(
            ["check", "--shape", "4x3", "--fault", "xb:0:0", "--fault", "xb:1:1"]
        )
        assert rc == 2
        assert "R1" in capsys.readouterr().err


class TestExtendedCommands:
    def test_kernels(self, capsys):
        rc = main(["kernels", "--shape", "3x3", "--kernel", "stencil",
                   "--topology", "md-crossbar"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stencil" in out

    def test_kernels_skips_invalid(self, capsys):
        rc = main(["kernels", "--shape", "4x3", "--kernel", "fft",
                   "--topology", "md-crossbar"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "skipped" in out

    def test_collectives(self, capsys):
        rc = main(["collectives", "--shape", "3x3", "--packet-length", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hardware S-XB broadcast" in out
        assert "binomial" in out
        assert "barrier" in out

    def test_replay_roundtrip(self, capsys, tmp_path):
        from repro.traffic import WorkloadTrace
        from repro.core import RC

        t = WorkloadTrace(shape=(4, 3))
        t.add(0, (0, 0), (3, 2), length=4)
        t.add(1, (1, 1), (1, 1), rc=RC.BROADCAST_REQUEST)
        path = tmp_path / "t.jsonl"
        t.save(path)
        rc = main(["replay", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "replayed 2 packets" in out

    def test_replay_with_fault(self, capsys, tmp_path):
        from repro.traffic import WorkloadTrace

        t = WorkloadTrace(shape=(4, 3))
        t.add(0, (0, 0), (2, 2), length=4)
        path = tmp_path / "t.jsonl"
        t.save(path)
        rc = main(["replay", str(path), "--fault", "rtr:2,0"])
        assert rc == 0


SWEEP_FAST = ["--shape", "3x3", "--warmup", "30", "--window", "60",
              "--drain", "600"]


class TestSweepCommand:
    def test_sweep_table(self, capsys):
        rc = main(["sweep", "--loads", "0.05,0.15", *SWEEP_FAST])
        out = capsys.readouterr().out
        assert rc == 0
        assert "md-crossbar 3x3" in out and "2 points" in out
        assert out.count("load=0.") == 2

    def test_sweep_json(self, capsys):
        rc = main(["sweep", "--loads", "0.05:0.15:2", "--json", *SWEEP_FAST])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [d["spec"]["load"] for d in data] == [0.05, 0.15]
        assert all(not d["deadlocked"] for d in data)
        assert all("mean" in d["latency"] for d in data)

    def test_sweep_jobs_matches_serial(self, capsys):
        argv = ["sweep", "--loads", "0.05,0.15", "--json", *SWEEP_FAST]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        for s, p in zip(serial, parallel):
            s.pop("wall_time"), p.pop("wall_time")
        assert parallel == serial

    def test_sweep_seed_replicas(self, capsys):
        rc = main(["sweep", "--loads", "0.1", "--seeds", "3", "--json",
                   *SWEEP_FAST])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [d["spec"]["seed"] for d in data] == [1, 2, 3]

    def test_sweep_with_fault(self, capsys):
        rc = main(["sweep", "--loads", "0.1", "--fault", "rtr:1,1",
                   *SWEEP_FAST])
        assert rc == 0

    def test_sweep_other_kind(self, capsys):
        rc = main(["sweep", "--kind", "mesh", "--loads", "0.1", *SWEEP_FAST])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mesh 3x3" in out

    def test_sweep_rejects_a_hypercube_shape_before_running(self, capsys):
        rc = main(["sweep", "--kind", "hypercube", "--loads", "0.1",
                   *SWEEP_FAST[2:], "--shape", "4x4"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "2x2x2x2" in captured.err
        assert captured.out == ""

    def test_sweep_metrics_table(self, capsys):
        rc = main(["sweep", "--loads", "0.05,0.15", "--metrics", *SWEEP_FAST])
        out = capsys.readouterr().out
        assert rc == 0
        assert "merged metrics across all points" in out
        assert "latency histogram (cycles)" in out
        assert "deliveries" in out

    def test_sweep_metrics_json_parallel_matches_serial(self, capsys):
        argv = ["sweep", "--loads", "0.05,0.15", "--metrics", "--json",
                *SWEEP_FAST]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)
        assert all(d["metrics"]["deliveries"]["value"] > 0 for d in serial)
        assert main(argv + ["--jobs", "4"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert [d["metrics"] for d in parallel] == [
            d["metrics"] for d in serial
        ]

    def test_sweep_reports_effective_workers(self, capsys):
        """--jobs echoes what actually ran: two specs on --jobs 8 use
        two workers; --jobs 1 (or none) runs serially."""
        rc = main(["sweep", "--loads", "0.05,0.15", "--jobs", "8",
                   *SWEEP_FAST])
        captured = capsys.readouterr()
        assert rc == 0
        assert "jobs=8 (2 effective worker(s)" in captured.out
        assert "2 spec(s) on 2 worker(s)" in captured.err
        rc = main(["sweep", "--loads", "0.05,0.15", *SWEEP_FAST])
        captured = capsys.readouterr()
        assert rc == 0
        assert "jobs=1 (1 effective worker(s)" in captured.out

    def test_sweep_cache_replay_is_byte_identical(self, tmp_path, capsys):
        argv = ["sweep", "--loads", "0.05,0.15", "--json", "--cache",
                "--cache-dir", str(tmp_path / "cache"), *SWEEP_FAST]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "0 hit(s)" in first.err and "2 put(s)" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        # stdout byte-identical, wall_time included -- the CI smoke step
        # cmp(1)s exactly this
        assert second.out == first.out
        assert "2 hit(s)" in second.err
        assert "0 from cache, 2 simulated" in first.err
        assert "2 from cache, 0 simulated" in second.err

    def test_sweep_no_cache_skips_the_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        base = ["sweep", "--loads", "0.05", "--cache-dir", str(cache_dir),
                *SWEEP_FAST]
        assert main(base + ["--no-cache"]) == 0
        assert not cache_dir.exists()
        assert "cache:" not in capsys.readouterr().err

    def test_sweep_cache_metrics_exports_counters(self, tmp_path, capsys):
        argv = ["sweep", "--loads", "0.05", "--metrics", "--cache",
                "--cache-dir", str(tmp_path / "cache"), *SWEEP_FAST]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "result_cache.hits" in out

    def test_sweep_reports_hit_rate_and_wall(self, tmp_path, capsys):
        argv = ["sweep", "--loads", "0.05,0.15", "--cache",
                "--cache-dir", str(tmp_path / "cache"), *SWEEP_FAST]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "2 from cache, 0 simulated (100.0% hit rate)" in err
        assert "s total" in err

    def test_sweep_writes_a_readable_ledger(self, tmp_path, capsys):
        from repro.obs import LEDGER_SCHEMA_VERSION, read_ledger

        path = tmp_path / "led.jsonl"
        argv = ["sweep", "--loads", "0.05,0.15", "--jobs", "2",
                "--ledger", str(path), *SWEEP_FAST]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert f"-> {path}" in err
        with open(path) as fh:
            header, records, malformed = read_ledger(fh)
        assert header["schema"] == LEDGER_SCHEMA_VERSION
        assert malformed == []
        done = [r for r in records if r["kind"] == "spec_done"]
        assert [r["i"] for r in done] == [0, 1]
        assert [r["kind"] for r in records if r["kind"] == "sweep_end"]

    def test_sweep_ledger_is_wall_stripped_deterministic(
        self, tmp_path, capsys
    ):
        """The CI ledger smoke in code form: the same sweep twice (and
        once more serially) strips to the same identity."""
        from repro.obs import ledger_identity, read_ledger

        def identity(path, argv):
            assert main(argv + ["--ledger", str(path)]) == 0
            capsys.readouterr()
            with open(path) as fh:
                _, records, _ = read_ledger(fh)
            return ledger_identity(records)

        argv = ["sweep", "--loads", "0.05,0.15", *SWEEP_FAST]
        a = identity(tmp_path / "a.jsonl", argv + ["--jobs", "2"])
        b = identity(tmp_path / "b.jsonl", argv + ["--jobs", "2"])
        c = identity(tmp_path / "c.jsonl", argv)
        assert a == b == c

    def test_sweep_live_dashboard_on_stderr(self, capsys):
        rc = main(["sweep", "--loads", "0.05,0.15", "--live", *SWEEP_FAST])
        captured = capsys.readouterr()
        assert rc == 0
        assert "specs/s" in captured.err
        assert "cache tiers:" in captured.err
        assert "specs/s" not in captured.out  # stdout stays a clean table

    def test_sweep_live_json_stdout_stays_pure(self, capsys):
        rc = main(["sweep", "--loads", "0.05,0.15", "--live", "--json",
                   *SWEEP_FAST])
        captured = capsys.readouterr()
        assert rc == 0
        json.loads(captured.out)


class TestTraceCommand:
    def test_trace_stdout_is_jsonl(self, capsys):
        rc = main(["trace", "--shape", "3x3", "--load", "0.2",
                   "--cycles", "40"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        header = json.loads(lines[0])
        from repro.obs import TRACE_SCHEMA_VERSION
        assert header["kind"] == "trace_header"
        assert header["schema"] == TRACE_SCHEMA_VERSION
        kinds = {json.loads(line)["kind"] for line in lines[1:]}
        assert "grant" in kinds and "deliver" in kinds
        assert "traced" in captured.err  # summary stays off stdout

    def test_trace_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "run.jsonl"
        rc = main(["trace", "--shape", "3x3", "--load", "0.2",
                   "--cycles", "40", "--out", str(out_path),
                   "--event", "deliver"])
        assert rc == 0
        assert capsys.readouterr().out == ""
        lines = out_path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "trace_header"
        assert all(
            json.loads(line)["kind"] == "deliver" for line in lines[1:]
        )
        assert len(lines) > 1

    def test_trace_readable_by_the_library(self, tmp_path, capsys):
        from repro.obs import read_trace

        out_path = tmp_path / "run.jsonl"
        assert main(["trace", "--shape", "3x3", "--cycles", "40",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        with open(out_path) as fh:
            header, records, malformed = read_trace(fh)
        assert malformed == []
        assert header["shape"] == [3, 3]
        assert records


class TestReportCommand:
    def test_live_report(self, capsys):
        rc = main(["report", "--shape", "3x3", "--load", "0.2",
                   "--cycles", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Latency decomposition" in out
        assert "Blocked-cycle attribution" in out
        assert "Channel utilization heatmap" in out
        assert "Metrics" in out

    def test_live_report_markdown(self, capsys):
        rc = main(["report", "--shape", "3x3", "--cycles", "60",
                   "--format", "md"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("# Run report")
        assert "## Latency decomposition" in out

    def test_report_from_trace_matches_live_decomposition(
        self, capsys, tmp_path
    ):
        """The trace-replay path reproduces the live run's numbers."""
        assert main(["report", "--shape", "3x3", "--load", "0.2",
                     "--cycles", "60", "--seed", "9"]) == 0
        live = capsys.readouterr().out
        path = tmp_path / "run.jsonl"
        assert main(["trace", "--shape", "3x3", "--load", "0.2",
                     "--cycles", "60", "--seed", "9",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(path)]) == 0
        replayed = capsys.readouterr().out
        live_table = live.split("Latency decomposition")[1].split("S-XB")[0]
        replay_table = replayed.split("Latency decomposition")[1].split("S-XB")[0]
        assert live_table == replay_table

    def test_report_renders_recovery_actions_from_trace(
        self, capsys, tmp_path
    ):
        """A recovered run's trace carries ``recovery`` records and the
        report renders them as the recovery-actions table."""
        from repro.core import (
            Fault, Header, Packet, RC, SwitchLogic, make_config,
        )
        from repro.core.config import DetourScheme
        from repro.obs import TraceRecorder
        from repro.sim import MDCrossbarAdapter, NetworkSimulator, SimConfig
        from repro.topology import MDCrossbar

        shape = (4, 3)
        cfg = make_config(
            shape,
            fault=Fault.router((2, 0)),
            detour_scheme=DetourScheme.NAIVE,
        )
        sim = NetworkSimulator(
            MDCrossbarAdapter(SwitchLogic(MDCrossbar(shape), cfg)),
            SimConfig(stall_limit=200, recovery=True),
        )
        path = tmp_path / "recovered.jsonl"
        with open(path, "w") as fh:
            TraceRecorder(sink=fh).attach(sim)
            sends = [
                ((3, 2), (3, 2), RC.BROADCAST_REQUEST, 0),
                ((0, 0), (2, 2), RC.NORMAL, 1),
                ((1, 0), (3, 1), RC.NORMAL, 1),
                ((0, 1), (1, 2), RC.NORMAL, 2),
            ]
            for src, dst, rc_bits, at in sends:
                sim.send(
                    Packet(Header(source=src, dest=dst, rc=rc_bits), length=6),
                    at_cycle=at,
                )
            res = sim.run(max_cycles=20_000)
        assert res.recoveries == 1 and res.deadlock is None
        assert main(["report", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Deadlock recovery" in out
        assert "1 recovery action(s)" in out
        assert "victim pid" in out

    def test_report_from_trace_warns_on_malformed_tail(
        self, capsys, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        assert main(["trace", "--shape", "3x3", "--cycles", "40",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        with open(path, "a") as fh:
            fh.write('{"kind": "deliv')  # truncated tail
        rc = main(["report", "--trace", str(path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "skipped 1 malformed trace line" in captured.err
        assert "Latency decomposition" in captured.out

    def test_report_from_sweep_ledger(self, capsys, tmp_path):
        path = tmp_path / "led.jsonl"
        assert main(["sweep", "--loads", "0.05,0.15", "--jobs", "2",
                     "--ledger", str(path), *SWEEP_FAST]) == 0
        capsys.readouterr()
        rc = main(["report", "--sweep", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Sweep report" in out
        assert "Cache traffic" in out
        assert "Stragglers" in out
        assert "Chunk balance" in out
        assert "Workers" in out
        assert "Deadlocks and recovery" in out

    def test_report_from_sweep_ledger_markdown(self, capsys, tmp_path):
        path = tmp_path / "led.jsonl"
        assert main(["sweep", "--loads", "0.05",
                     "--ledger", str(path), *SWEEP_FAST]) == 0
        capsys.readouterr()
        rc = main(["report", "--sweep", str(path), "--format", "md"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("# Sweep report")
        assert "## Stragglers" in out

    def test_report_from_sweep_warns_on_malformed_tail(
        self, capsys, tmp_path
    ):
        path = tmp_path / "led.jsonl"
        assert main(["sweep", "--loads", "0.05",
                     "--ledger", str(path), *SWEEP_FAST]) == 0
        capsys.readouterr()
        with open(path, "a") as fh:
            fh.write('{"kind": "spec_do')  # truncated tail
        rc = main(["report", "--sweep", str(path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "skipped 1 malformed ledger line" in captured.err
        assert "Sweep report" in captured.out


class TestDoctorObsChecks:
    def test_doctor_reports_obs_health(self, capsys):
        rc = main(["doctor", "--shape", "3x3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "obs: collector detach leaves the hook bus empty: ok" in out
        assert "obs: trace roundtrip (schema" in out
        assert "obs: trace replay matches the live span totals: ok" in out
        assert "obs: truncated tail line is skipped+reported: ok" in out
        assert out.rstrip().endswith("healthy")

    def test_doctor_reports_telemetry_health(self, capsys):
        rc = main(["doctor", "--shape", "3x3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "telemetry: ledger roundtrip (schema" in out
        assert (
            "telemetry: repeated sweep strips to the same identity: ok" in out
        )
        assert "telemetry: stripped records carry no runtime fields: ok" in out
