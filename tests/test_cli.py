"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def run_cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


SMALL_HMDES = """
mdes Tiny;
section resource { A; B; }
section ortree { O_dead { option { use A at 3; } } }
section andortree {
    AO { ortree { option { use A at 0; } }
         ortree { option { use B at 1; } option { use B at 2; } } }
}
section opclass { k { resv AO; latency 1; } }
section operation { X: k; }
"""


class TestMachines:
    def test_lists_all_four(self, run_cli):
        code, out, _ = run_cli("machines")
        assert code == 0
        for name in ("PA7100", "Pentium", "SuperSPARC", "K5"):
            assert name in out


class TestTables:
    def test_single_table(self, run_cli):
        code, out, _ = run_cli("tables", "--ops", "400", "--table", "6")
        assert code == 0
        assert "Table 6" in out

    def test_unknown_table(self, run_cli):
        code, _, err = run_cli("tables", "--ops", "400", "--table", "99")
        assert code == 2
        assert "choose 1-15" in err


class TestFigures:
    def test_single_figure(self, run_cli):
        code, out, _ = run_cli("figures", "--ops", "400",
                               "--name", "fig3")
        assert code == 0
        assert "AND/OR-tree" in out

    def test_unknown_figure(self, run_cli):
        code, _, err = run_cli("figures", "--ops", "400",
                               "--name", "fig9")
        assert code == 2


class TestLint:
    def test_lint_machine(self, run_cli):
        code, out, _ = run_cli("lint", "--machine", "SuperSPARC")
        assert code == 0
        assert "W001" in out

    def test_lint_file_strict(self, run_cli, tmp_path):
        path = tmp_path / "tiny.hmdes"
        path.write_text(SMALL_HMDES)
        code, out, _ = run_cli("lint", str(path), "--strict")
        assert code == 1  # the dead tree warning
        assert "O_dead" in out

    def test_lint_requires_target(self, run_cli):
        with pytest.raises(SystemExit):
            run_cli("lint")


class TestOptimizeExpand:
    def test_optimize_writes_parseable_output(self, run_cli, tmp_path):
        source = tmp_path / "tiny.hmdes"
        output = tmp_path / "tiny.opt.hmdes"
        source.write_text(SMALL_HMDES)
        code, out, _ = run_cli("optimize", str(source), "-o", str(output))
        assert code == 0
        assert "smaller" in out
        from repro.hmdes import load_mdes

        optimized = load_mdes(output.read_text())
        assert optimized.unused_trees == {}

    def test_expand(self, run_cli, tmp_path):
        source = tmp_path / "tiny.hmdes"
        output = tmp_path / "tiny.flat.hmdes"
        source.write_text(SMALL_HMDES)
        code, out, _ = run_cli("expand", str(source), "-o", str(output))
        assert code == 0
        from repro.core.tables import OrTree
        from repro.hmdes import load_mdes

        flat = load_mdes(output.read_text())
        assert isinstance(flat.op_class("k").constraint, OrTree)
        assert flat.op_class("k").option_count() == 2


class TestGenerateSchedule:
    def test_generate_then_schedule(self, run_cli, tmp_path):
        trace = tmp_path / "work.trace"
        code, out, _ = run_cli(
            "generate", "--machine", "PA7100", "--ops", "300",
            "-o", str(trace),
        )
        assert code == 0
        assert trace.exists()
        code, out, _ = run_cli("schedule", "--trace", str(trace))
        assert code == 0
        assert "attempts/op" in out
        assert "PA7100" in out

    def test_schedule_synthetic(self, run_cli):
        code, out, _ = run_cli(
            "schedule", "--machine", "K5", "--ops", "400",
            "--rep", "or", "--stage", "0", "--no-bitvector",
        )
        assert code == 0
        assert "K5 (or, stage 0)" in out

    def test_schedule_without_target(self, run_cli):
        code, _, err = run_cli("schedule", "--ops", "100")
        assert code == 2

    @pytest.mark.parametrize(
        "backend",
        ["ortree", "andor", "bitvector", "automata", "eichenberger"],
    )
    def test_schedule_each_backend(self, run_cli, backend):
        code, out, _ = run_cli(
            "schedule", "--machine", "SuperSPARC", "--ops", "300",
            "--backend", backend,
        )
        assert code == 0
        assert f"backend {backend}" in out
        assert "checks/attempt" in out

    def test_backend_stage_too_low(self, run_cli):
        code, _, err = run_cli(
            "schedule", "--machine", "K5", "--ops", "100",
            "--backend", "automata", "--stage", "0",
        )
        assert code == 2
        assert "stage >= 3" in err

    def test_backend_excludes_lmdes(self, run_cli, tmp_path):
        code, _, err = run_cli(
            "schedule", "--machine", "K5", "--ops", "100",
            "--backend", "ortree", "--lmdes", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "mutually exclusive" in err


class TestEngines:
    def test_lists_registered_backends(self, run_cli):
        code, out, _ = run_cli("engines")
        assert code == 0
        for name in ("ortree", "andor", "bitvector", "automata",
                     "eichenberger"):
            assert name in out


class TestReport:
    def test_report_generation(self, run_cli, tmp_path):
        output = tmp_path / "EXP.md"
        code, out, _ = run_cli(
            "report", "--ops", "600", "-o", str(output)
        )
        assert code == 0
        text = output.read_text()
        assert "# EXPERIMENTS" in text
        assert "Table 15" in text


class TestScheduleBatch:
    def _json_run(self, run_cli, *argv):
        import json

        code, out, err = run_cli("schedule-batch", *argv, "--json")
        assert code == 0, err
        return json.loads(out)

    def test_cache_dir_cold_then_warm(self, run_cli, tmp_path):
        cache_dir = str(tmp_path / "mdes-cache")
        cold = self._json_run(
            run_cli, "--machine", "K5", "--ops", "200",
            "--cache-dir", cache_dir,
        )
        assert cold["cache"]["disk_stores"] >= 1
        assert cold["cache"]["disk_hits"] == 0
        warm = self._json_run(
            run_cli, "--machine", "K5", "--ops", "200",
            "--cache-dir", cache_dir,
        )
        assert warm["cache"]["disk_hits"] >= 1
        assert warm["cache"]["disk_misses"] == 0
        assert warm["cache"]["disk_stores"] == 0
        assert warm["attempts"] == cold["attempts"]

    def test_cache_dir_human_output(self, run_cli, tmp_path):
        code, out, _ = run_cli(
            "schedule-batch", "--machine", "K5", "--ops", "100",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        assert "description cache:" in out
        assert "store(s)" in out

    def test_backend_excludes_lmdes(self, run_cli, tmp_path):
        code, _, err = run_cli(
            "schedule-batch", "--machine", "K5", "--ops", "100",
            "--backend", "andor", "--lmdes", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_lmdes_batch_path(self, run_cli, tmp_path):
        lmdes = tmp_path / "pentium.lmdes.json"
        code, _, _ = run_cli(
            "compile", "--machine", "Pentium", "-o", str(lmdes)
        )
        assert code == 0
        report = self._json_run(
            run_cli, "--machine", "Pentium", "--ops", "200",
            "--lmdes", str(lmdes),
        )
        assert report["backend"] == f"lmdes:{lmdes}"
        assert report["ops"] >= 200

    def test_trace_input(self, run_cli, tmp_path):
        trace = tmp_path / "work.trace"
        code, _, _ = run_cli(
            "generate", "--machine", "PA7100", "--ops", "150",
            "-o", str(trace),
        )
        assert code == 0
        report = self._json_run(run_cli, "--trace", str(trace))
        assert report["machine"] == "PA7100"
        # Generators round the requested total up to whole blocks.
        assert report["ops"] >= 150

    def test_needs_machine_or_trace(self, run_cli):
        code, _, err = run_cli("schedule-batch", "--ops", "100")
        assert code == 2
        assert "--machine or --trace" in err


class TestScheduleBatchResilience:
    """The --retries / --on-error surface."""

    @pytest.fixture(autouse=True)
    def _no_leaked_fault_plan(self):
        from repro.service import faults

        faults.clear()
        yield
        faults.clear()

    def _json_run(self, run_cli, *argv):
        import json

        code, out, err = run_cli("schedule-batch", *argv, "--json")
        assert code == 0, err
        return json.loads(out)

    def test_json_report_carries_resilience_section(self, run_cli):
        report = self._json_run(
            run_cli, "--machine", "K5", "--ops", "100", "--retries", "2",
        )
        resilience = report["resilience"]
        assert resilience == {"retries": 0, "quarantined": 0, "errors": []}

    def test_injected_transient_fault_is_retried(self, run_cli,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "sched@0")
        report = self._json_run(
            run_cli, "--machine", "K5", "--ops", "100", "--retries", "1",
        )
        assert report["resilience"]["retries"] == 1
        assert report["resilience"]["errors"] == []
        monkeypatch.delenv("REPRO_FAULTS")
        clean = self._json_run(
            run_cli, "--machine", "K5", "--ops", "100", "--retries", "1",
        )
        for key in ("ops", "cycles", "attempts", "blocks"):
            assert report[key] == clean[key], key

    def test_human_output_reports_recovery(self, run_cli, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "sched@0")
        code, out, _ = run_cli(
            "schedule-batch", "--machine", "K5", "--ops", "100",
            "--retries", "1",
        )
        assert code == 0
        assert "resilience:" in out
        assert "1 retry(ies)" in out

    def test_on_error_rejects_unknown_mode(self, run_cli, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                "schedule-batch", "--machine", "K5", "--ops", "50",
                "--on-error", "explode",
            )


class TestCompileLmdes:
    def test_compile_machine_to_lmdes(self, run_cli, tmp_path):
        output = tmp_path / "ss.lmdes.json"
        code, out, _ = run_cli(
            "compile", "--machine", "SuperSPARC", "-o", str(output)
        )
        assert code == 0
        assert "compiled constraints" in out
        from repro.lowlevel.serialize import load_lmdes

        loaded = load_lmdes(output.read_text())
        assert loaded.source.name == "SuperSPARC"

    def test_compile_file_to_lmdes(self, run_cli, tmp_path):
        source = tmp_path / "tiny.hmdes"
        output = tmp_path / "tiny.lmdes.json"
        source.write_text(SMALL_HMDES)
        code, _, _ = run_cli("compile", str(source), "-o", str(output))
        assert code == 0

    def test_schedule_against_lmdes(self, run_cli, tmp_path):
        output = tmp_path / "k5.lmdes.json"
        run_cli("compile", "--machine", "K5", "-o", str(output))
        code, out, _ = run_cli(
            "schedule", "--machine", "K5", "--lmdes", str(output),
            "--ops", "300",
        )
        assert code == 0
        assert "checks/attempt" in out

    def test_compile_needs_target(self, run_cli, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("compile", "-o", str(tmp_path / "x.json"))


class TestObsSurfaces:
    """``--json``/``--trace-out`` digests and the stats/trace commands."""

    @pytest.fixture(autouse=True)
    def restore_obs(self):
        from repro import obs

        was_enabled = obs.enabled()
        yield
        obs.enable() if was_enabled else obs.disable()
        obs.reset()

    def test_schedule_json_embeds_phase_and_transform_digest(self, run_cli):
        import json

        code, out, _ = run_cli(
            "schedule", "--machine", "K5", "--ops", "200", "--json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["ops"] > 0
        assert document["wall_seconds"] > 0
        phases = document["obs"]["phases"]
        assert "schedule:list" in phases
        assert "transform:staged" in phases
        transforms = document["obs"]["transforms"]
        stages = [t["stage"] for t in transforms]
        assert "redundancy-elimination" in stages
        assert any("options_delta" in t for t in transforms)

    def test_schedule_batch_json_embeds_obs_digest(self, run_cli):
        import json

        code, out, _ = run_cli(
            "schedule-batch", "--machine", "K5", "--ops", "200",
            "--chunk-size", "4", "--json",
        )
        assert code == 0
        document = json.loads(out)
        phases = document["obs"]["phases"]
        assert "cli:schedule-batch" in phases
        assert "service:batch" in phases
        assert "batch:chunk" in phases
        assert document["wall_seconds"] == phases["cli:schedule-batch"]

    def test_schedule_batch_trace_out_round_trips(self, run_cli, tmp_path):
        from repro.obs import trace_from_jsonl

        out_path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(
            "schedule-batch", "--machine", "K5", "--ops", "120",
            "--chunk-size", "4", "--trace-out", str(out_path),
        )
        assert code == 0
        roots = trace_from_jsonl(out_path.read_text())
        names = [s.name for root in roots for s in root.walk()]
        assert "service:batch" in names
        assert names.count("batch:chunk") >= 2  # chunk spans grafted

    def test_stats_prints_registry(self, run_cli):
        code, out, _ = run_cli(
            "stats", "--machine", "K5", "--ops", "150"
        )
        assert code == 0
        assert "repro_check_attempts_total" in out
        assert "repro_engine_creations_total" in out

    def test_stats_prom_is_valid_exposition(self, run_cli):
        from repro.obs import parse_prometheus

        code, out, _ = run_cli(
            "stats", "--machine", "K5", "--ops", "150", "--prom"
        )
        assert code == 0
        parsed = parse_prometheus(out)
        assert parsed["types"]["repro_check_attempts_total"] == "counter"
        assert parsed["types"]["repro_schedule_seconds"] == "histogram"
        assert any(
            name == "repro_schedule_seconds_bucket"
            for name, _ in parsed["samples"]
        )

    def test_trace_prints_tree_and_writes_jsonl(self, run_cli, tmp_path):
        from repro.obs import trace_from_jsonl

        out_path = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(
            "trace", "--machine", "K5", "--ops", "150",
            "-o", str(out_path),
        )
        assert code == 0
        assert "schedule:list" in out
        assert "transform:redundancy-elimination" in out
        roots = trace_from_jsonl(out_path.read_text())
        assert roots, "trace file should contain at least one root tree"


class TestTraceProfiling:
    """``repro trace`` profiling views: --hot, --flamegraph, --input."""

    @pytest.fixture(autouse=True)
    def restore_obs(self):
        from repro import obs

        was_enabled = obs.enabled()
        was_memory = obs.memory_enabled()
        yield
        obs.enable() if was_enabled else obs.disable()
        obs.enable_memory() if was_memory else obs.disable_memory()
        obs.reset()

    def test_trace_hot_prints_self_time_table(self, run_cli):
        code, out, _ = run_cli(
            "trace", "--machine", "K5", "--ops", "150", "--hot"
        )
        assert code == 0
        header = out.splitlines()[0].split()
        assert header == ["span", "calls", "self_ms", "incl_ms", "self_%"]
        assert "schedule:list" in out

    def test_trace_flamegraph_is_collapsed_stack(self, run_cli):
        from repro.obs.prof import parse_flamegraph

        code, out, _ = run_cli(
            "trace", "--machine", "K5", "--ops", "150", "--flamegraph"
        )
        assert code == 0
        parsed = parse_flamegraph(out)
        assert parsed  # at least one stack
        assert any("schedule:list" in stack for stack in parsed)
        assert all(count > 0 for count in parsed.values())

    def test_trace_input_replays_a_saved_trace(self, run_cli, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(
            "trace", "--machine", "K5", "--ops", "150",
            "-o", str(out_path),
        )
        assert code == 0
        code, out, _ = run_cli("trace", "--input", str(out_path), "--hot")
        assert code == 0
        assert "schedule:list" in out

    def test_trace_without_machine_or_input_errors(self, run_cli):
        with pytest.raises(SystemExit):
            run_cli("trace", "--hot")

    def test_trace_memory_prints_per_phase_table(self, run_cli):
        code, out, _ = run_cli(
            "trace", "--machine", "K5", "--ops", "150", "--memory"
        )
        assert code == 0
        lines = out.splitlines()
        header = next(
            line for line in lines if line.startswith("span")
        ).split()
        assert header == ["span", "spans", "peak_kib", "net_kib"]
        assert any(line.startswith("schedule:list") for line in lines)
        assert any(line.startswith("engine:create") for line in lines)
        # The span tree above the table carries the raw byte attrs.
        assert "mem_peak_bytes=" in out

    def test_stats_shows_estimated_quantiles(self, run_cli):
        code, out, _ = run_cli(
            "stats", "--machine", "K5", "--ops", "150"
        )
        assert code == 0
        assert "estimated quantiles" in out
        assert "p95" in out


class TestUnknownCommand:
    def test_bench_is_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
