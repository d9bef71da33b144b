"""The description-space sweep driver (``repro.sweep``).

The sweep's contract mirrors the batch service's, lifted to fleet
level:

* **Determinism**: every per-variant row is a pure function of its
  variant -- a second sweep reproduces each row byte for byte, even
  with a poisoned name inserted into the fleet.
* **Isolation**: a poisoned variant becomes a quarantined row with a
  typed error; every other variant's result is unchanged from a clean
  fleet's.
* **Round-trip**: the JSONL report reads back losslessly.
* **Coverage accounting**: distinct compiled descriptions are counted
  by content token, and transform effect columns are present for every
  ok variant.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.machines.synth import fleet_names, machine_name
from repro.sweep import (
    REPORT_VERSION,
    SweepConfig,
    SweepReport,
    VariantResult,
    run_sweep,
)

FAMILY = "vliw-narrow"
SEED = 9
FLEET = 32


@pytest.fixture(scope="module")
def serial_report():
    return run_sweep(SweepConfig(
        family=FAMILY, count=FLEET, seed=SEED, ops=48,
    ))


class TestDeterminism:
    def test_clean_fleet_accounting(self, serial_report):
        report = serial_report
        assert report.ok
        assert report.quarantined == 0
        assert report.oracle_failures == 0
        assert report.distinct_descriptions == FLEET
        assert len(report.variants) == FLEET
        for variant in report.variants:
            assert variant.ok
            assert variant.verify_ok is True
            assert variant.digest
            assert variant.content
            assert variant.transforms, variant.name
            assert variant.complexity["stored_options"] > 0
        # The warm cache saw the whole fleet.
        assert report.cache["memory_misses"] > 0

    def test_variant_rows_in_fleet_order(self, serial_report):
        names = fleet_names(FAMILY, SEED, FLEET)
        assert tuple(
            v.name for v in serial_report.variants
        ) == names
        assert [v.index for v in serial_report.variants] == list(
            range(FLEET)
        )


class TestIsolation:
    def test_poisoned_variant_is_quarantined(self, serial_report):
        """One unresolvable name in the fleet: its row is a typed
        quarantine record, and every survivor's row is byte-identical
        to the clean run's."""
        clean_rows = {
            v.name: v.to_dict() for v in serial_report.variants
        }
        names = list(fleet_names(FAMILY, SEED, FLEET))
        poisoned_name = "synth:no-such-family:0:0"
        names.insert(7, poisoned_name)
        report = run_sweep(SweepConfig(
            names=tuple(names), ops=48,
        ))
        assert not report.ok
        assert report.quarantined == 1
        bad = report.variants[7]
        assert bad.name == poisoned_name
        assert not bad.ok
        assert bad.error_type == "KeyError"
        assert bad.digest is None
        survivors = [v for v in report.variants if v.ok]
        assert len(survivors) == FLEET
        for variant in survivors:
            row = variant.to_dict()
            pinned = dict(clean_rows[variant.name])
            # The poisoned insertion shifts indices; everything else
            # must be untouched.
            row.pop("index")
            pinned.pop("index")
            assert row == pinned, variant.name

    def test_scheduling_failure_does_not_escape(self):
        """A variant that dies mid-schedule (not just at resolution)
        quarantines too: the driver catches per-variant, not per-run."""
        report = run_sweep(SweepConfig(
            names=(
                machine_name(FAMILY, SEED, 0),
                "synth:vliw-narrow:not-an-int:0",
            ),
            ops=24,
        ))
        assert report.quarantined == 1
        assert report.variants[0].ok
        assert report.variants[1].error_type == "KeyError"


class TestReportSerialization:
    def test_jsonl_round_trip(self, serial_report, tmp_path):
        path = serial_report.write_jsonl(tmp_path / "sweep.jsonl")
        loaded = SweepReport.read_jsonl(path)
        assert [v.to_dict() for v in loaded.variants] == [
            v.to_dict() for v in serial_report.variants
        ]
        assert loaded.signature_digest() == (
            serial_report.signature_digest()
        )
        assert loaded.cache == serial_report.cache
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["kind"] == "sweep-meta"
        assert meta["version"] == REPORT_VERSION
        assert len(lines) == FLEET + 1

    def test_version_mismatch_rejected(self, serial_report, tmp_path):
        path = serial_report.write_jsonl(tmp_path / "sweep.jsonl")
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        # A newer layout, and an older one that still carries `workers`.
        for version in (REPORT_VERSION + 1, REPORT_VERSION - 1):
            meta["version"] = version
            path.write_text(
                "\n".join([json.dumps(meta)] + lines[1:]) + "\n"
            )
            with pytest.raises(ValueError, match="version"):
                SweepReport.read_jsonl(path)

    def test_summary_surfaces(self, serial_report):
        summary = serial_report.summary_dict()
        assert summary["ok"]
        assert summary["distinct_descriptions"] == FLEET
        assert summary["transform_totals"]
        assert summary["complexity_buckets"]
        table = serial_report.summary_table()
        assert FAMILY in table
        assert "transform" in table

    def test_variant_result_round_trips(self):
        row = VariantResult(
            index=3, name="synth:vliw-narrow:9:3", ok=False,
            error_type="KeyError", error_message="nope",
        )
        assert VariantResult.from_dict(row.to_dict()) == row


class TestConfigValidation:
    def test_bad_family_raises(self):
        with pytest.raises(KeyError):
            SweepConfig(family="no-such-family").validate()

    @pytest.mark.parametrize("kwargs", [
        {"count": 0},
        {"ops": 0},
        {"stage": 9},
        {"exact_sample": -1},
    ])
    def test_bad_numbers_raise(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs).validate()

    def test_explicit_names_skip_family_check(self):
        config = SweepConfig(
            family="ignored-entirely",
            names=(machine_name(FAMILY, 1, 0),),
        )
        config.validate()
        assert config.fleet() == (machine_name(FAMILY, 1, 0),)


class TestExactSampling:
    def test_every_nth_variant_gets_a_gap_sample(self):
        report = run_sweep(SweepConfig(
            family=FAMILY, count=6, seed=SEED, ops=24,
            exact_sample=3, exact_ops=12,
        ))
        assert report.ok
        sampled = [v.index for v in report.variants if v.exact]
        assert sampled == [0, 3]
        for variant in report.variants:
            if variant.exact:
                assert variant.exact["ops"] > 0
                assert (
                    variant.exact["gap_cycles"] >= 0
                ), variant.name
        assert "exact" in report.summary_dict()


class TestCli:
    def test_sweep_json_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.jsonl"
        code = cli_main([
            "sweep", "--family", FAMILY, "--count", "8",
            "--seed", str(SEED),
            "--out", str(out_path), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"]
        assert payload["quarantined"] == 0
        assert payload["oracle_failures"] == 0
        assert payload["distinct_descriptions"] == 8
        loaded = SweepReport.read_jsonl(out_path)
        assert len(loaded.variants) == 8
        assert loaded.signature_digest() == payload["signature"]

    def test_sweep_rejects_unknown_family(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--family", "no-such-family"])
        assert "invalid choice" in capsys.readouterr().err
