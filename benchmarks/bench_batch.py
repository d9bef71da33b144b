"""Batch-scheduling service throughput and LMDES load time.

Two measurements back the service layer's claims:

* **Throughput**: one 20k-op workload scheduled through
  ``schedule_batch`` in chunks, timed end to end.  The run recorded here
  is the one the JSON artifact reports; it carries no floor of its own
  (the repo benchmark, ``perfbench/``, gates the service path).
* **Persistence**: median cold compile (HMDES parse + transform
  pipeline + compile) versus median ``load_lmdes`` of the saved LMDES
  file, which is the paper's motivation for shipping the low-level
  file: loading must be much faster than regenerating.
"""

import statistics
import time

from conftest import BENCH_OPS, write_result

from repro.analysis.reporting import format_table
from repro.engine.cache import DescriptionCache
from repro.lowlevel.serialize import load_lmdes, save_lmdes
from repro.machines import get_machine, supersparc
from repro.service import BatchConfig, schedule_batch
from repro.workloads import WorkloadConfig, generate_blocks

CHUNK_SIZE = 64
LOAD_REPS = 5
REP, STAGE, BITVECTOR = "andor", 4, True


def _median_load_times(tmp_path):
    """(cold compile, LMDES file load) medians over fresh objects.

    Every rep rebuilds the Machine from scratch so the cold leg pays
    the full translate/transform/compile pipeline, exactly what a cold
    process would; the load leg reads and loads the file
    ``repro compile`` would have written for the same configuration.
    """
    cold, loads = [], []
    compiled = None
    for _ in range(LOAD_REPS):
        machine = supersparc.build_machine()
        started = time.perf_counter()
        compiled = DescriptionCache().compiled(
            machine, REP, STAGE, BITVECTOR
        )
        cold.append(time.perf_counter() - started)
    path = tmp_path / "supersparc.lmdes.json"
    path.write_text(save_lmdes(compiled))
    for _ in range(LOAD_REPS):
        started = time.perf_counter()
        loaded = load_lmdes(path.read_text())
        loads.append(time.perf_counter() - started)
        assert loaded.source.name == compiled.source.name
    return statistics.median(cold), statistics.median(loads)


def test_batch_service_regenerate(results_dir, benchmark, tmp_path):
    machine = get_machine("SuperSPARC")
    blocks = generate_blocks(
        machine, WorkloadConfig(total_ops=BENCH_OPS)
    )
    config = BatchConfig(backend="bitvector", chunk_size=CHUNK_SIZE)

    def run_batch():
        started = time.perf_counter()
        result = schedule_batch("SuperSPARC", blocks, config)
        return time.perf_counter() - started, result

    batch_s, result = benchmark.pedantic(run_batch, rounds=1, iterations=1)
    assert result.total_ops >= BENCH_OPS
    assert result.errors == []

    cold_s, load_s = _median_load_times(tmp_path)
    load_speedup = cold_s / load_s if load_s else 0.0

    text = format_table(
        ("Measure", "Value"),
        [
            ("machine / backend", "SuperSPARC / bitvector"),
            ("operations", str(result.total_ops)),
            ("chunks", str(result.chunk_count)),
            ("batch seconds", f"{batch_s:.3f}"),
            ("cold compile seconds (median)", f"{cold_s:.4f}"),
            ("LMDES file load seconds (median)", f"{load_s:.4f}"),
            ("LMDES load speedup", f"{load_speedup:.1f}x"),
        ],
        title="Batch-scheduling service and LMDES load timings",
    )
    payload = {
        "machine": "SuperSPARC",
        "backend": "bitvector",
        "ops": result.total_ops,
        "chunk_size": CHUNK_SIZE,
        "chunks": result.chunk_count,
        "batch_seconds": batch_s,
        "cold_compile_seconds": cold_s,
        "lmdes_load_seconds": load_s,
        "lmdes_load_speedup": load_speedup,
    }
    write_result(results_dir, "batch.txt", text, payload=payload)

    # Loading the shipped low-level file must beat regenerating it by a
    # wide margin (paper section 4); 5x is the acceptance floor.
    assert load_speedup >= 5.0
