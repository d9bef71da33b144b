"""Batch-scheduling service throughput and disk-cache load time.

Two measurements back the service layer's claims:

* **Sharding**: the same 20k-op workload scheduled serially and through
  a 4-worker pool, with the differential invariant (identical
  signatures and stats) asserted on the timed runs themselves.  The
  speedup assertion is gated on actually having >= 4 usable cores --
  on smaller containers the pool can only add overhead, and the JSON
  artifact records ``cpu_count`` alongside the honest numbers.
* **Persistence**: median cold compile (HMDES parse + transform
  pipeline + compile) versus median warm ``load_lmdes`` from the disk
  tier, which is the paper's motivation for shipping the low-level
  file: loading must be much faster than regenerating.
"""

import os
import statistics
import time

from conftest import BENCH_OPS, write_result

from repro.analysis.reporting import format_table
from repro.engine.cache import DescriptionCache
from repro.engine.diskcache import DiskDescriptionCache
from repro.machines import get_machine, supersparc
from repro.service import BatchConfig, schedule_batch
from repro.workloads import WorkloadConfig, generate_blocks

PARALLEL_WORKERS = int(os.environ.get("REPRO_BATCH_WORKERS", "4"))
CHUNK_SIZE = 64
LOAD_REPS = 5
REP, STAGE, BITVECTOR = "andor", 4, True


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _timed_batch(blocks, workers, cache_dir):
    config = BatchConfig(
        backend="bitvector",
        workers=workers,
        chunk_size=CHUNK_SIZE,
        cache_dir=cache_dir,
    )
    started = time.perf_counter()
    result = schedule_batch("SuperSPARC", blocks, config)
    return time.perf_counter() - started, result


def _median_load_times(tmp_path):
    """(cold compile, warm disk load) medians over fresh caches.

    Every rep rebuilds the Machine from scratch so the cold leg pays
    the full translate/transform/compile pipeline, exactly what a cold
    pool worker would.
    """
    disk_dir = tmp_path / "load-cache"
    cold, warm = [], []
    for _ in range(LOAD_REPS):
        machine = supersparc.build_machine()
        started = time.perf_counter()
        DescriptionCache().compiled(machine, REP, STAGE, BITVECTOR)
        cold.append(time.perf_counter() - started)
    # Publish once, then time pure disk loads from fresh caches.
    DescriptionCache(disk=DiskDescriptionCache(disk_dir)).compiled(
        supersparc.build_machine(), REP, STAGE, BITVECTOR
    )
    for _ in range(LOAD_REPS):
        machine = supersparc.build_machine()
        cache = DescriptionCache(disk=DiskDescriptionCache(disk_dir))
        started = time.perf_counter()
        cache.compiled(machine, REP, STAGE, BITVECTOR)
        warm.append(time.perf_counter() - started)
        assert cache.stats.disk_hits == 1
    return statistics.median(cold), statistics.median(warm)


def test_batch_service_regenerate(results_dir, benchmark, tmp_path):
    machine = get_machine("SuperSPARC")
    blocks = generate_blocks(
        machine, WorkloadConfig(total_ops=BENCH_OPS)
    )
    cache_dir = str(tmp_path / "batch-cache")

    def run_all():
        serial_s, serial = _timed_batch(blocks, 1, cache_dir)
        parallel_s, parallel = _timed_batch(
            blocks, PARALLEL_WORKERS, cache_dir
        )
        return serial_s, serial, parallel_s, parallel

    serial_s, serial, parallel_s, parallel = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    # The timed runs themselves must satisfy the differential invariant.
    assert parallel.signature() == serial.signature()
    assert parallel.stats == serial.stats
    assert parallel.total_ops == serial.total_ops >= BENCH_OPS

    cold_s, warm_s = _median_load_times(tmp_path)
    cpus = _usable_cpus()
    speedup = serial_s / parallel_s if parallel_s else 0.0
    warm_speedup = cold_s / warm_s if warm_s else 0.0
    # A pool on fewer cores than workers can only measure overhead;
    # say so in the artifact instead of publishing a junk speedup.
    speedup_meaningful = cpus >= 4 and PARALLEL_WORKERS >= 4

    text = format_table(
        ("Measure", "Value"),
        [
            ("machine / backend", "SuperSPARC / bitvector"),
            ("operations", str(serial.total_ops)),
            ("usable CPUs", str(cpus)),
            ("serial seconds", f"{serial_s:.3f}"),
            (f"{PARALLEL_WORKERS}-worker seconds", f"{parallel_s:.3f}"),
            ("parallel speedup", f"{speedup:.2f}x"),
            ("speedup meaningful", str(speedup_meaningful)),
            (
                f"{PARALLEL_WORKERS}-worker chunk setup seconds",
                f"{parallel.chunk_setup_seconds:.4f}",
            ),
            ("cold compile seconds (median)", f"{cold_s:.4f}"),
            ("warm disk-load seconds (median)", f"{warm_s:.4f}"),
            ("warm load speedup", f"{warm_speedup:.1f}x"),
        ],
        title="Batch-scheduling service and persistent-cache timings",
    )
    payload = {
        "machine": "SuperSPARC",
        "backend": "bitvector",
        "ops": serial.total_ops,
        "chunk_size": CHUNK_SIZE,
        "cpu_count": cpus,
        "workers": PARALLEL_WORKERS,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "parallel_speedup": speedup,
        "speedup_meaningful": speedup_meaningful,
        "chunk_setup_seconds": parallel.chunk_setup_seconds,
        "cold_compile_seconds": cold_s,
        "warm_load_seconds": warm_s,
        "warm_load_speedup": warm_speedup,
        "signatures_identical": True,
        "stats_identical": True,
    }
    write_result(results_dir, "batch.txt", text, payload=payload)

    # Loading the shipped low-level file must beat regenerating it by a
    # wide margin (paper section 4); 5x is the acceptance floor.
    assert warm_speedup >= 5.0
    # Sharding only pays off when the cores exist; a 1-CPU container
    # measures pure pool overhead, so gate the floor on the hardware.
    if speedup_meaningful:
        assert speedup >= 2.0
