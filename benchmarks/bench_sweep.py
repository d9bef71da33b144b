"""Description-space sweep throughput vs. fleet size.

The sweep driver's claim is that scheduling across hundreds of machine
variants is a batch problem, not N independent cold starts: one warm
:class:`~repro.engine.cache.DescriptionCache` serves the whole fleet,
so a second pass over the same fleet is pure cache hits and the cost
per variant falls as the fleet re-visits descriptions.  This benchmark
measures both regimes at increasing fleet sizes -- cold variants/sec
(every description compiles), warm variants/sec (every description
hits), and the warm hit-rate -- and asserts the determinism invariant
(cold and warm passes produce the same per-variant signature digest)
on the timed runs themselves.
"""

from conftest import write_result

from repro.analysis.reporting import format_table
from repro.engine.cache import DescriptionCache
from repro.sweep import SWEEP_CACHE_SIZE, SweepConfig, run_sweep

FAMILY = "superscalar-wide"
SEED = 7
OPS = 32
FLEET_SIZES = (16, 48, 96)


def _timed_sweep(config, cache):
    report = run_sweep(config, cache=cache)
    assert report.ok, (
        f"{report.quarantined} quarantined, "
        f"{report.oracle_failures} oracle failure(s)"
    )
    return report


def test_sweep_throughput_regenerate(results_dir, benchmark):
    def run_all():
        rows = []
        for count in FLEET_SIZES:
            config = SweepConfig(
                family=FAMILY, count=count, seed=SEED, ops=OPS,
                verify=False,
            )
            cache = DescriptionCache(
                maxsize=SWEEP_CACHE_SIZE, name="bench-sweep"
            )
            cold = _timed_sweep(config, cache)
            warm = _timed_sweep(config, cache)
            rows.append((count, cold, warm))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table_rows = []
    payload_rows = []
    for count, cold, warm in rows:
        # The timed passes must satisfy the determinism invariant.
        assert warm.signature_digest() == cold.signature_digest()
        cold_rate = (
            count / cold.wall_seconds if cold.wall_seconds else 0.0
        )
        warm_rate = (
            count / warm.wall_seconds if warm.wall_seconds else 0.0
        )
        hits = warm.cache.get("memory_hits", 0)
        misses = warm.cache.get("memory_misses", 0)
        hit_rate = hits / (hits + misses) if (hits + misses) else 0.0
        table_rows.append((
            str(count),
            f"{cold_rate:.1f}",
            f"{warm_rate:.1f}",
            f"{hit_rate * 100:.1f}%",
            str(warm.distinct_descriptions),
        ))
        payload_rows.append({
            "fleet_size": count,
            "cold_variants_per_second": cold_rate,
            "warm_variants_per_second": warm_rate,
            "warm_hit_rate": hit_rate,
            "distinct_descriptions": warm.distinct_descriptions,
            "cold_seconds": cold.wall_seconds,
            "warm_seconds": warm.wall_seconds,
            "signature": warm.signature_digest(),
        })
        # A warm pass recompiles nothing, so the whole fleet must hit.
        assert hit_rate == 1.0
        assert warm.distinct_descriptions == count

    text = format_table(
        (
            "Fleet", "Cold var/s", "Warm var/s",
            "Warm hit-rate", "Distinct",
        ),
        table_rows,
        title=(
            f"Sweep throughput vs. fleet size "
            f"({FAMILY}, seed {SEED}, {OPS} ops/variant)"
        ),
    )
    payload = {
        "family": FAMILY,
        "seed": SEED,
        "ops_per_variant": OPS,
        "fleets": payload_rows,
    }
    write_result(results_dir, "sweep.txt", text, payload=payload)
