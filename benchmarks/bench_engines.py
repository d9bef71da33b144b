"""Cross-backend comparison through the unified query-engine layer.

Every registered backend schedules the same seeded workload on every
machine through the same :class:`QueryEngine` protocol, so the paper's
per-attempt statistics are directly comparable -- the comparison
sections 6 and 10 make by hand, regenerated in one table.  Wall time
per backend is measured by the repo benchmark (``perfbench/``).
"""

from conftest import write_result

from repro.analysis.reporting import format_table
from repro.engine import create_engine, engine_names
from repro.machines import MACHINE_NAMES, get_machine
from repro.scheduler import schedule_workload
from repro.workloads import WorkloadConfig, generate_blocks

BENCH_OPS = 4000


def test_engines_regenerate(results_dir, benchmark):
    def build_rows():
        rows = []
        for machine_name in MACHINE_NAMES:
            machine = get_machine(machine_name)
            blocks = generate_blocks(
                machine, WorkloadConfig(total_ops=BENCH_OPS)
            )
            for backend in engine_names(scheduler="list"):
                engine = create_engine(backend, machine)
                run = schedule_workload(
                    machine, None, blocks, engine=engine
                )
                assert run.total_ops == sum(len(b) for b in blocks)
                rows.append(
                    (
                        machine_name,
                        backend,
                        run.total_ops,
                        run.stats.options_per_attempt,
                        run.stats.checks_per_attempt,
                    )
                )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = format_table(
        ("MDES", "Backend", "Ops", "Opt/Att", "Chk/Att"),
        rows,
        title=(
            "Cross-backend scheduling characteristics through the "
            "query-engine layer"
        ),
    )
    payload = [
        {
            "machine": name,
            "backend": backend,
            "ops": ops,
            "options_per_attempt": opt,
            "checks_per_attempt": chk,
        }
        for name, backend, ops, opt, chk in rows
    ]
    write_result(results_dir, "engines.txt", text, payload=payload)
    # Protocol sanity: every backend scheduled the full workload, and
    # every backend saw the same ops for one machine.
    expected = len(MACHINE_NAMES) * len(engine_names(scheduler="list"))
    assert len(rows) == expected
    for machine_name in MACHINE_NAMES:
        per_machine = {
            ops for name, _, ops, _, _ in rows if name == machine_name
        }
        assert len(per_machine) == 1
