"""Ablation: Eichenberger-Davidson reduction vs the paper's transforms.

E-D minimizes usages *per option* but not the number of option checks per
attempt (paper section 10).  This bench applies the greedy E-D reduction
to the flat descriptions and compares against the paper's pipeline.
"""

from conftest import write_result

from repro.transforms.pipeline import staged_mdes
from repro.analysis.reporting import format_table
from repro.eichenberger import reduce_mdes_options
from repro.lowlevel.compiled import compile_mdes
from repro.lowlevel.layout import mdes_size_bytes
from repro.machines import get_machine
from repro.scheduler import schedule_workload
from repro.workloads import WorkloadConfig, generate_blocks

MACHINES = ("PA7100", "Pentium", "SuperSPARC", "K5")


def test_ablation_eichenberger_regenerate(results_dir, benchmark):
    def build_rows():
        rows = []
        for name in MACHINES:
            machine = get_machine(name)
            blocks = generate_blocks(
                machine, WorkloadConfig(total_ops=4000)
            )
            flat = machine.build_or()
            reduced = reduce_mdes_options(flat)
            assert reduced.name == name
            ours = staged_mdes(flat, 4)
            row = [name]
            for mdes in (flat, reduced, ours):
                compiled = compile_mdes(mdes, bitvector=True)
                result = schedule_workload(machine, compiled, blocks)
                row.extend(
                    [
                        mdes_size_bytes(compiled),
                        result.stats.checks_per_attempt,
                    ]
                )
            rows.append(tuple(row))
        return rows

    rows = benchmark(build_rows)
    text = format_table(
        (
            "MDES",
            "Flat Bytes", "Flat Chk/Att",
            "E-D Bytes", "E-D Chk/Att",
            "Ours Bytes", "Ours Chk/Att",
        ),
        rows,
        title=(
            "Ablation: Eichenberger-Davidson option reduction vs the "
            "paper's transformations (flat OR form, bit-vectors)"
        ),
    )
    write_result(results_dir, "ablation_eichenberger.txt", text)
    # E-D never increases size; the paper's pipeline must also win on
    # checks for the simple machines.
    for row in rows:
        assert row[3] <= row[1]
