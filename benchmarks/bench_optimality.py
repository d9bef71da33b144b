"""Heuristic-vs-optimal gap: how much schedule length the greedy list
scheduler leaves on the table.

The branch-and-bound exact scheduler (``repro.exact``) proves minimum
schedule lengths for small blocks over the same compiled description
the heuristic queries, which turns "the list scheduler is good enough"
from folklore into a measured number: per machine, the total cycles the
heuristic booked vs the proven optimum, the per-block gap distribution,
and the price paid in search time.  Every list backend produces the
same schedule (the differential fuzzer's invariant), so one heuristic
column covers them all.

Blocks are capped at the exact backend's registered ``max_block_ops``
(12): the workload generator is told to stay under it, so every block
is actually searched rather than falling back to the heuristic seed.
"""

import time

from conftest import write_result

from repro.analysis.reporting import format_table
from repro.machines import MACHINE_NAMES, get_machine
from repro.workloads import WorkloadConfig, generate_blocks

#: Small on purpose: exact search is exponential in block size.
OPTIMALITY_OPS = 96
#: Body size range; +1 terminating branch keeps every block <= 11 ops,
#: under the exact backend's 12-op cap.
OPTIMALITY_BLOCK_RANGE = (3, 10)
OPTIMALITY_SEED = 20161202


def _machine_row(machine_name):
    from repro.api import ScheduleRequest, schedule_exact

    machine = get_machine(machine_name)
    blocks = generate_blocks(machine, WorkloadConfig(
        total_ops=OPTIMALITY_OPS, seed=OPTIMALITY_SEED,
        block_size_range=OPTIMALITY_BLOCK_RANGE,
    ))
    request = ScheduleRequest(machine=machine, blocks=blocks)
    started = time.perf_counter()
    run = schedule_exact(request).result
    elapsed = time.perf_counter() - started
    per_block = [
        {
            "ops": len(result.schedule.block),
            "heuristic": result.heuristic_length,
            "exact": result.length,
            "gap": result.gap,
            "lower_bound": result.lower_bound,
            "optimal": result.optimal,
            "reason": result.reason,
            "nodes": result.nodes,
            "seconds": result.seconds,
        }
        for result in run.results
    ]
    return {
        "machine": machine_name,
        "blocks": len(run.results),
        "ops": run.total_ops,
        "heuristic_cycles": run.heuristic_cycles,
        "exact_cycles": run.total_cycles,
        "gap_cycles": run.gap_cycles,
        "optimal_blocks": run.optimal_blocks,
        "nodes": run.nodes,
        "solve_seconds": elapsed,
        "per_block": per_block,
    }


def test_optimality_gap(results_dir, benchmark):
    def build_rows():
        return [_machine_row(name) for name in MACHINE_NAMES]

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = format_table(
        ("MDES", "Blocks", "Ops", "Heur", "Exact", "Gap",
         "Optimal", "Seconds"),
        [
            (
                row["machine"],
                row["blocks"],
                row["ops"],
                row["heuristic_cycles"],
                row["exact_cycles"],
                row["gap_cycles"],
                f"{row['optimal_blocks']}/{row['blocks']}",
                f"{row['solve_seconds']:.3f}",
            )
            for row in rows
        ],
        title=(
            "List-scheduler optimality gap vs the branch-and-bound "
            "exact scheduler (blocks <= 12 ops)"
        ),
    )
    payload = {
        "ops_per_machine": OPTIMALITY_OPS,
        "seed": OPTIMALITY_SEED,
        "block_size_range": list(OPTIMALITY_BLOCK_RANGE),
        "machines": rows,
    }
    write_result(results_dir, "optimality.txt", text, payload=payload)
    # The gap is one-sided by construction: exact never books more
    # cycles than its own heuristic seed, and a proven-optimal block's
    # length is bracketed by its lower bound.
    for row in rows:
        assert row["exact_cycles"] <= row["heuristic_cycles"]
        assert 0 <= row["optimal_blocks"] <= row["blocks"]
        for entry in row["per_block"]:
            assert entry["exact"] <= entry["heuristic"]
            assert entry["lower_bound"] <= entry["exact"]
