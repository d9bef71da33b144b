"""The observability overhead gate.

The ``repro.obs`` contract is that instrumentation is effectively free:
spans sit at workload/stage/chunk granularity (never per scheduling
attempt) and the disabled fast path is one module-flag test returning a
shared no-op object.  This benchmark prices that claim on the same
scheduling kernel :mod:`bench_engines` times, alternating recording off
and on round by round.

Shared CI runners jitter by several percent at every timescale, which
swamps the sub-percent effect being measured, so the gate is a
one-sided statistical test rather than a point comparison: each round
yields a paired off/on delta, and the gate fails only when the lower
95% confidence bound of the mean delta exceeds ``REPRO_OBS_GATE_PCT``
percent (default 2) -- i.e. when the data *demonstrates* an overhead
regression rather than merely wobbling past the line.  An injected 10%
slowdown trips the gate on every run; a true ~0% overhead never does.
The measurement is always written to
``benchmarks/results/BENCH_obs.json``, pass or fail, so CI uploads the
evidence either way.
"""

import json
import os
import statistics
import time

from conftest import write_result

from repro import obs
from repro.analysis.reporting import format_table
from repro.machines import get_machine
from repro.scheduler import schedule_workload

#: Maximum tolerated enabled-mode overhead, percent (applied to the
#: lower confidence bound of the paired-delta mean).
GATE_PCT = float(os.environ.get("REPRO_OBS_GATE_PCT", "2.0"))

#: Paired off/on measurement rounds.
ROUNDS = int(os.environ.get("REPRO_OBS_GATE_ROUNDS", "15"))

MACHINE = "PA7100"


def _kernel_seconds(machine, compiled, blocks) -> float:
    started = time.perf_counter()
    schedule_workload(machine, compiled, blocks)
    return time.perf_counter() - started


def _paired_deltas(machine, compiled, blocks):
    """Per-round percentage deltas (enabled vs disabled), paired so
    drift hits both modes of a round roughly equally."""
    # Untimed warm-up of each mode: the first enabled run after a
    # reset pays one-time instrument creation, which is setup cost in
    # real use, not steady-state overhead.
    for mode in (obs.disable, obs.enable):
        obs.reset()
        mode()
        _kernel_seconds(machine, compiled, blocks)
    deltas = []
    for round_index in range(ROUNDS):
        # Trace/registry state is dropped outside the timed region so
        # the enabled runs do not accumulate unbounded span trees.
        obs.reset()
        obs.disable()
        off = _kernel_seconds(machine, compiled, blocks)
        obs.reset()
        obs.enable()
        on = _kernel_seconds(machine, compiled, blocks)
        if round_index % 2:
            # Alternate which mode ran most recently: re-measure
            # disabled after enabled so ordering bias cancels.
            obs.reset()
            obs.disable()
            off = _kernel_seconds(machine, compiled, blocks)
        deltas.append((on - off) / off * 100.0)
    return deltas


def test_obs_overhead_within_gate(
    results_dir, kernel_workloads, kernel_compiled
):
    machine = get_machine(MACHINE)
    blocks = kernel_workloads(MACHINE)
    compiled = kernel_compiled(MACHINE, "andor", 4, True)

    was_enabled = obs.enabled()
    try:
        deltas = _paired_deltas(machine, compiled, blocks)
    finally:
        obs.enable() if was_enabled else obs.disable()
        obs.reset()

    mean_pct = statistics.fmean(deltas)
    stderr_pct = statistics.stdev(deltas) / (len(deltas) ** 0.5)
    lower_bound_pct = mean_pct - 2.0 * stderr_pct
    passed = lower_bound_pct <= GATE_PCT
    payload = {
        "machine": MACHINE,
        "ops": sum(len(block) for block in blocks),
        "rounds": ROUNDS,
        "overhead_pct_mean": mean_pct,
        "overhead_pct_stderr": stderr_pct,
        "overhead_pct_lower_bound": lower_bound_pct,
        "gate_pct": GATE_PCT,
        "passed": passed,
    }
    # Written unconditionally (unlike --json artifacts): the gate's
    # evidence must exist even when the assertion below fails.
    json_path = results_dir / "BENCH_obs.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    text = format_table(
        ("Quantity", "Value"),
        [
            ("paired rounds", str(ROUNDS)),
            ("overhead mean", f"{mean_pct:+.2f}%"),
            ("overhead std error", f"{stderr_pct:.2f}%"),
            ("lower 95% bound", f"{lower_bound_pct:+.2f}%"),
            ("gate", f"{GATE_PCT:.1f}%"),
        ],
        title="Observability overhead on the list-scheduling kernel",
    )
    write_result(results_dir, "obs_overhead.txt", text)

    assert passed, (
        f"obs enabled-mode overhead is demonstrably above the gate: "
        f"mean {mean_pct:+.2f}% with lower 95% bound "
        f"{lower_bound_pct:+.2f}% > {GATE_PCT:.1f}%; see {json_path}"
    )
