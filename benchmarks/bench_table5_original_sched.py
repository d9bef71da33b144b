"""Table 5: original scheduling characteristics, OR versus AND/OR."""

import pytest
from conftest import write_result

from repro.machines import MACHINE_NAMES


def test_table5_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.table5())
    rows = {row[0]: row for row in suite.table5_rows()}
    # AND/OR reduces checks sharply for the complex machines only.
    assert rows["SuperSPARC"][6] < rows["SuperSPARC"][4] / 3
    assert rows["K5"][6] < rows["K5"][4] / 3
    assert rows["Pentium"][6] == pytest.approx(rows["Pentium"][4])
    # Every operation takes at least one scheduling attempt.
    for machine_name in MACHINE_NAMES:
        for rep in ("or", "andor"):
            run = suite.run(machine_name, rep, 0, False)
            assert run.stats.attempts >= run.total_ops
    write_result(results_dir, "table5_original_sched.txt", text)
