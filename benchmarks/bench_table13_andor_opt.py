"""Table 13: AND/OR-tree conflict-detection optimization."""

import pytest
from conftest import write_result


def test_table13_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.table13())
    rows = {row[0]: row for row in suite.table13_rows()}
    # Complex machines improve; simple machines are unchanged.
    for name in ("SuperSPARC", "K5"):
        assert rows[name][2] < rows[name][1]
    for name in ("PA7100", "Pentium"):
        assert rows[name][2] == pytest.approx(rows[name][1])
    for stage in (3, 4):
        assert suite.run("K5", "andor", stage, True).total_ops > 0
    write_result(results_dir, "table13_andor_opt.txt", text)
