"""Table 15: aggregate effect of all transformations on checks."""

from conftest import write_result

from repro.machines import MACHINE_NAMES


def test_table15_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.table15())
    rows = {row[0]: row for row in suite.table15_rows()}
    # Paper headline: up to a factor of ten fewer checks when the
    # transformations are combined with AND/OR-trees.
    assert rows["SuperSPARC"][4] < rows["SuperSPARC"][1] / 5
    assert rows["K5"][4] < rows["K5"][1] / 5
    # Transformations alone (OR form) reach roughly a factor 1.5-2.6.
    assert rows["SuperSPARC"][2] < rows["SuperSPARC"][1]
    for machine_name in MACHINE_NAMES:
        assert suite.run(machine_name, "andor", 4, True).total_ops > 0
    write_result(results_dir, "table15_aggregate_checks.txt", text)
