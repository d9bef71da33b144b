"""Table 1: SuperSPARC option breakdown and attempt shares."""

from conftest import write_result


def test_table1_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.table_breakdown("SuperSPARC"))
    rows = suite.option_breakdown("SuperSPARC")
    assert [row[0] for row in rows] == [1, 3, 6, 12, 24, 36, 48, 72]
    # Prepass scheduling with the original AND/OR description places
    # every operation of the workload.
    run = suite.run("SuperSPARC", "andor", 0, False)
    assert run.total_ops == sum(len(b) for b in suite.workload("SuperSPARC"))
    write_result(results_dir, "table1_supersparc_breakdown.txt", text)
