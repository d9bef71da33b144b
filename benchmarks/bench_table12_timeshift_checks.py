"""Table 12: checks before/after time shifting + zero-first sorting."""

from conftest import write_result


def test_table12_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.table12())
    for row in suite.table12_rows():
        # Near the ideal of one check per option (paper: 1.01-1.12).
        assert row[4] <= 1.25
        assert row[8] <= 1.25
    for stage in (1, 3):
        assert suite.run("SuperSPARC", "or", stage, True).total_ops > 0
    write_result(results_dir, "table12_timeshift_checks.txt", text)
