"""Table 10: checks per attempt before/after bit-vector packing."""

from conftest import write_result


def test_table10_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.table10())
    rows = {row[0]: row for row in suite.table10_rows()}
    for row in rows.values():
        assert row[2] <= row[1] + 1e-9
        assert row[5] <= row[4] + 1e-9
    for bitvector in (False, True):
        assert suite.run("Pentium", "or", 1, bitvector).total_ops > 0
    write_result(results_dir, "table10_bitvector_checks.txt", text)
