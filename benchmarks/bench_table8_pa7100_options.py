"""Table 8: PA7100 after removing the duplicated memory option."""

from conftest import write_result


def test_table8_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.table8())
    rows = suite.table8_rows()
    or_row = rows[0]
    assert or_row[3] <= or_row[1]  # options per attempt drop
    write_result(results_dir, "table8_pa7100_options.txt", text)
