"""Table 11: memory before/after the usage-time transformation."""

from conftest import write_result


def test_table11_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.table11())
    rows = {row[0]: row for row in suite.table11_rows()}
    for row in rows.values():
        assert row[2] <= row[1]  # OR sizes never grow
        assert row[5] <= row[4]  # AND/OR sizes never grow
    # The OR form benefits more: it has more usages per option to merge.
    sparc = rows["SuperSPARC"]
    or_cut = (sparc[1] - sparc[2]) / sparc[1]
    andor_cut = (sparc[4] - sparc[5]) / sparc[4]
    assert or_cut > andor_cut
    assert suite.mdes("SuperSPARC", "andor", 3).unused_trees == {}
    write_result(results_dir, "table11_timeshift_size.txt", text)
