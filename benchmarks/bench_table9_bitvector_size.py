"""Table 9: representation size before/after bit-vector packing."""

from conftest import write_result


def test_table9_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.table9())
    rows = {row[0]: row for row in suite.table9_rows()}
    for row in rows.values():
        assert row[2] <= row[1]
        assert row[5] <= row[4]
    # The Pentium benefits most: its options check several resources in
    # the same cycle.
    pentium_cut = (rows["Pentium"][1] - rows["Pentium"][2]) / rows[
        "Pentium"
    ][1]
    pa_cut = (rows["PA7100"][1] - rows["PA7100"][2]) / rows["PA7100"][1]
    assert pentium_cut > pa_cut
    assert suite.compiled("Pentium", "or", 1, True).bitvector
    write_result(results_dir, "table9_bitvector_size.txt", text)
