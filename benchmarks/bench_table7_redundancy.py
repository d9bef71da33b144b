"""Table 7: memory after eliminating redundant and unused information."""

from conftest import write_result

from repro.machines import get_machine
from repro.transforms import eliminate_redundancy


def test_table7_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.table7())
    table6 = {row[0]: row for row in suite.table6_rows()}
    for row in suite.table7_rows():
        name = row[0]
        assert row[3] <= table6[name][3]
        assert row[6] <= table6[name][5]
    # Dead-code removal leaves no unused tree, even on the K5.
    cleaned = eliminate_redundancy(get_machine("K5").build_andor())
    assert cleaned.unused_trees == {}
    write_result(results_dir, "table7_redundancy.txt", text)
