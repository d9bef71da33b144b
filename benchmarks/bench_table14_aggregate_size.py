"""Table 14: aggregate effect of all transformations on size."""

from conftest import write_result

from repro.machines import get_machine
from repro.transforms import optimize


def test_table14_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.table14())
    rows = {row[0]: row for row in suite.table14_rows()}
    # Paper headline: representations up to ~100x smaller for the K5.
    assert rows["K5"][4] < rows["K5"][1] / 50
    assert rows["SuperSPARC"][4] < rows["SuperSPARC"][1] / 10
    # OR-only transforms alone reach roughly the paper's factor 2-5.
    assert rows["K5"][2] < rows["K5"][1]
    assert optimize(get_machine("K5").build_andor()).unused_trees == {}
    write_result(results_dir, "table14_aggregate_size.txt", text)
