"""Figure 3: OR-tree versus AND/OR-tree for the integer load."""

from conftest import write_result


def test_fig3_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.fig3_representations())
    assert "AND over 3 OR-trees" in text
    assert "load" in suite.compiled("SuperSPARC", "andor", 0, True).constraints
    write_result(results_dir, "fig3_representations.txt", text)
