"""Figure 6: AND/OR sub-tree order before and after sorting."""

from conftest import write_result

from repro.transforms import sort_and_or_trees


def test_fig6_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.fig6_tree_order())
    assert "original order" in text and "after optimizing" in text
    assert sort_and_or_trees(suite.mdes("K5", "andor", 3)).name == "K5"
    write_result(results_dir, "fig6_tree_order.txt", text)


def test_fig6_order_is_one_option_first(suite):
    after = suite.mdes("SuperSPARC", "andor", 4)
    load = after.op_class("load").constraint
    assert [len(tree) for tree in load.or_trees] == [1, 2, 3]
