"""Figure 1: the six reservation tables of the SuperSPARC integer load."""

from conftest import write_result

from repro.core.expand import expand_to_or_tree
from repro.machines import get_machine


def test_fig1_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.fig1_load_reservation_tables())
    assert text.count("Option") == 6
    # The AND/OR -> OR preprocessor expands the load tree to six options.
    constraint = get_machine("SuperSPARC").build_andor().op_class(
        "load"
    ).constraint
    assert len(expand_to_or_tree(constraint)) == 6
    write_result(results_dir, "fig1_load_options.txt", text)
