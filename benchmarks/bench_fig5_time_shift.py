"""Figure 5: the integer-load OR-tree after usage-time shifting."""

from conftest import write_result

from repro.machines import get_machine
from repro.transforms import shift_usage_times


def test_fig5_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.fig5_shifted_load())
    assert "-1 |" not in text  # decode usages moved to time zero
    assert shift_usage_times(get_machine("K5").build_or()).name == "K5"
    write_result(results_dir, "fig5_time_shift.txt", text)
