"""Figure 2: distribution of options checked per scheduling attempt."""

from conftest import write_result

from repro.lowlevel.bitvector import RUMap
from repro.lowlevel.checker import ConstraintChecker


def test_fig2_regenerate(suite, results_dir, benchmark):
    text = benchmark(lambda: suite.fig2_options_distribution("SuperSPARC"))
    write_result(results_dir, "fig2_options_distribution.txt", text)
    run = suite.run("SuperSPARC", "or", 0, False)
    histogram = run.stats.options_histogram
    total = sum(histogram.values())
    # The paper's two peaks: cheap successes at 1 option checked, and
    # expensive failures clustered at 48 options (1-src IALU ops).
    assert histogram.get(1, 0) / total > 0.15
    assert histogram.get(48, 0) / total > 0.10
    assert max(histogram) <= 72

    # The worst case: a failing attempt examines all 72 options.
    compiled = suite.compiled("SuperSPARC", "or", 0, False)
    ru = RUMap()
    for resource in compiled.source.resources:
        if resource.name.startswith("Decoder"):
            ru.reserve(-1, resource.mask)  # no decoder -> every option fails
    checker = ConstraintChecker()
    constraint = compiled.constraint_for_class("ialu_2src")
    assert checker.try_reserve(ru, constraint, 0) is None
    assert checker.stats.options_checked == 72
