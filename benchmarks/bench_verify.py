"""Verification-layer cost: differential fuzz rate.

Seeded differential cases/second -- the number that sizes the CI fuzz
job's budget.  Oracle replay cost is measured per layer by the repo
benchmark (``perfbench/``, ``verify.replay_s``).
"""

import time

from conftest import write_result

from repro.analysis.reporting import format_table
from repro.verify import fuzz

FUZZ_CASES = 10


class TestVerifyCost:
    def test_fuzz_case_rate(self, results_dir):
        started = time.perf_counter()
        report = fuzz(seed=42, cases=FUZZ_CASES, shrink=True)
        elapsed = time.perf_counter() - started
        assert report.ok, [f.summary() for f in report.failures]
        rate = FUZZ_CASES / elapsed
        text = format_table(
            ["Cases", "seconds", "cases/s"],
            [[str(FUZZ_CASES), f"{elapsed:.2f}", f"{rate:.1f}"]],
            title=(
                "Differential fuzz rate (seeded, full stage x backend "
                "matrix)"
            ),
        )
        write_result(
            results_dir, "verify_fuzz.txt", text,
            payload={
                "cases": FUZZ_CASES,
                "seconds": elapsed,
                "cases_per_second": rate,
            },
        )
