"""Shared fixtures for the benchmark scripts.

Every benchmark regenerates its paper table/figure from a shared
:class:`ExperimentSuite` (scale controlled by ``REPRO_BENCH_OPS``,
default 20000 operations per machine) and writes the artifact to
``benchmarks/results/``.  The few timed kernels left here cover paths
the repo benchmark (``perfbench/``) does not run; they use a smaller
scale (``REPRO_KERNEL_OPS``, default 2000) so they stay fast.
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis import ExperimentSuite
from repro.engine.cache import GLOBAL_CACHE
from repro.machines import get_machine
from repro.workloads import WorkloadConfig, generate_blocks

#: Operations per machine for the reported tables.
BENCH_OPS = int(os.environ.get("REPRO_BENCH_OPS", "20000"))

#: Operations per timed kernel round.
KERNEL_OPS = int(os.environ.get("REPRO_KERNEL_OPS", "2000"))

RESULTS_DIR = Path(__file__).parent / "results"

_EMIT_JSON = False


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store_true",
        default=False,
        help=(
            "also write each benchmark's machine-readable payload to "
            "benchmarks/results/BENCH_<name>.json"
        ),
    )


def pytest_configure(config):
    global _EMIT_JSON
    _EMIT_JSON = config.getoption("--json", default=False)


@pytest.fixture(scope="session")
def suite():
    """The shared full-scale experiment suite."""
    return ExperimentSuite(total_ops=BENCH_OPS)


@pytest.fixture(scope="session")
def results_dir():
    """Directory collecting every regenerated table/figure."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir, name, text, payload=None):
    """Persist one artifact and echo it for ``-s`` runs.

    With ``--json`` and a ``payload``, a machine-readable twin is
    written next to the text artifact as ``BENCH_<stem>.json``.
    """
    path = results_dir / name
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    if _EMIT_JSON and payload is not None:
        json_path = results_dir / f"BENCH_{Path(name).stem}.json"
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[json written to {json_path}]")


@pytest.fixture(scope="session")
def kernel_workloads():
    """Small per-machine workloads for the timed kernels."""
    cache = {}

    def get(machine_name):
        if machine_name not in cache:
            machine = get_machine(machine_name)
            cache[machine_name] = generate_blocks(
                machine, WorkloadConfig(total_ops=KERNEL_OPS)
            )
        return cache[machine_name]

    return get


@pytest.fixture(scope="session")
def kernel_compiled():
    """Compiled descriptions for the timed kernels, keyed by config.

    Delegates to the process-wide LRU description cache, so kernels
    share compilations with every other consumer in the process.
    """

    def get(machine_name, rep, stage, bitvector):
        return GLOBAL_CACHE.compiled(
            get_machine(machine_name), rep, stage, bitvector
        )

    return get
