"""The description-space sweep driver.

One sweep schedules a *fixed* workload shape across every variant of a
synthetic machine fleet (:mod:`repro.machines.synth`) -- hundreds to
thousands of distinct descriptions in one run, where the rest of the
repo exercises four.  Each variant flows through the production stack
unchanged: registry-name resolution, the writer -> parser -> translator
front end, the transform pipeline, a registered query-engine backend,
and the fault-tolerant batch driver -- all dispatched through one
:class:`~repro.service.submit.BatchSubmitter` holding the warm
process-wide :class:`~repro.engine.cache.DescriptionCache`, the same
compile-once-use-many object the server tier keeps open.

Per variant the sweep records the schedule digest and run totals, the
per-transform ``options_delta`` effect columns (the live Table 7/8/13
quantities, here measured per *machine* rather than at the paper's four
points), an optional independent-oracle verdict, and an optional
exact-scheduler gap sample.  Rows contain only deterministic data, so
two sweeps of one fleet write identical rows; failures are quarantined
per variant and never poison the rest of the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.engine.cache import DescriptionCache
from repro.engine.diskcache import DiskDescriptionCache, machine_content_token
from repro.machines import get_machine
from repro.machines import synth
from repro.service.models import (
    DEFAULT_BACKEND,
    BatchConfig,
    BatchRequest,
)
from repro.service.submit import BatchSubmitter
from repro.sweep.report import SweepReport, VariantResult
from repro.transforms.pipeline import FINAL_STAGE, staged_mdes
from repro.verify.golden import schedule_digest
from repro.workloads import WorkloadConfig

#: Warm-cache bound for sweep runs: every variant visits the cache once
#: (an "mdes" and an "lmdes" entry each), so the sweep is an eviction
#: *churn* workload by design; the bound keeps memory flat at any fleet
#: size while the disk tier (``cache_dir``) persists across sweeps.
SWEEP_CACHE_SIZE = 256


@dataclass(frozen=True)
class SweepConfig:
    """One sweep's parameters.

    Attributes:
        family: Synth family preset the fleet is drawn from.
        count: Fleet size (variant indices ``0..count-1``).
        seed: Fleet seed; ``(family, seed, index)`` fully determines
            each variant.
        names: Explicit machine-name fleet overriding
            ``family/count/seed`` -- any registry-resolvable names,
            including hand-written machines, mixed fleets, or a
            poisoned name (which quarantines just that variant).
        ops: Workload size scheduled on every variant.
        workload_seed: Workload generator seed (fixed across the fleet
            so the instruction mix, not the workload, is the constant).
        backend: Registered query-engine backend.
        stage: Transformation stage 0..4.
        verify: Replay every variant's schedules through the
            independent oracle.
        exact_sample: When > 0, run the exact scheduler on every
            ``exact_sample``-th variant (small pinned workload) and
            record the optimality gap.
        exact_ops: Exact-sample workload size.
        exact_node_budget: Exact-search node budget (node-only, so the
            sample stays deterministic).
        cache_dir: Disk tier for the warm description cache.
        chunk_size: Batch-driver chunk size per variant run.
    """

    family: str = "superscalar-wide"
    count: int = 100
    seed: int = 0
    names: Tuple[str, ...] = ()
    ops: int = 64
    workload_seed: int = 20161202
    backend: str = DEFAULT_BACKEND
    stage: int = FINAL_STAGE
    verify: bool = True
    exact_sample: int = 0
    exact_ops: int = 24
    exact_node_budget: int = 50_000
    cache_dir: Optional[str] = None
    chunk_size: int = 32

    def validate(self) -> "SweepConfig":
        if not self.names:
            synth.get_family(self.family)
            if self.count < 1:
                raise ValueError(f"count must be >= 1: {self.count}")
        if self.ops < 1:
            raise ValueError(f"ops must be >= 1: {self.ops}")
        if not 0 <= self.stage <= FINAL_STAGE:
            raise ValueError(
                f"stage must be 0..{FINAL_STAGE}: {self.stage}"
            )
        if self.exact_sample < 0:
            raise ValueError(
                f"exact_sample must be >= 0: {self.exact_sample}"
            )
        return self

    def fleet(self) -> Tuple[str, ...]:
        """The machine names this sweep visits, in index order."""
        if self.names:
            return tuple(self.names)
        return synth.fleet_names(self.family, self.seed, self.count)


def transform_effects_for(
    machine, stage: int = FINAL_STAGE
) -> List[Dict[str, Any]]:
    """One variant's per-transform effect columns, deterministically.

    Runs the staged pipeline on the variant's description under a
    detached trace capture and flattens the resulting ``transform:*``
    spans -- the same entries :func:`repro.obs.transform_effects`
    reads from the live trace, minus the wall-clock ``seconds`` column
    (sweep rows must be bit-identical from run to run).  Driving
    the pipeline directly (rather than scraping the schedule run's
    spans) keeps the columns present even when the compile itself was
    a warm cache hit.
    """
    base = machine.build_andor()
    # The tracer is a global opt-in; the effect columns must exist
    # regardless, so enable it for just this capture when it is off.
    was_enabled = obs.enabled()
    if not was_enabled:
        obs.enable()
    try:
        with obs.capture() as capture:
            staged_mdes(base, stage)
    finally:
        if not was_enabled:
            obs.disable()
    containers = ("transform:pipeline", "transform:staged")
    effects: List[Dict[str, Any]] = []

    def walk(span_dict: Dict[str, Any]) -> None:
        name = span_dict.get("name", "")
        if name.startswith("transform:") and name not in containers:
            entry = {"stage": name[len("transform:"):]}
            entry.update(span_dict.get("attrs", {}))
            effects.append(entry)
        for child in span_dict.get("children", ()):
            walk(child)

    for root in capture.spans:
        walk(root)
    return effects


def _exact_sample(
    machine, config: SweepConfig, cache: DescriptionCache
) -> Dict[str, Any]:
    """The exact-scheduler gap sample for one variant."""
    from repro.engine.registry import create_engine
    from repro.exact import ExactBudget, schedule_workload_exact
    from repro.workloads import generate_blocks

    engine = create_engine(
        "exact", machine, stage=config.stage, cache=cache
    )
    blocks = generate_blocks(machine, WorkloadConfig(
        total_ops=config.exact_ops, seed=config.workload_seed,
        block_size_range=(3, 6),
    ))
    run = schedule_workload_exact(
        machine, blocks, engine=engine,
        budget=ExactBudget(
            max_nodes=config.exact_node_budget, max_seconds=None
        ),
    )
    return {
        "blocks": len(run.results),
        "ops": run.total_ops,
        "cycles": run.total_cycles,
        "heuristic_cycles": run.heuristic_cycles,
        "gap_cycles": run.gap_cycles,
        "optimal_blocks": run.optimal_blocks,
        "nodes": run.nodes,
    }


def _run_variant(
    index: int,
    name: str,
    config: SweepConfig,
    submitter: BatchSubmitter,
) -> VariantResult:
    """One variant, fully isolated: any failure becomes a quarantined
    row instead of an exception."""
    try:
        machine = get_machine(name)
        request = BatchRequest(
            machine=name,
            workload=WorkloadConfig(
                total_ops=config.ops, seed=config.workload_seed,
            ),
            config=BatchConfig(
                backend=config.backend,
                stage=config.stage,
                chunk_size=config.chunk_size,
                verify=config.verify,
                on_error="report",
            ),
        ).validate()
        with obs.span("sweep:variant", machine=name, index=index):
            result = submitter.run(request)
            effects = transform_effects_for(machine, config.stage)
            exact = None
            if config.exact_sample and index % config.exact_sample == 0:
                exact = _exact_sample(machine, config, submitter.cache)
        verify_ok = None
        diagnostics = 0
        if result.verify_report is not None:
            verify_ok = result.verify_report.ok
            diagnostics = len(result.verify_report.diagnostics)
        return VariantResult(
            index=index,
            name=name,
            ok=True,
            content=machine_content_token(machine),
            complexity=synth.describe_complexity(machine),
            digest=schedule_digest(result.signature()),
            blocks=len(result.schedules),
            ops=result.total_ops,
            cycles=result.total_cycles,
            attempts=result.stats.attempts,
            options_per_attempt=result.stats.options_per_attempt,
            checks_per_attempt=result.stats.checks_per_attempt,
            transforms=effects,
            verify_ok=verify_ok,
            verify_diagnostics=diagnostics,
            exact=exact,
        )
    except Exception as exc:  # noqa: BLE001 -- quarantine, never poison
        return VariantResult(
            index=index,
            name=name,
            ok=False,
            error_type=type(exc).__name__,
            error_message=str(exc)[:500],
        )


def run_sweep(
    config: SweepConfig,
    cache: Optional[DescriptionCache] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> SweepReport:
    """Sweep the fleet; returns the aggregated report.

    ``progress``, when given, is called as ``progress(done, total)``
    after every variant.  Observability is force-enabled
    for the duration (the per-variant transform-effect capture needs
    the tracer) and restored afterwards.
    """
    config.validate()
    names = config.fleet()
    was_enabled = obs.enabled()
    if not was_enabled:
        obs.enable()
    try:
        if cache is None:
            disk = (
                DiskDescriptionCache(config.cache_dir)
                if config.cache_dir else None
            )
            cache = DescriptionCache(
                maxsize=SWEEP_CACHE_SIZE, disk=disk, name="sweep"
            )
        before = cache.stats.copy()
        submitter = BatchSubmitter(max_workers=1, cache=cache)
        variants: List[VariantResult] = []
        with obs.span(
            "sweep:run",
            family=config.family if not config.names else "custom",
            variants=len(names),
        ) as sweep_span:
            try:
                for index, name in enumerate(names):
                    variants.append(
                        _run_variant(index, name, config, submitter)
                    )
                    if progress is not None:
                        progress(len(variants), len(names))
            finally:
                submitter.close()
        delta = cache.stats.since(before)
        report = SweepReport(
            family=config.family if not config.names else "custom",
            count=len(names),
            seed=config.seed,
            ops=config.ops,
            workload_seed=config.workload_seed,
            backend=config.backend,
            stage=config.stage,
            variants=variants,
            cache={
                "memory_hits": delta.hits,
                "memory_misses": delta.misses,
                "evictions": delta.evictions,
                "disk_hits": delta.disk_hits,
                "disk_misses": delta.disk_misses,
                "disk_stores": delta.disk_stores,
                "entries": len(cache),
            },
            wall_seconds=(
                sweep_span.seconds if obs.enabled() else 0.0
            ),
        )
        obs.count(
            "repro_sweep_variants_total",
            len(report.variants),
            help="Machine variants visited by sweep runs.",
        )
        if report.quarantined:
            obs.count(
                "repro_sweep_quarantined_total",
                report.quarantined,
                help="Sweep variants quarantined by per-variant faults.",
            )
        return report
    finally:
        if not was_enabled:
            obs.disable()


__all__ = [
    "SWEEP_CACHE_SIZE",
    "SweepConfig",
    "run_sweep",
    "transform_effects_for",
]
