"""Experiment suite: regenerate every table and figure of the paper.

The paper applies its transformations incrementally and reports each
stage; :class:`ExperimentSuite` reproduces that staging:

======  ==========================================================
stage   description
======  ==========================================================
0       original description (Tables 5 and 6, figures 1-3)
1       + redundancy elimination, dead-code removal, and
        dominated-option removal (Tables 7 and 8, figure 4)
2       stage 1 compiled with bit-vector packing (Tables 9 and 10)
3       + usage-time shifting and zero-first usage sorting
        (Tables 11 and 12, figure 5)
4       + common-usage factoring and AND/OR-tree ordering
        (Table 13, figure 6)
======  ==========================================================

Tables 14 and 15 compare stage 0 against stage 4 end to end.

Every run of one machine schedules the *same* synthetic workload, so the
per-attempt statistics are directly comparable -- and the suite verifies
the paper's invariant that every representation and stage produces the
exact same schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import format_table, reduction_pct
from repro.core.expand import as_or_tree
from repro.core.mdes import Mdes
from repro.engine.cache import GLOBAL_CACHE, DescriptionCache
from repro.lowlevel.compiled import CompiledMdes
from repro.lowlevel.layout import mdes_size_bytes
from repro.machines import MACHINE_NAMES, get_machine
from repro.scheduler import RunResult, schedule_workload
from repro.transforms.pipeline import FINAL_STAGE
from repro.workloads import WorkloadConfig, generate_blocks

__all__ = [
    "ANDOR_REP",
    "ExperimentSuite",
    "OR_REP",
]


#: Representations compared throughout the paper.
OR_REP = "or"
ANDOR_REP = "andor"


@dataclass
class ExperimentSuite:
    """Caches workloads, staged descriptions, compilations, and runs."""

    total_ops: int = 20000
    seed: int = 20161202
    keep_schedules: bool = False
    #: Staged trees and compilations come from the process-wide LRU
    #: description cache, so repeated suites (and the CLI, and the
    #: benchmarks) share one set of compiled descriptions.
    cache: DescriptionCache = field(default=GLOBAL_CACHE, repr=False)
    _workloads: Dict[str, list] = field(default_factory=dict, repr=False)
    _runs: Dict[Tuple[str, str, int, bool], RunResult] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------

    def workload(self, machine_name: str) -> list:
        """The machine's synthetic workload (cached)."""
        if machine_name not in self._workloads:
            machine = get_machine(machine_name)
            self._workloads[machine_name] = generate_blocks(
                machine,
                WorkloadConfig(total_ops=self.total_ops, seed=self.seed),
            )
        return self._workloads[machine_name]

    def mdes(self, machine_name: str, rep: str, stage: int) -> Mdes:
        """The staged description in one representation (cached)."""
        return self.cache.mdes(get_machine(machine_name), rep, stage)

    def compiled(
        self, machine_name: str, rep: str, stage: int, bitvector: bool
    ) -> CompiledMdes:
        """The compiled staged description (cached)."""
        return self.cache.compiled(
            get_machine(machine_name), rep, stage, bitvector
        )

    def size(
        self, machine_name: str, rep: str, stage: int, bitvector: bool
    ) -> int:
        """Representation size in bytes under the layout model."""
        return mdes_size_bytes(
            self.compiled(machine_name, rep, stage, bitvector)
        )

    def run(
        self, machine_name: str, rep: str, stage: int, bitvector: bool
    ) -> RunResult:
        """Schedule the machine's workload against one configuration."""
        key = (machine_name, rep, stage, bitvector)
        if key not in self._runs:
            machine = get_machine(machine_name)
            self._runs[key] = schedule_workload(
                machine,
                self.compiled(machine_name, rep, stage, bitvector),
                self.workload(machine_name),
                keep_schedules=self.keep_schedules,
            )
        return self._runs[key]

    # ------------------------------------------------------------------
    # Figures 1 and 3: the SuperSPARC integer load
    # ------------------------------------------------------------------

    def fig1_load_reservation_tables(self) -> str:
        """Figure 1: the six reservation tables of the integer load."""
        from repro.analysis.figures import render_or_tree

        mdes = self.mdes("SuperSPARC", OR_REP, 0)
        constraint = as_or_tree(mdes.op_class("load").constraint)
        return render_or_tree(constraint, label="SuperSPARC integer load")

    def fig3_representations(self) -> str:
        """Figure 3: OR-tree versus AND/OR-tree for the integer load."""
        from repro.analysis.figures import (
            render_and_or_tree,
            render_or_tree,
        )

        or_form = as_or_tree(
            self.mdes("SuperSPARC", OR_REP, 0).op_class("load").constraint
        )
        andor_form = self.mdes("SuperSPARC", ANDOR_REP, 0).op_class(
            "load"
        ).constraint
        return "\n\n".join(
            [
                "(a) traditional OR-tree:",
                render_or_tree(or_form, label="integer load"),
                "(b) AND/OR-tree:",
                render_and_or_tree(andor_form, label="integer load"),
            ]
        )

    # ------------------------------------------------------------------
    # Tables 1-4: option breakdowns and attempt shares
    # ------------------------------------------------------------------

    def option_breakdown(self, machine_name: str) -> List[Tuple[int, float, str]]:
        """Rows of (option count, % of scheduling attempts, classes).

        The class attempt shares come from an original AND/OR run (the
        representation does not change attempt counts).
        """
        mdes = self.mdes(machine_name, ANDOR_REP, 0)
        run = self.run(machine_name, ANDOR_REP, 0, False)
        attempts_by_options: Dict[int, int] = {}
        classes_by_options: Dict[int, List[str]] = {}
        for class_name, op_class in mdes.op_classes.items():
            options = op_class.option_count()
            attempts = run.stats.attempts_by_class.get(class_name, 0)
            attempts_by_options[options] = (
                attempts_by_options.get(options, 0) + attempts
            )
            classes_by_options.setdefault(options, []).append(class_name)
        total = max(1, run.stats.attempts)
        return [
            (
                options,
                attempts_by_options[options] / total * 100.0,
                ", ".join(sorted(classes_by_options[options])),
            )
            for options in sorted(attempts_by_options)
        ]

    def table_breakdown(self, machine_name: str) -> str:
        """Tables 1-4: option breakdown for one machine."""
        table_number = {
            "SuperSPARC": 1, "PA7100": 2, "Pentium": 3, "K5": 4
        }[machine_name]
        rows = [
            (options, f"{share:.2f}%", classes)
            for options, share, classes in self.option_breakdown(machine_name)
        ]
        return format_table(
            ("Options", "% of Sched. Attempts", "Operation classes"),
            rows,
            title=(
                f"Table {table_number}: option breakdown and scheduling "
                f"characteristics of the {machine_name} MDES"
            ),
        )

    # ------------------------------------------------------------------
    # Figure 2: distribution of options checked per attempt
    # ------------------------------------------------------------------

    def fig2_options_distribution(
        self, machine_name: str = "SuperSPARC"
    ) -> str:
        """Figure 2: options checked per attempt, original OR-trees."""
        from repro.analysis.figures import render_options_histogram

        run = self.run(machine_name, OR_REP, 0, False)
        return render_options_histogram(run.stats.options_histogram)

    # ------------------------------------------------------------------
    # Table 5: original scheduling characteristics
    # ------------------------------------------------------------------

    def table5_rows(self) -> List[tuple]:
        """Rows: machine, ops, attempts/op, OR and AND/OR stats."""
        rows = []
        for name in MACHINE_NAMES:
            or_run = self.run(name, OR_REP, 0, False)
            andor_run = self.run(name, ANDOR_REP, 0, False)
            rows.append(
                (
                    name,
                    or_run.total_ops,
                    or_run.attempts_per_op,
                    or_run.stats.options_per_attempt,
                    or_run.stats.checks_per_attempt,
                    andor_run.stats.options_per_attempt,
                    andor_run.stats.checks_per_attempt,
                    reduction_pct(
                        or_run.stats.checks_per_attempt,
                        andor_run.stats.checks_per_attempt,
                    ),
                )
            )
        return rows

    def table5(self) -> str:
        """Table 5: original scheduling characteristics."""
        return format_table(
            (
                "MDES", "Ops", "Att/Op",
                "OR Opt/Att", "OR Chk/Att",
                "AO Opt/Att", "AO Chk/Att", "Chk Reduced",
            ),
            self.table5_rows(),
            title="Table 5: original scheduling characteristics",
        )

    # ------------------------------------------------------------------
    # Table 6: original memory requirements
    # ------------------------------------------------------------------

    def table6_rows(self) -> List[tuple]:
        """Rows: machine, trees, OR options/bytes, AND/OR options/bytes."""
        rows = []
        for name in MACHINE_NAMES:
            or_mdes = self.mdes(name, OR_REP, 0)
            andor_mdes = self.mdes(name, ANDOR_REP, 0)
            or_size = self.size(name, OR_REP, 0, False)
            andor_size = self.size(name, ANDOR_REP, 0, False)
            rows.append(
                (
                    name,
                    andor_mdes.tree_count(),
                    or_mdes.stored_option_count(),
                    or_size,
                    andor_mdes.stored_option_count(),
                    andor_size,
                    reduction_pct(or_size, andor_size),
                )
            )
        return rows

    def table6(self) -> str:
        """Table 6: original MDES memory requirements."""
        return format_table(
            (
                "MDES", "Trees", "OR Options", "OR Bytes",
                "AO Options", "AO Bytes", "Size Reduced",
            ),
            self.table6_rows(),
            title="Table 6: original MDES memory requirements",
        )

    # ------------------------------------------------------------------
    # Table 7: after redundancy elimination
    # ------------------------------------------------------------------

    def table7_rows(self) -> List[tuple]:
        """Rows per machine: post-cleanup options/bytes per rep."""
        rows = []
        for name in MACHINE_NAMES:
            before_or = self.size(name, OR_REP, 0, False)
            before_andor = self.size(name, ANDOR_REP, 0, False)
            after_or = self.size(name, OR_REP, 1, False)
            after_andor = self.size(name, ANDOR_REP, 1, False)
            or_mdes = self.mdes(name, OR_REP, 1)
            andor_mdes = self.mdes(name, ANDOR_REP, 1)
            rows.append(
                (
                    name,
                    andor_mdes.tree_count(),
                    or_mdes.stored_option_count(),
                    after_or,
                    reduction_pct(before_or, after_or),
                    andor_mdes.stored_option_count(),
                    after_andor,
                    reduction_pct(before_andor, after_andor),
                )
            )
        return rows

    def table7(self) -> str:
        """Table 7: memory after eliminating redundant/unused info."""
        return format_table(
            (
                "MDES", "Trees", "OR Options", "OR Bytes", "OR Reduced",
                "AO Options", "AO Bytes", "AO Reduced",
            ),
            self.table7_rows(),
            title=(
                "Table 7: MDES memory requirements after eliminating "
                "redundant and unused information"
            ),
        )

    def fig4_sharing(self) -> str:
        """Figure 4: OR-tree sharing between load and 2-src IALU trees."""
        mdes = self.mdes("SuperSPARC", ANDOR_REP, 1)
        load = mdes.op_class("load").constraint
        ialu = mdes.op_class("ialu_2src").constraint
        shared = {id(tree) for tree in load.or_trees} & {
            id(tree) for tree in ialu.or_trees
        }
        lines = [
            "After redundancy elimination the integer load and the",
            "2-source integer ALU AND/OR-trees share "
            f"{len(shared)} OR-tree(s) by identity:",
        ]
        for tree in load.or_trees:
            marker = "shared" if id(tree) in shared else "private"
            lines.append(
                f"  load   -> {tree.name or '<anon>':12s} "
                f"({len(tree)} options) [{marker}]"
            )
        for tree in ialu.or_trees:
            marker = "shared" if id(tree) in shared else "private"
            lines.append(
                f"  ialu2  -> {tree.name or '<anon>':12s} "
                f"({len(tree)} options) [{marker}]"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Table 8: PA7100 dominated-option removal
    # ------------------------------------------------------------------

    def table8_rows(self) -> List[tuple]:
        """PA7100 scheduling characteristics before/after option removal."""
        rows = []
        for rep in (OR_REP, ANDOR_REP):
            before = self.run("PA7100", rep, 0, False)
            after = self.run("PA7100", rep, 1, False)
            rows.append(
                (
                    rep.upper(),
                    before.stats.options_per_attempt,
                    before.stats.checks_per_attempt,
                    after.stats.options_per_attempt,
                    after.stats.checks_per_attempt,
                    reduction_pct(
                        before.stats.checks_per_attempt,
                        after.stats.checks_per_attempt,
                    ),
                )
            )
        return rows

    def table8(self) -> str:
        """Table 8: PA7100 after removing unnecessary memory options."""
        return format_table(
            (
                "Rep", "Opt/Att Before", "Chk/Att Before",
                "Opt/Att After", "Chk/Att After", "Chk Reduced",
            ),
            self.table8_rows(),
            title=(
                "Table 8: PA7100 scheduling characteristics after removing "
                "unnecessary options for memory operations"
            ),
        )

    # ------------------------------------------------------------------
    # Tables 9 and 10: bit-vector representation
    # ------------------------------------------------------------------

    def table9_rows(self) -> List[tuple]:
        """Sizes before/after packing one cycle's usages per word."""
        rows = []
        for name in MACHINE_NAMES:
            row = [name]
            for rep in (OR_REP, ANDOR_REP):
                before = self.size(name, rep, 1, False)
                after = self.size(name, rep, 1, True)
                row.extend([before, after, reduction_pct(before, after)])
            rows.append(tuple(row))
        return rows

    def table9(self) -> str:
        """Table 9: MDES sizes before/after bit-vector packing."""
        return format_table(
            (
                "MDES", "OR Before", "OR After", "OR Diff",
                "AO Before", "AO After", "AO Diff",
            ),
            self.table9_rows(),
            title=(
                "Table 9: MDES size before and after a bit-vector "
                "representation is used (one cycle/word)"
            ),
        )

    def table10_rows(self) -> List[tuple]:
        """Checks per attempt before/after bit-vector packing."""
        rows = []
        for name in MACHINE_NAMES:
            row = [name]
            for rep in (OR_REP, ANDOR_REP):
                before = self.run(name, rep, 1, False)
                after = self.run(name, rep, 1, True)
                row.extend(
                    [
                        before.stats.checks_per_attempt,
                        after.stats.checks_per_attempt,
                        reduction_pct(
                            before.stats.checks_per_attempt,
                            after.stats.checks_per_attempt,
                        ),
                    ]
                )
            rows.append(tuple(row))
        return rows

    def table10(self) -> str:
        """Table 10: checks before/after bit-vector packing."""
        return format_table(
            (
                "MDES", "OR Before", "OR After", "OR Diff",
                "AO Before", "AO After", "AO Diff",
            ),
            self.table10_rows(),
            title=(
                "Table 10: scheduling characteristics before and after a "
                "bit-vector representation is used (one cycle/word)"
            ),
        )

    # ------------------------------------------------------------------
    # Figure 5, Tables 11 and 12: usage-time transformation
    # ------------------------------------------------------------------

    def fig5_shifted_load(self) -> str:
        """Figure 5: the integer load OR-tree after usage-time shifting."""
        from repro.analysis.figures import render_or_tree

        mdes = self.mdes("SuperSPARC", OR_REP, 3)
        constraint = as_or_tree(mdes.op_class("load").constraint)
        return render_or_tree(
            constraint, label="SuperSPARC integer load (times shifted)"
        )

    def table11_rows(self) -> List[tuple]:
        """Sizes before/after usage-time shifting (bit-vector words)."""
        rows = []
        for name in MACHINE_NAMES:
            row = [name]
            for rep in (OR_REP, ANDOR_REP):
                before = self.size(name, rep, 1, True)
                after = self.size(name, rep, 3, True)
                row.extend([before, after, reduction_pct(before, after)])
            rows.append(tuple(row))
        return rows

    def table11(self) -> str:
        """Table 11: memory before/after transforming usage times."""
        return format_table(
            (
                "MDES", "OR Before", "OR After", "OR Diff",
                "AO Before", "AO After", "AO Diff",
            ),
            self.table11_rows(),
            title=(
                "Table 11: MDES memory requirements before and after "
                "transforming resource usage times (one cycle/word)"
            ),
        )

    def table12_rows(self) -> List[tuple]:
        """Checks before/after time shifting + zero-first sorting."""
        rows = []
        for name in MACHINE_NAMES:
            row = [name]
            for rep in (OR_REP, ANDOR_REP):
                before = self.run(name, rep, 1, True)
                after = self.run(name, rep, 3, True)
                row.extend(
                    [
                        before.stats.checks_per_attempt,
                        after.stats.checks_per_attempt,
                        reduction_pct(
                            before.stats.checks_per_attempt,
                            after.stats.checks_per_attempt,
                        ),
                        after.stats.checks_per_option,
                    ]
                )
            rows.append(tuple(row))
        return rows

    def table12(self) -> str:
        """Table 12: checks before/after the usage-time transformation."""
        return format_table(
            (
                "MDES", "OR Before", "OR After", "OR Diff", "OR Chk/Opt",
                "AO Before", "AO After", "AO Diff", "AO Chk/Opt",
            ),
            self.table12_rows(),
            title=(
                "Table 12: scheduling characteristics before and after "
                "transforming usage times and sorting usages to check "
                "time zero first"
            ),
        )

    # ------------------------------------------------------------------
    # Figure 6 and Table 13: AND/OR conflict-detection ordering
    # ------------------------------------------------------------------

    def fig6_tree_order(self) -> str:
        """Figure 6: AND/OR sub-tree order before and after sorting."""
        from repro.analysis.figures import render_and_or_tree

        before = self.mdes("SuperSPARC", ANDOR_REP, 3).op_class(
            "load"
        ).constraint
        after = self.mdes("SuperSPARC", ANDOR_REP, 4).op_class(
            "load"
        ).constraint
        return "\n\n".join(
            [
                "(a) original order specified:",
                render_and_or_tree(before, label="integer load"),
                "(b) after optimizing the order:",
                render_and_or_tree(after, label="integer load"),
            ]
        )

    def table13_rows(self) -> List[tuple]:
        """AND/OR options and checks before/after section 8 transforms."""
        rows = []
        for name in MACHINE_NAMES:
            before = self.run(name, ANDOR_REP, 3, True)
            after = self.run(name, ANDOR_REP, 4, True)
            rows.append(
                (
                    name,
                    before.stats.options_per_attempt,
                    after.stats.options_per_attempt,
                    reduction_pct(
                        before.stats.options_per_attempt,
                        after.stats.options_per_attempt,
                    ),
                    before.stats.checks_per_attempt,
                    after.stats.checks_per_attempt,
                    reduction_pct(
                        before.stats.checks_per_attempt,
                        after.stats.checks_per_attempt,
                    ),
                )
            )
        return rows

    def table13(self) -> str:
        """Table 13: optimizing AND/OR-trees for conflict detection."""
        return format_table(
            (
                "MDES", "Opt/Att Before", "Opt/Att After", "Opt Diff",
                "Chk/Att Before", "Chk/Att After", "Chk Diff",
            ),
            self.table13_rows(),
            title=(
                "Table 13: scheduling characteristics before and after "
                "optimizing AND/OR-trees for resource conflict detection"
            ),
        )

    # ------------------------------------------------------------------
    # Tables 14 and 15: aggregate effects
    # ------------------------------------------------------------------

    def table14_rows(self) -> List[tuple]:
        """Aggregate size effect of all transformations."""
        rows = []
        for name in MACHINE_NAMES:
            unopt = self.size(name, OR_REP, 0, False)
            or_final = self.size(name, OR_REP, FINAL_STAGE, True)
            andor_final = self.size(name, ANDOR_REP, FINAL_STAGE, True)
            rows.append(
                (
                    name,
                    unopt,
                    or_final,
                    reduction_pct(unopt, or_final),
                    andor_final,
                    reduction_pct(unopt, andor_final),
                )
            )
        return rows

    def table14(self) -> str:
        """Table 14: aggregate effect on representation size."""
        return format_table(
            (
                "MDES", "Unopt OR", "Opt OR", "Reduction",
                "Opt AO", "Reduction",
            ),
            self.table14_rows(),
            title=(
                "Table 14: aggregate effect of all transformations on "
                "MDES resource-constraint representation size (bytes)"
            ),
        )

    def table15_rows(self) -> List[tuple]:
        """Aggregate checks-per-attempt effect of all transformations."""
        rows = []
        for name in MACHINE_NAMES:
            unopt = self.run(name, OR_REP, 0, False)
            or_final = self.run(name, OR_REP, FINAL_STAGE, True)
            andor_final = self.run(name, ANDOR_REP, FINAL_STAGE, True)
            rows.append(
                (
                    name,
                    unopt.stats.checks_per_attempt,
                    or_final.stats.checks_per_attempt,
                    reduction_pct(
                        unopt.stats.checks_per_attempt,
                        or_final.stats.checks_per_attempt,
                    ),
                    andor_final.stats.checks_per_attempt,
                    reduction_pct(
                        unopt.stats.checks_per_attempt,
                        andor_final.stats.checks_per_attempt,
                    ),
                )
            )
        return rows

    def table15(self) -> str:
        """Table 15: aggregate effect on checks per attempt."""
        return format_table(
            (
                "MDES", "Unopt OR", "Opt OR", "Reduction",
                "Opt AO", "Reduction",
            ),
            self.table15_rows(),
            title=(
                "Table 15: aggregate effect of all transformations on "
                "average checks per scheduling attempt"
            ),
        )

    # ------------------------------------------------------------------
    # Invariant check
    # ------------------------------------------------------------------

    def verify_schedule_invariance(self, machine_name: str) -> bool:
        """All stages and representations produce the same schedule.

        Requires the suite to be constructed with ``keep_schedules=True``.
        """
        signatures = set()
        for rep in (OR_REP, ANDOR_REP):
            for stage, bitvector in (
                (0, False), (1, False), (1, True), (3, True), (4, True)
            ):
                run = self.run(machine_name, rep, stage, bitvector)
                signatures.add(run.signature())
        return len(signatures) == 1

    def all_tables(self) -> str:
        """Every table, concatenated (the full evaluation section)."""
        parts = [self.table_breakdown(name) for name in
                 ("SuperSPARC", "PA7100", "Pentium", "K5")]
        parts.extend(
            [
                self.table5(), self.table6(), self.table7(), self.table8(),
                self.table9(), self.table10(), self.table11(),
                self.table12(), self.table13(), self.table14(),
                self.table15(),
            ]
        )
        return "\n\n".join(parts)
