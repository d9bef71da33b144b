"""Sweep result vocabulary: per-variant rows and the aggregate report.

A sweep's value is the *table*, not any single run: schedule length,
transform effect columns, and oracle verdicts across hundreds of
machine variants, joined against each variant's complexity axes.  The
rows here are deliberately restricted to deterministic data (no
wall-clock, no shared-cache deltas), which is what makes two sweeps of
one fleet bit-identical -- the same determinism contract the batch
service keeps per workload, lifted to fleet level.

The JSONL form is one meta line followed by one line per variant, so a
thousand-variant report streams and greps well; ``read_jsonl`` round-
trips it losslessly for offline joins.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Bump when the JSONL layout changes.
REPORT_VERSION = 2


@dataclass
class VariantResult:
    """One machine variant's deterministic sweep row.

    ``ok`` is False for quarantined variants (resolution or scheduling
    blew up); such rows carry the typed error and nothing else, and do
    not poison the rest of the fleet.
    """

    index: int
    name: str
    ok: bool
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    #: sha256 content token of the variant's HMDES source.
    content: Optional[str] = None
    #: Description size axes (resources/classes/options/usages).
    complexity: Dict[str, int] = field(default_factory=dict)
    #: Schedule digest + run totals on the sweep workload.
    digest: Optional[str] = None
    blocks: int = 0
    ops: int = 0
    cycles: int = 0
    attempts: int = 0
    options_per_attempt: float = 0.0
    checks_per_attempt: float = 0.0
    #: Per-transform effect columns (options/usages/trees before,
    #: after, delta per stage) -- ``obs.transform_effects()`` shape
    #: minus the nondeterministic ``seconds`` column.
    transforms: List[Dict[str, Any]] = field(default_factory=list)
    verify_ok: Optional[bool] = None
    verify_diagnostics: int = 0
    #: Optional exact-gap sample (only on sampled variants).
    exact: Optional[Dict[str, Any]] = None

    @property
    def options_delta_total(self) -> int:
        """Summed stored-option reduction across the pipeline."""
        return sum(
            entry.get("options_delta", 0) for entry in self.transforms
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VariantResult":
        return cls(**data)


@dataclass
class SweepReport:
    """The aggregate of one fleet sweep."""

    family: str
    count: int
    seed: int
    ops: int
    workload_seed: int
    backend: str
    stage: int
    variants: List[VariantResult] = field(default_factory=list)
    #: Fleet-level warm-cache counters (they depend on what earlier
    #: variants left in the cache, so reported here and never per
    #: variant).
    cache: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def ok_variants(self) -> List[VariantResult]:
        return [v for v in self.variants if v.ok]

    @property
    def quarantined(self) -> int:
        return sum(1 for v in self.variants if not v.ok)

    @property
    def oracle_failures(self) -> int:
        return sum(
            1 for v in self.variants if v.verify_ok is False
        )

    @property
    def distinct_descriptions(self) -> int:
        """Distinct compiled descriptions the sweep covered."""
        return len({
            v.content for v in self.variants if v.ok and v.content
        })

    @property
    def ok(self) -> bool:
        return self.quarantined == 0 and self.oracle_failures == 0

    def signature(self) -> Tuple:
        """Deterministic digest tuple: equal for every sweep of a fleet."""
        return tuple(
            (v.name, v.ok, v.digest or v.error_type or "")
            for v in self.variants
        )

    def signature_digest(self) -> str:
        return hashlib.sha256(
            repr(self.signature()).encode("utf-8")
        ).hexdigest()

    def transform_totals(self) -> Dict[str, Dict[str, int]]:
        """Summed effect columns per transform stage across the fleet."""
        totals: Dict[str, Dict[str, int]] = {}
        for variant in self.ok_variants:
            for entry in variant.transforms:
                row = totals.setdefault(
                    entry.get("stage", "?"),
                    {"options_delta": 0, "usages_delta": 0, "variants": 0},
                )
                row["options_delta"] += entry.get("options_delta", 0)
                row["usages_delta"] += entry.get("usages_delta", 0)
                row["variants"] += 1
        return totals

    def complexity_buckets(
        self, buckets: int = 4
    ) -> List[Dict[str, Any]]:
        """Transform effectiveness vs. machine complexity.

        The paper evaluates its transforms at 4 fixed machines; a sweep
        measures the same effect columns as a *function* of description
        size.  Variants are bucketed by stored-option count (the Table
        6 size axis); each bucket reports the mean relative option
        reduction and the mean checks/attempt the scheduler saw.
        """
        rows = [
            v for v in self.ok_variants
            if v.complexity.get("stored_options")
        ]
        if not rows:
            return []
        rows.sort(key=lambda v: (v.complexity["stored_options"], v.index))
        out: List[Dict[str, Any]] = []
        per = max(1, len(rows) // buckets)
        for start in range(0, len(rows), per):
            chunk = rows[start:start + per]
            stored = [v.complexity["stored_options"] for v in chunk]
            reduction = [
                -v.options_delta_total / v.complexity["stored_options"]
                for v in chunk
            ]
            out.append({
                "variants": len(chunk),
                "stored_options_min": min(stored),
                "stored_options_max": max(stored),
                "mean_option_reduction": (
                    sum(reduction) / len(reduction)
                ),
                "mean_checks_per_attempt": (
                    sum(v.checks_per_attempt for v in chunk) / len(chunk)
                ),
                "mean_cycles_per_op": (
                    sum(v.cycles / v.ops for v in chunk if v.ops)
                    / max(1, sum(1 for v in chunk if v.ops))
                ),
            })
        return out

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def meta_dict(self) -> Dict[str, Any]:
        """The report header (everything but the per-variant rows)."""
        return {
            "kind": "sweep-meta",
            "version": REPORT_VERSION,
            "family": self.family,
            "count": self.count,
            "seed": self.seed,
            "ops": self.ops,
            "workload_seed": self.workload_seed,
            "backend": self.backend,
            "stage": self.stage,
            "variants": len(self.variants),
            "quarantined": self.quarantined,
            "oracle_failures": self.oracle_failures,
            "distinct_descriptions": self.distinct_descriptions,
            "signature": self.signature_digest(),
            "cache": dict(self.cache),
            "wall_seconds": self.wall_seconds,
        }

    def summary_dict(self) -> Dict[str, Any]:
        """The CLI ``--json`` document (aggregates, not rows)."""
        digest = self.meta_dict()
        digest.pop("kind")
        digest["ok"] = self.ok
        digest["total_ops"] = sum(v.ops for v in self.ok_variants)
        digest["total_cycles"] = sum(
            v.cycles for v in self.ok_variants
        )
        digest["transform_totals"] = self.transform_totals()
        digest["complexity_buckets"] = self.complexity_buckets()
        exact_rows = [
            v.exact for v in self.ok_variants if v.exact is not None
        ]
        if exact_rows:
            digest["exact"] = {
                "sampled": len(exact_rows),
                "gap_cycles": sum(
                    r.get("gap_cycles", 0) for r in exact_rows
                ),
                "optimal_blocks": sum(
                    r.get("optimal_blocks", 0) for r in exact_rows
                ),
            }
        return digest

    def write_jsonl(self, path) -> Path:
        """Meta line + one line per variant; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(self.meta_dict(), sort_keys=True) + "\n"
            )
            for variant in self.variants:
                row = {"kind": "variant"}
                row.update(variant.to_dict())
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        return path

    @classmethod
    def read_jsonl(cls, path) -> "SweepReport":
        """Round-trip a written report (offline analysis, tests)."""
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines:
            raise ValueError(f"empty sweep report: {path}")
        meta = json.loads(lines[0])
        if meta.get("kind") != "sweep-meta":
            raise ValueError(
                f"{path}: first line is not a sweep-meta header"
            )
        if meta.get("version") != REPORT_VERSION:
            raise ValueError(
                f"{path}: report version {meta.get('version')} != "
                f"{REPORT_VERSION}"
            )
        report = cls(
            family=meta["family"],
            count=meta["count"],
            seed=meta["seed"],
            ops=meta["ops"],
            workload_seed=meta["workload_seed"],
            backend=meta["backend"],
            stage=meta["stage"],
            cache=dict(meta.get("cache", {})),
            wall_seconds=meta.get("wall_seconds", 0.0),
        )
        for line in lines[1:]:
            if not line.strip():
                continue
            row = json.loads(line)
            if row.pop("kind", None) != "variant":
                raise ValueError(f"{path}: unexpected row kind")
            report.variants.append(VariantResult.from_dict(row))
        return report

    def summary_table(self) -> str:
        """The human view: aggregate lines plus the complexity table."""
        lines = [
            f"sweep:               {self.family} x {len(self.variants)} "
            f"variants (seed {self.seed}, backend {self.backend}, "
            f"stage {self.stage})",
            f"workload:            {self.ops} ops/variant "
            f"(seed {self.workload_seed})",
            f"distinct machines:   {self.distinct_descriptions} "
            f"compiled descriptions",
            f"quarantined:         {self.quarantined}",
            f"oracle failures:     {self.oracle_failures}",
            f"wall seconds:        {self.wall_seconds:.3f}",
        ]
        if self.cache:
            lines.append(
                "warm cache:          "
                f"{self.cache.get('memory_hits', 0)} hit(s), "
                f"{self.cache.get('memory_misses', 0)} miss(es), "
                f"{self.cache.get('evictions', 0)} eviction(s)"
            )
        totals = self.transform_totals()
        if totals:
            lines.append("")
            lines.append(
                "transform            options_delta  usages_delta"
            )
            for stage, row in totals.items():
                lines.append(
                    f"{stage:20s} {row['options_delta']:13d} "
                    f"{row['usages_delta']:13d}"
                )
        buckets = self.complexity_buckets()
        if buckets:
            lines.append("")
            lines.append(
                "stored options   variants  option-reduction  "
                "checks/attempt  cycles/op"
            )
            for row in buckets:
                span = (
                    f"{row['stored_options_min']}-"
                    f"{row['stored_options_max']}"
                )
                lines.append(
                    f"{span:16s} {row['variants']:8d}  "
                    f"{row['mean_option_reduction'] * 100:14.1f}%  "
                    f"{row['mean_checks_per_attempt']:14.2f}  "
                    f"{row['mean_cycles_per_op']:9.2f}"
                )
        return "\n".join(lines)


__all__ = ["REPORT_VERSION", "SweepReport", "VariantResult"]
