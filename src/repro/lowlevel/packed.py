"""Packed (array-backed) layouts for compiled descriptions and RU maps.

The paper's section 6 packs one cycle's resource usages into a single
bit-vector word so that one AND answers a whole check.  This module takes
the next step the paper's machines never needed: laying the *compiled
description itself* out in fixed-width arrays so a whole window of
candidate cycles can be answered with one vectorized pass.

Three layers live here:

* :class:`PackedRUMap` / :class:`ModuloPackedRUMap` -- RU maps that keep
  the exact dict-of-words semantics of :class:`~repro.lowlevel.bitvector.RUMap`
  (they subclass it, so scalar reserve/release/is_free behave and fail
  identically) while mirroring every cycle word into a contiguous numpy
  shadow array that :meth:`gather` can fancy-index in bulk.
* :class:`PackedMdes` -- per-OR-tree ``(options, checks)`` mask/time
  tables padded to rectangles, built once per compiled description by
  :func:`packed_layout` and cached on the :class:`CompiledMdes`.
* :func:`evaluate_window` -- the vectorized constraint check: for a
  window of candidate cycles it reproduces, bit for bit, the counters
  the scalar :class:`~repro.lowlevel.checker.ConstraintChecker` would
  have recorded (options examined, resource checks, short-circuit
  order), which is what lets engines switch freely between the scalar
  and vectorized paths.

A description is *eligible* for packing when its resource count fits the
:data:`PACKED_WORD_BUDGET` (wider machines silently keep the dict/int
fallback) and numpy is importable; everything here degrades to the
scalar path when it is not.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

try:  # numpy is a hard dependency of the fast path only.
    import numpy as np
except ImportError:  # pragma: no cover - exercised via the gating tests
    np = None

from repro.errors import SchedulingError
from repro.lowlevel.bitvector import ModuloRUMap, RUMap
from repro.lowlevel.compiled import (
    CompiledAndOrTree,
    CompiledConstraint,
    CompiledMdes,
    CompiledOption,
    CompiledOrTree,
)

#: Maximum 64-bit words per cycle the packed layout will spend.  Machines
#: with more than ``64 * PACKED_WORD_BUDGET`` resources fall back to the
#: dict/int representation (every machine in the registry fits in one).
PACKED_WORD_BUDGET = 4

#: Attribute name used to cache the packed layout on a CompiledMdes.
_LAYOUT_ATTR = "_packed_layout"

_WORD = 0xFFFFFFFFFFFFFFFF


def numpy_available() -> bool:
    """True when numpy imported and the vectorized path can exist."""
    return np is not None


def word_count_for(resource_count: int) -> int:
    """64-bit words needed to hold ``resource_count`` resource bits."""
    return max(1, -(-resource_count // 64))


def split_mask(mask: int, words: int) -> List[int]:
    """Split an arbitrary-width Python int mask into ``words`` u64 limbs."""
    return [(mask >> (64 * i)) & _WORD for i in range(words)]


def join_words(limbs: Sequence[int]) -> int:
    """Inverse of :func:`split_mask`."""
    mask = 0
    for i, limb in enumerate(limbs):
        mask |= int(limb) << (64 * i)
    return mask


# ----------------------------------------------------------------------
# Array-backed RU maps
# ----------------------------------------------------------------------

#: Rows of headroom added beyond the touched cycle when a shadow grows.
_GROW_PAD = 64


def _write_row(shadow, row: int, word: int, words_per_cycle: int) -> None:
    """Write one cycle's combined word into a shadow row."""
    if words_per_cycle == 1:
        shadow[row, 0] = word & _WORD
    else:
        for i in range(words_per_cycle):
            shadow[row, i] = (word >> (64 * i)) & _WORD


class PackedRUMap(RUMap):
    """An RU map with a contiguous numpy shadow for bulk gathers.

    The dict of Python-int words stays the source of truth -- every
    scalar operation (including the double-reserve / over-release error
    paths) is inherited unchanged from :class:`RUMap`, so the scalar hot
    path pays nothing.  Mutations additionally mirror the affected
    cycle's word into a ``(capacity, words_per_cycle)`` uint64 array
    whose base offset slides to cover negative (decode-stage) cycles;
    :meth:`gather` serves the vectorized checker from that array,
    zero-filling out-of-range cycles (idle cycles are free).
    """

    __slots__ = ("words_per_cycle", "_base", "_shadow")

    def __init__(self, words_per_cycle: int = 1) -> None:
        if np is None:  # pragma: no cover - engines gate on numpy first
            raise SchedulingError("packed RU maps require numpy")
        super().__init__()
        self.words_per_cycle = words_per_cycle
        self._base = 0
        self._shadow = np.zeros((0, words_per_cycle), dtype=np.uint64)

    # -- shadow maintenance --------------------------------------------

    def _grow(self, cycle: int) -> None:
        rows = self._shadow.shape[0]
        lo = min(self._base, cycle - _GROW_PAD) if rows else cycle - _GROW_PAD
        hi = (
            max(self._base + rows, cycle + _GROW_PAD + 1)
            if rows
            else cycle + _GROW_PAD + 1
        )
        fresh = np.zeros((hi - lo, self.words_per_cycle), dtype=np.uint64)
        if rows:
            offset = self._base - lo
            fresh[offset : offset + rows] = self._shadow
        self._base = lo
        self._shadow = fresh

    def _sync(self, cycle: int) -> None:
        row = cycle - self._base
        if row < 0 or row >= self._shadow.shape[0]:
            self._grow(cycle)
            row = cycle - self._base
        _write_row(self._shadow, row, self._words.get(cycle, 0),
                   self.words_per_cycle)

    # -- mutators (scalar semantics inherited, shadow kept in sync) ----

    def reserve(self, cycle: int, mask: int) -> None:
        super().reserve(cycle, mask)
        self._sync(cycle)

    def release(self, cycle: int, mask: int) -> None:
        super().release(cycle, mask)
        self._sync(cycle)

    def clear(self) -> None:
        super().clear()
        self._shadow.fill(0)

    def copy(self) -> "PackedRUMap":
        duplicate = PackedRUMap(self.words_per_cycle)
        duplicate._words = dict(self._words)
        duplicate._base = self._base
        duplicate._shadow = self._shadow.copy()
        return duplicate

    # -- bulk access ----------------------------------------------------

    def gather(self, cycles):
        """Busy words for an int64 index array of any shape.

        Returns a uint64 array of shape ``cycles.shape + (W,)``; cycles
        outside the shadow's populated range read as 0 (idle).
        """
        rel = cycles - self._base
        out = np.zeros(cycles.shape + (self.words_per_cycle,),
                       dtype=np.uint64)
        rows = self._shadow.shape[0]
        if rows:
            valid = (rel >= 0) & (rel < rows)
            out[valid] = self._shadow[rel[valid]]
        return out

    def gather_range(self, lo: int, hi: int):
        """Busy words for the contiguous cycle range ``[lo, hi)``.

        Equivalent to ``gather(np.arange(lo, hi))`` but served by two
        plain slices instead of a fancy-indexed scatter, which is what
        makes the contiguous-window fast path of
        :func:`evaluate_window` cheap.
        """
        out = np.zeros((hi - lo, self.words_per_cycle), dtype=np.uint64)
        rows = self._shadow.shape[0]
        a = max(lo, self._base)
        b = min(hi, self._base + rows)
        if a < b:
            out[a - lo : b - lo] = self._shadow[
                a - self._base : b - self._base
            ]
        return out


class ModuloPackedRUMap(ModuloRUMap):
    """A modulo RU map (MRT) with a fixed ``(ii, W)`` numpy shadow.

    Subclasses :class:`ModuloRUMap` so wrap-around semantics, error
    messages, and ``isinstance`` checks are all inherited; only the
    shadow bookkeeping and :meth:`gather` are new.  The shadow has
    exactly ``ii`` rows -- modulo indexing never needs to grow.
    """

    __slots__ = ("words_per_cycle", "_shadow")

    def __init__(self, ii: int, words_per_cycle: int = 1) -> None:
        if np is None:  # pragma: no cover - engines gate on numpy first
            raise SchedulingError("packed RU maps require numpy")
        super().__init__(ii)
        self.words_per_cycle = words_per_cycle
        self._shadow = np.zeros((ii, words_per_cycle), dtype=np.uint64)

    def _sync(self, slot: int) -> None:
        _write_row(self._shadow, slot, self._words.get(slot, 0),
                   self.words_per_cycle)

    def reserve(self, cycle: int, mask: int) -> None:
        super().reserve(cycle, mask)
        self._sync(cycle % self.ii)

    def release(self, cycle: int, mask: int) -> None:
        super().release(cycle, mask)
        self._sync(cycle % self.ii)

    def clear(self) -> None:
        super().clear()
        self._shadow.fill(0)

    def copy(self) -> "ModuloPackedRUMap":
        duplicate = ModuloPackedRUMap(self.ii, self.words_per_cycle)
        duplicate._words = dict(self._words)
        duplicate._shadow = self._shadow.copy()
        return duplicate

    def gather(self, cycles):
        """Busy words for an int64 index array, wrapped modulo ``ii``.

        numpy's ``%`` matches Python's sign convention, so negative
        cycles land on the same slot the scalar path uses.
        """
        return self._shadow[cycles % self.ii]

    def gather_range(self, lo: int, hi: int):
        """Busy words for ``[lo, hi)``, wrapped modulo ``ii``."""
        return self._shadow[np.arange(lo, hi) % self.ii]


# ----------------------------------------------------------------------
# Packed compiled-description layout
# ----------------------------------------------------------------------


class PackedOrTree:
    """One OR-tree's options as rectangular check tables.

    ``times[o, k]`` / ``masks[o, k]`` hold option *o*'s *k*-th check;
    rows are padded to the longest option with ``mask == 0`` entries,
    which can never conflict, and ``kcounts[o]`` remembers the real
    check count so the stats reconstruction stays exact.  ``options``
    keeps the source :class:`CompiledOption` objects (priority order)
    for building reservations once a cycle is chosen.
    """

    __slots__ = ("times", "masks", "kcounts", "options",
                 "time_lo", "time_hi")

    def __init__(self, times, masks, kcounts,
                 options: Tuple[CompiledOption, ...]) -> None:
        self.times = times        # (O, Kmax) int64
        self.masks = masks        # (O, Kmax, W) uint64
        self.kcounts = kcounts    # (O,) int64
        self.options = options
        # Padding rows are (time 0, mask 0); including them can only
        # widen the bounds, never produce a phantom conflict.
        self.time_lo = int(times.min(initial=0))
        self.time_hi = int(times.max(initial=0))

    @property
    def option_count(self) -> int:
        return len(self.options)


class PackedConstraint:
    """A compiled constraint as a tuple of packed OR-trees.

    A plain OR-tree constraint is represented as a single-tree AND --
    the evaluation and the stats it produces are identical.
    """

    __slots__ = ("trees",)

    def __init__(self, trees: Tuple[PackedOrTree, ...]) -> None:
        self.trees = trees


class PackedMdes:
    """Array layout of a whole compiled description."""

    __slots__ = ("word_count", "constraints")

    def __init__(self, word_count: int,
                 constraints: Dict[str, PackedConstraint]) -> None:
        self.word_count = word_count
        self.constraints = constraints


def pack_or_tree(or_tree: CompiledOrTree, word_count: int) -> PackedOrTree:
    """Lay one compiled OR-tree out as padded rectangular arrays."""
    options = or_tree.options
    kmax = max((len(o.checks) for o in options), default=0)
    kmax = max(1, kmax)  # keep the check axis non-degenerate
    n = len(options)
    times = np.zeros((n, kmax), dtype=np.int64)
    masks = np.zeros((n, kmax, word_count), dtype=np.uint64)
    kcounts = np.zeros(n, dtype=np.int64)
    for o, option in enumerate(options):
        kcounts[o] = len(option.checks)
        for k, (time, mask) in enumerate(option.checks):
            times[o, k] = time
            for w, limb in enumerate(split_mask(mask, word_count)):
                masks[o, k, w] = limb
    return PackedOrTree(times, masks, kcounts, options)


def pack_constraint(constraint: CompiledConstraint, word_count: int,
                    cache: Optional[Dict[int, PackedOrTree]] = None
                    ) -> PackedConstraint:
    """Pack a compiled constraint, sharing OR-trees by identity."""
    if cache is None:
        cache = {}

    def packed(tree: CompiledOrTree) -> PackedOrTree:
        hit = cache.get(id(tree))
        if hit is None:
            hit = cache[id(tree)] = pack_or_tree(tree, word_count)
        return hit

    if isinstance(constraint, CompiledAndOrTree):
        return PackedConstraint(tuple(packed(t) for t in constraint.or_trees))
    return PackedConstraint((packed(constraint),))


def pack_mdes(compiled: CompiledMdes) -> Optional[PackedMdes]:
    """Build the packed layout for a compiled description.

    Returns ``None`` when numpy is unavailable or the machine is wider
    than the packed word budget -- callers then stay on the scalar path.
    """
    if np is None:
        return None
    words = word_count_for(len(compiled.source.resources))
    if words > PACKED_WORD_BUDGET:
        return None
    cache: Dict[int, PackedOrTree] = {}
    constraints = {
        name: pack_constraint(constraint, words, cache)
        for name, constraint in compiled.constraints.items()
    }
    return PackedMdes(words, constraints)


def packed_layout(compiled: CompiledMdes) -> Optional[PackedMdes]:
    """The (memoized) packed layout of a compiled description.

    The layout is cached on the ``CompiledMdes`` instance, so every
    engine sharing one compiled description (the description cache hands
    out one object per key) shares one set of arrays.
    """
    hit = getattr(compiled, _LAYOUT_ATTR, False)
    if hit is False:
        hit = pack_mdes(compiled)
        object.__setattr__(compiled, _LAYOUT_ATTR, hit)
    return hit


def packing_eligible(compiled: CompiledMdes) -> bool:
    """True when this description can use the packed fast path."""
    return packed_layout(compiled) is not None


# ----------------------------------------------------------------------
# Vectorized window evaluation
# ----------------------------------------------------------------------


def _evaluate_tree(tree: PackedOrTree, state, cycles, span=None,
                   span_lo: int = 0):
    """Evaluate one OR-tree over a window of candidate cycles.

    Returns ``(avail, chosen, opts, checks)``, each of shape ``(C,)``:
    whether any option is free, the first free option's index, and the
    option/check counters the scalar first-fit walk would have recorded
    (options examined until the first free one; per option, checks
    until the first conflicting one).

    When the caller pre-gathered a contiguous busy-word ``span``
    covering ``[span_lo, span_lo + len(span))`` absolute cycles and the
    window itself is contiguous, the conflict matrix is built from
    strided views into that one span instead of a fancy-indexed gather
    per (cycle, option, check) triple -- same bits, far fewer
    temporaries.
    """
    count = cycles.shape[0]
    n_options = tree.option_count
    if n_options == 0:  # defensive: the compiler never emits empty trees
        zero = np.zeros(count, dtype=np.int64)
        return np.zeros(count, dtype=bool), zero, zero, zero

    if span is not None:
        # sliding[r, :, c] is the busy word of cycle span_lo + r + c,
        # so row (time - (span_lo - cycles[0])) aligns check time
        # offsets with window positions.
        sliding = np.lib.stride_tricks.sliding_window_view(
            span, count, axis=0
        )                                             # (T, W, C)
        rows = tree.times - (span_lo - int(cycles[0]))
        conflict = np.bitwise_and(
            sliding[rows], tree.masks[..., None]
        ).any(axis=2)                                 # (O, K, C)
        conflict = np.moveaxis(conflict, 2, 0)        # (C, O, K)
    else:
        # (C, O, Kmax): does check k of option o conflict at cycle c?
        idx = cycles[:, None, None] + tree.times[None, :, :]
        gathered = state.gather(idx)
        conflict = np.bitwise_and(gathered, tree.masks[None]).any(axis=3)

    conflict_any = conflict.any(axis=2)               # (C, O)
    first_conflict = conflict.argmax(axis=2)          # (C, O)
    # Checks per examined option: stop at the first conflict, or run
    # the option's full (unpadded) check list when it is free.
    ncheck = np.where(conflict_any, first_conflict + 1,
                      tree.kcounts[None, :])

    avail = ~conflict_any                             # (C, O)
    any_avail = avail.any(axis=1)
    if not any_avail.any():
        # Fully-losing window (the common case in congested scans):
        # every option of every cycle was examined, so the counters
        # collapse to row sums -- no per-cycle first-fit math needed.
        opts = np.full(count, n_options, dtype=np.int64)
        return (any_avail, np.zeros(count, dtype=np.int64), opts,
                ncheck.sum(axis=1))
    chosen = avail.argmax(axis=1)
    opts = np.where(any_avail, chosen + 1, n_options)
    cum = np.cumsum(ncheck, axis=1)
    checks = cum[np.arange(count), opts - 1]
    return any_avail, chosen, opts, checks


def evaluate_window(constraint: PackedConstraint, state, cycles):
    """Vectorized constraint check over a window of candidate cycles.

    ``cycles`` is an int64 array of candidate issue cycles (any order).
    Returns ``(success, opts, checks, chosen)`` where ``success`` is the
    per-cycle feasibility, ``opts``/``checks`` are the exact per-cycle
    attempt counters (reproducing the AND-level short-circuit: trees
    after the first one with no free option are not counted), and
    ``chosen[c, t]`` is tree *t*'s selected option index for cycle *c*
    (meaningful only where ``success[c]``).
    """
    trees = constraint.trees
    count = cycles.shape[0]
    n_trees = len(trees)
    if count == 0:
        zero = np.zeros(0, dtype=np.int64)
        return (np.zeros(0, dtype=bool), zero, zero,
                np.zeros((0, n_trees), dtype=np.int64))

    # Contiguous windows (every scheduler scan and probe) share one
    # range gather across all trees and use strided views into it.
    span, span_lo = None, 0
    if count == 1 or bool((cycles[1:] - cycles[:-1] == 1).all()):
        lo = min(tree.time_lo for tree in trees)
        hi = max(tree.time_hi for tree in trees)
        span_lo = int(cycles[0]) + lo
        span = state.gather_range(span_lo, int(cycles[-1]) + hi + 1)

    if n_trees == 1:
        # Single-tree constraints (plain OR-trees) need none of the
        # AND-level folding below; skip its half-dozen array ops.
        avail, chosen1, opts1, checks1 = _evaluate_tree(
            trees[0], state, cycles, span, span_lo
        )
        return avail, opts1, checks1, chosen1[:, None]

    # AND-level short-circuit, vectorized lazily: tree t is evaluated
    # only for the cycles where trees 0..t-1 all had a free option --
    # exactly the cycles whose scalar walk would have examined it, so
    # the counters match by construction and congested windows (where
    # tree 0 kills almost everything) stay cheap.
    opts_total = np.zeros(count, dtype=np.int64)
    checks_total = np.zeros(count, dtype=np.int64)
    chosen = np.zeros((count, n_trees), dtype=np.int64)
    avail, chosen_t, opts_t, checks_t = _evaluate_tree(
        trees[0], state, cycles, span, span_lo
    )
    opts_total += opts_t
    checks_total += checks_t
    chosen[:, 0] = chosen_t
    active = np.nonzero(avail)[0]
    for t in range(1, n_trees):
        if active.size == 0:
            break
        avail, chosen_t, opts_t, checks_t = _evaluate_tree(
            trees[t], state, cycles[active]
        )
        opts_total[active] += opts_t
        checks_total[active] += checks_t
        chosen[active, t] = chosen_t
        active = active[avail]

    success = np.zeros(count, dtype=bool)
    success[active] = True
    return success, opts_total, checks_total, chosen


def reservation_pairs(constraint: PackedConstraint, chosen_row,
                      cycle: int) -> Tuple[Tuple[int, int], ...]:
    """Absolute (cycle, mask) pairs for one successful window hit.

    Mirrors ``ConstraintChecker._reservations``: chosen options in tree
    order, each option's reserve table in time order.
    """
    pairs: List[Tuple[int, int]] = []
    for t, tree in enumerate(constraint.trees):
        option = tree.options[int(chosen_row[t])]
        for time, mask in option.reserve_mask_by_time:
            pairs.append((cycle + time, mask))
    return tuple(pairs)


__all__ = [
    "PACKED_WORD_BUDGET",
    "ModuloPackedRUMap",
    "PackedConstraint",
    "PackedMdes",
    "PackedOrTree",
    "PackedRUMap",
    "evaluate_window",
    "join_words",
    "numpy_available",
    "pack_constraint",
    "pack_mdes",
    "pack_or_tree",
    "packed_layout",
    "packing_eligible",
    "reservation_pairs",
    "split_mask",
    "word_count_for",
]
