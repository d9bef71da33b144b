"""Tests for the numpy-packed layout (:mod:`repro.lowlevel.packed`).

Covers the shadow RU maps (dict source of truth, array mirror), the
packed constraint layout and its vectorized window evaluation, and the
eligibility fallback for machines wider than the packed word budget.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mdes import Mdes, OperationClass
from repro.core.resource import ResourceTable
from repro.core.tables import OrTree, ReservationTable
from repro.core.usage import ResourceUsage
from repro.engine import create_engine
from repro.errors import SchedulingError
from repro.lowlevel.bitvector import ModuloRUMap, RUMap
from repro.lowlevel.compiled import compile_mdes
from repro.lowlevel.packed import (
    PACKED_WORD_BUDGET,
    ModuloPackedRUMap,
    PackedRUMap,
    evaluate_window,
    join_words,
    numpy_available,
    pack_mdes,
    packed_layout,
    packing_eligible,
    split_mask,
    word_count_for,
)
from repro.machines import MACHINE_NAMES, get_machine

np = pytest.importorskip("numpy")

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="packed layout requires numpy"
)


class TestWordHelpers:
    def test_word_count_for(self):
        assert word_count_for(0) == 1
        assert word_count_for(1) == 1
        assert word_count_for(64) == 1
        assert word_count_for(65) == 2
        assert word_count_for(256) == 4
        assert word_count_for(257) == 5

    def test_split_and_join_round_trip(self):
        mask = (1 << 200) | (1 << 64) | 0b1011
        limbs = split_mask(mask, 4)
        assert len(limbs) == 4
        assert all(0 <= limb < 2**64 for limb in limbs)
        assert join_words(limbs) == mask


class TestPackedRUMap:
    def test_is_a_ru_map(self):
        state = PackedRUMap()
        assert isinstance(state, RUMap)

    def test_negative_cycle_reservations(self):
        state = PackedRUMap()
        state.reserve(-5, 0b11)
        state.reserve(3, 0b100)
        assert not state.is_free(-5, 0b01)
        assert state.is_free(-5, 0b100)
        gathered = state.gather(np.array([[-5], [3], [-7]]))
        assert gathered[0, 0, 0] == 0b11
        assert gathered[1, 0, 0] == 0b100
        assert gathered[2, 0, 0] == 0  # untouched cycle reads as free

    def test_double_reserve_error_message_matches_plain(self):
        plain, packed = RUMap(), PackedRUMap()
        for state in (plain, packed):
            state.reserve(2, 0b110)
        with pytest.raises(SchedulingError) as plain_err:
            plain.reserve(2, 0b010)
        with pytest.raises(SchedulingError) as packed_err:
            packed.reserve(2, 0b010)
        assert str(packed_err.value) == str(plain_err.value)
        assert "double reservation at cycle 2" in str(packed_err.value)

    def test_over_release_error_message_matches_plain(self):
        plain, packed = RUMap(), PackedRUMap()
        for state in (plain, packed):
            state.reserve(0, 0b1)
        with pytest.raises(SchedulingError) as plain_err:
            plain.release(0, 0b11)
        with pytest.raises(SchedulingError) as packed_err:
            packed.release(0, 0b11)
        assert str(packed_err.value) == str(plain_err.value)
        assert "release of unreserved resources" in str(packed_err.value)

    def test_failed_reserve_leaves_shadow_consistent(self):
        state = PackedRUMap()
        state.reserve(1, 0b1)
        with pytest.raises(SchedulingError):
            state.reserve(1, 0b1)
        assert state.gather(np.array([1]))[0, 0] == 0b1

    def test_release_returns_cycle_to_zero(self):
        state = PackedRUMap()
        state.reserve(4, 0b101)
        state.release(4, 0b101)
        assert state.gather(np.array([4]))[0, 0] == 0
        assert state == RUMap()

    def test_copy_is_independent(self):
        state = PackedRUMap()
        state.reserve(0, 0b1)
        clone = state.copy()
        clone.reserve(1, 0b10)
        assert state.is_free(1, 0b10)
        assert not clone.is_free(1, 0b10)
        assert clone.gather(np.array([0]))[0, 0] == 0b1

    def test_clear_resets_shadow(self):
        state = PackedRUMap()
        state.reserve(7, 0b1)
        state.clear()
        assert state == RUMap()
        assert state.gather(np.array([7]))[0, 0] == 0

    def test_multiword_masks(self):
        state = PackedRUMap(words_per_cycle=3)
        mask = (1 << 130) | (1 << 65) | 1
        state.reserve(0, mask)
        row = state.gather(np.array([0]))[0]
        assert join_words(int(w) for w in row) == mask

    def test_equality_with_plain_ru_map(self):
        plain, packed = RUMap(), PackedRUMap()
        for state in (plain, packed):
            state.reserve(0, 0b1)
            state.reserve(9, 0b100)
        assert packed == plain
        assert plain == packed

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-8, max_value=16),
                st.integers(min_value=1, max_value=255),
            ),
            max_size=40,
        )
    )
    def test_shadow_matches_dict_under_random_sequences(self, moves):
        """The array mirror and the dict agree after any op sequence."""
        reference, packed = RUMap(), PackedRUMap()
        for cycle, mask in moves:
            if reference.is_free(cycle, mask):
                reference.reserve(cycle, mask)
                packed.reserve(cycle, mask)
            else:
                # Release whatever overlap is actually held, if the
                # full mask is held; otherwise the op is a no-op.
                held = reference._words.get(cycle, 0)
                if held & mask == mask:
                    reference.release(cycle, mask)
                    packed.release(cycle, mask)
        assert packed == reference
        probe = np.arange(-10, 20)
        gathered = packed.gather(probe)
        for offset, cycle in enumerate(probe.tolist()):
            assert int(gathered[offset, 0]) == \
                reference._words.get(cycle, 0)


class TestModuloPackedRUMap:
    def test_is_a_modulo_ru_map(self):
        state = ModuloPackedRUMap(4)
        assert isinstance(state, ModuloRUMap)
        assert state.ii == 4

    def test_rejects_bad_ii_like_plain(self):
        with pytest.raises(SchedulingError, match="initiation interval"):
            ModuloPackedRUMap(0)

    @pytest.mark.parametrize("ii", [1, 2, 3, 7])
    def test_wrap_parity_with_plain(self, ii):
        plain, packed = ModuloRUMap(ii), ModuloPackedRUMap(ii)
        moves = [(-3, 0b1), (5, 0b10), (ii + 1, 0b100), (2 * ii, 0b1000)]
        for cycle, mask in moves:
            if plain.is_free(cycle, mask):
                plain.reserve(cycle, mask)
                packed.reserve(cycle, mask)
        assert packed == plain
        probe = np.arange(-2 * ii, 3 * ii + 1)
        gathered = packed.gather(probe)
        for offset, cycle in enumerate(probe.tolist()):
            assert int(gathered[offset, 0]) == \
                plain._words.get(cycle % ii, 0)

    def test_gather_wraps_negative_cycles(self):
        state = ModuloPackedRUMap(3)
        state.reserve(0, 0b1)
        gathered = state.gather(np.array([-3, -6, 3, 0]))
        assert all(int(word) == 0b1 for word in gathered[:, 0])


class TestPackedLayout:
    def test_paper_machines_are_eligible(self):
        for name in MACHINE_NAMES:
            compiled = create_engine("bitvector", get_machine(name)) \
                .compiled
            assert packing_eligible(compiled), name
            layout = packed_layout(compiled)
            assert layout is not None
            assert layout.word_count == 1

    def test_layout_is_cached_per_compiled(self):
        compiled = create_engine(
            "bitvector", get_machine("K5")
        ).compiled
        assert packed_layout(compiled) is packed_layout(compiled)

    def test_wide_machine_falls_back_to_scalar(self):
        """A machine past the word budget packs to None everywhere."""
        table = ResourceTable()
        names = [f"r{i}" for i in range(64 * PACKED_WORD_BUDGET + 1)]
        table.declare_many(names)
        wide = table.lookup(names[-1])
        tree = OrTree(
            (ReservationTable((ResourceUsage(0, wide),)),), name="OT"
        )
        mdes = Mdes(
            name="Wide",
            resources=table,
            op_classes={"w": OperationClass("w", tree, latency=1)},
            opcode_map={"W": "w"},
        )
        mdes.validate()
        compiled = compile_mdes(mdes, bitvector=True)
        assert not packing_eligible(compiled)
        assert pack_mdes(compiled) is None
        assert packed_layout(compiled) is None
        # The engine still works -- scalar path, vectorization off.
        from repro.engine.table import TableEngine

        engine = TableEngine(compiled)
        assert not engine.vectorized
        state = engine.new_state()
        handle = engine.try_reserve_many(state, "w", range(0, 4))
        assert handle is not None and handle.cycle == 0

    def test_evaluate_window_matches_scalar_walk(self):
        machine = get_machine("SuperSPARC")
        engine = create_engine("bitvector", machine)
        layout = packed_layout(engine.compiled)
        class_name = next(iter(layout.constraints))
        packed_constraint = layout.constraints[class_name]

        scalar = create_engine("bitvector", machine)
        scalar_state = scalar.new_state()
        state = PackedRUMap(layout.word_count)
        # Dirty both states identically through the scalar path.
        for cycle in (0, 1, 3):
            for target in (scalar_state, state):
                reservation = scalar.try_reserve(
                    target, class_name, cycle
                )
                assert reservation is not None

        cycles = np.arange(-2, 8, dtype=np.int64)
        success, opts, checks, _ = evaluate_window(
            packed_constraint, state, cycles
        )
        for offset, cycle in enumerate(cycles.tolist()):
            probe = scalar.try_reserve(scalar_state, class_name, cycle)
            assert (probe is not None) == bool(success[offset])
            if probe is not None:
                scalar.release(probe)
