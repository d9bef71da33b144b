"""Tests for the Eichenberger-Davidson reduction baseline."""

import dataclasses

import pytest

from repro.automata.collision import forbidden_latencies, mdes_options
from repro.core.tables import AndOrTree, ReservationTable
from repro.core.usage import ResourceUsage
from repro.eichenberger import reduce_mdes_options, reduce_options
from repro.errors import MdesError
from repro.machines import get_machine


def u(resource, time):
    return ResourceUsage(time, resource)


class TestReduceOptions:
    def test_redundant_usage_dropped(self, resources):
        """Two single-unit resources always used together: one suffices."""
        a, b = resources.lookup("D0"), resources.lookup("D1")
        option = ReservationTable((u(a, 0), u(b, 0)))
        reduced = reduce_options([option])
        assert len(reduced[0]) == 1

    def test_distinguishing_usage_kept(self, resources):
        """A usage that separates two options cannot be dropped."""
        a, b = resources.lookup("D0"), resources.lookup("D1")
        first = ReservationTable((u(a, 0),))
        second = ReservationTable((u(a, 0), u(b, 1)))
        third = ReservationTable((u(b, 0),))
        reduced = reduce_options([first, second, third])
        # second's b@1 collides with third at distance 1; dropping it
        # would lose that constraint.
        assert u(b, 1) in reduced[1].usages

    def test_never_empties_option(self, resources):
        a = resources.lookup("D0")
        option = ReservationTable((u(a, 0),))
        reduced = reduce_options([option])
        assert len(reduced[0]) == 1

    def test_collision_vectors_preserved_small(self, resources):
        a, b, c = (resources.lookup(n) for n in ("D0", "D1", "M"))
        options = [
            ReservationTable((u(a, 0), u(b, 0), u(c, 1))),
            ReservationTable((u(a, 1), u(c, 0))),
            ReservationTable((u(b, 0), u(b, 2))),
        ]
        reduced = reduce_options(options)
        for i in range(3):
            for j in range(3):
                assert forbidden_latencies(
                    options[i], options[j]
                ) == forbidden_latencies(reduced[i], reduced[j])


class TestReduceMdes:
    def test_requires_flat_form(self):
        mdes = get_machine("SuperSPARC").build_andor()
        with pytest.raises(MdesError, match="flat"):
            reduce_mdes_options(mdes)
        dead = next(
            tree for tree in mdes.constraints() if isinstance(tree, AndOrTree)
        )
        flat = dataclasses.replace(
            get_machine("PA7100").build_or(), unused_trees={"dead": dead}
        )
        with pytest.raises(MdesError, match="flat"):
            reduce_mdes_options(flat)

    def test_pa7100_collision_preservation(self):
        mdes = get_machine("PA7100").build_or()
        reduced = reduce_mdes_options(mdes)
        before = mdes_options(mdes)
        after = mdes_options(reduced)
        assert len(before) == len(after)
        for i in range(len(before)):
            for j in range(len(before)):
                assert forbidden_latencies(
                    before[i], before[j]
                ) == forbidden_latencies(after[i], after[j])

    def test_usage_count_never_grows(self):
        mdes = get_machine("Pentium").build_or()
        reduced = reduce_mdes_options(mdes)
        before = sum(len(option) for option in mdes_options(mdes))
        after = sum(len(option) for option in mdes_options(reduced))
        assert after <= before

    def test_pentium_reduces_substantially(self):
        """Pentium options carry correlated same-cycle usages -> big cut."""
        mdes = get_machine("Pentium").build_or()
        reduced = reduce_mdes_options(mdes)
        before = sum(len(option) for option in mdes_options(mdes))
        after = sum(len(option) for option in mdes_options(reduced))
        assert after < before * 0.7
