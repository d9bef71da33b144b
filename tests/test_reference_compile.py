"""Dominated-option removal and the E-D reduction match their references.

``tests/reference_compile.py`` holds the quadratic forms of both
transforms.  The library versions must keep exactly the same options, by
identity, and produce exactly the same usage tuples in the same order,
on random trees and option sets and on every description the compile
pipeline feeds them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.resource import Resource, ResourceTable
from repro.core.tables import AndOrTree, ReservationTable
from repro.core.usage import ResourceUsage
from repro.eichenberger import reduce as ed_reduce
from repro.eichenberger import reduce_mdes_options, reduce_options
from repro.machines import get_machine
from repro.machines.registry import EXTRA_MACHINE_NAMES, MACHINE_NAMES
from repro.machines.synth import family_names, machine_name
from repro.transforms import option_elim
from repro.transforms.option_elim import (
    prune_or_tree,
    remove_dominated_options,
)
from repro.transforms.pipeline import run_pipeline
from tests import reference_compile as reference
from tests.test_property_based import or_trees

#: Three resources plus an equal-but-distinct twin of R0: collisions
#: match resources by identity, so the twin never collides with R0.
_TABLE = ResourceTable()
_TABLE.declare_many(["R0", "R1", "R2"])
_SHARED = [*_TABLE, Resource("R0", 0)]


@st.composite
def option_sets(draw):
    """A closed set of options sharing resources at overlapping times."""
    count = draw(st.integers(2, 6))
    options = []
    for _ in range(count):
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(-1, 3)),
                min_size=1,
                max_size=6,
                unique_by=lambda pair: (pair[0] % 3, pair[1]),
            )
        )
        options.append(
            ReservationTable(
                tuple(ResourceUsage(time, _SHARED[r]) for r, time in pairs)
            )
        )
    return options


def _options(mdes):
    """Every constraint of ``mdes``, each as its list of options."""
    def flat(constraint):
        if isinstance(constraint, AndOrTree):
            return [o for tree in constraint.or_trees for o in tree.options]
        return list(constraint.options)

    return [
        flat(constraint)
        for constraint in (
            *(op_class.constraint for op_class in mdes.op_classes.values()),
            *mdes.unused_trees.values(),
        )
    ]


class TestRandomInputs:
    @given(tree=or_trees())
    @settings(max_examples=200, deadline=None)
    def test_prune_matches_reference(self, tree):
        new, ref = prune_or_tree(tree), reference.prune_or_tree(tree)
        assert (new is tree) == (ref is tree)
        assert len(new.options) == len(ref.options)
        assert all(a is b for a, b in zip(new.options, ref.options))

    @given(options=option_sets())
    @settings(max_examples=500, deadline=None)
    def test_reduce_matches_reference(self, options):
        new = reduce_options(options)
        ref = reference.reduce_options(options)
        assert [option.usages for option in new] == [
            option.usages for option in ref
        ]


#: Every built-in machine and one variant of each synth family.
_MACHINES = (
    *MACHINE_NAMES,
    *EXTRA_MACHINE_NAMES,
    *(machine_name(family, 1, 0) for family in family_names()),
)


@pytest.mark.parametrize("rep", ["or", "andor"])
@pytest.mark.parametrize("name", _MACHINES)
def test_pipeline_inputs_match_reference(name, rep, monkeypatch):
    """Each description a compile stage receives, and the final one."""
    machine = get_machine(name)
    base = machine.build_or() if rep == "or" else machine.build_andor()
    stages = run_pipeline(base).stages
    if (name, rep) == ("K5", "or"):
        # The reference needs seconds per K5 flat-OR description.
        stages = stages[-1:]
    pruned = [remove_dominated_options(mdes) for mdes in stages]
    reduced = (
        [reduce_mdes_options(mdes) for mdes in stages] if rep == "or" else []
    )

    monkeypatch.setattr(option_elim, "prune_or_tree", reference.prune_or_tree)
    monkeypatch.setattr(
        ed_reduce, "reduce_options", reference.reduce_options
    )
    for mdes, new in zip(stages, pruned):
        ref = remove_dominated_options(mdes)
        assert [list(map(id, options)) for options in _options(new)] == [
            list(map(id, options)) for options in _options(ref)
        ]
    for mdes, new in zip(stages, reduced):
        ref = reduce_mdes_options(mdes)
        assert [
            [(option.name, option.usages) for option in options]
            for options in _options(new)
        ] == [
            [(option.name, option.usages) for option in options]
            for options in _options(ref)
        ]
