"""Tests for complement computation and recovery-candidate selection."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.codeset import CodeSet
from repro.core.complement import (
    complement_covers_tree,
    complement_frontier,
    minimal_complement,
    select_recovery_candidate,
)
from repro.core.encoding import ROOT, PathCode


def leaf_codes(depth):
    return [
        PathCode(tuple((level, bit) for level, bit in enumerate(bits)))
        for bits in itertools.product((0, 1), repeat=depth)
    ]


class TestComplementFrontier:
    def test_empty_table_misses_everything(self):
        assert complement_frontier(CodeSet()) == {ROOT}

    def test_complete_table_misses_nothing(self):
        assert complement_frontier(CodeSet([ROOT])) == set()

    def test_single_deep_code(self):
        cs = CodeSet([ROOT.child(0, 0).child(1, 0)])
        assert complement_frontier(cs) == {
            ROOT.child(0, 0).child(1, 1),
            ROOT.child(0, 1),
        }

    def test_minimal_complement_accepts_iterables(self):
        frontier = minimal_complement([ROOT.child(0, 1)])
        assert frontier == {ROOT.child(0, 0)}

    def test_invariant_checker(self):
        cs = CodeSet([ROOT.child(0, 0)])
        frontier = sorted(complement_frontier(cs))
        assert complement_covers_tree(cs, frontier)
        # A frontier containing a covered code violates the invariant.
        assert not complement_covers_tree(cs, [ROOT.child(0, 0).child(1, 1)])
        # Overlapping frontier codes violate the invariant.
        assert not complement_covers_tree(cs, [ROOT.child(0, 1), ROOT.child(0, 1).child(1, 0)])


class TestSelection:
    def make_table(self):
        return CodeSet([ROOT.child(0, 0).child(1, 0).child(2, 0)])

    def test_deepest(self):
        table = self.make_table()
        deepest = select_recovery_candidate(table)
        assert deepest == ROOT.child(0, 0).child(1, 0).child(2, 1)

    def test_exclusion(self):
        table = CodeSet([ROOT.child(0, 0)])
        only = ROOT.child(0, 1)
        assert select_recovery_candidate(table, exclude=[only]) is None
        assert select_recovery_candidate(table) == only

    def test_complete_table_returns_none(self):
        assert select_recovery_candidate(CodeSet([ROOT])) is None


@st.composite
def completed_leaf_subset(draw, max_depth=5):
    depth = draw(st.integers(min_value=1, max_value=max_depth))
    leaves = leaf_codes(depth)
    subset = draw(st.lists(st.sampled_from(leaves), max_size=len(leaves), unique=True))
    return depth, subset


class TestComplementProperties:
    @given(completed_leaf_subset())
    @settings(max_examples=200, deadline=None)
    def test_frontier_partitions_the_tree(self, case):
        """Every leaf is covered by the table XOR by the complement frontier."""
        depth, completed = case
        table = CodeSet(completed)
        frontier = complement_frontier(table)
        assert complement_covers_tree(table, sorted(frontier))
        for leaf in leaf_codes(depth):
            covered = table.covers(leaf)
            in_frontier = any(f == leaf or f.is_ancestor_of(leaf) for f in frontier)
            assert covered != in_frontier

    @given(completed_leaf_subset())
    @settings(max_examples=100, deadline=None)
    def test_selected_candidate_is_never_covered(self, case):
        _depth, completed = case
        table = CodeSet(completed)
        candidate = select_recovery_candidate(table)
        if table.is_complete():
            assert candidate is None
        else:
            assert candidate is not None
            assert not table.covers(candidate)

    @given(completed_leaf_subset())
    @settings(max_examples=100, deadline=None)
    def test_solving_frontier_completes_tree(self, case):
        """Recovering every frontier subtree drives the table to the root."""
        _depth, completed = case
        table = CodeSet(completed)
        # Guard against pathological emptiness: recovering ROOT completes it.
        for _ in range(200):
            if table.is_complete():
                break
            frontier = complement_frontier(table)
            assert frontier
            table.add(sorted(frontier)[0])
        assert table.is_complete()
