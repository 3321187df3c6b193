"""Complement computation: finding subproblems nobody reported completed.

Given the contracted table of completed codes that a process has accumulated
(its own work plus everything learned from gossiped work reports), the
*complement* is the set of subtrees of the B&B tree that are **not** covered
by the table.  Section 5.3.2 of the paper uses the complement to recover lost
work: a process that runs out of work and fails to obtain any from the
load-balancing mechanism "chooses an uncompleted problem (by complementing the
code of a solved problem whose sibling is not solved) and solves it".

Because the table is contracted, the complement has a particularly simple
minimal representation: it is exactly the set of siblings of table entries
that are not themselves covered (see :meth:`repro.core.codeset.CodeSet.
uncovered_siblings`).  This module also picks *which* uncompleted subtree to
regenerate — the deepest, i.e. the smallest missing subtree, which keeps the
redundant-work exposure minimal.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Set

from .codeset import CodeSet
from .encoding import PathCode

__all__ = [
    "complement_frontier",
    "minimal_complement",
    "select_recovery_candidate",
]


def complement_frontier(completed: CodeSet) -> Set[PathCode]:
    """Return the minimal set of codes whose subtrees are not known completed.

    The returned codes are pairwise disjoint subtrees and, together with the
    completed table, cover the whole tree.  For an empty table the whole tree
    is missing, so ``{ROOT}`` is returned; for a table containing the root the
    complement is empty.

    The computation walks the completion trie (every decision explored on one
    side but absent on the other contributes the absent sibling), which is a
    superset of the paper's literal phrasing "complementing the code of a
    solved problem whose sibling is not solved" — the literal sibling set is
    available as :meth:`repro.core.codeset.CodeSet.uncovered_siblings` and the
    two coincide after enough recoveries have merged the table upward.
    """
    return completed.missing_frontier()


def minimal_complement(completed: Iterable[PathCode]) -> Set[PathCode]:
    """Convenience wrapper accepting any iterable of completed codes."""
    table = completed if isinstance(completed, CodeSet) else CodeSet(completed)
    return complement_frontier(table)


def select_recovery_candidate(
    completed: CodeSet,
    *,
    exclude: Optional[Iterable[PathCode]] = None,
) -> Optional[PathCode]:
    """Pick the deepest uncompleted subproblem, or ``None`` if complete.

    The deepest uncovered subtree is the smallest missing one, so a wrong
    loss suspicion costs the least redundant work.

    Parameters
    ----------
    completed:
        The contracted table of known-completed codes.
    exclude:
        Codes (or subtrees) the caller is already working on and does not want
        to be offered again — for instance a recovery problem picked earlier
        that is still being solved.
    """
    candidates = complement_frontier(completed)
    if exclude:
        excluded = list(exclude)
        candidates = {
            c
            for c in candidates
            if not any(e == c or e.is_ancestor_of(c) or c.is_ancestor_of(e) for e in excluded)
        }
    if not candidates:
        return None
    # The key ends in ``c.pairs``, a total order, so the choice is
    # deterministic regardless of set iteration order.
    return max(candidates, key=lambda c: (c.depth, c.pairs))


def complement_covers_tree(
    completed: CodeSet, frontier: Sequence[PathCode]
) -> bool:
    """Check the structural complement invariants used by the property tests.

    Every frontier code must be uncovered by the completed table, and the
    frontier codes must be pairwise disjoint subtrees (no duplicates, no
    ancestor/descendant pairs).  The "together they cover the tree" half of
    the invariant needs knowledge of the tree and is checked probe-wise by the
    property-based tests instead.
    """
    for i, code in enumerate(frontier):
        if completed.covers(code):
            return False
        for other in frontier[i + 1 :]:
            if code == other or code.is_ancestor_of(other) or other.is_ancestor_of(code):
                return False
    return True
