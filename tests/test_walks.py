"""The region rule of ``rootrank.walks`` on shapes the random trees rarely make."""

import numpy as np

from rootrank import compute_profile, rank_index_batch, walks
from rootrank.centrality import SWEEP_MEASURES, phi_sign
from rootrank.persistence import _track
from rootrank.tree import RecursiveTree


def test_partial_tree_at_a_billion():
    # Three root subtrees of a third each: none lies in a region, so the
    # walk must not ask for anything below the root's children.  A band
    # wide enough for any shape of 10^9 vertices would push them all.
    s = 333_333_333
    size = {1: 10**9, 2: s, 3: s, 4: s}
    parent = {2: 1, 3: 1, 4: 1}
    children = {1: [2, 3, 4]}
    assert walks.root_walk(parent, size, children, 10**9) == (1, 1, 1, 1, 1)


def test_tall_rumor_tie_is_settled_exactly(monkeypatch):
    # A handle of 1000 edges from the root to vertex 1001, which carries
    # the same two bristles as the root: by symmetry phi(1001) = phi(1), a
    # tie at depth 1000 that only phi_sign can settle.  The prefix trees
    # at the first two checkpoints are paths, whose far ends tie likewise.
    handle, bristles = 1000, 2
    tree = RecursiveTree(list(range(1, handle + 1)) + [1] * bristles + [handle + 1] * bristles)
    n, stride = tree.n, 335
    calls = []

    def counted(parent, size, m, a, b):
        calls.append((m, a))
        return phi_sign(parent, size, m, a, b)

    monkeypatch.setattr(walks, "phi_sign", counted)
    got = rank_index_batch(tree.parent.astype(np.int64)[:, None], n)
    assert (n, handle + 1) in calls
    calls.clear()
    res = _track(tree, stride, keep_series=True)
    assert {(n, handle + 1), (stride, stride), (2 * stride, 2 * stride)} <= set(calls)
    for pos, m in enumerate(res.checkpoints.tolist()):
        prefix = RecursiveTree(tree.parent[2 : m + 1].tolist())
        for tag, measure in SWEEP_MEASURES.items():
            report = compute_profile(prefix, measure).report
            want = (report.root_rank, report.center_index)
            assert (res.series["rank"][tag][pos], res.series["index"][tag][pos]) == want, (tag, m)
            if m == n:
                assert (got[tag][0][0], got[tag][1][0]) == want, tag
    assert res.series["rank"]["rumor"].tolist() == [stride, 2 * stride, handle + 1]
