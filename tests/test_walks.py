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
    assert walks.root_walk(parent, size, children, 10**9) == (1, 1, 1, 1, 1, 1)


def test_partial_tree_with_a_tied_centroid_pair():
    # Vertex 2 holds exactly half of 10^9 vertices, so 1 and 2 are a tied
    # centroid pair, and the centroid index is 2.  They tie for jordan
    # (psi = 5*10^8), closeness (d(2) = 0) and rumor (r(2) = 0.0, settled
    # by phi_sign), and 3 counts only for betweenness, whose best score is
    # 2's.  Vertices 4 to 7 lie in no region: reading their children raises.
    m, half = 10**9, 5 * 10**8
    size = {1: m, 2: half, 3: half - 1, 4: half // 2 - 1, 5: half // 2,
            6: half // 2 - 1, 7: half // 2 - 1}
    parent = {2: 1, 3: 1}
    children = {1: [2, 3], 2: [4, 5], 3: [6, 7]}
    assert walks.root_walk(parent, size, children, m) == (2, 3, 2, 2, 2, 2)


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
    assert all(a != 1 for _, a in calls)  # the root counts without a comparison
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
