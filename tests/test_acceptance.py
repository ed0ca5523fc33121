"""Acceptance gate: one test per quantitative criterion, full scale.

Each test prints a single [PASS]/[FAIL] line with the measured numbers
before asserting, so a verbose run reads as a checklist.  The three
Monte Carlo sweeps are shared module-scoped fixtures.  The whole module
takes about ten minutes (600 s to 650 s) on a 2-core machine, dominated
by the n=10^4 and n=10^5 sweeps, the invariant scan, and the persistence
trajectories.

Thresholds are asserted exactly as stated; nothing is loosened to make
a run green.  Seeds are fixed so every number below is reproducible.
"""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from rootrank import (
    MEASURES,
    ExperimentConfig,
    RngStream,
    compute_profile,
    generate_parent_matrix,
    grow_urrt,
    rank_index_batch,
    run_experiment,
    subtree_sizes,
)
from rootrank.centrality import SWEEP_MEASURES
from rootrank.experiments import run_max_fraction_sweep, run_rank_index_sweep
from rootrank.oracles import exact_degree_root_probability, verify_exhaustive
from rootrank.persistence import run_trajectory
from rootrank.tree import RecursiveTree
from rootrank.urns import sample_dickman_many

from conftest import children_lists

pytestmark = pytest.mark.acceptance

SWEEP_SEED = 20260815
_BLOCK = 2**32  # stream block per grid cell, matches the experiment driver

CENTROID_TAGS = ("jordan", "closeness", "rumor")


def _check(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}: {detail}"
    print(line)
    assert ok, line


def _tail_counts(ranks: np.ndarray, xs: np.ndarray) -> np.ndarray:
    srt = np.sort(ranks)
    return srt.size - np.searchsorted(srt, xs, side="right")


@pytest.fixture(scope="module")
def sweep_1e3():
    return run_rank_index_sweep(SWEEP_SEED, 1_000, 20_000, stream_base=0)


@pytest.fixture(scope="module")
def sweep_1e4():
    return run_rank_index_sweep(SWEEP_SEED, 10_000, 50_000, stream_base=_BLOCK)


@pytest.fixture(scope="module")
def sweep_1e5():
    return run_rank_index_sweep(SWEEP_SEED, 100_000, 4_000, stream_base=2 * _BLOCK)


def test_01_centroid_root_probability(sweep_1e4):
    """Jordan/closeness/rumor P(R=1) at n=10^4 matches 1 - ln 2 within 0.01."""
    target = 1.0 - math.log(2.0)
    parts = []
    ok = True
    for tag in CENTROID_TAGS:
        rank, _ = sweep_1e4[tag]
        p = float((rank == 1).mean())
        parts.append(f"{tag}={p:.5f}")
        ok = ok and abs(p - target) <= 0.01
    _check(1, "centroid root probability", ok,
           f"{' '.join(parts)} target={target:.5f} tol=0.01")


def test_02_betweenness_root_probability(sweep_1e4):
    rank, _ = sweep_1e4["betweenness"]
    p = float((rank == 1).mean())
    se = math.sqrt(p * (1.0 - p) / rank.size)
    bound = 0.0708 - 3.0 * se
    _check(2, "betweenness root probability", p >= bound,
           f"P(R=1)={p:.5f} >= 0.0708-3SE={bound:.5f}")


def test_03_centroid_index_expectation(sweep_1e4):
    # first 10^4 replicates form the exact 10^4-replicate run
    parts = []
    ok = True
    for tag in CENTROID_TAGS:
        _, index = sweep_1e4[tag]
        mean = float(index[:10_000].mean())
        parts.append(f"{tag}={mean:.4f}")
        ok = ok and 2.3 <= mean <= 2.6
    _check(3, "centroid index expectation", ok,
           f"{' '.join(parts)} required in [2.3, 2.6]")


def test_04_betweenness_index_tail(sweep_1e4):
    _, index = sweep_1e4["betweenness"]
    mean = float(index.mean())
    ok = mean < 20.0
    parts = [f"E[I]={mean:.4f}<20"]
    for k in (5, 10, 15):
        p = float((index >= k).mean())
        se = math.sqrt(p * (1.0 - p) / index.size)
        bound = 16.0 * (k / 3.0 + 1.0) * 0.75**k
        ok = ok and (p + 3.0 * se < bound)
        parts.append(f"P(I>={k})+3SE={p + 3 * se:.5f}<{bound:.4f}")
    _check(4, "betweenness index tail", ok, " ".join(parts))


def test_05_jordan_rank_scaling(sweep_1e3, sweep_1e4, sweep_1e5):
    """Mean rank grows like ln n; x * tail(x) stays within fixed bounds."""
    ratios = []
    for n, sweep in ((10**3, sweep_1e3), (10**4, sweep_1e4), (10**5, sweep_1e5)):
        rank, _ = sweep["jordan"]
        ratios.append(float(rank[:1_000].mean()) / math.log(n))
    spread = max(ratios) / min(ratios)
    xs = np.arange(1, 101)
    rank = sweep_1e4["jordan"][0]
    prod = xs * (_tail_counts(rank, xs) / rank.size)
    lo, hi = float(prod.min()), float(prod.max())
    ok = spread <= 1.5 and lo >= 0.05 and hi <= 100.0
    _check(5, "jordan rank scaling", ok,
           f"mean R/ln n = {ratios[0]:.4f}/{ratios[1]:.4f}/{ratios[2]:.4f} "
           f"spread={spread:.4f}<=1.5; x*P(R>x) in [{lo:.4f}, {hi:.4f}]")


def test_06_rumor_rank_boundedness(sweep_1e3, sweep_1e4, sweep_1e5):
    m3 = float(sweep_1e3["rumor"][0].mean())
    m5 = float(sweep_1e5["rumor"][0].mean())
    stable = abs(m5 - m3) <= 0.2 * m3
    xs = np.arange(10, 10_001)
    rumor_tail = _tail_counts(sweep_1e4["rumor"][0], xs)
    jordan_tail = _tail_counts(sweep_1e4["jordan"][0], xs)
    violations = int((rumor_tail > jordan_tail).sum())
    ok = stable and violations == 0
    _check(6, "rumor rank boundedness", ok,
           f"mean R: {m3:.4f}@1e3 vs {m5:.4f}@1e5 (20% band); "
           f"tail dominance violations={violations} over x in [10, 10^4]")


def test_07_closeness_rank_divergence(sweep_1e3, sweep_1e4, sweep_1e5):
    means, heads = [], []
    for sweep in (sweep_1e3, sweep_1e4, sweep_1e5):
        rank, _ = sweep["closeness"]
        means.append(float(rank.mean()))
        heads.append(float((rank <= 10).mean()))
    ok = means[0] < means[1] < means[2] and heads[0] > heads[1] > heads[2]
    _check(7, "closeness rank divergence", ok,
           f"mean R {means[0]:.4f}<{means[1]:.4f}<{means[2]:.4f}; "
           f"P(R<=10) {heads[0]:.5f}>{heads[1]:.5f}>{heads[2]:.5f}")


def test_08_degree_root_rank_and_index(sweep_1e3, sweep_1e4, sweep_1e5):
    """P(R=1) tracks the exact value and falls with n; I grows with n.

    Degree finds the root only at a polylogarithmic rate: the exact
    P(R=1) is 0.1002 at n=10^3 and 0.0721 at n=10^4, so the sweeps are
    held to the exact reference rather than to a fixed bound.
    """
    sweeps = {10**3: sweep_1e3, 10**4: sweep_1e4, 10**5: sweep_1e5}
    probs = {n: float((s["degree"][0] == 1).mean()) for n, s in sweeps.items()}
    ok = probs[10**3] > probs[10**4] > probs[10**5]
    parts = [f"P(R=1) {probs[10**3]:.4f}>{probs[10**4]:.4f}>{probs[10**5]:.4f}"]
    for n in (10**3, 10**4):
        exact = exact_degree_root_probability(n)
        se = math.sqrt(exact * (1.0 - exact) / sweeps[n]["degree"][0].size)
        ok = ok and abs(probs[n] - exact) <= 3.0 * se
        parts.append(f"|{probs[n]:.4f}-exact {exact:.5f}|<=3SE={3 * se:.4f} at n={n}")
    med = float(np.median(sweep_1e5["degree"][1]))
    ratio = math.log(med) / math.log(10**5)
    ok = ok and 0.18 <= ratio <= 0.38
    means = [float(s["degree"][1].mean())
             for s in (sweep_1e3, sweep_1e4, sweep_1e5)]
    ok = ok and means[0] < means[1] < means[2]
    _check(8, "degree root rank and index", ok,
           f"{'; '.join(parts)}; median log I/log n={ratio:.4f} in [0.18, 0.38]; "
           f"E[I] {means[0]:.2f}<{means[1]:.2f}<{means[2]:.2f}")


def test_09_dickman_sampler_vs_subtree_fraction():
    """Sampler hits the known half-line mass and matches tree fractions."""
    draws = sample_dickman_many(RngStream(20260816).generator(), 1_000_000)
    p_half = float((draws >= 0.5).mean())
    diff = abs(p_half - math.log(2.0))
    frac = run_max_fraction_sweep(20260816, 100_000, 10_000, stream_base=_BLOCK)
    ks = float(scipy_stats.ks_2samp(draws, frac).statistic)
    ok = diff <= 0.005 and ks < 0.02
    _check(9, "dickman sampler vs max subtree fraction", ok,
           f"P(D>=1/2)={p_half:.5f} (|diff|={diff:.5f}<=0.005); KS={ks:.5f}<0.02")


def test_10_exhaustive_oracle_agreement():
    # 5914 = sum of (k-1)! for k = 1..8; 5040 of them at n = 8
    count = verify_exhaustive(8)
    _check(10, "exhaustive oracle agreement", count == 5914,
           f"verified {count} trees (expected 5914, every tree with n <= 8)")


def test_11_centroid_structure_invariants():
    """Tied-set size/adjacency, half-size bound, set equality, and path
    monotonicity away from the centroid, on 10^4 fresh trees at n=10^3."""
    trees = 10_000
    n = 1_000
    for i in range(trees):
        tree = grow_urrt(n, RngStream(20260821, i))
        sizes = subtree_sizes(tree)
        pj = compute_profile(tree, MEASURES["jordan"], sizes)
        pc = compute_profile(tree, MEASURES["closeness"], sizes)
        pr = compute_profile(tree, MEASURES["rumor"], sizes)
        tied = pj.report.tied_center_set
        assert 1 <= len(tied) <= 2, f"tree {i}: tied set {tied}"
        if len(tied) == 2:
            a, b = tied
            adjacent = tree.parent[b] == a or tree.parent[a] == b
            assert adjacent, f"tree {i}: non-adjacent tied centers {tied}"
        assert 2 * int(pj.scores[list(tied)].min()) <= n, f"tree {i}: psi > n/2"
        assert pc.report.tied_center_set == tied, f"tree {i}: closeness set"
        assert pr.report.tied_center_set == tied, f"tree {i}: rumor set"
        # scores must be non-decreasing along every path leaving the centroid
        c = pj.report.center_index
        children = children_lists(tree)
        stack = [(c, 0)]
        while stack:
            u, parent_of_u = stack.pop()
            nbrs = list(children[u])
            if u != 1 and tree.parent[u] != parent_of_u:
                nbrs.append(int(tree.parent[u]))
            for w in nbrs:
                if w == parent_of_u:
                    continue
                assert pj.scores[w] >= pj.scores[u], f"tree {i}: jordan dip at {w}"
                assert pc.scores[w] >= pc.scores[u], f"tree {i}: closeness dip at {w}"
                assert pr.scores[w] >= pr.scores[u] - 1e-9, f"tree {i}: rumor dip at {w}"
                stack.append((w, u))
    _check(11, "centroid structure invariants", True,
           f"{trees} trees at n={n}: tied sets, half-size bound, "
           f"set equality, path monotonicity all hold")


def test_12_persistence_separation():
    config = ExperimentConfig(
        experiment="persistence",
        seed=20260817,
        horizon=100_000,
        stride=16,
        trajectories=200,
        workers=2,  # records do not depend on the worker count (criterion 14)
    )
    result, _ = run_experiment(config)
    est = {(r.measure, r.statistic): r.estimate for r in result.records}
    parts = []
    ok = True
    for tag in ("jordan", "rumor", "betweenness"):
        vi = est[(tag, "index_changed_fraction")]
        vr = est[(tag, "rank_changed_fraction")]
        ok = ok and vi < 0.05 and vr < 0.05
        parts.append(f"{tag} I={vi:.3f} R={vr:.3f} (<0.05)")
    vc = est[("closeness", "rank_changed_fraction")]
    ok = ok and vc > 0.2
    parts.append(f"closeness R={vc:.3f} (>0.2)")
    vd = est[("degree", "index_changed_fraction")]
    ok = ok and vd > 0.2
    parts.append(f"degree I={vd:.3f} (>0.2)")
    _check(12, "persistence separation", ok, "; ".join(parts))


def test_12_tracker_ranks_match_engine():
    """Criterion 12's checkpoint ranks agree with the batch engine and the scorers.

    The tracker's horizon-tree pass and rank_index_batch's root walk apply
    one region rule in two shapes, over all checkpoints at once and one
    tree at a time; compute_profile on the prefix tree scores and sorts
    every vertex.  Each checkpoint is held to both.  Both trajectories are
    compared at m = 5*10^4 and 10^5, and at every late-half last change of
    a criterion-12 rank and the checkpoint before it.  Trajectory 1's
    betweenness rank last changes at the horizon; trajectory 11's jordan,
    closeness and rumor ranks last change together at m = 70848.  One
    engine call covers a prefix size for both trajectories.
    """
    seed, horizon, stride = 20260817, 100_000, 16
    reps = (1, 11)
    runs = [run_trajectory(horizon, RngStream(seed, rep), stride=stride,
                           keep_series=True, replicate=rep) for rep in reps]
    parents = np.hstack([generate_parent_matrix(seed, horizon, rep, rep + 1)
                         for rep in reps])
    sizes = {horizon // 2, horizon}
    late = set()
    for res in runs:
        for tag in ("jordan", "rumor", "betweenness", "closeness"):
            last = res.last_change_rank[tag]
            if last > horizon // 2:
                sizes |= {last, last - stride}
                late.add(tag)
    assert late == {"jordan", "rumor", "betweenness", "closeness"}
    for m in sorted(sizes):
        batch = rank_index_batch(parents[: m + 1], m)
        pos = m // stride - 1
        for col, res in enumerate(runs):
            assert res.checkpoints[pos] == m
            prefix = RecursiveTree(parents[2 : m + 1, col])
            for tag, (rank, index) in batch.items():
                report = compute_profile(prefix, SWEEP_MEASURES[tag]).report
                got = (res.series["rank"][tag][pos], res.series["index"][tag][pos])
                assert got == (rank[col], index[col]), (reps[col], m, tag)
                assert got == (report.root_rank, report.center_index), (reps[col], m, tag)
    print(f"[PASS] criterion 12 cross-check: tracker ranks and indices match "
          f"rank_index_batch and compute_profile at m={sorted(sizes)} on trajectories {reps}")


def test_13_urn_leader_and_diagonal():
    hoppe, _ = run_experiment(ExperimentConfig(
        experiment="hoppe-leader-change", seed=20260818,
        horizon=100_000, runs=1_000))
    by_t = {r.param: r.estimate for r in hoppe.records}
    tail = [by_t[str(t)] for t in (100, 1_000, 10_000)]
    ok = tail[0] >= tail[1] >= tail[2] and tail[2] < 0.05
    polya, _ = run_experiment(ExperimentConfig(
        experiment="polya-diagonal-hit", seed=20260819,
        horizon=100_000, runs=1_000))
    by_a = {r.param: r.estimate for r in polya.records}
    hits = [by_a[str(a)] for a in (1, 2, 3, 4, 5)]
    ok = ok and all(hits[j] > hits[j + 1] for j in range(4))
    _check(13, "urn leader change and diagonal hits", ok,
           f"leader-change tail {tail} (non-increasing, last<0.05); "
           f"diagonal hits by a {hits} (strictly decreasing)")


def test_14_worker_count_determinism():
    """Identical CSV bytes for 1, 2, and 3 workers on two experiment kinds."""
    sweep_texts = []
    for workers in (1, 2, 3):
        config = ExperimentConfig(
            experiment="root-center-probability",
            seed=20260820, n=(2_000,), reps=9_000, workers=workers)
        sweep_texts.append(run_experiment(config)[0].csv_text())
    persist_texts = []
    for workers in (1, 3):
        config = ExperimentConfig(
            experiment="persistence",
            seed=20260820, horizon=2_000, stride=50,
            trajectories=24, workers=workers)
        persist_texts.append(run_experiment(config)[0].csv_text())
    ok = (sweep_texts[0] == sweep_texts[1] == sweep_texts[2]
          and persist_texts[0] == persist_texts[1])
    _check(14, "worker count determinism", ok,
           f"sweep csv x3 identical={sweep_texts[0] == sweep_texts[2]} "
           f"({len(sweep_texts[0])} bytes); "
           f"persistence csv x2 identical={persist_texts[0] == persist_texts[1]} "
           f"({len(persist_texts[0])} bytes)")
