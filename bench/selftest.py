"""Self-tests of the benchmark's exact references and output checkers.

    python3 bench/selftest.py

Every checker must accept the program's own output and reject a planted
corruption of it: a swapped rank pair, an index off by one, a perturbed
rumor order, a dropped trajectory.  Q_n is held to the enumeration of all
recursive trees for n <= 8 and to the per-tree scorers.  Prints one line
per test and exits non-zero if any fails.
"""

from __future__ import annotations

import copy
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from rootrank import (  # noqa: E402
    MEASURES,
    ExperimentConfig,
    RngStream,
    compute_profile,
    enumerate_recursive_trees,
    generate_parent_matrix,
    grow_urrt,
    rank_index_batch,
    run_experiment,
    subtree_sizes,
)

import checks  # noqa: E402
from workloads import ENGINE_TAGS, per_tree  # noqa: E402


class Failed(Exception):
    pass


def expect(cond, what: str) -> None:
    if not cond:
        raise Failed(what)


def rejects(problems, what: str) -> None:
    expect(problems, f"checker accepted {what}")


def test_q_enumeration():
    for n in range(1, 9):
        hits = total = 0
        for tree in enumerate_recursive_trees(n):
            sizes = checks.TreeRef(tree.parent).size
            hits += all(2 * s < n for s in sizes[2:][tree.parent[2:] == 1])
            total += 1
        q = checks.root_centroid_probability(n, exact=True)
        expect(Fraction(hits, total) == q, f"Q_{n} = {q}, enumeration {hits}/{total}")


def test_q_is_root_probability():
    """Q_n is P(R_n = 1) for jordan, closeness and rumor."""
    for n in range(2, 8):
        hits = {t: 0 for t in checks.CENTROID_GROUP}
        total = 0
        for tree in enumerate_recursive_trees(n):
            for tag in hits:
                hits[tag] += compute_profile(tree, MEASURES[tag]).report.root_rank == 1
            total += 1
        q = checks.root_centroid_probability(n, exact=True)
        for tag, h in hits.items():
            expect(Fraction(h, total) == q, f"{tag} n={n}: {h}/{total}, Q_n = {q}")


def test_q_values():
    got = [checks.root_centroid_probability(n, exact=True) for n in range(3, 9)]
    want = [Fraction(1, 2), Fraction(1, 6), Fraction(5, 12), Fraction(13, 60),
            Fraction(23, 60), Fraction(101, 420)]
    expect(got == want, f"Q_3..Q_8 = {got}")
    expect(round(checks.root_centroid_probability(1000), 6) == 0.306353, "Q_1000")
    expect(round(checks.root_centroid_probability(10_000), 6) == 0.306803, "Q_10000")
    q = checks.root_centroid_probability(100_000)
    expect(abs(q - (1 - math.log(2))) < 1e-4, f"Q_100000 = {q}, far from 1 - ln 2")


def test_binomial():
    expect(not checks.binomial_problems("x", 3068, 10_000, 0.306803), "exact hit rejected")
    rejects(checks.binomial_problems("x", 3500, 10_000, 0.306803), "a 9 SE miss")


def _profiles(n, seed):
    tree = grow_urrt(n, RngStream(seed, 0))
    sizes = subtree_sizes(tree)
    return tree.parent, {t: compute_profile(tree, m, sizes) for t, m in MEASURES.items()}


def test_profile_checker():
    parent, profiles = _profiles(3000, 11)
    expect(checks.profile_problems(parent, profiles) == [], "clean profile rejected")
    for tag, prof in profiles.items():
        bad = copy.deepcopy(profiles)
        rank = bad[tag].rank
        order = np.argsort(rank[1:]) + 1
        # two vertices at adjacent ranks with different scores
        scores = prof.scores
        i = next(i for i in range(order.size - 1)
                 if scores[order[i]] != scores[order[i + 1]])
        a, b = order[i], order[i + 1]
        rank[a], rank[b] = rank[b], rank[a]
        rejects(checks.profile_problems(parent, bad), f"a swapped {tag} rank pair")


def test_rumor_head():
    parent, profiles = _profiles(3000, 12)
    rank = profiles["rumor"].rank
    order = np.argsort(rank[1:]) + 1
    for i in (0, 6, 14):
        bad = copy.deepcopy(profiles)
        a, b = order[i], order[i + 1]
        bad["rumor"].rank[a], bad["rumor"].rank[b] = rank[b], rank[a]
        rejects(checks.profile_problems(parent, bad), f"rumor order swapped at rank {i + 1}")
    bad = copy.deepcopy(profiles)
    bad["rumor"].rank[[order[15], order[40]]] = [40 + 1, 15 + 1]
    rejects(checks.profile_problems(parent, bad), "a rumor head missing its 16th vertex")


def test_profile_scores():
    parent, profiles = _profiles(2000, 13)
    for tag in ("jordan", "closeness", "betweenness-sq", "betweenness-pairs", "degree"):
        bad = copy.deepcopy(profiles)
        bad[tag].scores[700] += 1
        rejects(checks.profile_problems(parent, bad), f"a {tag} score off by one")
    bad = copy.deepcopy(profiles)
    bad["jordan"].report = type(bad["jordan"].report)(
        bad["jordan"].report.center_index + 1, bad["jordan"].report.root_rank,
        bad["jordan"].report.tied_center_set)
    rejects(checks.profile_problems(parent, bad), "a jordan center index off by one")


def _chunk(n=300, reps=64, seed=21):
    parents = generate_parent_matrix(seed, n, 0, reps)
    stats = rank_index_batch(parents, n)
    samples = {c: per_tree(n, RngStream(seed, c), ENGINE_TAGS) for c in (3, 40)}
    return n, stats, samples


def test_sweep_checker():
    n, stats, samples = _chunk()
    expect(checks.sweep_chunk_problems(n, stats, samples) == [], "clean chunk rejected")
    cases = [("degree", 1, 3, "a sampled degree index off by one"),
             ("jordan", 1, 10, "a jordan index off by one"),
             ("betweenness", 0, 40, "a sampled betweenness rank off by one")]
    for tag, part, col, what in cases:
        bad = copy.deepcopy(stats)
        bad[tag][part][col] += 1
        rejects(checks.sweep_chunk_problems(n, bad, samples), what)
    bad = copy.deepcopy(stats)
    rank = bad["rumor"][0]
    a = int(np.flatnonzero(rank == 1)[0])
    b = int(np.flatnonzero(rank != 1)[0])
    rank[a], rank[b] = rank[b], rank[a]
    rejects(checks.sweep_chunk_problems(n, bad, samples), "a swapped rumor rank pair")
    bad = copy.deepcopy(stats)
    bad["closeness"][0][5] = n + 1
    rejects(checks.sweep_chunk_problems(n, bad, samples), "a rank above n")


def test_mean_records():
    config = ExperimentConfig(experiment="expected-rank", seed=3, n=(200,), reps=100)
    result, _ = run_experiment(config)
    parents = generate_parent_matrix(3, 200, 0, 100)
    ranks = {t: r for t, (r, _) in rank_index_batch(parents, 200).items()}
    expect(checks.mean_record_problems(result.records, ranks) == [], "clean records rejected")
    ranks["rumor"] = ranks["rumor"].copy()
    ranks["rumor"][7] += 1
    rejects(checks.mean_record_problems(result.records, ranks), "a rank the records miss")


def test_persistence_checker():
    config = ExperimentConfig(experiment="persistence", seed=4, horizon=512, stride=16,
                              trajectories=6)
    result, trajs = run_experiment(config, keep_series=True)
    expect(checks.persistence_problems(config, result.records, trajs) == [],
           "clean trajectories rejected")
    dropped = trajs[:2] + trajs[3:]
    found = checks.persistence_problems(config, result.records, dropped)
    rejects(found, "a dropped trajectory")
    expect((2, "trajectory 2 is missing") in found, "dropped trajectory not named")
    bad = copy.deepcopy(trajs)
    bad[1].changed_rank["jordan"] = not bad[1].changed_rank["jordan"]
    rejects(checks.persistence_problems(config, result.records, bad), "a flipped flag")
    bad = copy.deepcopy(trajs[5])
    bad.last_change_rank["rumor"] += 16
    rejects(checks.rerun_problems(bad, trajs[5]), "a moved change time")
    for t in trajs:
        expected = per_tree(512, RngStream(4, t.replicate), ENGINE_TAGS)
        expect(checks.horizon_problems(t, expected) == [], "clean horizon rejected")
    t = copy.deepcopy(trajs[0])
    t.series["index"]["degree"][-1] += 1
    expected = per_tree(512, RngStream(4, 0), ENGINE_TAGS)
    rejects(checks.horizon_problems(t, expected), "a horizon index off by one")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Failed as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
