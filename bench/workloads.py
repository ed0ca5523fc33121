"""The benchmark's four workloads: inputs, timed calls, layer spans and checks.

A workload's ``run`` makes one timed call through rootrank's public API
and returns an :class:`Op`.  Its ``settle`` runs right after the call,
once the peak resident set has been read, and keeps only what the later
checks need; ``finish`` runs the remaining checks once the timed loop is
over.  With a tracer, ``run`` also returns the layer samples of the call,
and ``probe`` times the single-layer calls that the full call does not
separate.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from rootrank import (
    MEASURES,
    ExperimentConfig,
    RngStream,
    compute_profile,
    grow_urrt,
    run_experiment,
    subtree_sizes,
)
from rootrank import centrality, engine, experiments, persistence
from rootrank.oracles import exact_degree_root_probability

import checks
from spans import Tracer, covered

# Engine tags and the per-tree measure each one is checked against.
ENGINE_TAGS = {
    "jordan": "jordan",
    "closeness": "closeness",
    "rumor": "rumor",
    "betweenness": "betweenness-sq",
    "degree": "degree",
}

# Replicate columns per chunk re-grown and scored by the per-tree code.
SAMPLED_COLUMNS = 2


def op_seed(seed: int, k: int) -> int:
    """64-bit experiment seed of the k-th call of a run."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


def per_tree(n: int, stream: RngStream, tags) -> dict[str, tuple[int, int]]:
    """(R, I) from ``compute_profile`` for the given engine tags."""
    tree = grow_urrt(n, stream)
    sizes = subtree_sizes(tree)
    out = {}
    for tag in tags:
        rep = compute_profile(tree, MEASURES[ENGINE_TAGS[tag]], sizes).report
        out[tag] = (rep.root_rank, rep.center_index)
    return out


@dataclass
class Op:
    """One timed call: ``count`` operations carrying ``vertices`` vertices."""

    seed: int
    vertices: int
    wall: float
    count: int
    layers: dict[str, list[float]] | None
    material: object
    problems: list[str] = field(default_factory=list)
    failed: int = 0


class Workload:
    """Hooks a workload leaves as they are when it has nothing to do there."""

    layer_names: tuple[str, ...] = ()

    def prepare(self) -> None:
        """Install what every call needs, traced or not."""

    def close(self) -> None:
        """Undo :meth:`prepare`."""

    def settle(self, op: Op) -> None:
        """Check or shrink a call's output once the peak RSS has been read."""

    def finish(self, ops: list[Op]) -> list[str]:
        """Remaining checks; returns the problems of the run as a whole."""
        return []

    def probe(self, ops: list[Op]) -> tuple[dict[str, float], list[str]]:
        """Single-layer timings after the traced calls, and their problems."""
        return {}, []


class Sweep(Workload):
    """``run_experiment`` of kind ``expected-rank`` over one engine chunk."""

    layer_names = ("rng.draw_s", "engine.generate_s", "engine.rank_all_s",
                   "experiments.self_s") + tuple(f"engine.rank.{t}_s" for t in ENGINE_TAGS)

    def __init__(self, n: int, reps: int):
        self.n = n
        self.reps = reps
        self.chunks: list = []
        self._tap = Tracer()

    def prepare(self) -> None:
        self._tap.tap(experiments, "rank_index_sweep_chunk", self.chunks)

    def close(self) -> None:
        self._tap.restore()

    def warm(self) -> None:
        run_experiment(ExperimentConfig(experiment="expected-rank", seed=0, n=(100,), reps=64))

    def trace(self, tracer: Tracer) -> None:
        tracer.wrap_draws("rng.draw")
        tracer.wrap(engine, "generate_parent_matrix", "engine.generate")
        tracer.wrap(engine, "rank_index_batch", "engine.rank_all")

    def run(self, seed: int, tracer: Tracer | None) -> Op:
        config = ExperimentConfig(
            experiment="expected-rank", seed=seed, n=(self.n,), reps=self.reps, workers=1
        )
        self.chunks.clear()
        mark = tracer.mark() if tracer else 0
        t0 = time.perf_counter()
        result, _ = run_experiment(config)
        wall = time.perf_counter() - t0
        layers = None
        if tracer:
            gen = tracer.total("engine.generate", mark)
            rank = tracer.total("engine.rank_all", mark)
            layers = {
                "rng.draw_s": [tracer.total("rng.draw", mark)],
                "engine.generate_s": [gen],
                "engine.rank_all_s": [rank],
                "experiments.self_s": [wall - gen - rank],
            }
        return Op(seed, self.n * self.reps, wall, len(self.chunks), layers,
                  (result.records, list(self.chunks)))

    def finish(self, ops: list[Op]) -> list[str]:
        hits = {"jordan": 0, "degree": 0}
        trials = 0
        for op in ops:
            records, chunks = op.material
            ranks = {tag: [] for tag in ENGINE_TAGS}
            for args, stats in chunks:
                seed, n, start, stop, tags, base = args
                pick = np.random.default_rng([op.seed, start])
                cols = pick.choice(stop - start, SAMPLED_COLUMNS, replace=False)
                samples = {
                    int(c): per_tree(n, RngStream(seed, base + start + int(c)), tags)
                    for c in cols
                }
                op.problems += checks.sweep_chunk_problems(n, stats, samples)
                for tag, (rank, _) in stats.items():
                    ranks[tag].append(rank)
            ranks = {t: np.concatenate(r) for t, r in ranks.items()}
            op.problems += checks.mean_record_problems(records, ranks)
            op.failed = op.count if op.problems else 0
            for tag in hits:
                hits[tag] += int((ranks[tag] == 1).sum())
            trials += len(ranks["jordan"])
            op.material = None
        return checks.binomial_problems(
            "jordan", hits["jordan"], trials, checks.root_centroid_probability(self.n)
        ) + checks.binomial_problems(
            "degree", hits["degree"], trials, exact_degree_root_probability(self.n)
        )

    def probe(self, ops: list[Op]) -> tuple[dict[str, float], list[str]]:
        """One measure per ``rank_index_batch`` call on the first call's chunk.

        Each must repeat that measure's part of the call's five-measure result.
        """
        _, [(_, stats)] = ops[0].material
        parents = engine.generate_parent_matrix(ops[0].seed, self.n, 0, self.reps)
        out, problems = {}, []
        for tag in ENGINE_TAGS:
            t0 = time.perf_counter()
            one = engine.rank_index_batch(parents, self.n, (tag,))[tag]
            out[f"engine.rank.{tag}_s"] = time.perf_counter() - t0
            if not all(np.array_equal(a, b) for a, b in zip(one, stats[tag])):
                problems.append(f"{tag}: rank_index_batch alone differs from all five")
        return out, problems


class Profile(Workload):
    """``grow_urrt``, ``subtree_sizes`` and ``compute_profile`` for every measure."""

    layer_names = ("rng.draw_s", "tree.grow_s", "tree.sizes_s") + tuple(
        f"centrality.{t}_s" for t in MEASURES
    ) + ("centrality.rumor_scores_s", "centrality.rumor_rank_s",
         "centrality.rumor_exact_compares")

    def __init__(self, n: int):
        self.n = n

    def warm(self) -> None:
        tree = grow_urrt(1000, RngStream(0))
        sizes = subtree_sizes(tree)
        for measure in MEASURES.values():
            compute_profile(tree, measure, sizes)

    def trace(self, tracer: Tracer) -> None:
        tracer.wrap_draws("rng.draw")
        tracer.wrap(centrality, "rumor_scores", "centrality.rumor_scores")
        tracer.wrap(centrality, "rank_vertices", "centrality.rank_vertices")
        tracer.count(centrality.RumorComparator, "compare", "compares")

    def run(self, seed: int, tracer: Tracer | None) -> Op:
        mark = tracer.mark() if tracer else 0
        layers = {}
        t0 = time.perf_counter()
        tree = grow_urrt(self.n, RngStream(seed, 0))
        t1 = time.perf_counter()
        sizes = subtree_sizes(tree)
        t2 = time.perf_counter()
        profiles = {}
        for tag, measure in MEASURES.items():
            sub = tracer.mark() if tracer else 0
            before = tracer.counts["compares"] if tracer else 0
            ta = time.perf_counter()
            profiles[tag] = compute_profile(tree, measure, sizes)
            layers[f"centrality.{tag}_s"] = [time.perf_counter() - ta]
            if tracer and tag == "rumor":
                layers["centrality.rumor_scores_s"] = [tracer.total("centrality.rumor_scores", sub)]
                layers["centrality.rumor_rank_s"] = [tracer.total("centrality.rank_vertices", sub)]
                layers["centrality.rumor_exact_compares"] = [tracer.counts["compares"] - before]
        wall = time.perf_counter() - t0
        if tracer:
            layers.update({"rng.draw_s": [tracer.total("rng.draw", mark)],
                           "tree.grow_s": [t1 - t0], "tree.sizes_s": [t2 - t1]})
        return Op(seed, self.n, wall, 1, layers if tracer else None, (tree.parent, profiles))

    def settle(self, op: Op) -> None:
        parent, profiles = op.material
        op.material = None
        profiles["rumor"].comparator = None
        op.problems += checks.profile_problems(parent, profiles)
        op.failed = op.count if op.problems else 0


class Persistence(Workload):
    """``run_experiment`` of kind ``persistence``, the shape of criterion 12."""

    layer_names = ("rng.draw_s", "experiments.self_s", "persistence.trajectory_p50_s",
                   "persistence.trajectory_tail_s", "persistence.growth_s",
                   "persistence.checkpoint_s")
    # Trajectories re-timed in the main process for the growth/checkpoint split.
    probe_trajectories = 2

    def __init__(self, horizon: int, stride: int, trajectories: int, workers: int):
        self.horizon = horizon
        self.stride = stride
        self.trajectories = trajectories
        self.workers = workers

    def warm(self) -> None:
        run_experiment(ExperimentConfig(
            experiment="persistence", seed=0, horizon=1024, stride=16, trajectories=2,
            workers=self.workers,
        ))

    def trace(self, tracer: Tracer) -> None:
        tracer.wrap_draws("rng.draw")
        original = persistence.run_trajectory

        def timed(*args, **kwargs):
            # Runs in a Pool worker: the span travels back on the result.
            mark = tracer.mark()
            t0 = time.perf_counter()
            res = original(*args, **kwargs)
            res.bench_span = (t0, time.perf_counter(), tracer.total("rng.draw", mark))
            return res

        tracer.install(persistence, "run_trajectory", timed)

    def run(self, seed: int, tracer: Tracer | None) -> Op:
        config = ExperimentConfig(
            experiment="persistence", seed=seed, horizon=self.horizon, stride=self.stride,
            trajectories=self.trajectories, workers=self.workers,
        )
        t0 = time.perf_counter()
        result, trajectories = run_experiment(config)
        wall = time.perf_counter() - t0
        layers = None
        if tracer:
            spans = [t.bench_span for t in trajectories]
            took = [t1 - t0 for t0, t1, _ in spans]
            layers = {
                "rng.draw_s": [d for _, _, d in spans],
                "experiments.self_s": [wall - covered([(a, b) for a, b, _ in spans])],
                "persistence.trajectory_p50_s": took,
                "persistence.trajectory_tail_s": took,
            }
        return Op(seed, self.trajectories * self.horizon, wall, self.trajectories, layers,
                  (config, result.records, trajectories))

    def settle(self, op: Op) -> None:
        config, records, trajectories = op.material
        found = checks.persistence_problems(config, records, trajectories)
        op.problems += [msg for _, msg in found]
        if any(rep is None for rep, _ in found):
            op.failed = op.count
        else:
            op.failed = len({rep for rep, _ in found})
        rep = int(np.random.default_rng([op.seed]).integers(self.trajectories))
        op.material = next((t for t in trajectories if t.replicate == rep), None)

    def finish(self, ops: list[Op]) -> list[str]:
        """Re-run the first call's checked trajectory with its series kept.

        The re-run must repeat the Pool's result, and its ranks and indices
        at the horizon must equal the per-tree scorers on the horizon tree.
        One per run: a re-run and a profile cost about a third of a call.
        """
        first, pooled = ops[0], ops[0].material
        for op in ops:
            op.material = None
        if pooled is not None:
            stream = RngStream(first.seed, pooled.replicate)
            rerun = persistence.run_trajectory(
                self.horizon, stream, stride=self.stride, keep_series=True,
                replicate=pooled.replicate,
            )
            found = checks.rerun_problems(pooled, rerun) + checks.horizon_problems(
                rerun, per_tree(self.horizon, stream, ENGINE_TAGS)
            )
            if found:
                first.problems += found
                first.failed = max(first.failed, 1)
        return []

    def probe(self, ops: list[Op]) -> tuple[dict[str, float], list[str]]:
        """Stride-16 and horizon-only trajectories on the first call's streams."""
        seed = ops[0].seed
        growth, checkpoint = [], []
        for rep in range(self.probe_trajectories):
            times = []
            for stride in (self.stride, self.horizon):
                t0 = time.perf_counter()
                persistence.run_trajectory(self.horizon, RngStream(seed, rep), stride=stride)
                times.append(time.perf_counter() - t0)
            growth.append(times[1])
            checkpoint.append(times[0] - times[1])
        return {"persistence.growth_s": statistics.median(growth),
                "persistence.checkpoint_s": statistics.median(checkpoint)}, []


WORKLOADS = {
    "sweep-n1e4": Sweep(10_000, 1599),
    "sweep-n1e3": Sweep(1_000, 4096),
    "profile-n1e6": Profile(10**6),
    "persistence-h1e5": Persistence(100_000, 16, 8, 2),
}

# Small instances that time the layers a workload does not exercise, so a
# traced run reports every layer metric.
SIDE_PROBES = (
    Sweep(1_000, 512),
    Profile(10_000),
    Persistence(4096, 16, 4, 2),
)
