"""Monte Carlo experiment harness.

Every experiment follows the same scheme: replicate i draws from the
Philox stream ``stream_base + i`` (stream bases separate grid cells), work
is split into chunks whose boundaries depend only on the configuration,
and chunks are reduced to integer tallies before any float arithmetic.
Because the tallies are exact, estimates are byte-identical for a fixed
(config, seed) no matter how many workers executed the chunks.

Estimates always carry a standard error: binomial for event frequencies,
sample-std/sqrt(reps) for means.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, fields
from multiprocessing import Pool

import numpy as np

from . import persistence as _persistence
from . import urns as _urns
from .centrality import SWEEP_MEASURES
from .engine import (
    _concat_stats,
    _parent_blocks,
    chunk_rows,
    max_root_fraction_batch,
    rank_index_sweep_chunk,
    replicate_chunks,
)
from .rng import RngStream

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentConfig",
    "ResultRecord",
    "ExperimentResult",
    "ConfigError",
    "config_from_mapping",
    "run_rank_index_sweep",
    "run_max_fraction_sweep",
    "run_experiment",
    "persistence_dump_csv",
]

EXPERIMENT_KINDS = (
    "root-center-probability",
    "expected-rank",
    "expected-center-index",
    "rank-tail",
    "index-tail",
    "confidence-coverage",
    "persistence",
    "hoppe-leader-change",
    "polya-diagonal-hit",
)

# Grid cells (n values, urn a values) get disjoint stream-id blocks that hold
# a cell's reps or runs, so no replicate stream is ever reused across cells.
_STREAM_BLOCK = 2**32

_URN_CHUNK = 128


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved parameters of one experiment run.

    ``seed`` and ``experiment`` have no defaults on purpose: every run
    must state them.  All other fields carry the default grids.
    """

    experiment: str
    seed: int
    measures: tuple[str, ...] = tuple(SWEEP_MEASURES)
    n: tuple[int, ...] = (1_000, 10_000, 100_000)
    reps: int = 10_000
    workers: int = 1
    x_grid: tuple[int, ...] = (1, 2, 3, 5, 7, 10, 15, 22, 33, 47, 68, 100)
    k_grid: tuple[int, ...] = (1, 2, 3, 5, 7, 10, 15, 22, 33, 47, 68, 100)
    coverage_k: tuple[int, ...] = (10, 33, 100, 330)
    horizon: int = 100_000
    stride: int = 0  # 0 = pick default_stride(horizon)
    trajectories: int = 1_000
    urn_a: tuple[int, ...] = (1, 2, 3, 4, 5)
    threshold: float = 0.5
    t_grid: tuple[int, ...] = (100, 1_000, 10_000)
    runs: int = 1_000
    out: str = ""

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"expected one of {', '.join(EXPERIMENT_KINDS)}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        unknown = set(self.measures) - set(SWEEP_MEASURES)
        if unknown:
            raise ConfigError(f"unknown measures: {sorted(unknown)}")
        if not self.measures:
            raise ConfigError("measures must be non-empty")
        repeated = {t for t in self.measures if self.measures.count(t) > 1}
        if repeated:
            raise ConfigError(f"repeated measures: {sorted(repeated)}")
        for name in ("reps", "workers", "horizon", "trajectories", "runs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("reps", "runs"):
            if getattr(self, name) > _STREAM_BLOCK:
                raise ConfigError(f"{name} must be <= {_STREAM_BLOCK}")
        if self.stride < 0:
            raise ConfigError("stride must be >= 0")
        stride = self.resolved_stride()
        if self.experiment == "persistence" and self.horizon % stride:
            raise ConfigError(
                f"stride {stride} (stride={self.stride}) does not divide horizon {self.horizon}"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")
        for name in ("n", "x_grid", "k_grid", "coverage_k", "urn_a", "t_grid"):
            grid = getattr(self, name)
            if not grid:
                raise ConfigError(f"{name} must be non-empty")
            if any(g < 1 for g in grid):
                raise ConfigError(f"{name} entries must be >= 1")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly increasing")

    def resolved_stride(self) -> int:
        return self.stride or _persistence.default_stride(self.horizon)


# Parser per ExperimentConfig field annotation (strings, as annotations are
# postponed in this module); list values split on commas or whitespace.
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "tuple[str, ...]": lambda value: tuple(value.replace(",", " ").split()),
    "tuple[int, ...]": lambda value: tuple(int(p) for p in value.replace(",", " ").split()),
}


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    """Build a config from flat string key=value pairs (CLI config files)."""
    specs = {f.name: f for f in fields(ExperimentConfig)}
    unknown = set(raw) - set(specs)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, spec in specs.items():
        if spec.default is MISSING and key not in raw:
            raise ConfigError(f"missing required config key: {key}")
    kwargs: dict = {}
    for key, value in raw.items():
        try:
            kwargs[key] = _PARSERS[specs[key].type](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class ResultRecord:
    measure: str
    n: int
    statistic: str
    param: str
    estimate: float
    stderr: float
    reps: int
    seed: int

    def csv_row(self) -> str:
        return (
            f"{self.measure},{self.n},{self.statistic},{self.param},"
            f"{self.estimate:.12g},{self.stderr:.12g},{self.reps},{self.seed}"
        )


def _config_echo_dict(config: ExperimentConfig) -> dict:
    """Resolved config as plain data, minus execution-only keys.

    Worker count must not influence results, so it is excluded from the
    hashed/echoed view; it still appears in the JSON metadata.
    """
    d = asdict(config)
    d.pop("workers")
    d.pop("out")
    return d


def _config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(_config_echo_dict(config), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[ResultRecord]
    config_hash: str
    wall_time_s: float

    def csv_text(self) -> str:
        lines = [f"# config_hash={self.config_hash}"]
        echo = _config_echo_dict(self.config)
        for key in sorted(echo):
            value = echo[key]
            if isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            lines.append(f"# {key}={value}")
        lines.append("measure,n,statistic,param,estimate,stderr,reps,seed")
        lines.extend(r.csv_row() for r in self.records)
        return "\n".join(lines) + "\n"

    def json_text(self) -> str:
        payload = {
            "config": asdict(self.config),
            "config_hash": self.config_hash,
            "wall_time_s": self.wall_time_s,
            "records": [asdict(r) for r in self.records],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _binomial_record(
    measure: str,
    n: int,
    statistic: str,
    param: str,
    hits: int,
    reps: int,
    seed: int,
    scale: float = 1.0,
) -> ResultRecord:
    p = hits / reps
    se = math.sqrt(p * (1.0 - p) / reps)
    return ResultRecord(measure, n, statistic, param, scale * p, scale * se, reps, seed)


def _mean_record(
    measure: str,
    n: int,
    statistic: str,
    param: str,
    values: np.ndarray,
    seed: int,
) -> ResultRecord:
    reps = len(values)
    # exact integer tallies: the estimate cannot depend on summation order
    total = 0
    sq = 0
    for v in values.tolist():
        total += v
        sq += v * v
    mean = total / reps
    if reps > 1:
        var = (sq - total * total / reps) / (reps - 1)
        se = math.sqrt(max(var, 0.0) / reps)
    else:
        se = 0.0
    return ResultRecord(measure, n, statistic, param, mean, se, reps, seed)


# -- batched tree sweeps -----------------------------------------------------


def _map_jobs(job_fn, jobs: list[tuple], workers: int) -> list:
    """``job_fn(*job)`` for each job, in job order.

    A Pool hands out one job at a time, so one slow job (trajectory costs
    are heavy-tailed) does not hold back a batch of others.
    """
    if workers <= 1 or len(jobs) <= 1:
        return [job_fn(*job) for job in jobs]
    with Pool(min(workers, len(jobs))) as pool:
        return pool.starmap(job_fn, jobs, chunksize=1)


# Job functions sit at module level, where a Pool can pickle them, and look up
# what they call when they run: a wrapper put on ``rank_index_sweep_chunk`` or
# ``persistence.run_trajectory`` before the Pool forks reaches the workers.
def _rank_chunk_job(*args) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    return rank_index_sweep_chunk(*args)


def run_rank_index_sweep(
    seed: int,
    n: int,
    reps: int,
    measures: tuple[str, ...] = tuple(SWEEP_MEASURES),
    workers: int = 1,
    stream_base: int = 0,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Root rank and center index arrays over ``reps`` replicates.

    Replicate i uses stream ``stream_base + i``; chunking is a function of
    (n, reps) only, so worker count cannot reorder or regroup the draws.
    """
    rows = chunk_rows(n, reps)
    jobs = [
        (seed, n, start, stop, tuple(measures), stream_base)
        for start, stop in replicate_chunks(reps, rows)
    ]
    return _concat_stats(_map_jobs(_rank_chunk_job, jobs, workers))


def _fraction_chunk_job(seed, n, start, stop, stream_base) -> np.ndarray:
    return np.concatenate([max_root_fraction_batch(parents, n)
                           for parents in _parent_blocks(seed, n, start, stop, stream_base)])


def run_max_fraction_sweep(
    seed: int, n: int, reps: int, workers: int = 1, stream_base: int = 0
) -> np.ndarray:
    """Largest root-subtree fraction per replicate (float64 array)."""
    rows = chunk_rows(n, reps)
    jobs = [
        (seed, n, start, stop, stream_base)
        for start, stop in replicate_chunks(reps, rows)
    ]
    return np.concatenate(_map_jobs(_fraction_chunk_job, jobs, workers))


# -- tree experiments --------------------------------------------------------


def _tree_records(config: ExperimentConfig) -> list[ResultRecord]:
    kind = config.experiment
    seed = config.seed
    reps = config.reps
    records: list[ResultRecord] = []
    for gi, n in enumerate(config.n):
        stats = run_rank_index_sweep(
            config.seed,
            n,
            config.reps,
            config.measures,
            config.workers,
            stream_base=gi * _STREAM_BLOCK,
        )
        for tag in config.measures:
            rank, index = stats[tag]
            if kind == "root-center-probability":
                records.append(
                    _binomial_record(
                        tag, n, "root_center_probability", "",
                        int((rank == 1).sum()), reps, seed,
                    )
                )
            elif kind == "expected-rank":
                records.append(_mean_record(tag, n, "expected_rank", "", rank, seed))
            elif kind == "expected-center-index":
                records.append(
                    _mean_record(tag, n, "expected_center_index", "", index, seed)
                )
            elif kind == "rank-tail":
                for x in config.x_grid:
                    hits = int((rank > x).sum())
                    records.append(
                        _binomial_record(tag, n, "rank_tail", str(x), hits, reps, seed)
                    )
                    records.append(
                        _binomial_record(
                            tag, n, "scaled_rank_tail", str(x), hits, reps, seed,
                            scale=float(x),
                        )
                    )
            elif kind == "index-tail":
                for k in config.k_grid:
                    records.append(
                        _binomial_record(
                            tag, n, "index_tail", str(k),
                            int((index >= k).sum()), reps, seed,
                        )
                    )
                if n > 1:
                    med = float(np.median(index))
                    ratio = math.log(med) / math.log(n)
                    records.append(
                        ResultRecord(
                            tag, n, "median_log_index_over_log_n", "",
                            ratio, 0.0, reps, seed,
                        )
                    )
            elif kind == "confidence-coverage":
                for kk in config.coverage_k:
                    records.append(
                        _binomial_record(
                            tag, n, "coverage", str(kk),
                            int((rank <= kk).sum()), reps, seed,
                        )
                    )
    return records


# -- persistence -------------------------------------------------------------


def _trajectory_job(seed, horizon, stride, rep, keep) -> _persistence.TrajectoryResult:
    return _persistence.run_trajectory(
        horizon, RngStream(seed, rep), stride=stride, keep_series=keep, replicate=rep
    )


def _persistence_records(
    config: ExperimentConfig, keep_series: bool = False
) -> tuple[list[ResultRecord], list[_persistence.TrajectoryResult]]:
    stride = config.resolved_stride()
    jobs = [
        (config.seed, config.horizon, stride, rep, keep_series)
        for rep in range(config.trajectories)
    ]
    results = _map_jobs(_trajectory_job, jobs, config.workers)
    records = []
    reps = config.trajectories
    for tag in config.measures:
        idx_hits = sum(r.changed_index[tag] for r in results)
        rank_hits = sum(r.changed_rank[tag] for r in results)
        records.append(
            _binomial_record(
                tag, config.horizon, "index_changed_fraction", "",
                idx_hits, reps, config.seed,
            )
        )
        records.append(
            _binomial_record(
                tag, config.horizon, "rank_changed_fraction", "",
                rank_hits, reps, config.seed,
            )
        )
    return records, results


def persistence_dump_csv(results: list[_persistence.TrajectoryResult]) -> str:
    """Checkpoint table dump; requires trajectories run with series kept."""
    lines = ["replicate,n,measure,I,R"]
    for res in results:
        if res.series is None:
            raise ValueError("trajectory was run without keep_series")
        for tag in SWEEP_MEASURES:
            idx = res.series["index"][tag]
            rnk = res.series["rank"][tag]
            for pos, m in enumerate(res.checkpoints.tolist()):
                lines.append(f"{res.replicate},{m},{tag},{idx[pos]},{rnk[pos]}")
    return "\n".join(lines) + "\n"


# -- urn experiments ---------------------------------------------------------


def _hoppe_chunk_job(seed, horizon, start, stop) -> list[int]:
    out = []
    for rep in range(start, stop):
        run = _urns.hoppe_run(horizon, RngStream(seed, rep).generator())
        out.append(int(run.change_times[-1]))
    return out


def _polya_chunk_job(seed, a_index, a, threshold, horizon, start, stop) -> int:
    gens = [
        RngStream(seed, a_index * _STREAM_BLOCK + rep).generator()
        for rep in range(start, stop)
    ]
    return int(_urns.polya_diagonal_hits(a, threshold, horizon, gens).sum())


def _hoppe_records(config: ExperimentConfig) -> list[ResultRecord]:
    jobs = [
        (config.seed, config.horizon, start, stop)
        for start, stop in replicate_chunks(config.runs, _URN_CHUNK)
    ]
    last = np.concatenate(_map_jobs(_hoppe_chunk_job, jobs, config.workers))
    records = []
    for t in config.t_grid:
        records.append(
            _binomial_record(
                "hoppe", config.horizon, "leader_change_after", str(t),
                int((last > t).sum()), config.runs, config.seed,
            )
        )
    return records


def _polya_records(config: ExperimentConfig) -> list[ResultRecord]:
    jobs = []
    for ai, a in enumerate(config.urn_a):
        for start, stop in replicate_chunks(config.runs, _URN_CHUNK):
            jobs.append(
                (config.seed, ai, a, config.threshold, config.horizon, start, stop)
            )
    hits = np.reshape(_map_jobs(_polya_chunk_job, jobs, config.workers), (len(config.urn_a), -1))
    records = []
    for a, a_hits in zip(config.urn_a, hits.sum(axis=1).tolist()):
        records.append(
            _binomial_record(
                "polya", config.horizon, "diagonal_hit", str(a),
                a_hits, config.runs, config.seed,
            )
        )
    return records


# -- dispatcher --------------------------------------------------------------


def run_experiment(
    config: ExperimentConfig, keep_series: bool = False
) -> tuple[ExperimentResult, list[_persistence.TrajectoryResult]]:
    """Run one experiment; returns the result and any trajectory set.

    The trajectory list is non-empty only for the persistence kind (and
    carries per-checkpoint series when ``keep_series`` is set).
    """
    t0 = time.monotonic()
    trajectories: list[_persistence.TrajectoryResult] = []
    if config.experiment == "persistence":
        records, trajectories = _persistence_records(config, keep_series)
    elif config.experiment == "hoppe-leader-change":
        records = _hoppe_records(config)
    elif config.experiment == "polya-diagonal-hit":
        records = _polya_records(config)
    else:
        records = _tree_records(config)
    result = ExperimentResult(
        config=config,
        records=records,
        config_hash=_config_hash(config),
        wall_time_s=time.monotonic() - t0,
    )
    return result, trajectories
