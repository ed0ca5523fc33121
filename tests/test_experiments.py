"""Experiment configs, runners, and the determinism contract.

The worker count is an execution detail: identical seeds must yield
byte-identical CSV output no matter how the chunks are farmed out.
"""

import json
import math

import numpy as np
import pytest

from rootrank import (
    ExperimentConfig,
    RngStream,
    compute_profile,
    generate_parent_matrix,
    grow_urrt,
    rank_index_batch,
    run_experiment,
)
from rootrank.centrality import SWEEP_MEASURES, jordan_scores
from rootrank.engine import chunk_rows, replicate_chunks
from rootrank.experiments import (
    ConfigError,
    _config_hash,
    _mean_record,
    config_from_mapping,
    persistence_dump_csv,
    run_max_fraction_sweep,
    run_rank_index_sweep,
)


# A sweep of 9000 replicates at n = 20 runs as three chunks; _LATER holds
# replicates after the first one: chunk edges and a seeded sample.
_N, _REPS = 20, 9000
_LATER = sorted({4096, 8191, 8192, 8999, *np.random.default_rng(0).integers(4097, 8999, 6).tolist()})


def _cfg(**overrides):
    base = dict(experiment="root-center-probability", seed=11,
                n=(200,), reps=120, measures=("jordan", "degree"))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_experiment_names_kinds(self):
        with pytest.raises(ConfigError, match="root-center-probability"):
            ExperimentConfig(experiment="center-probability", seed=1)

    def test_unknown_measure(self):
        with pytest.raises(ConfigError, match="unknown measures"):
            _cfg(measures=("jordan", "pagerank"))

    def test_repeated_measure_named(self):
        with pytest.raises(ConfigError, match=r"repeated measures: \['jordan'\]"):
            _cfg(measures=("jordan", "jordan", "degree"))

    def test_count_floors(self):
        for key in ("reps", "workers", "horizon", "trajectories", "runs"):
            with pytest.raises(ConfigError, match=key):
                _cfg(**{key: 0})

    @pytest.mark.parametrize("key", ["reps", "runs"])
    def test_counts_fit_stream_block(self, key):
        # one grid cell's replicates take stream ids block * 2**32 + i
        _cfg(**{key: 2**32})
        with pytest.raises(ConfigError, match=f"{key} must be <= 4294967296"):
            _cfg(**{key: 2**32 + 1})

    def test_threshold_open_interval(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigError, match="threshold"):
                _cfg(threshold=bad)

    def test_grids_strictly_increasing(self):
        with pytest.raises(ConfigError, match="x_grid"):
            _cfg(x_grid=(1, 5, 5))
        with pytest.raises(ConfigError, match="n must be"):
            _cfg(n=(1000, 100))
        with pytest.raises(ConfigError, match="urn_a"):
            _cfg(urn_a=())

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            _cfg(seed=2**64)
        with pytest.raises(ConfigError, match="seed"):
            _cfg(seed=-1)

    def test_stride_resolution(self):
        assert _cfg(horizon=500, stride=0).resolved_stride() == 1
        assert _cfg(horizon=100_000, stride=0).resolved_stride() == 16
        assert _cfg(horizon=100_000, stride=40).resolved_stride() == 40
        with pytest.raises(ConfigError, match="stride"):
            _cfg(stride=-1)

    def test_persistence_stride_divides_horizon(self):
        # Checked before any trajectory runs; stride 0 resolves to 16 here.
        with pytest.raises(ConfigError, match="stride 16 .* horizon 10001"):
            _cfg(experiment="persistence", horizon=10_001, stride=0)
        with pytest.raises(ConfigError, match="stride 7 .* horizon 60"):
            _cfg(experiment="persistence", horizon=60, stride=7)
        # The urn kinds read the horizon too, but take no stride.
        _cfg(experiment="hoppe-leader-change", horizon=10_001)


class TestConfigMapping:
    def test_round_trip(self):
        cfg = config_from_mapping({
            "experiment": "rank-tail",
            "seed": "99",
            "n": "100, 200 400",
            "measures": "jordan closeness",
            "reps": "50",
            "x_grid": "1,2,3",
            "threshold": "0.25",
        })
        assert cfg.n == (100, 200, 400)
        assert cfg.measures == ("jordan", "closeness")
        assert cfg.reps == 50 and cfg.threshold == 0.25
        assert cfg.k_grid == ExperimentConfig("rank-tail", 0).k_grid

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_mapping({"experiment": "rank-tail"})
        with pytest.raises(ConfigError, match="experiment"):
            config_from_mapping({"seed": "4"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="nreps"):
            config_from_mapping({"experiment": "rank-tail", "seed": "1", "nreps": "9"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="bad value for reps"):
            config_from_mapping({"experiment": "rank-tail", "seed": "1", "reps": "ten"})


class TestHashAndFormat:
    def test_hash_ignores_workers_and_out(self):
        a = _config_hash(_cfg(workers=1, out=""))
        b = _config_hash(_cfg(workers=7, out="/tmp/x.csv"))
        assert a == b
        assert a != _config_hash(_cfg(seed=12))

    def test_csv_layout(self):
        result, _ = run_experiment(_cfg())
        lines = result.csv_text().splitlines()
        assert lines[0] == f"# config_hash={result.config_hash}"
        echo = [ln for ln in lines if ln.startswith("# ") and "=" in ln]
        keys = [ln[2:].split("=")[0] for ln in echo[1:]]
        assert keys == sorted(keys)
        assert "workers" not in keys and "out" not in keys
        header_at = lines.index("measure,n,statistic,param,estimate,stderr,reps,seed")
        body = lines[header_at + 1:]
        assert len(body) == len(result.records)
        assert all(len(row.split(",")) == 8 for row in body)

    def test_json_carries_execution_metadata(self):
        result, _ = run_experiment(_cfg(workers=2))
        payload = json.loads(result.json_text())
        assert payload["config"]["workers"] == 2
        assert payload["config_hash"] == result.config_hash
        assert payload["wall_time_s"] >= 0.0
        assert len(payload["records"]) == len(result.records)


class TestMeanRecord:
    def test_exact_moments(self):
        rec = _mean_record("m", 10, "s", "", np.array([1, 2, 3, 4]), 0)
        assert rec.estimate == 2.5
        assert math.isclose(rec.stderr, math.sqrt((5 / 3) / 4))

    def test_single_value(self):
        rec = _mean_record("m", 10, "s", "", np.array([6]), 0)
        assert rec.estimate == 6.0 and rec.stderr == 0.0


class TestSweeps:
    def test_rank_sweep_equals_direct_batch(self):
        stats = run_rank_index_sweep(13, 60, 10, stream_base=40)
        parents = generate_parent_matrix(13, 60, 0, 10, stream_base=40)
        direct = rank_index_batch(parents, 60)
        for tag in stats:
            assert stats[tag][0].tolist() == direct[tag][0].tolist()
            assert stats[tag][1].tolist() == direct[tag][1].tolist()

    def test_fraction_sweep_matches_per_tree(self):
        frac = run_max_fraction_sweep(21, 90, 12)
        for i in range(12):
            tree = grow_urrt(90, RngStream(21, i))
            # Jordan's root score is the largest root subtree.
            assert frac[i] == jordan_scores(tree)[1] / 90

    def test_fraction_sweep_worker_invariant(self):
        a = run_max_fraction_sweep(5, 300, 40, workers=1)
        b = run_max_fraction_sweep(5, 300, 40, workers=3)
        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_rank_sweep_later_chunks_match_per_tree(self, workers):
        chunks = replicate_chunks(_REPS, chunk_rows(_N, _REPS))
        assert chunks == [(0, 4096), (4096, 8192), (8192, 9000)]
        # A chunk reassembled out of order puts other trees at these slots.
        stats = run_rank_index_sweep(17, _N, _REPS, workers=workers, stream_base=500)
        for tag in SWEEP_MEASURES:
            assert stats[tag][0].shape == stats[tag][1].shape == (_REPS,)
        for i in _LATER:
            tree = grow_urrt(_N, RngStream(17, 500 + i))
            for tag, measure in SWEEP_MEASURES.items():
                report = compute_profile(tree, measure).report
                assert stats[tag][0][i] == report.root_rank, (tag, i)
                assert stats[tag][1][i] == report.center_index, (tag, i)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_fraction_sweep_later_chunks_match_per_tree(self, workers):
        frac = run_max_fraction_sweep(19, _N, _REPS, workers=workers, stream_base=700)
        assert frac.shape == (_REPS,)
        for i in _LATER:
            tree = grow_urrt(_N, RngStream(19, 700 + i))
            assert frac[i] == jordan_scores(tree)[1] / _N, i


class TestTreeExperimentStats:
    def test_probability_record(self):
        cfg = _cfg(measures=("jordan",))
        result, _ = run_experiment(cfg)
        (rec,) = result.records
        ranks = run_rank_index_sweep(cfg.seed, 200, cfg.reps, ("jordan",))["jordan"][0]
        p = float((ranks == 1).mean())
        assert rec.statistic == "root_center_probability"
        assert rec.estimate == p
        assert math.isclose(rec.stderr, math.sqrt(p * (1 - p) / cfg.reps))

    def test_expected_rank_matches_mean(self):
        cfg = _cfg(experiment="expected-rank", measures=("closeness",))
        result, _ = run_experiment(cfg)
        (rec,) = result.records
        ranks = run_rank_index_sweep(cfg.seed, 200, cfg.reps, ("closeness",))
        assert rec.estimate == float(np.mean(ranks["closeness"][0]))

    def test_tail_extremes(self):
        cfg = _cfg(experiment="rank-tail", measures=("jordan",),
                   n=(40,), x_grid=(1, 40))
        result, _ = run_experiment(cfg)
        by_param = {(r.statistic, r.param): r for r in result.records}
        assert by_param[("rank_tail", "40")].estimate == 0.0  # rank <= n always
        p1 = by_param[("rank_tail", "1")].estimate
        assert by_param[("scaled_rank_tail", "1")].estimate == p1
        assert by_param[("scaled_rank_tail", "40")].estimate == 0.0

    def test_index_tail_extremes_and_median(self):
        cfg = _cfg(experiment="index-tail", measures=("degree",),
                   n=(40,), k_grid=(1, 41))
        result, _ = run_experiment(cfg)
        by = {(r.statistic, r.param): r for r in result.records}
        assert by[("index_tail", "1")].estimate == 1.0  # labels start at 1
        assert by[("index_tail", "41")].estimate == 0.0
        med = by[("median_log_index_over_log_n", "")]
        assert 0.0 <= med.estimate <= 1.0 and med.stderr == 0.0

    def test_coverage_full_set(self):
        cfg = _cfg(experiment="confidence-coverage", measures=("rumor",),
                   n=(30,), coverage_k=(1, 30))
        result, _ = run_experiment(cfg)
        by = {r.param: r for r in result.records}
        assert by["30"].estimate == 1.0  # the whole vertex set always covers
        assert 0.0 <= by["1"].estimate <= 1.0

    def test_per_n_records_in_grid_order(self):
        cfg = _cfg(experiment="expected-rank", n=(50, 80), measures=("jordan",))
        result, _ = run_experiment(cfg)
        assert [r.n for r in result.records] == [50, 80]


class TestWorkerDeterminism:
    @pytest.mark.parametrize("kind,extra", [
        ("root-center-probability", dict(n=(150,), reps=90)),
        ("rank-tail", dict(n=(60,), reps=90, x_grid=(1, 5, 10))),
        ("persistence", dict(horizon=300, stride=10, trajectories=24)),
        ("hoppe-leader-change", dict(horizon=400, runs=40, t_grid=(10, 100))),
        ("polya-diagonal-hit", dict(horizon=300, runs=40, urn_a=(1, 2))),
        # at least three chunks each, so workers=3 runs them on a Pool
        ("expected-center-index", dict(n=(_N,), reps=_REPS)),
        ("hoppe-leader-change", dict(horizon=400, runs=300, t_grid=(10, 100))),
        ("polya-diagonal-hit", dict(horizon=300, runs=300, urn_a=(1, 2))),
    ])
    def test_csv_identical_across_worker_counts(self, kind, extra):
        r1, _ = run_experiment(ExperimentConfig(experiment=kind, seed=3, workers=1, **extra))
        r3, _ = run_experiment(ExperimentConfig(experiment=kind, seed=3, workers=3, **extra))
        assert r1.csv_text() == r3.csv_text()


class TestPersistenceExperiment:
    def test_summary_counts_trajectory_flags(self):
        cfg = ExperimentConfig(experiment="persistence", seed=8,
                               horizon=200, stride=5, trajectories=12)
        result, trajectories = run_experiment(cfg)
        assert len(trajectories) == 12
        assert len(result.records) == 10  # 5 measures x (index, rank)
        by = {(r.measure, r.statistic): r for r in result.records}
        for tag in ("jordan", "closeness", "rumor", "betweenness", "degree"):
            hits = sum(t.changed_index[tag] for t in trajectories)
            rec = by[(tag, "index_changed_fraction")]
            assert rec.estimate == hits / 12
            assert rec.n == 200 and rec.reps == 12

    def test_summary_follows_measures(self):
        cfg = ExperimentConfig(experiment="persistence", seed=8, horizon=200,
                               stride=5, trajectories=4, measures=("rumor", "jordan"))
        result, _ = run_experiment(cfg)
        assert [(r.measure, r.statistic) for r in result.records] == [
            ("rumor", "index_changed_fraction"), ("rumor", "rank_changed_fraction"),
            ("jordan", "index_changed_fraction"), ("jordan", "rank_changed_fraction"),
        ]
        full, _ = run_experiment(ExperimentConfig(experiment="persistence", seed=8,
                                                  horizon=200, stride=5, trajectories=4))
        by = {(r.measure, r.statistic): r for r in full.records}
        assert result.records == [by[(r.measure, r.statistic)] for r in result.records]

    def test_dump_requires_series(self):
        cfg = ExperimentConfig(experiment="persistence", seed=8,
                               horizon=60, stride=6, trajectories=2)
        _, bare = run_experiment(cfg)
        with pytest.raises(ValueError, match="keep_series"):
            persistence_dump_csv(bare)
        _, kept = run_experiment(cfg, keep_series=True)
        lines = persistence_dump_csv(kept).splitlines()
        assert lines[0] == "replicate,n,measure,I,R"
        assert len(lines) == 1 + 2 * 5 * 10  # trajectories x measures x checkpoints
        rep, m, tag, i_val, r_val = lines[1].split(",")
        assert (rep, m, tag) == ("0", "6", "jordan")
        assert int(i_val) >= 1 and int(r_val) >= 1


class TestUrnExperiments:
    def test_hoppe_record_shape(self):
        cfg = ExperimentConfig(experiment="hoppe-leader-change", seed=5,
                               horizon=500, runs=60, t_grid=(10, 50, 200))
        result, _ = run_experiment(cfg)
        assert [r.param for r in result.records] == ["10", "50", "200"]
        ests = [r.estimate for r in result.records]
        assert all(0.0 <= e <= 1.0 for e in ests)
        assert ests[0] >= ests[1] >= ests[2]  # tail in t is monotone
        assert all(r.measure == "hoppe" and r.n == 500 for r in result.records)

    def test_polya_record_shape(self):
        cfg = ExperimentConfig(experiment="polya-diagonal-hit", seed=5,
                               horizon=400, runs=60, urn_a=(1, 3), threshold=0.5)
        result, _ = run_experiment(cfg)
        assert [r.param for r in result.records] == ["1", "3"]
        assert all(r.measure == "polya" for r in result.records)
        assert all(0.0 <= r.estimate <= 1.0 for r in result.records)
