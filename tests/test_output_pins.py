"""Output bytes pinned across commits.

Criterion 14 compares outputs of one commit under different worker
counts; these hashes tie the sweep CSV, the persistence CSV, the
``centrality --measure all`` output, the batch engine's rank and index
arrays and the Hoppe urn's CSV and ``urn`` output to fixed values, so a
refactor that changes a single byte of them fails here.  The first
three were taken before the measure registry, the draw-to-parent map
and the engine's size pass were each moved to one place; the engine's
before its ranks moved to local walks; the Hoppe ones from the per-ball
loop, before the urn was read off the root subtrees of ``grow_urrt``.
The 300-vertex ``centrality`` tree is 11 levels deep and the
20000-vertex one was pinned from the vertex loops the per-level passes
replaced.
"""

import hashlib

import numpy as np
import pytest

from rootrank import ExperimentConfig, RngStream, grow_urrt, run_experiment
from rootrank.centrality import SWEEP_MEASURES
from rootrank.cli import main
from rootrank.engine import rank_index_sweep_chunk
from rootrank.tree import write_edge_list


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize(
    "n,rows,digest",
    [
        (1_000, 4096, "b6b8e20d0b2145e4def359d4861084aabfe3b156cf524d304a6ca458619decb4"),
        (10_000, 200, "6692b5fa7bb199ca3876c3b7251f0c318fa384f9bf82ecec7577f232639de89c"),
    ],
)
def test_engine_arrays_bytes(n, rows, digest):
    # rank then index, int64, for each measure in SWEEP_MEASURES order
    stats = rank_index_sweep_chunk(7, n, 0, rows)
    h = hashlib.sha256()
    for tag in SWEEP_MEASURES:
        for arr in stats[tag]:
            assert arr.dtype == np.int64 and arr.shape == (rows,)
            h.update(arr.tobytes())
    assert h.hexdigest() == digest


def test_sweep_csv_bytes():
    config = ExperimentConfig(
        experiment="root-center-probability", seed=5, n=(50, 200), reps=300
    )
    assert _sha256(run_experiment(config)[0].csv_text()) == (
        "b93aaf7c1f39d24856ccf7b4d6926f45bc1316c80a0544784fe19d3f2652c23b"
    )


def test_persistence_csv_bytes():
    config = ExperimentConfig(
        experiment="persistence", seed=5, horizon=512, stride=16, trajectories=8
    )
    assert _sha256(run_experiment(config)[0].csv_text()) == (
        "498c7eec5ca88c14d8faeac062191bb4520b1ea0951e380dbd1a48aadf0488d2"
    )


def test_hoppe_csv_bytes():
    # 300 runs are three urn chunks.
    config = ExperimentConfig(
        experiment="hoppe-leader-change", seed=5, horizon=2_000, runs=300,
        t_grid=(10, 100, 1_000),
    )
    assert _sha256(run_experiment(config)[0].csv_text()) == (
        "6f6e9233cfacd5f40d28c9246d6f4768a8a7070721b7f9532770cc0de5dcf858"
    )


def test_hoppe_urn_stdout_bytes(capsys):
    assert main(["urn", "--kind", "hoppe", "--steps", "5000", "--seed", "4"]) == 0
    assert _sha256(capsys.readouterr().out) == (
        "7db4b234044d1fcfca9265e9e157129cad1555a6a96849b63d2a7cfa1c7971d8"
    )


def _centrality_all(capsys, tmp_path, monkeypatch, tree) -> tuple[str, str]:
    # Relative paths keep the CSV's metadata line free of the temp directory.
    monkeypatch.chdir(tmp_path)
    write_edge_list(tree, "tree.txt")
    assert main(["centrality", "--in", "tree.txt", "--out", "profile.csv"]) == 0
    return _sha256(capsys.readouterr().out), _sha256((tmp_path / "profile.csv").read_text())


def test_centrality_all_bytes(capsys, tmp_path, monkeypatch):
    tree = grow_urrt(300, RngStream(5))
    assert _centrality_all(capsys, tmp_path, monkeypatch, tree) == (
        "5343113af6e85199e884a33293969dc5eee72e93b4d0de50909fba6c15b2b9f4",
        "bc5a94c11938d4be5d0c1eff2bb3f0f7bf062b59a06421614550ffbff4c90506",
    )


def test_centrality_all_bytes_level_passes(capsys, tmp_path, monkeypatch):
    # Taken before the per-level passes existed, from the vertex loops.
    tree = grow_urrt(20_000, RngStream(5))
    assert _centrality_all(capsys, tmp_path, monkeypatch, tree) == (
        "b2eb943bd2bd8457734ac50427432994d76dca83cb99f1c0174143c5ebbc1cbd",
        "c66fd46bfbafdc9c577b4dc371ac1d43939992fa1389c498ff5e921b0de9d335",
    )
