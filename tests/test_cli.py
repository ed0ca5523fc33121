"""End-to-end CLI behavior through in-process main() calls.

Covers the frozen output formats, the exit-code contract (0 ok, 2 usage
or parse, 3 numeric guard, 4 verification failure), and file emission.
"""

import json

import numpy as np
import pytest

from rootrank.centrality import jordan_scores
from rootrank.cli import main

T4_EDGES = "4\n2 1\n3 1\n4 3\n"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_stdout_tree_stderr_meta(self, capsys):
        code, out, err = _run(capsys, "generate", "--n", "2", "--seed", "5")
        assert code == 0
        assert out == "2\n2 1\n"
        assert err == "# generate n=2 seed=5 out=-\n"

    def test_same_seed_same_tree(self, capsys):
        _, out1, _ = _run(capsys, "generate", "--n", "30", "--seed", "9")
        _, out2, _ = _run(capsys, "generate", "--n", "30", "--seed", "9")
        assert out1 == out2
        _, out3, _ = _run(capsys, "generate", "--n", "30", "--seed", "10")
        assert out1 != out3

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "tree.txt"
        code, out, err = _run(capsys, "generate", "--n", "4", "--seed", "1",
                              "--out", str(path))
        assert code == 0
        assert out == f"# generate n=4 seed=1 out={path}\n"
        text = path.read_text()
        assert text.startswith("4\n") and text.endswith("\n")

    def test_bad_n(self, capsys):
        code, _, err = _run(capsys, "generate", "--n", "0", "--seed", "1")
        assert code == 2
        assert err.startswith("error:") and "--n" in err

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = _run(capsys, "generate", "--n", "3", "--seed", "1",
                            "--out", str(tmp_path / "no" / "dir.txt"))
        assert code == 2
        assert err.startswith("error:")


class TestCentrality:
    @pytest.fixture
    def t4_file(self, tmp_path):
        path = tmp_path / "t4.txt"
        path.write_text(T4_EDGES)
        return str(path)

    def test_single_measure_report_and_csv(self, capsys, t4_file, tmp_path):
        out_csv = tmp_path / "scores.csv"
        code, out, _ = _run(capsys, "centrality", "--in", t4_file,
                            "--measure", "jordan", "--out", str(out_csv))
        assert code == 0
        assert out == "# jordan I=3 R=2 center_set=1,3\n"
        lines = out_csv.read_text().splitlines()
        assert lines[0] == f"# centrality in={t4_file} measure=jordan q=3"
        assert lines[1] == "# measure=jordan"
        assert lines[2] == "vertex,score,rank"
        assert len(lines) == 3 + 4

    def test_all_measures_block_order(self, capsys, t4_file):
        code, out, _ = _run(capsys, "centrality", "--in", t4_file)
        assert code == 0
        lines = out.splitlines()
        blocks = [ln.split("=")[1] for ln in lines if ln.startswith("# measure=")]
        expected = ["jordan", "closeness", "rumor", "betweenness-sq",
                    "betweenness-pairs", "degree", "betweenness-q3"]
        assert blocks == expected
        reports = [ln.split()[1] for ln in lines if " I=" in ln]
        assert reports == expected

    def test_q_flag_changes_tag(self, capsys, t4_file):
        code, out, _ = _run(capsys, "centrality", "--in", t4_file,
                            "--measure", "betweenness-q", "--q", "5")
        assert code == 0
        assert "# measure=betweenness-q5" in out.splitlines()
        assert out.splitlines()[-1].startswith("# betweenness-q5 I=")

    def test_parse_error_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n2 1\nx 1\n")
        code, _, err = _run(capsys, "centrality", "--in", str(bad))
        assert code == 2
        assert err.startswith("error:") and "line 3" in err

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, "centrality", "--in", "/nonexistent.txt")
        assert code == 2
        assert err.startswith("error:")

    def test_overflow_guard_exit_code(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        _run(capsys, "generate", "--n", "500", "--seed", "3", "--out", str(path))
        code, _, err = _run(capsys, "centrality", "--in", str(path),
                            "--measure", "betweenness-q", "--q", "70")
        assert code == 3
        assert err.startswith("error:")


class TestSampleDickman:
    def test_values(self, capsys):
        code, out, _ = _run(capsys, "sample-dickman", "--count", "5", "--seed", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# sample-dickman count=5 seed=2"
        values = [float(v) for v in lines[1:]]
        assert len(values) == 5
        assert all(0.0 < v <= 1.0 for v in values)

    def test_bad_count(self, capsys):
        code, _, err = _run(capsys, "sample-dickman", "--count", "0", "--seed", "2")
        assert code == 2 and "--count" in err


class TestUrn:
    def test_polya_rows_conserve(self, capsys):
        code, out, _ = _run(capsys, "urn", "--kind", "polya", "--steps", "4",
                            "--seed", "3", "--a", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# urn kind=polya a=2 steps=4 record_every=1 seed=3"
        assert lines[1] == "t,x,y"
        rows = [tuple(int(c) for c in ln.split(",")) for ln in lines[2:]]
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
        assert all(x + y == 3 + t for t, x, y in rows)

    def test_polya_record_every_keeps_final(self, capsys):
        code, out, _ = _run(capsys, "urn", "--kind", "polya", "--steps", "10",
                            "--seed", "3", "--record-every", "3")
        assert code == 0
        times = [int(ln.split(",")[0]) for ln in out.splitlines()[2:]]
        assert times == [0, 3, 6, 9, 10]

    def test_hoppe_rows(self, capsys):
        code, out, _ = _run(capsys, "urn", "--kind", "hoppe", "--steps", "3",
                            "--seed", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "t,num_colors,leader,leader_count"
        rows = [tuple(int(c) for c in ln.split(",")) for ln in lines[2:]]
        assert [r[0] for r in rows] == [0, 1, 2, 3]
        assert rows[0][1:] == (0, 0, 0)
        assert all(r[3] <= r[0] for r in rows)

    def test_bad_args(self, capsys):
        code, _, err = _run(capsys, "urn", "--kind", "polya", "--steps", "0",
                            "--seed", "1")
        assert code == 2 and "--steps" in err
        code, _, err = _run(capsys, "urn", "--kind", "polya", "--steps", "5",
                            "--seed", "1", "--a", "0")
        assert code == 2 and "--a" in err


class TestExperiment:
    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# small smoke config\n"
            "\n"
            "experiment = root-center-probability\n"
            "seed = 7\n"
            "n = 60\n"
            "reps = 40\n"
            "measures = jordan\n"
        )
        return str(path)

    def test_stdout_csv(self, capsys, config_file):
        code, out, _ = _run(capsys, "experiment", "--config", config_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config_hash=")
        assert "measure,n,statistic,param,estimate,stderr,reps,seed" in lines
        row = lines[-1].split(",")
        assert row[0] == "jordan" and row[1] == "60"
        assert row[2] == "root_center_probability"
        assert row[6] == "40" and row[7] == "7"

    def test_out_writes_csv_and_json(self, capsys, config_file, tmp_path):
        out_csv = tmp_path / "result.csv"
        code, _, _ = _run(capsys, "experiment", "--config", config_file,
                          "--out", str(out_csv))
        assert code == 0
        assert out_csv.exists()
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["config"]["experiment"] == "root-center-probability"
        assert payload["config"]["out"] == str(out_csv)
        assert len(payload["records"]) == 1

    def test_seed_override(self, capsys, config_file):
        code, out, _ = _run(capsys, "experiment", "--config", config_file,
                            "--seed", "123")
        assert code == 0
        assert "# seed=123" in out.splitlines()
        assert out.splitlines()[-1].endswith(",123")

    def test_workers_do_not_change_bytes(self, capsys, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _run(capsys, "experiment", "--config", config_file, "--workers", "1",
             "--out", str(a))
        _run(capsys, "experiment", "--config", config_file, "--workers", "3",
             "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_seed_names_key(self, capsys, tmp_path):
        cfg = tmp_path / "no_seed.cfg"
        cfg.write_text("experiment = rank-tail\n")
        code, _, err = _run(capsys, "experiment", "--config", str(cfg))
        assert code == 2
        assert "missing required config key: seed" in err

    def test_unknown_key_named(self, capsys, tmp_path):
        cfg = tmp_path / "bad_key.cfg"
        cfg.write_text("experiment = rank-tail\nseed = 1\nrepz = 10\n")
        code, _, err = _run(capsys, "experiment", "--config", str(cfg))
        assert code == 2 and "repz" in err

    def test_repeated_measure_named(self, capsys, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("experiment = rank-tail\nseed = 1\nmeasures = jordan, jordan, degree\n")
        code, _, err = _run(capsys, "experiment", "--config", str(cfg))
        assert code == 2 and "repeated measures: ['jordan']" in err

    def test_syntax_error_names_location(self, capsys, tmp_path):
        cfg = tmp_path / "syntax.cfg"
        cfg.write_text("experiment = rank-tail\nseed 1\n")
        code, _, err = _run(capsys, "experiment", "--config", str(cfg))
        assert code == 2
        assert f"{cfg}:2" in err


class TestPersistence:
    def test_records_and_dump(self, capsys, tmp_path):
        out_csv = tmp_path / "pers.csv"
        dump_csv = tmp_path / "dump.csv"
        code, _, _ = _run(capsys, "persistence", "--horizon", "60",
                          "--trajectories", "2", "--stride", "6", "--seed", "9",
                          "--out", str(out_csv), "--dump", str(dump_csv))
        assert code == 0
        body = [ln for ln in out_csv.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert body[0] == "measure,n,statistic,param,estimate,stderr,reps,seed"
        assert len(body) == 1 + 10  # 5 measures x (index, rank)
        dump = dump_csv.read_text().splitlines()
        assert dump[0] == "replicate,n,measure,I,R"
        assert len(dump) == 1 + 2 * 5 * 10
        assert (tmp_path / "pers.json").exists()

    def test_stride_must_divide(self, capsys):
        code, _, err = _run(capsys, "persistence", "--horizon", "60",
                            "--trajectories", "1", "--stride", "7", "--seed", "1")
        assert code == 2 and "stride" in err
        # No stride given: the automatic one (16) must divide the horizon too.
        code, _, err = _run(capsys, "persistence", "--horizon", "10001",
                            "--trajectories", "1", "--seed", "1")
        assert code == 2 and "stride 16" in err and "10001" in err


class TestVerify:
    def test_small_pass(self, capsys):
        code, out, _ = _run(capsys, "verify", "--max-n", "4")
        assert code == 0
        assert out == "6 trees at n=4: all measures agree\n"

    def test_corrupted_scorer_fails(self, capsys, monkeypatch):
        real = jordan_scores

        def crooked(tree, sizes=None):
            scores = real(tree, sizes).copy()
            if tree.n >= 3:
                scores[2] += 1
            return scores

        monkeypatch.setattr("rootrank.centrality.jordan_scores", crooked)
        code, _, err = _run(capsys, "verify", "--max-n", "4")
        assert code == 4
        assert err.startswith("verification failed:")
