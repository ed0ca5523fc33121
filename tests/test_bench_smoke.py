"""Smoke run of the benchmark against the program in ``src``.

The benchmark imports, taps and wraps rootrank names from outside the
package (``bench/workloads.py``, ``bench/spans.py``).  A traced run of the
small sweep, with its side probes, goes through every one of them, so a
change that removes or rebinds such a name fails here before it fails
the benchmark.  The run writes one record under ``bench/out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Spans a traced run reports only while the tracer's wrappers are called.
_WRAPPED_SPANS = (
    "engine.generate_s",
    "engine.rank_all_s",
    "centrality.rumor_scores_s",
    "centrality.rumor_rank_s",
    "persistence.checkpoint_s",
)


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_selftest_passes():
    done = _bench("bench/selftest.py")
    assert done.returncode == 0, done.stdout + done.stderr


def test_traced_sweep_run():
    done = _bench("bench/run.py", "--workload", "sweep-n1e3", "--seed", "1",
                  "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0, done.stderr
    assert result["attempted"] > 0
    for name in _WRAPPED_SPANS:
        assert result["metrics"][name]["value"] > 0, name
