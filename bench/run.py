"""Run one rootrank benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep-n1e4 --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the program is imported from its
``src`` directory, never from an installed copy.  With ``--trace 0`` the
run reports the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it measures the workload untraced and then traced for half
the time each, and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it, starting
``bench-record``, holds the environment, the per-call samples and, when
traced, the tracing overhead; the same record is written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s; the run reports their median.
SETUP_SAMPLES = 3
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import rootrank, workloads
workloads.WORKLOADS[{name!r}].warm()
print(repr(time.perf_counter() - t0))
"""


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_seconds(name: str) -> list[float]:
    """Import plus warm-up time of the workload in fresh interpreters."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name)
    out = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
    }


def timed_loop(workload, seed: int, seconds: float, tracer, ops: list) -> float:
    """Call the workload until ``seconds`` have passed; returns the peak RSS seen."""
    from workloads import op_seed

    peak = 0.0
    start = time.perf_counter()
    k = 0
    while True:
        op = workload.run(op_seed(seed, k), tracer)
        peak = max(peak, peak_rss_mb())
        workload.settle(op)
        ops.append(op)
        k += 1
        if time.perf_counter() - start >= seconds:
            return peak


def vertices_per_s(ops) -> float:
    """Median over the run's calls of vertices per second of the call."""
    return statistics.median(op.vertices / op.wall for op in ops)


def aggregate(ops) -> dict[str, float]:
    """Per-layer values: the slowest sample for a tail, else the median."""
    samples: dict[str, list[float]] = {}
    for op in ops:
        for name, values in op.layers.items():
            samples.setdefault(name, []).extend(values)
    return {name: (max(v) if name.endswith("_tail_s") else statistics.median(v))
            for name, v in samples.items()}


def traced_layers(workload, seed: int, seconds: float, ops: list) -> tuple[dict, list[str]]:
    """Traced calls for ``seconds``, then the workload's single-layer probe."""
    from spans import Tracer

    tracer = Tracer()
    workload.trace(tracer)
    try:
        timed_loop(workload, seed, seconds, tracer, ops)
    finally:
        tracer.restore()
    layers = aggregate(ops)
    extra, problems = workload.probe(ops)
    layers.update(extra)
    return layers, problems


def side_layers(seed: int, missing: list[str]) -> dict[str, float]:
    """Time the layers the workload does not exercise on small probe instances."""
    from workloads import SIDE_PROBES

    out = {}
    for probe in SIDE_PROBES:
        names = [m for m in probe.layer_names if m in missing and m not in out]
        if not names:
            continue
        probe.prepare()
        try:
            ops: list = []
            layers, _ = traced_layers(probe, seed, 0.0, ops)
        finally:
            probe.close()
        out.update({m: layers[m] for m in names})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.seed < 0:
        parser.error("seed must be >= 0")
    if not (SRC / "rootrank" / "__init__.py").is_file():
        print(f"run.py: no rootrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rootrank

    if Path(rootrank.__file__).resolve().parent != (SRC / "rootrank").resolve():
        print(f"run.py: rootrank imported from {rootrank.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              **environment(args.seed)}
    ops: list = []
    workload.prepare()
    try:
        workload.warm()
        if args.trace == 0:
            peak = timed_loop(workload, args.seed, args.seconds, None, ops)
            setup = setup_seconds(args.workload)
            values = {"setup_s": statistics.median(setup), "vertices_per_s": vertices_per_s(ops),
                      "peak_rss_mb": peak}
            record["setup_samples_s"] = setup
            wanted = spec["end_to_end"]
            problems: list[str] = []
        else:
            timed_loop(workload, args.seed, args.seconds / 2, None, ops)
            plain = vertices_per_s(ops)
            traced: list = []
            values, problems = traced_layers(workload, args.seed, args.seconds / 2, traced)
            record["vertices_per_s_untraced"] = plain
            record["vertices_per_s_traced"] = vertices_per_s(traced)
            record["tracing_overhead"] = 1.0 - record["vertices_per_s_traced"] / plain
            ops += traced
            wanted = spec["per_layer"]
            missing = [m["name"] for m in wanted if m["name"] not in values]
            values.update(side_layers(args.seed, missing))
        problems += workload.finish(ops)
    finally:
        workload.close()

    attempted = sum(op.count for op in ops)
    failed = sum(op.failed for op in ops)
    op_problems = [msg for op in ops for msg in op.problems]
    for msg in problems + op_problems:
        print(f"check failed: {msg}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(attempted=attempted, failed=failed, problems=problems + op_problems,
                  calls=[{"seed": op.seed, "vertices": op.vertices, "wall_s": op.wall,
                          "count": op.count, "failed": op.failed} for op in ops],
                  metrics=metrics)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("bench-record " + json.dumps(record))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
