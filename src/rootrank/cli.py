"""Command-line interface.

Exit codes: 0 success, 2 usage or config error (including parse failures),
3 numeric guard tripped, 4 internal verification failure.  All outputs are
ASCII with LF line endings; metadata lines start with ``#``.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import centrality as _centrality
from . import oracles as _oracles
from . import urns as _urns
from .centrality import ScoreOverflowError
from .experiments import (
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    persistence_dump_csv,
    run_experiment,
)
from .rng import RngStream
from .tree import grow_urrt, read_edge_list, serialize_tree

_CENTRALITY_CHOICES = (*_centrality.MEASURES, "betweenness-q", "all")


def _measure_for(choice: str, q: int) -> _centrality.Measure:
    if choice == "betweenness-q":
        return _centrality.betweenness_q(q)
    return _centrality.MEASURES[choice]


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _cmd_generate(args) -> int:
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    tree = grow_urrt(args.n, RngStream(args.seed))
    text = serialize_tree(tree)
    meta = f"# generate n={args.n} seed={args.seed} out={args.out or '-'}\n"
    if args.out is None:
        sys.stdout.write(text)
        sys.stderr.write(meta)
    else:
        _write_text(args.out, text)
        sys.stdout.write(meta)
    return 0


def _cmd_centrality(args) -> int:
    tree = read_edge_list(args.infile)
    if args.measure == "all":
        choices = [c for c in _CENTRALITY_CHOICES if c != "all"]
    else:
        choices = [args.measure]
    blocks = []
    reports = []
    for choice in choices:
        measure = _measure_for(choice, args.q)
        profile = _centrality.compute_profile(tree, measure)
        rep = profile.report
        blocks.append(f"# measure={measure.tag}\n" + _centrality.profile_csv(profile))
        center_set = ",".join(str(v) for v in rep.tied_center_set)
        reports.append(
            f"# {measure.tag} I={rep.center_index} R={rep.root_rank}"
            f" center_set={center_set}"
        )
    csv_text = "".join(blocks)
    meta = f"# centrality in={args.infile} measure={args.measure} q={args.q}\n"
    _write_text(args.out, meta + csv_text)
    sys.stdout.write("\n".join(reports) + "\n")
    return 0


def _cmd_sample_dickman(args) -> int:
    if args.count < 1:
        raise ConfigError("--count must be >= 1")
    gen = RngStream(args.seed).generator()
    values = _urns.sample_dickman_many(gen, args.count)
    lines = [f"# sample-dickman count={args.count} seed={args.seed}"]
    lines.extend(f"{v:.12g}" for v in values.tolist())
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_urn(args) -> int:
    if args.steps < 1:
        raise ConfigError("--steps must be >= 1")
    gen = RngStream(args.seed).generator()
    if args.kind == "polya":
        if args.a < 1:
            raise ConfigError("--a must be >= 1 for polya")
        rows = _urns.polya_run(args.a, args.steps, gen, record_every=args.record_every)
        lines = [
            f"# urn kind=polya a={args.a} steps={args.steps}"
            f" record_every={args.record_every} seed={args.seed}",
            "t,x,y",
        ]
        lines.extend(f"{t},{x},{y}" for t, x, y in rows.tolist())
    else:
        run = _urns.hoppe_run(args.steps, gen)
        lines = [
            f"# urn kind=hoppe steps={args.steps} seed={args.seed}",
            "t,num_colors,leader,leader_count",
        ]
        lines.extend(
            f"{t},{run.num_colors[t]},{run.leader[t]},{run.leader_count[t]}"
            for t in range(args.steps + 1)
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _parse_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
    return raw


def _emit_experiment(result, out: str) -> None:
    if out:
        _write_text(out, result.csv_text())
        json_path = out[:-4] + ".json" if out.endswith(".csv") else out + ".json"
        _write_text(json_path, result.json_text())
    else:
        sys.stdout.write(result.csv_text())


def _cmd_experiment(args) -> int:
    raw = _parse_config_file(args.config)
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    if args.workers is not None:
        raw["workers"] = str(args.workers)
    if args.out is not None:
        raw["out"] = args.out
    config = config_from_mapping(raw)
    result, _ = run_experiment(config)
    _emit_experiment(result, config.out)
    return 0


def _cmd_persistence(args) -> int:
    config = ExperimentConfig(
        experiment="persistence",
        seed=args.seed,
        horizon=args.horizon,
        trajectories=args.trajectories,
        stride=args.stride,
        workers=args.workers,
        out=args.out or "",
    )
    result, trajectories = run_experiment(config, keep_series=args.dump is not None)
    _emit_experiment(result, config.out)
    if args.dump is not None:
        _write_text(args.dump, persistence_dump_csv(trajectories))
    return 0


def _cmd_verify(args) -> int:
    _oracles.verify_exhaustive(args.max_n)
    count = math.factorial(args.max_n - 1)
    sys.stdout.write(f"{count} trees at n={args.max_n}: all measures agree\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootrank",
        description="Random recursive trees: centrality, root ranking, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="grow a random recursive tree")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="edge-list path (default stdout)")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("centrality", help="score and rank a tree from an edge list")
    p.add_argument("--in", dest="infile", required=True, help="edge-list path")
    p.add_argument("--measure", choices=_CENTRALITY_CHOICES, default="all")
    p.add_argument("--q", type=int, default=3, help="exponent for betweenness-q")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(handler=_cmd_centrality)

    p = sub.add_parser("sample-dickman", help="draw max-Dickman samples")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_sample_dickman)

    p = sub.add_parser("urn", help="run a single urn trajectory")
    p.add_argument("--kind", choices=("polya", "hoppe"), required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--a", type=int, default=1, help="initial X count (polya)")
    p.add_argument("--record-every", type=int, default=1, dest="record_every")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_urn)

    p = sub.add_parser("experiment", help="run an experiment from a config file")
    p.add_argument("--config", required=True, help="flat key = value file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path; JSON mirror written beside")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("persistence", help="grow trajectories and track I_n, R_n")
    p.add_argument("--horizon", type=int, default=100_000)
    p.add_argument("--trajectories", type=int, default=1_000)
    p.add_argument("--stride", type=int, default=0, help="0 = auto")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--dump", default=None, help="per-checkpoint trajectory CSV path")
    p.set_defaults(handler=_cmd_persistence)

    p = sub.add_parser("verify", help="exhaustive oracle equivalence check")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ScoreOverflowError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except _oracles.VerificationError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 4
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
