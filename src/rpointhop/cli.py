"""Command line interface.

Subcommands: ``train``, ``register``, ``features``, ``benchmark``. All
stochastic behavior is seed-driven; stdout of ``train`` and ``benchmark``
and every artifact file except register reports (which include a runtime
line) are byte-identical across reruns with the same inputs and seeds.

``train``, ``register`` and ``benchmark`` use two lanes: the calling
thread and one worker thread per call. ``train`` runs its independent
per-cloud work on them and farthest point samples its corpus in two
half-stacks, one per lane. A registration samples its target and source
clouds in one stack, extracts them at once, then splits the rows of
matching into two halves, one per lane. This changes no output.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .bench import ExperimentSpec, render_report, run_benchmark, run_ratio_ablation
from .cloud import FORMATS, load_cloud, save_cloud
from .config import ModelConfig, format_config, parse_config
from .modelfile import load_model, save_model
from .pipeline import extract_features, train
from .registration import MatchParams, format_report, register
from .saab import STATUS_DISCARDED

logger = logging.getLogger("rpointhop.cli")


def _load_dir(input_dir: str) -> list:
    root = Path(input_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {input_dir}")
    paths = sorted(p for p in root.iterdir() if p.suffix.lower().lstrip(".") in FORMATS)
    if not paths:
        raise FileNotFoundError(f"no point clouds found in {input_dir}")
    return [load_cloud(p) for p in paths]


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as the seeded PCG64
    streams take."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def cmd_train(args: argparse.Namespace) -> int:
    config = ModelConfig()
    if args.config:
        config = parse_config(Path(args.config).read_text())
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    clouds = _load_dir(args.input_dir)
    logger.info("training on %d clouds", len(clouds))
    model = train(clouds, config)
    save_model(model, args.output)
    print(f"model written to {args.output}")
    print(f"feature dimension: {model.feature_dim}")
    survivors = Counter(n.hop for n in model.tree.nodes if n.status != STATUS_DISCARDED)
    counts = (str(survivors[h]) for h in range(1, len(config.hops) + 1))
    print("surviving channels per hop: " + " ".join(counts))
    sys.stdout.write(format_config(config))
    return 0


def cmd_register(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    source = load_cloud(args.source)
    target = load_cloud(args.target)
    params = MatchParams(use_ratio_test=not args.no_ratio_test, use_ransac=args.ransac)
    tf, aligned, report = register(
        model, source, target, params, seed=args.seed, icp=args.icp_refine
    )
    Path(args.output).write_text(format_report(report))
    aligned_path = f"{args.output}.aligned.xyz"
    save_cloud(aligned, aligned_path)
    print(f"report written to {args.output}")
    print(f"aligned source written to {aligned_path}")
    print(
        "euler_deg "
        + " ".join(f"{v:.6f}" for v in report["euler_deg"])
        + f" | pairs {report['matched_pairs']}/{report['candidate_pairs']}"
    )
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    cloud = load_cloud(args.input)
    fs = extract_features(model, cloud, seed=args.seed)
    lines = [f"# index x y z f0..f{fs.features.shape[1] - 1}"]
    for i in range(len(fs)):
        row = [str(int(fs.point_indices[i]))]
        row += [f"{v:.17g}" for v in fs.coords[i]]
        row += [f"{v:.17g}" for v in fs.features[i]]
        lines.append(" ".join(row))
    Path(args.output).write_text("\n".join(lines) + "\n")
    print(f"features written to {args.output}")
    print(f"points: {len(fs)}  dimension: {fs.features.shape[1]}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    clouds = _load_dir(args.test_dir)
    spec = ExperimentSpec(
        max_angle_deg=args.max_angle,
        noise_std=args.noise_std,
        partial_fraction=args.partial,
        trials=args.trials,
        seed=args.seed,
        use_ransac=args.ransac,
        icp_refine=args.icp_refine,
    )
    if args.ablation:
        rep_on, rep_off = run_ratio_ablation(model, clouds, spec)
        sys.stdout.write(render_report(rep_on))
        sys.stdout.write("\n")
        sys.stdout.write(render_report(rep_off))
    else:
        sys.stdout.write(render_report(run_benchmark(model, clouds, spec)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpointhop",
        description="Rotation-invariant point cloud features and rigid registration.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a feature model on a directory of clouds")
    p.add_argument("--input-dir", required=True, help="directory of .off/.ply/.xyz clouds")
    p.add_argument("--config", help="flat key=value config file (defaults when omitted)")
    p.add_argument("--output", required=True, help="model file to write")
    p.add_argument("--seed", type=_seed, default=None, help="overrides the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("register", help="estimate the rigid motion between two clouds")
    p.add_argument("--model", required=True)
    p.add_argument("--source", required=True, help="moved cloud")
    p.add_argument("--target", required=True, help="reference cloud")
    p.add_argument(
        "--output",
        required=True,
        help="transform report path; the aligned source lands at <output>.aligned.xyz",
    )
    p.add_argument("--ransac", action="store_true", help="robust estimation")
    p.add_argument("--icp-refine", action="store_true", help="local refinement")
    p.add_argument(
        "--no-ratio-test",
        action="store_true",
        help="select final pairs by feature distance alone (skip the ratio filter)",
    )
    p.add_argument(
        "--seed",
        type=_seed,
        default=0,
        help="seed of the extraction's point sampling; the robust estimate draws nothing",
    )
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("features", help="write the per-point descriptor table of one cloud")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("benchmark", help="run synthetic registration trials")
    p.add_argument("--model", required=True)
    p.add_argument("--test-dir", required=True)
    p.add_argument("--max-angle", type=float, default=45.0)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--partial", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--ransac", action="store_true")
    p.add_argument("--icp-refine", action="store_true")
    p.add_argument("--ablation", action="store_true", help="paired ratio-test on/off comparison")
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
