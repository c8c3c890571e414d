"""Command line entry point."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ExperimentConfig, ensure_writable, run_experiment, write_outputs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skycell",
        description="Run simulation and learning experiments from a JSON config.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment grid")
    run_p.add_argument("--config", required=True,
                       help="path to the JSON experiment config")
    run_p.add_argument("--out", default=None,
                       help="output directory (default: config output_dir)")
    run_p.add_argument("--methods", default=None,
                       help="comma-separated override of the method list")
    run_p.add_argument("--seed-offset", type=int, default=None,
                       help="override of the first seed index, for sharding")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as f:
            data = json.load(f)
        # overrides replace the file's values before the one validation
        if args.methods is not None:
            data["methods"] = [m.strip() for m in args.methods.split(",")
                               if m.strip()]
        if args.seed_offset is not None:
            data["seed_offset"] = args.seed_offset
        config = ExperimentConfig.from_dict(data)
        out_dir = args.out if args.out is not None else config.output_dir
        ensure_writable(out_dir)
        table = run_experiment(config)
        written = write_outputs(table, out_dir, config)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    print(f"{len(table.rows)} result rows, {len(table.skipped)} skipped; "
          f"{len(written)} files in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
