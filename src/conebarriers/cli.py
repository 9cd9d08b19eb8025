"""Command-line benchmark: ``conebench`` runs the (cone, d, o) grid and
prints a CSV or markdown table of mean iteration counts and residuals."""

from __future__ import annotations

import argparse
import sys

from .experiment import (
    DEFAULT_CONES,
    MATRIX_CONES,
    ExperimentConfig,
    render_table,
    run_grid,
)

_ALL_CONES = DEFAULT_CONES + MATRIX_CONES


def _csv_list(cast):
    def parse(text: str):
        return tuple(cast(part) for part in text.split(",") if part)
    return parse


def build_parser() -> argparse.ArgumentParser:
    default = ExperimentConfig()
    parser = argparse.ArgumentParser(
        prog="conebench",
        description="Compare specialized conjugate-gradient procedures "
                    "against the generic Newton method over a grid of "
                    "cones, dimensions, and boundary offsets.",
    )
    parser.add_argument("--cones", type=_csv_list(str),
                        default=default.cones, metavar="LIST",
                        help=f"comma-separated cone names from {_ALL_CONES} "
                             "(default: the vector cones)")
    parser.add_argument("--include-matrix", action="store_true",
                        help="append the matrix cones (logdet,rtdet,lspec) "
                             "to the selection")
    parser.add_argument("--dims", type=_csv_list(int), default=default.dims,
                        metavar="LIST", help="dimensions (default %(default)s)")
    parser.add_argument("--offsets", type=_csv_list(float),
                        default=default.offsets, metavar="LIST",
                        help="boundary offsets in (0,1) (default %(default)s)")
    parser.add_argument("--trials", type=int, default=default.trials,
                        help="samples per grid cell (default %(default)s)")
    parser.add_argument("--seed", type=int, default=default.seed,
                        help="RNG seed (default %(default)s)")
    parser.add_argument("--eps", type=float, default=default.eps,
                        help="generic-method tolerance "
                             "(default 1000 * machine epsilon)")
    parser.add_argument("--format", choices=("csv", "markdown"),
                        default="csv", help="output format (default %(default)s)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the table to FILE instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cones = tuple(args.cones)
    if args.include_matrix:
        cones = cones + tuple(c for c in MATRIX_CONES if c not in cones)
    try:
        config = ExperimentConfig(
            cones=cones,
            dims=tuple(args.dims),
            offsets=tuple(args.offsets),
            trials=args.trials,
            seed=args.seed,
            eps=args.eps,
        )
    except ValueError as exc:
        parser.error(str(exc))
    stats = run_grid(config)
    text = render_table(stats, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
