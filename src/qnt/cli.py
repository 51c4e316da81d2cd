"""Command-line front end.

    qnt star|sweep|spam-s|spam-m|etch|loss [options]

Common options: --trials K --seed S --full-scale --out FILE; each subcommand adds
the options of the config fields its experiment reads (``experiments.READS``), so
``--s VAL --m VAL`` everywhere but ``sweep``, which runs the pairs of
``--spam-grid``, and the CSV's ``# config`` line records the experiment, the
versions and those fields.  Options must be spelled in full.  Sample lists accept
comma-separated values and start:stop:step ranges (inclusive stop).  The seed
defaults to 12345.  Default grids are desk scale (step 1000, 100 trials);
``--full-scale`` restores the reference scale (step 100, 1000 trials unless
``--trials`` is given).  Out-of-range input, abbreviated options and options of
another subcommand are usage errors (exit status 2) shown with the subcommand's
usage.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from typing import Optional, Sequence

from .experiments import READS, ExperimentConfig, write_experiment


def parse_int_list(text: str) -> tuple[int, ...]:
    """Parse '100,200' or '100:1000:100' (or a mix, comma-separated)."""
    values: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            parts = chunk.split(":")
            if len(parts) != 3:
                raise argparse.ArgumentTypeError(f"range must be start:stop:step, got {chunk!r}")
            start, stop, step = (int(p) for p in parts)
            if step <= 0:
                raise argparse.ArgumentTypeError("range step must be positive")
            values.extend(range(start, stop + 1, step))
        else:
            values.append(int(chunk))
    if not values:
        raise argparse.ArgumentTypeError(f"empty sample list {text!r}")
    return tuple(values)


def parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(chunk) for chunk in text.split(",") if chunk.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return values


def parse_spam_grid(text: str) -> tuple[tuple[float, float], ...]:
    """Parse 's1:m1;s2:m2' pairs for the sweep experiment."""
    grid = []
    for pair in text.split(";"):
        pair = pair.strip()
        if not pair:
            continue
        s_text, m_text = pair.split(":")
        grid.append((float(s_text), float(m_text)))
    if not grid:
        raise argparse.ArgumentTypeError(f"empty SPAM grid {text!r}")
    return tuple(grid)


# Each config field's option: its flag and argparse keywords.  A subcommand offers
# those of the fields its experiment reads, in ``READS`` order; an option left
# unset (None) keeps the config's default.
_OPTIONS = {
    "topology_path": ("--topology", dict(help="topology file (defaults to the bundled 19-edge network)")),
    "s": ("--s", dict(type=float, help="preparation parameter s (default 1)")),
    "m": ("--m", dict(type=float, help="measurement parameter m (default 1)")),
    "q_params": ("--q", dict(type=parse_float_list, help="channel q values: three (default 0.5,0.25,0.35), "
                             "or two for spam-s and spam-m (default 0.5,0.25)")),
    "m_samples": ("--m-samples", dict(type=parse_int_list,
                                      help="merge-side sample sizes (list or start:stop:step)")),
    "n_samples": ("--n-samples", dict(type=parse_int_list, help="unicast-side sample sizes")),
    "spam_grid": ("--spam-grid", dict(type=parse_spam_grid, help="semicolon-separated s:m pairs "
                                      "(default 1:1;0.95:0.95;0.8:0.8;0.5:0.5)")),
    "t_send_s": ("--t-send", dict(type=parse_float_list, help="send intervals in seconds")),
    "t_cutoff_s": ("--t-cutoff", dict(type=parse_float_list, help="memory cutoffs in seconds")),
    "horizon_s": ("--horizon", dict(type=float, help="simulated time in seconds (default 3600)")),
    "trials": ("--trials", dict(type=int,
                                help="trials per grid cell (default 100, or 1000 with --full-scale)")),
    "seed": ("--seed", dict(type=int)),
    "full_scale": ("--full-scale", dict(action="store_true",
                                        help="reference scale: step-100 grids and 1000 trials")),
    "output_path": ("--out", dict(help="CSV output path")),
}


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subcommands' parsers by name, built once;
    parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(prog="qnt", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, help_text in (
        ("star", "merge-protocol MSE on a 3-link star over an (M, N) grid"),
        ("sweep", "star experiment over a SPAM grid"),
        ("spam-s", "preparation-error estimation MSE over an (M, N) grid"),
        ("spam-m", "measurement-error estimation MSE over an (M, N) grid"),
        ("etch", "progressive etching MSE per edge on a general topology"),
        ("loss", "lossy-fiber merge protocol with memory decoherence"),
    ):
        # no abbreviations: "--m" must not silently become "--m-samples" where --m is not offered
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for field in READS[name.replace("-", "_")]:
            command.add_argument(_OPTIONS[field][0], dest=field, **_OPTIONS[field][1])
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parsing leaves it unchanged."""
    return _parsers()[0]


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(**{k: v for k, v in vars(args).items() if v is not None})


# argparse reads a value that starts like a negative number but is not one
# plain number ("-0.2,0.25,0.35") as an option; "--q=-0.2,0.25,0.35" is a value.
_OPTION = re.compile(r"--\w[\w-]*")
_DASHED_VALUE = re.compile(r"-\.?\d")


def _join_dashed_values(argv: Sequence[str]) -> list[str]:
    """``--opt -0.2,...`` as ``--opt=-0.2,...``."""
    joined: list[str] = []
    for arg in argv:
        if joined and _OPTION.fullmatch(joined[-1]) and _DASHED_VALUE.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = _parsers()
    # argparse hands a subcommand's unknown arguments to the top-level
    # parser; report them with the subcommand's usage instead
    args, unknown = parser.parse_known_args(
        _join_dashed_values(sys.argv[1:] if argv is None else argv))
    command = commands[args.experiment]
    if unknown:
        command.error("unrecognized arguments: " + " ".join(unknown))
    try:
        cfg = config_from_args(args)
    except ValueError as err:
        command.error(str(err))
    write_experiment(cfg)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
