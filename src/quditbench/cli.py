"""Command-line harness: one subcommand per experiment, plus ``platforms``.

Every experiment subcommand takes --seed, --out and --scale {desk,paper};
desk scale keeps runtimes suitable for a laptop or CI, paper scale restores
the full published parameter ranges (the gate-dependence experiment at paper
scale is cluster-sized).  ``platforms`` takes --out, --data and --reference.
Bad input, an --out or .json summary path that is a directory or lies in a
missing one included, ends in a usage error (exit 2) before any work starts.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    check_output_path,
    check_outputs,
    default_spec,
    run_experiment,
    write_csv,
)
from .platforms import load_records, platform_report


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_int_list(text: str) -> tuple[int, ...]:
    values = tuple(_positive_int(v) for v in text.split(",") if v.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditbench",
        description="Noisy-qudit vs multi-qubit average-gate-infidelity experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)  # --out, shared by every subcommand
    out.add_argument("--out", dest="output_path", metavar="OUT", help="CSV output path")

    for name in EXPERIMENTS:
        p = sub.add_parser(name, parents=[out], help=f"run the {name} experiment")
        p.add_argument("--seed", type=int, default=0, help="root random seed")
        p.add_argument("--scale", choices=("desk", "paper"), default="desk", help="parameter scale")
        if name == "gate-dependence":
            p.add_argument(
                "--gates",
                dest="n_gates",
                metavar="GATES",
                type=_positive_int,
                default=None,
                help="number of CUE gates",
            )
            p.add_argument(
                "--dims",
                metavar="DIMS",
                type=_positive_int_list,
                default=None,
                help="comma-separated dimensions",
            )
            p.add_argument(
                "--workers", type=_positive_int, default=1, help="parallel gate workers (>= 1)"
            )
        if name == "critical-curve":
            p.add_argument(
                "--qubits",
                dest="dims",
                metavar="QUBITS",
                type=_positive_int_list,
                default=None,
                help="comma-separated qubit counts",
            )

    p = sub.add_parser("platforms", parents=[out], help="qudit-vs-qubit platform advantage report")
    p.add_argument("--data", type=str, default=None, help="platform data file (default: bundled)")
    p.add_argument(
        "--reference",
        type=str,
        default="superconducting qubits",
        help="label (substring) of the qubit reference platform",
    )
    return parser


def _spec(args: argparse.Namespace) -> ExperimentSpec:
    """The registry's default spec with every option given on the command line
    (an option's dest names the spec field it sets)."""
    names = {f.name for f in fields(ExperimentSpec)}
    overrides = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return replace(default_spec(args.command, scale=args.scale, seed=args.seed), **overrides)


def _run_named(spec: ExperimentSpec, args: argparse.Namespace) -> int:
    result = run_experiment(spec, workers=getattr(args, "workers", 1))
    for line in result.lines:
        print(line)
    if spec.output_path is not None:
        print(f"wrote {spec.output_path}")
    return 0


def _run_platforms(args: argparse.Namespace) -> int:
    records = load_records(args.data)
    candidates = [r for r in records if args.reference.lower() in r.label.lower()]
    if not candidates:
        raise ValueError(f"no platform matches reference {args.reference!r}")
    reference = candidates[0]
    rows = platform_report(records, reference)
    print(f"reference: {reference.label} (tau = {reference.tau:.3g})")
    for row in rows:
        ratio = row["tau_ratio"]
        ratio_txt = "n/a" if ratio is None else f"{ratio:.3g}"
        max_d = row["max_advantageous_d"]
        max_d_txt = "n/a" if max_d is None else f"{max_d:.1f}"
        print(
            f"{row['label']:>40} (d={row['d']}): tau ratio {ratio_txt:>8}  "
            f"critical {row['critical_ratio']:.4g}  naive {row['naive_ratio']:.4g}  "
            f"max adv. d {max_d_txt:>6}  -> {row['verdict']}"
            + (f"  [{row['note']}]" if row["note"] else "")
        )
    if args.output_path is not None:
        fieldnames = (
            "label",
            "d",
            "n",
            "tau",
            "tau_ratio",
            "critical_ratio",
            "naive_ratio",
            "max_advantageous_d",
            "verdict",
            "source",
            "note",
        )
        write_csv(fieldnames, rows, args.output_path)
        print(f"wrote {args.output_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # bad input from outside the program ends in a usage error, not a traceback
    try:
        if args.output_path is not None:
            (check_output_path if args.command == "platforms" else check_outputs)(args.output_path)
        if args.command == "platforms":
            return _run_platforms(args)
        spec = _spec(args)
    except (OSError, ValueError) as exc:
        parser.error(f"{args.command}: {exc}")
    return _run_named(spec, args)


if __name__ == "__main__":
    sys.exit(main())
