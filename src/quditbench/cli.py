"""Command-line harness: one subcommand per experiment.

Every subcommand takes --seed, --out and --scale {desk,paper}; desk scale
keeps runtimes suitable for a laptop or CI, paper scale restores the full
published parameter ranges (the gate-dependence experiment at paper scale
is cluster-sized).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import default_spec, run_experiment
from .platforms import load_records, platform_report

EXPERIMENT_COMMANDS = (
    "slopes-qudit",
    "slopes-qubits",
    "deviation-sweep",
    "gate-dependence",
    "channels-compare",
    "critical-curve",
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument("--out", type=str, default=None, help="CSV output path")
    parser.add_argument(
        "--scale", choices=("desk", "paper"), default="desk", help="parameter scale"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditbench",
        description="Noisy-qudit vs multi-qubit average-gate-infidelity experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENT_COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _add_common(p)
        if name == "gate-dependence":
            p.add_argument("--gates", type=int, default=None, help="number of CUE gates")
            p.add_argument("--dims", type=str, default=None, help="comma-separated dimensions")
            p.add_argument(
                "--workers", type=_positive_int, default=1, help="parallel gate workers (>= 1)"
            )
        if name == "critical-curve":
            p.add_argument("--qubits", type=str, default=None, help="comma-separated qubit counts")

    p = sub.add_parser("platforms", help="qudit-vs-qubit platform advantage report")
    _add_common(p)
    p.add_argument("--data", type=str, default=None, help="platform data file (default: bundled)")
    p.add_argument(
        "--reference",
        type=str,
        default="superconducting qubits",
        help="label (substring) of the qubit reference platform",
    )
    return parser


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _run_named(args: argparse.Namespace) -> int:
    spec = default_spec(args.command, scale=args.scale, seed=args.seed)
    if args.command == "gate-dependence":
        if args.gates is not None:
            spec = replace(spec, n_gates=args.gates)
        if args.dims is not None:
            spec = replace(spec, dims=_parse_int_list(args.dims))
    if args.command == "critical-curve" and args.qubits is not None:
        spec = replace(spec, dims=_parse_int_list(args.qubits))
    if args.out is not None:
        spec = replace(spec, output_path=args.out)
    workers = getattr(args, "workers", 1)
    result = run_experiment(spec, workers=workers)

    if args.command in ("slopes-qudit", "slopes-qubits", "channels-compare", "deviation-sweep"):
        for key, fit in sorted(result.summary["fits"].items()):
            print(
                f"{key:>24}: slope {fit['slope']:.8g}  analytic {fit['analytic']:.8g}  "
                f"rel.err {fit['relative_error']:+.3e}  1-R^2 {fit['one_minus_r2']:.3e}"
            )
    elif args.command == "gate-dependence":
        for d, stats in sorted(result.summary["stats"].items(), key=lambda kv: int(kv[0])):
            print(
                f"d={d}: mean {stats['mean']:+.3e}  std {stats['std']:.3e}  "
                f"range [{stats['min']:+.3e}, {stats['max']:+.3e}]"
            )
        if result.summary["n_failures"]:
            print(f"warning: {result.summary['n_failures']} gate optimizations did not converge")
    elif args.command == "critical-curve":
        for row in result.rows:
            print(
                f"n={row['n']} d={row['d']}: simulated {row['ratio_simulated']:.6g}  "
                f"analytic {row['ratio_analytic']:.6g}  naive {row['ratio_naive']:.6g}  "
                f"[{row['method']}]"
            )
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


def _run_platforms(args: argparse.Namespace) -> int:
    records = load_records(args.data)
    candidates = [r for r in records if args.reference.lower() in r.label.lower()]
    if not candidates:
        print(f"no platform matches reference {args.reference!r}", file=sys.stderr)
        return 2
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
    if args.out is not None:
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
        lines = [",".join(fieldnames)]
        for row in rows:
            cells = []
            for k in fieldnames:
                v = row[k]
                cells.append("" if v is None else (repr(v) if isinstance(v, float) else str(v)))
            lines.append(",".join(cells))
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "platforms":
        return _run_platforms(args)
    return _run_named(args)


if __name__ == "__main__":
    sys.exit(main())
