"""Command-line front end.

Subcommands: `verify` (exhaustive depth-bounded verification), `ks-scan`
(the 512-table parity scan), `simulate` (seeded single runs), `dump`
(state tables with context products), and `search` (bounded completion
search over a candidate family).

Exit codes are stable across commands: 0 pass, 1 violations found,
2 usage error, 3 search budget exhausted without full coverage.  A report
goes to the --output path when one is given, else to stdout.  Reports with
the same command and configuration (for `simulate`, the same seed) are
byte-identical except for the elapsed-time field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys

from . import pauli
from .extension import ALIASES, extended_machine, four_state_machine
from .machine import MealyMachine, step
from .toy import compact, spekkens_machine
from .verify import (
    FAMILIES,
    SearchOutcome,
    VerificationReport,
    json_int,
    search_machines,
    verify_machine,
)

_BUILDERS = {
    "spekkens16": spekkens_machine,
    "extended32": extended_machine,
    "extended32-randomized": lambda: extended_machine(randomized=True),
    "paper4": four_state_machine,
}
BUILTIN_MACHINES = tuple(_BUILDERS)
# By depth 6 the product BFS of every builtin is done; a larger bound only
# grows the closed-form sequence count, whose decimal digits cost quadratic time.
MAX_DEPTH = 100_000


class UsageError(Exception):
    pass


def build_machine(selector: str) -> MealyMachine:
    """A builtin machine by name, or a machine over the nine PM observables from its JSON file."""
    if selector in _BUILDERS:
        return _BUILDERS[selector]()
    if not os.path.exists(selector):
        raise UsageError(
            f"unknown machine {selector!r}; expected one of {', '.join(BUILTIN_MACHINES)} "
            "or a machine JSON file"
        )
    try:
        with open(selector) as f:
            data = json.load(f)
        return MealyMachine.from_json_dict(data)
    except (OSError, KeyError, TypeError, ValueError, ArithmeticError, RecursionError) as exc:
        raise UsageError(f"cannot load machine from {selector}: {exc}") from None


def _write_report(path: str | None, text: str) -> None:
    if path:
        try:
            with open(path, "w") as f:
                f.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write report to {path}: {exc}") from None
        print(f"report written to {path}")
    else:
        sys.stdout.write(text)


def _json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _report_csv(report: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["kind", "start", "sequence", "outputs", "positions", "expected", "observed"]
    )
    for v in report.violations:
        writer.writerow(
            [
                v.kind,
                v.start,
                " ".join(v.sequence),
                " ".join(f"{o:+d}" for o in v.outputs),
                " ".join(str(p) for p in v.positions),
                f"{v.expected:+d}",
                f"{v.observed:+d}",
            ]
        )
    return buf.getvalue()


def _report_text(report: VerificationReport) -> str:
    lines = [
        f"machine: {report.machine}",
        f"depth: {report.depth}",
        f"sequences checked: {json_int(report.sequences_checked)}",
        f"violations: {len(report.violations)}",
    ]
    for v in report.violations:
        lines.append(
            f"  {v.kind} from {v.start}: seq {' '.join(v.sequence)} "
            f"outputs {' '.join(f'{o:+d}' for o in v.outputs)} "
            f"at {','.join(str(p) for p in v.positions)} "
            f"expected {v.expected:+d} observed {v.observed:+d}"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append("result: " + ("pass" if report.passed else "fail"))
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    m = build_machine(args.machine)
    report = verify_machine(m, args.depth)
    render = {"json": VerificationReport.to_json, "csv": _report_csv, "text": _report_text}
    _write_report(args.output, render[args.format](report))
    return 0 if report.passed else 1


def cmd_ks_scan(args: argparse.Namespace) -> int:
    summary = pauli.ks_scan_summary()
    if args.format == "json":
        text = _json(summary)
    else:
        lines = [
            f"sign tables scanned: {summary['tables']}",
            f"satisfying the QM context signs (rows +1, cols 1-2 +1, col 3 -1): "
            f"{summary['qm_satisfying']}",
            f"satisfying all-plus context signs: {summary['all_plus_satisfying']}",
            "histogram of -1 context products per table: "
            + ", ".join(
                f"{k} -> {v}" for k, v in summary["minus_product_histogram"].items()
            ),
            f"six-product values seen: {summary['six_product_values']}",
        ]
        text = "\n".join(lines) + "\n"
    _write_report(args.output, text)
    return 0


def _resolve_start(m: MealyMachine, start: str) -> int:
    if start in m.states:
        return m.states.index(start)
    if start in ALIASES and ALIASES[start].label in m.states:
        return m.states.index(ALIASES[start].label)
    raise UsageError(f"unknown start state {start!r} for machine {m.name}")


def cmd_simulate(args: argparse.Namespace) -> int:
    m = build_machine(args.machine)
    tokens = [t.strip() for t in args.seq.split(",") if t.strip()]
    if not tokens:
        raise UsageError("empty measurement sequence")
    state = _resolve_start(m, args.start)
    rng = random.Random(args.seed)
    lines = [f"machine: {m.name}  seed: {args.seed}"]
    for n, token in enumerate(tokens, start=1):
        before = m.states[state]
        try:
            out, state = step(m, state, token, rng)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        lines.append(
            f"step {n}: {token:<5} output {out:+d}  {before} -> {m.states[state]}"
        )
    lines.append(f"final state: {m.states[state]}")
    print("\n".join(lines))
    return 0


def _dump_dict(m: MealyMachine) -> dict:
    states = []
    for label, row in zip(m.states, m.outputs):
        products = pauli.context_products(row)
        states.append(
            {
                "label": label,
                "alias": next((a for a, st in ALIASES.items() if st.label == label), None),
                "table": compact(row),
                "context_products": products,
                "qm_deviation": [
                    ctx for ctx, sign in pauli.PRESCRIBED_SIGN.items() if products[ctx] != sign
                ],
            }
        )
    return {"machine": m.name, "states": states}


def cmd_dump(args: argparse.Namespace) -> int:
    m = build_machine(args.machine)
    data = _dump_dict(m)
    if args.format == "json":
        _write_report(args.output, _json(data))
        return 0
    lines = [f"machine: {m.name} ({len(data['states'])} states)"]
    for st in data["states"]:
        name = st["label"] + (f" ({st['alias']})" if st["alias"] else "")
        prods = " ".join(f"{ctx}={p:+d}" for ctx, p in st["context_products"].items())
        dev = ",".join(st["qm_deviation"]) or "none"
        lines.append(f"{name:<14} {st['table']}  {prods}  deviation: {dev}")
    _write_report(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    if args.family not in FAMILIES:
        raise UsageError(
            f"unknown family {args.family!r}; expected one of {', '.join(FAMILIES)}"
        )
    outcome = search_machines(FAMILIES[args.family](), args.depth, budget=args.budget)
    text = _json(outcome.to_dict()) if args.format == "json" else _search_text(outcome)
    _write_report(args.output, text)
    return 0 if outcome.exhausted else 3


def _search_text(outcome: SearchOutcome) -> str:
    lines = [
        f"family: {outcome.family}  depth: {outcome.depth}",
        f"completions found: {outcome.completions}",
        f"search nodes: {outcome.nodes} (budget {outcome.budget})",
        "coverage: "
        + ("exhaustive" if outcome.exhausted else "budget exhausted, incomplete"),
    ]
    if outcome.exhausted and outcome.completions == 0:
        lines.append("certificate: no machine in this family passes at this depth")
    for m in outcome.machines:
        lines.append(f"machine: {m.name}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmtoy",
        description="Peres-Mermin square toy machines: verification, scans, "
        "simulation, dumps, and completion search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: list[str], default: str) -> None:
        p.add_argument("--output", help="report file path (default: stdout)")
        p.add_argument("--format", choices=formats, default=default)

    p = sub.add_parser("verify", help="exhaustively verify a machine to a depth bound")
    p.set_defaults(handler=cmd_verify)
    p.add_argument("--machine", required=True, help="builtin name or machine JSON file")
    p.add_argument(
        "--depth", type=int, default=6, help=f"sequence length bound, 1 to {MAX_DEPTH}"
    )
    add_common(p, ["json", "csv", "text"], "json")

    p = sub.add_parser("ks-scan", help="scan all 512 noncontextual sign tables")
    p.set_defaults(handler=cmd_ks_scan)
    add_common(p, ["json", "text"], "text")

    p = sub.add_parser("simulate", help="run one seeded measurement sequence")
    p.set_defaults(handler=cmd_simulate)
    p.add_argument("--machine", required=True)
    p.add_argument("--start", required=True, help="state label (aliases a-d accepted)")
    p.add_argument("--seq", required=True, help="comma-separated observables, e.g. Z1,Z1Z2")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dump", help="dump all state tables with context products")
    p.set_defaults(handler=cmd_dump)
    p.add_argument("--machine", required=True)
    add_common(p, ["text", "json"], "text")

    p = sub.add_parser("search", help="search completions of a candidate family")
    p.set_defaults(handler=cmd_search)
    p.add_argument("--family", required=True, help=", ".join(FAMILIES))
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--budget", type=int, default=200_000)
    add_common(p, ["json", "text"], "json")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "depth", 1) < 1:
            raise UsageError("depth must be >= 1")
        if getattr(args, "depth", 1) > MAX_DEPTH:
            raise UsageError(f"depth must be <= {MAX_DEPTH}")
        if not 0 <= getattr(args, "seed", 0) < 2**64:
            raise UsageError("seed must be an unsigned 64-bit value")
        if getattr(args, "budget", 1) < 1:
            raise UsageError("budget must be >= 1")
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
