"""Command-line front end.

Subcommands operate on JSON files (pattern grids or network objects) and
print reports with machine-checkable certificates. Exit codes: 0 for a
positive verdict (or a consistent audit), 1 for a negative one, 2 for
input or usage errors and for an audit whose numeric rank test breaks
down or whose realizations exceed oracle.MAX_TRIAL_BYTES, and 141 when
the reader of stdout goes away before the output is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import StrucnetError
from .graph import build_graph, export_dot, is_full_row_rank
from .network import (
    analyze,
    extract_topology,
    is_network_controllable,
    load_network,
    topology_dict,
    topology_necessary_check,
    validate,
)
from .pattern import PatternMatrix, hstack, load_pattern


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="strucnet",
        description="Strong structural controllability analysis of structured networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="full controllability analysis of a network file")
    check.add_argument("path", help="network JSON file")
    check.add_argument("--json", action="store_true", help="emit the report as JSON")
    check.set_defaults(handler=_cmd_check)

    rank = sub.add_parser("rank", help="full-row-rank certificate for a pattern file")
    rank.add_argument(
        "path", help='pattern JSON file: an array of token rows or a sparse {"shape", "entries"} object'
    )
    rank.add_argument("--json", action="store_true", help="emit the certificate as JSON")
    rank.set_defaults(handler=_cmd_rank)

    topo = sub.add_parser("topo", help="extract and test the interconnection topology")
    topo.add_argument("path", help="network JSON file")
    topo.add_argument("--json", action="store_true", help="emit the report as JSON")
    topo.set_defaults(handler=_cmd_topo)

    audit = sub.add_parser("audit", help="numeric sampling audit of the symbolic verdict")
    audit.add_argument("path", help="network JSON file")
    audit.add_argument("--trials", type=int, default=100)
    audit.add_argument("--seed", type=int, default=0)
    audit.set_defaults(handler=_cmd_audit)

    dot = sub.add_parser("export-dot", help="emit a DOT rendering of one of the graphs")
    dot.add_argument("path", help="network JSON file")
    dot.add_argument(
        "--which",
        choices=["assembled", "assembled-shifted", "interconnection", "topology"],
        default="assembled",
    )
    dot.set_defaults(handler=_cmd_export_dot)
    return parser


def _cmd_check(args) -> int:
    report = analyze(load_network(args.path))  # the network is freed before encoding
    if args.json:
        print(json.dumps(report.to_dict(), check_circular=False))
    else:
        print(report.to_text(), end="")
    return 0 if report.controllable else 1


def _cmd_rank(args) -> int:
    result = is_full_row_rank(load_pattern(args.path))
    if args.json:
        payload = {"full_row_rank": result.colorable, **result.to_dict()}
        print(json.dumps(payload, check_circular=False))
    else:
        print(f"full row rank: {'yes' if result.colorable else 'no'}")
        print(f"derived set: {sorted(result.derived_set)}")
        print(f"forcing sequence: {list(result.forcing_sequence)}")
        if not result.colorable:
            print(f"uncolored vertices: {sorted(result.uncolored)}")
    return 0 if result.colorable else 1


def _cmd_topo(args) -> int:
    network = load_network(args.path)
    w_tilde, h_tilde = extract_topology(network)
    coloring = topology_necessary_check(network)
    if args.json:
        print(json.dumps(topology_dict(w_tilde, h_tilde, coloring), check_circular=False))
    else:
        for name, summary in (("W~", w_tilde), ("H~", h_tilde)):  # sparse: N x N can be large
            print(f"{name} ({summary.rows} x {summary.cols}; nonzeros as row column token):")
            print("".join(f"{i} {j} {t}\n" for i, j, t in summary.to_sparse()["entries"]), end="")
        print(f"weakly colorable: {'yes' if coloring.colorable else 'no'}")
        print(f"reachability trace: {list(coloring.forcing_sequence)}")
        if not coloring.colorable:
            print(f"unreached vertices: {sorted(coloring.uncolored)}")
    return 0 if coloring.colorable else 1


def _cmd_audit(args) -> int:
    from .oracle import AuditConfig, audit_network  # loads numpy, which only audit needs

    cfg = AuditConfig(trials=args.trials, seed=args.seed)  # before the file is read
    network = load_network(args.path)
    outcome = audit_network(network, cfg)  # first: refuses a network too large before its verdict
    verdict = is_network_controllable(network)
    consistent = not (verdict.controllable and outcome.failures > 0)
    payload = {
        "symbolic_controllable": verdict.controllable,
        "audit": outcome.to_dict(),
        "consistent": consistent,
        "note": "sampling is a consistency check, not a proof",
    }
    print(json.dumps(payload, check_circular=False))
    return 0 if consistent else 1


def _cmd_export_dot(args) -> int:
    network = load_network(args.path)
    validate(network)  # every view, also the raw [W H], needs a valid network
    coloring = None  # the interconnection graph is drawn uncolored
    if args.which == "interconnection":
        pattern = hstack(network.W, network.H)
        if pattern.rows > pattern.cols:  # a tall [W H] is drawn on vertices 1..r
            pattern = hstack(pattern, PatternMatrix.zeros(pattern.rows, pattern.rows - pattern.cols))
    elif args.which == "topology":
        pattern = hstack(*extract_topology(network))
        coloring = topology_necessary_check(network)
    else:
        check = is_network_controllable(network)
        plain, shifted = check.patterns
        if args.which == "assembled":
            pattern, coloring = plain, check.plain
        else:
            pattern, coloring = shifted, check.shifted
    print(export_dot(build_graph(pattern), coloring), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # a reader that went away shows here, not at exit
        return code
    except BrokenPipeError:  # stdout closed early, as under `| head`: not an input error
        sys.stdout = None  # the interpreter skips a None stdout when it flushes at exit
        return 141  # 128 + SIGPIPE
    except (StrucnetError, OSError) as exc:  # an invalid network lists each of its violations
        for line in getattr(exc, "violations", [exc]):
            print(f"error: {line}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
