"""Command-line management tool.

Subcommands cover the whole pipeline: validate and refine a policy
document, compile a refinement strategy into rules, detect conflicts,
simulate enforcement over a traffic trace, translate rules to device
configuration, drive the versioned repository, and run the decision
service and its enforcement-point client over TCP.

Exit codes: 0 success, 1 findings (parse errors, conflicts, unsupported
translations), 2 usage errors, 3 I/O or protocol failures.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .dsl import Document, ParseError, parse, serialize
from .model import UnknownReferenceError
from .netrepo import (
    PdpServer,
    PepSession,
    ProtocolError,
    RepoError,
    repo_commit,
    repo_load,
    repo_log,
)
from .pdp import DEFAULT_PROFILES, TranslationError, detect_conflicts, translate_to_device
from .pep_sim import (
    AllocationReport,
    TraceError,
    check_trace,
    enforce,
    read_trace,
    replay,
    write_report,
)
from .refiner import RefineError, compile_strategy, enumerate_strategies


class _Finding(Exception):
    """A user-facing problem that maps to exit code 1."""


def _load_document(path: str) -> Document:
    with open(path, encoding="utf-8") as handle:
        return parse(handle.read())


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    return host, int(port)


def _cmd_validate(args) -> int:
    doc = _load_document(args.document)
    goals, rules = len(doc.graph.goals), len(doc.rules)
    if args.format == "tsv":
        print("goals\trules")
        print(f"{goals}\t{rules}")
    else:
        print(f"{goals} goals, {rules} rules")
    return 0


def _cmd_refine(args) -> int:
    doc = _load_document(args.document)
    strategies = enumerate_strategies(doc.graph, args.root)
    if args.format == "tsv":
        print("strategy\tleaf_count\tleaves")
        for strategy in strategies:
            print(f"{strategy.id}\t{len(strategy.leaves)}\t{' '.join(strategy.leaves)}")
    else:
        for strategy in strategies:
            noun = "leaf" if len(strategy.leaves) == 1 else "leaves"
            print(f"{strategy.id}: {' '.join(strategy.leaves)} ({len(strategy.leaves)} {noun})")
    return 0


def _cmd_compile(args) -> int:
    doc = _load_document(args.document)
    strategies = enumerate_strategies(doc.graph, args.root)
    chosen = next((s for s in strategies if s.id == args.strategy), None)
    if chosen is None:
        raise _Finding(
            f"unknown strategy {args.strategy!r} (root {args.root} has {len(strategies)})"
        )
    rules = compile_strategy(doc, chosen)
    _write_text(args.output, serialize(replace(doc, rules=tuple(rules))))
    return 0


def _cmd_conflicts(args) -> int:
    doc = _load_document(args.document)
    conflicts = detect_conflicts(doc.rules, doc.catalogs)
    if args.format == "tsv":
        print("kind\tseverity\trule_a\trule_b\tsrc\tdst\tproto\tport\tts\tdemand")
        for c in conflicts:
            w = c.witness
            print(
                f"{c.kind.value}\t{c.severity}\t{c.rule_a}\t{c.rule_b}"
                f"\t{w.src}\t{w.dst}\t{w.protocol}\t{w.port}\t{w.timestamp}\t{w.demand_kbps}"
            )
    elif not conflicts:
        print("no conflicts")
    else:
        for c in conflicts:
            w = c.witness
            print(
                f"{c.kind.value} ({c.severity}): {c.rule_a} vs {c.rule_b},"
                f" witness src={w.src} dst={w.dst} proto={w.protocol}"
                f" port={w.port} ts={w.timestamp}"
            )
    return 1 if any(c.severity == "error" for c in conflicts) else 0


def _cmd_simulate(args) -> int:
    doc = _load_document(args.document)
    with open(args.trace, encoding="utf-8") as handle:
        flows = read_trace(handle)
    reports = replay(doc.rules, doc.catalogs, flows, args.capacity, args.step)
    with open(args.report, "w", encoding="utf-8") as handle:
        write_report(reports, handle)
    print(f"{len(reports)} steps, {sum(len(r.flows) for r in reports)} flows")
    return 0


def _cmd_translate(args) -> int:
    doc = _load_document(args.document)
    profile = DEFAULT_PROFILES[args.profile]
    lines: list[str] = []
    for rule in doc.rules:
        lines.extend(translate_to_device(rule, doc.catalogs, profile))
    _write_text(args.output, "".join(line + "\n" for line in lines))
    return 0


def _cmd_repo_commit(args) -> int:
    doc = _load_document(args.document)
    entry = repo_commit(args.dir, doc)
    print(f"v{entry.version:04d} checksum={entry.checksum}")
    return 0


def _cmd_repo_log(args) -> int:
    for entry in repo_log(args.dir):
        print(
            f"v{entry.version:04d} created={entry.created}"
            f" checksum={entry.checksum} file={entry.path}"
        )
    return 0


def _cmd_repo_show(args) -> int:
    sys.stdout.write(serialize(repo_load(args.dir, args.version)))
    return 0


def _cmd_pdp_serve(args) -> int:
    host, port = args.listen
    server = PdpServer(args.repo, host=host, port=port)
    server.start()
    assert server.address is not None
    print(f"listening on {server.address[0]}:{server.address[1]}", flush=True)
    server.serve_forever()
    return 0


def _cmd_pep_run(args) -> int:
    host, port = args.connect
    with open(args.trace, encoding="utf-8") as handle:
        flows = read_trace(handle)
    check_trace(flows, args.step)
    reports: list[AllocationReport] = []
    with PepSession(host, port) as session:
        for report in enforce(flows, args.capacity, args.step, session.request):
            session.report(report.timestep, report.capacity_kbps, report.used_kbps)
            reports.append(report)
    if args.report is None:
        write_report(reports, sys.stdout)
    else:
        with open(args.report, "w", encoding="utf-8") as handle:
            write_report(reports, handle)
        print(f"{len(reports)} steps, {len(flows)} flows")
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "tsv"),
        default="text",
        help="output style: human-readable text or tab-separated columns",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbmkit",
        description="Policy-based network management toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a document and report its contents")
    p.add_argument("document")
    _add_format(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("refine", help="list refinement strategies for a goal")
    p.add_argument("document")
    p.add_argument("--root", required=True, help="goal id to refine")
    _add_format(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("compile", help="compile one strategy into policy rules")
    p.add_argument("document")
    p.add_argument("--root", required=True, help="goal id to refine")
    p.add_argument("--strategy", required=True, help="strategy id, e.g. S1")
    p.add_argument("-o", "--output", help="output document (default: stdout)")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("conflicts", help="report conflicting rule pairs")
    p.add_argument("document")
    _add_format(p)
    p.set_defaults(func=_cmd_conflicts)

    p = sub.add_parser("simulate", help="replay a traffic trace against the rules")
    p.add_argument("document")
    p.add_argument("--trace", required=True, help="flow trace CSV")
    p.add_argument("--capacity", required=True, type=int, help="link capacity in kbps")
    p.add_argument("--step", type=int, default=1, help="seconds per allocation step")
    p.add_argument("--report", required=True, help="report CSV to write")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("translate", help="render rules as device configuration")
    p.add_argument("document")
    p.add_argument(
        "--profile", choices=sorted(DEFAULT_PROFILES), default="shaper",
        help="device profile to target",
    )
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_translate)

    repo = sub.add_parser("repo", help="versioned policy repository")
    repo_sub = repo.add_subparsers(dest="repo_command", required=True)
    p = repo_sub.add_parser("commit", help="store a document as the next version")
    p.add_argument("dir")
    p.add_argument("document")
    p.set_defaults(func=_cmd_repo_commit)
    p = repo_sub.add_parser("log", help="list committed versions")
    p.add_argument("dir")
    p.set_defaults(func=_cmd_repo_log)
    p = repo_sub.add_parser("show", help="print one committed version")
    p.add_argument("dir")
    p.add_argument("version", type=int)
    p.set_defaults(func=_cmd_repo_show)

    pdp = sub.add_parser("pdp", help="policy decision service")
    pdp_sub = pdp.add_subparsers(dest="pdp_command", required=True)
    p = pdp_sub.add_parser("serve", help="serve decisions from a repository")
    p.add_argument("--listen", required=True, type=_address, help="host:port to bind")
    p.add_argument("--repo", required=True, help="repository directory")
    p.set_defaults(func=_cmd_pdp_serve)

    pep = sub.add_parser("pep", help="enforcement-point client")
    pep_sub = pep.add_subparsers(dest="pep_command", required=True)
    p = pep_sub.add_parser("run", help="decide a trace remotely and allocate locally")
    p.add_argument("--connect", required=True, type=_address, help="host:port of the service")
    p.add_argument("--trace", required=True, help="flow trace CSV")
    p.add_argument("--capacity", required=True, type=int, help="link capacity in kbps")
    p.add_argument("--step", type=int, default=1, help="seconds per allocation step")
    p.add_argument("--report", help="report CSV to write (default: stdout)")
    p.set_defaults(func=_cmd_pep_run)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except _Finding as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        ParseError,
        RefineError,
        TranslationError,
        TraceError,
        UnknownReferenceError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RepoError, ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
