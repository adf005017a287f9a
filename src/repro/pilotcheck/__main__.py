"""CLI: ``python -m repro.pilotcheck``.

Subcommands::

    analyze MODULE:CALLABLE [--nprocs N] [--pilot-arg ARG]... [--format F]
    lint-trace FILE [FILE...] [--strict] [--format F]
    diff-trace TRACE_A TRACE_B [--strict] [--format F] [--svg PATH]
    net MODULE:CALLABLE [--trace FILE] [--dot PATH] [--svg PATH]
    codes

``--format sarif`` prints findings as a SARIF 2.1.0 log on stdout (for
CI ingestion); the default ``text`` keeps the human rendering.  Exit
status: 0 clean, 1 warnings only (or any finding under ``--strict``),
2 errors — identical in both formats.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys

from repro.pilot.config import PilotConfig
from repro.pilotcheck.findings import (
    FAMILIES,
    Finding,
    codes_by_family,
    render_findings,
)


def _load_target(spec: str):
    """Resolve ``pkg.module:callable`` or ``path/to/file.py:callable``."""
    if ":" not in spec:
        raise SystemExit(
            "target must be MODULE:CALLABLE or FILE.py:CALLABLE, "
            f"got {spec!r}")
    modpart, _, funcname = spec.rpartition(":")
    if modpart.endswith(".py"):
        loader_spec = importlib.util.spec_from_file_location(
            "pilotcheck_target", modpart)
        if loader_spec is None or loader_spec.loader is None:
            raise SystemExit(f"cannot load {modpart!r}")
        module = importlib.util.module_from_spec(loader_spec)
        loader_spec.loader.exec_module(module)
    else:
        module = importlib.import_module(modpart)
    try:
        return getattr(module, funcname)
    except AttributeError:
        raise SystemExit(
            f"{modpart!r} has no callable {funcname!r}") from None


def _exit_code(findings: list[Finding], strict: bool) -> int:
    if any(f.severity == "error" for f in findings):
        return 2
    if findings:
        return 1 if strict else 0
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.pilotcheck.analysis import analyze_program
    from repro.pilotcheck.capture import CaptureError

    main = _load_target(args.target)
    config, argv = PilotConfig.from_argv(args.pilot_arg or ())
    try:
        analysis = analyze_program(main, args.nprocs, argv, config=config)
    except CaptureError as exc:
        print(f"configuration phase failed: {exc.diagnostic.render()}",
              file=sys.stderr)
        return 2
    if args.format == "sarif":
        from repro.pilotcheck.sarif import sarif_json

        print(sarif_json(analysis.findings), end="")
    else:
        print(analysis.render())
        for note in analysis.notes:
            print(f"  note: {note}")
    return _exit_code(analysis.findings, args.strict)


def _cmd_lint_trace(args: argparse.Namespace) -> int:
    from repro.pilotcheck.tracelint import lint_path

    worst = 0
    if args.format == "sarif":
        from repro.pilotcheck.sarif import SarifEmitter

        emitter = SarifEmitter()
        for path in args.files:
            findings = lint_path(path)
            emitter.add(findings, artifact=path)
            worst = max(worst, _exit_code(findings, args.strict))
        print(emitter.json(), end="")
        return worst
    for path in args.files:
        findings = lint_path(path)
        if findings:
            print(render_findings(findings, header=f"{path}:"))
        else:
            print(f"{path}: clean")
        worst = max(worst, _exit_code(findings, args.strict))
    return worst


def _cmd_diff_trace(args: argparse.Namespace) -> int:
    from repro.tracediff import diff_findings, diff_traces

    perf = None
    if args.perf_json:
        from repro.perf import PerfRecorder

        perf = PerfRecorder()
    try:
        diff = diff_traces(args.trace_a, args.trace_b,
                           errors=args.errors,
                           time_tolerance=args.time_tolerance,
                           label_a=args.label_a, label_b=args.label_b,
                           perf=perf)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    findings = diff_findings(diff, max_per_code=args.top)

    if args.svg or args.ascii:
        from repro import jumpshot, slog2

        if args.svg:
            from repro.tracediff.load import load_side

            side_a = load_side(args.trace_a, diff.label_a,
                               errors=args.errors)
            side_b = load_side(args.trace_b, diff.label_b,
                               errors=args.errors)
            doc_a, _ = slog2.convert(side_a.log, recovery=side_a.report)
            doc_b, _ = slog2.convert(side_b.log, recovery=side_b.report)
            jumpshot.render_diff_svg(doc_a, doc_b, diff, args.svg)
            print(f"overlay written to {args.svg}", file=sys.stderr)
        if args.ascii:
            print(jumpshot.render_diff_ascii(diff, width=args.width))

    if args.format == "sarif":
        from repro.pilotcheck.sarif import SarifEmitter

        print(SarifEmitter()
              .add(findings, artifact=args.trace_b).json(), end="")
    else:
        print(diff.summary())
        if findings:
            print(render_findings(findings, header="findings:"))
    if args.perf_json and perf is not None:
        perf.dump(args.perf_json)
    return _exit_code(findings, args.strict)


def _cmd_net(args: argparse.Namespace) -> int:
    from repro.mpnet import (
        check_conformance,
        extract_static_net,
        extract_trace_net,
        render_net_svg,
        render_net_text,
        to_dot,
    )
    from repro.pilotcheck.analysis import analyze_program
    from repro.pilotcheck.capture import CaptureError

    main = _load_target(args.target)
    config, argv = PilotConfig.from_argv(args.pilot_arg or ())
    try:
        analysis = analyze_program(main, args.nprocs, argv, config=config)
    except CaptureError as exc:
        print(f"configuration phase failed: {exc.diagnostic.render()}",
              file=sys.stderr)
        return 2
    static = extract_static_net(analysis)

    trace_net = None
    findings: list[Finding] = []
    if args.trace:
        try:
            trace_net = extract_trace_net(args.trace, errors=args.errors)
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        findings = check_conformance(static, trace_net)

    # Deadlock predictions name their cycle's channels, so they mark
    # the same edges the conformance findings do.
    deadlocks = [f for f in analysis.findings
                 if f.code == "PC003" and f.cids]
    marked = findings + deadlocks

    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(static, marked))
        print(f"DOT written to {args.dot}", file=sys.stderr)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_net_svg(static, marked, trace_net))
        print(f"SVG written to {args.svg}", file=sys.stderr)

    if args.format == "sarif":
        from repro.pilotcheck.sarif import SarifEmitter

        print(SarifEmitter()
              .add(findings, artifact=args.trace).json(), end="")
    else:
        print(render_net_text(static, marked))
        for f in deadlocks:
            cycle = "/".join(f"C{c}" for c in f.cids)
            print(f"  deadlock prediction {f.code} runs through {cycle}: "
                  f"{f.message}")
        if trace_net is not None:
            print(render_net_text(trace_net, findings))
            if findings:
                print(render_findings(findings, header="conformance:"))
            else:
                print("conformance: trace matches the predicted net")
    return _exit_code(findings, args.strict)


def _cmd_codes(_args: argparse.Namespace) -> int:
    for family, infos in codes_by_family().items():
        print(f"{family}xxx — {FAMILIES[family]}")
        for info in infos:
            print(f"  {info.code}  [{info.severity:7s}] {info.meaning}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.pilotcheck",
        description="Static communication analyzer and trace linter "
                    "for Pilot programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze",
                          help="statically analyze a Pilot main")
    p_an.add_argument("target",
                      help="MODULE:CALLABLE or FILE.py:CALLABLE")
    p_an.add_argument("--nprocs", type=int, default=6,
                      help="virtual world size (default 6)")
    p_an.add_argument("--pilot-arg", action="append", metavar="ARG",
                      help="argv entry passed to the program "
                           "(repeatable; e.g. --pilot-arg=-pisvc=d)")
    p_an.add_argument("--strict", action="store_true",
                      help="non-zero exit on warnings too")
    p_an.add_argument("--format", choices=("text", "sarif"),
                      default="text",
                      help="output format (sarif = SARIF 2.1.0 JSON)")
    p_an.set_defaults(func=_cmd_analyze)

    p_lt = sub.add_parser("lint-trace",
                          help="validate CLOG2/SLOG2 trace invariants")
    p_lt.add_argument("files", nargs="+", metavar="FILE")
    p_lt.add_argument("--strict", action="store_true",
                      help="non-zero exit on warnings too")
    p_lt.add_argument("--format", choices=("text", "sarif"),
                      default="text",
                      help="output format (sarif = SARIF 2.1.0 JSON)")
    p_lt.set_defaults(func=_cmd_lint_trace)

    p_dt = sub.add_parser(
        "diff-trace",
        help="diff two traces and localize the rank most likely at "
             "fault (DF codes)")
    p_dt.add_argument("trace_a", metavar="TRACE_A",
                      help="reference trace (fault-free / before); a "
                           "CLOG2 path or the base path of salvage "
                           "partials")
    p_dt.add_argument("trace_b", metavar="TRACE_B",
                      help="suspect trace (faulted / after)")
    p_dt.add_argument("--strict", action="store_true",
                      help="non-zero exit on warnings too")
    p_dt.add_argument("--format", choices=("text", "sarif"),
                      default="text",
                      help="output format (sarif = SARIF 2.1.0 JSON)")
    p_dt.add_argument("--errors", choices=("strict", "salvage"),
                      default="salvage",
                      help="reader policy for damaged inputs "
                           "(default: salvage — align what is readable)")
    p_dt.add_argument("--time-tolerance", type=float, default=1e-9,
                      metavar="SECONDS",
                      help="ignore timestamp drift up to this many "
                           "virtual seconds (default 1e-9)")
    p_dt.add_argument("--top", type=int, default=8, metavar="N",
                      help="episode findings reported per DF code "
                           "(default 8; overflow is summarized)")
    p_dt.add_argument("--label-a", metavar="NAME",
                      help="display label for TRACE_A (default: "
                           "basename)")
    p_dt.add_argument("--label-b", metavar="NAME",
                      help="display label for TRACE_B")
    p_dt.add_argument("--svg", metavar="PATH",
                      help="write a side-by-side overlay SVG with "
                           "divergence markers")
    p_dt.add_argument("--ascii", action="store_true",
                      help="print an ASCII divergence overlay")
    p_dt.add_argument("--width", type=int, default=100,
                      help="ASCII overlay width (default 100)")
    p_dt.add_argument("--perf-json", metavar="PATH",
                      help="dump align/diff/score perf counters as JSON")
    p_dt.set_defaults(func=_cmd_diff_trace)

    p_net = sub.add_parser(
        "net",
        help="extract the MP communication net; with --trace, check "
             "the observed net against it (MN codes)")
    p_net.add_argument("target",
                       help="MODULE:CALLABLE or FILE.py:CALLABLE")
    p_net.add_argument("--nprocs", type=int, default=6,
                       help="virtual world size (default 6)")
    p_net.add_argument("--pilot-arg", action="append", metavar="ARG",
                       help="argv entry passed to the program "
                            "(repeatable)")
    p_net.add_argument("--trace", metavar="TRACE",
                       help="CLOG2 trace (or salvage base path) to "
                            "check against the static net")
    p_net.add_argument("--errors", choices=("strict", "salvage"),
                       default="salvage",
                       help="trace reader policy (default: salvage)")
    p_net.add_argument("--strict", action="store_true",
                       help="non-zero exit on warnings too")
    p_net.add_argument("--format", choices=("text", "sarif"),
                       default="text",
                       help="output format for conformance findings")
    p_net.add_argument("--dot", metavar="PATH",
                       help="write the net as Graphviz DOT")
    p_net.add_argument("--svg", metavar="PATH",
                       help="write the net as a standalone SVG "
                            "(divergent edges highlighted)")
    p_net.set_defaults(func=_cmd_net)

    p_codes = sub.add_parser("codes",
                             help="list the diagnostic code catalogue")
    p_codes.set_defaults(func=_cmd_codes)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
