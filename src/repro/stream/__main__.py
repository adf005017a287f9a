"""``python -m repro.stream serve`` — watch a run from a browser.

Point it at the MPE log base path (the ``.clog2`` the run writes), or
at a directory containing one run's artifacts — it will find the base
from the per-rank ``.part`` partials or the merged log itself::

    python -m repro.stream serve /tmp/run/trace.clog2 --port 8080
    python -m repro.stream serve /tmp/run --until-final

The service keeps serving after the run ends (the final view is the
batch pipeline's, byte for byte); ``--until-final`` exits once that
happens, which is what the chaos CI jobs use.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro._util.retry import RetryPolicy
from repro.stream.follow import DEFAULT_POLICY
from repro.stream.service import StreamService


def discover_base(path: str) -> str:
    """Resolve a directory to the one MPE base path inside it."""
    if not os.path.isdir(path):
        return path
    bases: set[str] = set()
    for name in sorted(os.listdir(path)):
        if name.endswith(".part") and ".rank" in name:
            bases.add(os.path.join(path, name.rsplit(".rank", 1)[0]))
        elif name.endswith(".clog2") and not name.endswith(".stream.clog2"):
            bases.add(os.path.join(path, name))
    if len(bases) == 1:
        return bases.pop()
    if not bases:
        raise SystemExit(f"{path}: no .clog2 or .part files found")
    raise SystemExit(f"{path}: multiple runs found "
                     f"({', '.join(sorted(os.path.basename(b) for b in bases))}); "
                     "pass the base path explicitly")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream",
        description="Live trace streaming service for a running "
                    "(or crashed) engine.")
    sub = parser.add_subparsers(dest="command", required=True)
    serve = sub.add_parser("serve", help="follow a run and serve its "
                                         "timeline over HTTP + SSE")
    serve.add_argument("path", help="MPE log base path, or a directory "
                                    "holding one run's artifacts")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8800)
    serve.add_argument("--deadline", type=float,
                       default=DEFAULT_POLICY.deadline,
                       help="seconds of writer silence before the run "
                            "is declared dead (default %(default)s)")
    serve.add_argument("--poll-interval", type=float,
                       default=DEFAULT_POLICY.initial,
                       help="initial poll interval; backs off toward "
                            "--max-interval while quiet "
                            "(default %(default)s)")
    serve.add_argument("--max-interval", type=float,
                       default=DEFAULT_POLICY.max_delay,
                       help="poll interval ceiling (default %(default)s)")
    serve.add_argument("--journal",
                       help="journal directory of the run, for abort "
                            "detection")
    serve.add_argument("--expected-ranks", type=int,
                       help="rank count the salvage merge should expect")
    serve.add_argument("--until-final", action="store_true",
                       help="exit once the run finalized (CI mode); "
                            "default serves until interrupted")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    base = discover_base(args.path)
    policy = RetryPolicy(deadline=args.deadline,
                         initial=args.poll_interval,
                         max_delay=max(args.max_interval,
                                       args.poll_interval))
    service = StreamService(base, host=args.host, port=args.port,
                            policy=policy, journal_dir=args.journal,
                            expected_ranks=args.expected_ranks)
    service.start()
    print(f"streaming {base}")
    print(f"viewer at {service.url}")
    try:
        if args.until_final:
            service.wait_finalized()
            status = service.status()
            print(f"finalized: state={status['state']} "
                  f"epoch={status['epoch']} "
                  f"records={status['records_folded']}")
            if status["banner"]:
                print(status["banner"])
            return 0
        while True:
            service.wait_finalized(timeout=3600.0)
    except KeyboardInterrupt:
        print("interrupted")
        return 0
    finally:
        service.stop()


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
