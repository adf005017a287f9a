"""One benchmark session in a fresh process.

Each session starts a new interpreter so that what a user pays on every
launch (imports, weaving rank code for the coroutine scheduler) stays
inside the measured times.  ``run.py`` starts this script and reads the
JSON object it prints as its last line.

    python3 e2ebench/worker.py --workload thumbnail --seed 1 \\
        --mode plain --workdir DIR --shared DIR --spawned T

``--mode prepare`` makes the run's shared inputs instead and measures
nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("prepare", "plain", "reference", "traced"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--shared", required=True,
                        help="inputs the prepare step makes for the "
                             "sessions of one run")
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans", default=None,
                        help="where a traced session writes its spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    rec = None
    if args.mode == "traced":
        import tracing

        rec = tracing.SpanRecorder(f"{args.workload}-{args.seed}")
        tracing.install(rec)
    session = workloads.Session(
        seed=args.seed, workdir=args.workdir, shared=args.shared,
        spawned=args.spawned, zoom=args.mode != "reference", rec=rec)
    step = (workloads.PREPARE[args.workload] if args.mode == "prepare"
            else workloads.WORKLOADS[args.workload])
    try:
        step(session)
    except Exception as exc:  # the session failed; report, don't crash
        import traceback

        traceback.print_exc()
        session.fail(f"{args.workload}: {exc!r}")
    if rec is not None:
        rec.active = False
        layers, errors = tracing.layer_metrics(rec)
        layers.update(session.counts)
        result = session.result()
        result["layers"] = layers
        result["trace_errors"] = errors[:20]
        if args.spans:
            rec.dump(args.spans)
    else:
        result = session.result()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
