"""End-to-end benchmark: from launching a logged Pilot program to looking
at its picture.

    python3 e2ebench/run.py --workload thumbnail --seed 1 --seconds 28 \\
        --trace 0

Workloads (see ``workloads.py``; ``METRICS.md`` maps each per-layer
metric to the end-to-end metric it should move):

* ``thumbnail`` -- the paper's Fig 1/2 pipeline at paper size (1058
  files, 11 ranks) with logging on, then the view path and a zoom
  session: about 40k CLOG2 records through every logging and viewing
  layer.
* ``fleet`` -- a 100-worker master/worker run with logging off, where the
  configuration phase and PI_Select over a 100-channel bundle dominate;
  then a picture of a logged run of the same fleet (101 timelines).
* ``live`` -- an open-loop replay of the thumbnail run's log into
  append-mode partials, in the checkpoint batches and on the schedule a
  real ``-pisvc=v`` run writes them, while a ``StreamService`` follows
  them and one HTTP client fetches the level-0 tile; the replay ends
  like a clean run and the service finalizes through the batch path.

Each session runs in a fresh worker process.  ``fleet`` and ``live``
first run an unmeasured prepare step that makes the inputs their
sessions share.  A run makes a fixed number of sessions, from
``--seconds`` and the nominal session length (:data:`SESSION_S`), and
more only until the pooled operation latencies support a p95 (200
samples); it never depends on how fast the sessions went, so every run
of a seed pools the same operations.  The run reports medians, with
latencies pooled over its sessions.  ``--trace 1`` instead runs one
untraced and one traced session and reports the per-layer split.

Every output is checked: digests and virtual times must repeat across
sessions of one seed and, at the default seed, equal the digests
recorded in ``digests.json``.  The last line printed is one JSON object;
the exit status is 1 when any check failed, 2 when the program under
test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import highest_supported, median, percentile  # noqa: E402

DEFAULT_SEED = 1
#: Workloads with an unmeasured prepare step (``workloads.PREPARE``).
PREPARE_STEP = ("fleet", "live")
MIN_SESSIONS = 2
#: Nominal seconds one measured session takes on 2 vCPUs, with the
#: prepare step spread over the sessions; only turns ``--seconds`` into
#: a session count.
SESSION_S = {"thumbnail": 9.0, "fleet": 6.0, "live": 12.0}
#: A run must end within this many seconds, whatever its sessions do.
RUN_LIMIT = 170.0
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists in
    ``section``."""
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def planned_sessions(workload: str, seconds: float) -> int:
    return max(MIN_SESSIONS, int(seconds // SESSION_S[workload]))


def spawn(workload: str, seed: int, mode: str, workdir: str, shared: str,
          timeout: float, spans: str | None = None) -> dict:
    """Run one worker session; a crashed or silent worker is a failed
    session."""
    os.makedirs(workdir)
    os.makedirs(shared, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--workdir", workdir, "--shared", shared]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())],
                              env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return _failed_session(f"{mode} session timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit status {proc.returncode}")
        return json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        return _failed_session(f"{mode} session: {exc}; "
                               f"{proc.stderr.strip()[-500:]}")


def _failed_session(message: str) -> dict:
    return {"attempted": 1, "failed": 1, "errors": [message], "facts": {},
            "run_s": [], "view_s": [], "ops_ms": [], "release_ms": []}


def check_facts(sessions: list[dict], recorded: dict | None) -> list[str]:
    """Facts (digests, virtual times, event counts) must agree across
    sessions and, when given, with the recorded values."""
    errors = []
    seen: dict[str, object] = {}
    for session in sessions:
        for key, value in session["facts"].items():
            if key in seen and seen[key] != value:
                errors.append(f"{key} differs between sessions: "
                              f"{seen[key]!r} != {value!r}")
            seen.setdefault(key, value)
    for key, value in (recorded or {}).items():
        if seen.get(key) != value:
            errors.append(f"{key} is {seen.get(key)!r}, recorded {value!r}")
    return errors


def end_to_end(sessions: list[dict], errors: list[str]) -> dict:
    runs = [x for s in sessions for x in s["run_s"]]
    views = [x for s in sessions for x in s["view_s"]]
    ops = [x for s in sessions for x in s["ops_ms"]]
    ok = [s for s in sessions if "setup_s" in s]
    if not (runs and views and ok):
        errors.append("no complete session")
        return {}
    if (highest_supported(len(ops)) or 0.0) < 95.0:
        errors.append(f"{len(ops)} operations cannot support a p95")
        return {}
    values = {
        "setup_s": median([s["setup_s"] for s in ok]),
        "run_s": median(runs),
        "view_s": median(views),
        "op_p50_ms": percentile(ops, 50.0),
        "op_p95_ms": percentile(ops, 95.0),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in ok]),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in metric_units("end_to_end").items()}


def per_layer(reference: dict, traced: dict, errors: list[str]) -> dict:
    layers = dict(traced.get("layers", {}))
    errors += [f"trace: {e}" for e in traced.get("trace_errors", [])]
    if reference["run_s"] and traced["run_s"]:
        layers["trace.overhead"] = traced["run_s"][0] / reference["run_s"][0]
    layers["bench.generator_late_ms"] = traced.get("late_ms", 0.0)
    layers["stream.backlog_max"] = traced.get("backlog_max", 0.0)
    cache = traced.get("cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    layers["stream.cache_hit_ratio"] = (cache["hits"] / lookups
                                        if lookups else 0.0)
    if traced.get("release_ms"):
        layers["stream.release_to_tile_ms"] = median(traced["release_ms"])
    if traced.get("calibrations"):
        layers["bench.calibration_ms"] = median(traced["calibrations"]) * 1e3
    return {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in metric_units("per_layer").items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("thumbnail", "fleet", "live"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record this run's facts as the default "
                             "seed's expected digests")
    args = parser.parse_args(argv)
    if args.write_digests and args.seed != DEFAULT_SEED:
        parser.error(f"digests are recorded at the default seed "
                     f"({DEFAULT_SEED})")

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("e2ebench: no src/repro next to the benchmark; nothing to "
              "measure", file=sys.stderr)
        return 2

    # Terminated like any exit, so that subprocess.run kills the
    # running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(HERE, "_work",
                        f"{args.workload}-s{args.seed}-{os.getpid()}")
    errors: list[str] = []
    t0 = time.monotonic()

    def left() -> float:
        return RUN_LIMIT - (time.monotonic() - t0)

    def session(mode: str, name: str, shared: str,
                spans: str | None = None) -> dict:
        return spawn(args.workload, args.seed, mode,
                     os.path.join(work, name), shared, left(), spans)

    sessions: list[dict] = []
    prepared: list[dict] = []
    metrics: dict = {}
    try:
        if args.workload in PREPARE_STEP:
            # A failure here also shows as each session's missing input.
            prepared.append(session("prepare", "prepare",
                                    os.path.join(work, "inputs")))
        if args.trace:
            spans = os.path.join(HERE, "_work",
                                 f"spans-{args.workload}-s{args.seed}.jsonl.gz")
            reference = session("reference", "reference",
                                os.path.join(work, "inputs"))
            traced = session("traced", "traced",
                             os.path.join(work, "inputs"), spans)
            sessions = [reference, traced]
            metrics = per_layer(reference, traced, errors)
        else:
            planned = planned_sessions(args.workload, args.seconds)
            last = 0.0
            while (len(sessions) < planned or (highest_supported(
                    sum(len(s["ops_ms"]) for s in sessions)) or 0.0) < 95.0):
                if sessions and not sessions[-1]["ops_ms"]:
                    break  # a failed session
                if left() < last:
                    errors.append(f"no time for session {len(sessions) + 1}"
                                  f" within {RUN_LIMIT:.0f}s")
                    break
                start = time.monotonic()
                sessions.append(session("plain", str(len(sessions)),
                                        os.path.join(work, "inputs")))
                last = time.monotonic() - start
            metrics = end_to_end(sessions, errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    recorded = None
    if args.seed == DEFAULT_SEED and os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            recorded = json.load(fh).get(args.workload)
    if args.write_digests:
        facts = {k: v for s in sessions for k, v in s["facts"].items()}
        table = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as fh:
                table = json.load(fh)
        table[args.workload] = facts
        with open(DIGESTS, "w") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        errors += check_facts(sessions, recorded)
    for s in prepared + sessions:
        errors += s.get("errors", [])

    attempted = sum(s.get("attempted", 0) for s in prepared + sessions)
    failed = sum(s.get("failed", 0) for s in prepared + sessions)
    correct = not errors and failed == 0 and bool(metrics)
    for message in errors:
        print(f"e2ebench: {message}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
