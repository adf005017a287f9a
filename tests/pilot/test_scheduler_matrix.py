"""Golden digests of three workloads and one deadlock on the scheduler.

Until the thread-per-rank backend was removed, this file ran every case
on both task backends and required byte-identical results.  The digests
in ``tests/golden/scheduler_matrix.json`` were recorded on both, which
agreed, so matching them keeps the one remaining backend faithful to
what either produced.  The workloads span the feature surface:

* ``lab2`` — the paper's bundle/broadcast program (pure message flow),
* ``collisions`` — the data-parallel query app (CSV scatter/gather),
* a seeded **crash + msglog recovery** run of the chaos pipeline app —
  journal armed, a rank killed mid-run and replayed from sender logs.

Each must reproduce the sha256 of its CLOG2 bytes after
:func:`canonical_stripped_bytes` and of its SLOG2 bytes after
conversion.  A final case pins the failure path: the deadlock
diagnostics (``SimulationDeadlock`` message, blocked table, pilotcheck
PC003 cross-links).

If a change legitimately alters these outputs, regenerate with::

    PYTHONPATH=src python -m tests.pilot.test_scheduler_matrix --regenerate
"""

import functools
import hashlib
import json
import os
import sys
import tempfile

import pytest

from repro.apps.collisions import GOOD, CollisionConfig, collisions_main
from repro.apps.lab2 import Lab2Config, lab2_main
from repro.mpe.clog2 import read_log
from repro.mpe.recovery_marks import canonical_stripped_bytes, strip_recovery
from repro.pilot import PilotConfig, run_pilot
from repro.pilotlog.integration import JumpshotOptions
from repro.slog2.convert import convert
from repro.slog2.file import write_slog2
from repro.vmpi.errors import SimulationDeadlock

from tests.chaos.test_chaos import pipeline_app
from tests.chaos.test_msglog import NPROCS, ROUNDS, RUN_SEED, WORKERS, msglog_plan
from tests.pilotcheck import fixtures

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "golden",
                      "scheduler_matrix.json")

# One crash site is enough here — the full seeds x sites sweep lives in
# tests/chaos/test_msglog.py.
CRASH_RANK, CRASH_AT = 1, 1e-3
PLAN_SEED = 3

WORKLOADS = {
    "lab2": (functools.partial(lab2_main, config=Lab2Config()), 6),
    "collisions": (functools.partial(
        collisions_main, variant=GOOD,
        config=CollisionConfig(nrecords=2_000, seed=7)), 4),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def logged_run(tmp_dir, name, main, nprocs, **cfg_fields):
    """Run ``main`` with CLOG2 logging."""
    log = os.path.join(tmp_dir, f"{name}.clog2")
    cfg = PilotConfig(services="j", mpe_log_path=log, seed=RUN_SEED,
                      **cfg_fields)
    res = run_pilot(main, nprocs, config=cfg, mpe_options=JumpshotOptions())
    return log, res


def slog2_digest(tmp_dir, clog_path, tag):
    doc, report = convert(strip_recovery(read_log(clog_path).log))
    assert not report.causality_violations
    out = os.path.join(tmp_dir, f"{tag}.slog2")
    write_slog2(out, doc)
    with open(out, "rb") as fh:
        return sha256(fh.read())


def workload_digests(tmp_dir, name):
    main, nprocs = WORKLOADS[name]
    log, res = logged_run(tmp_dir, name, main, nprocs)
    assert res.ok, f"{name}: {res.aborted}"
    return {"clog2_stripped_sha256": sha256(canonical_stripped_bytes(log)),
            "slog2_sha256": slog2_digest(tmp_dir, log, name),
            "total_time": res.total_time,
            # repr, not ==: collisions results hold numpy arrays.
            "results_sha256": sha256(repr(res.vmpi.results).encode())}


def recovery_digests(tmp_dir):
    plan = msglog_plan(PLAN_SEED, CRASH_RANK, CRASH_AT)
    log, res = logged_run(
        tmp_dir, "recover", pipeline_app(WORKERS, ROUNDS), NPROCS,
        journal_dir=os.path.join(tmp_dir, "recover.journal"),
        recover="msglog", faults=plan)
    assert res.ok and res.aborted is None
    return {"recovered_ranks": [int(ep["rank"])
                                for ep in res.recovery_report.recoveries],
            "clog2_stripped_sha256": sha256(canonical_stripped_bytes(log)),
            "slog2_sha256": slog2_digest(tmp_dir, log, "recover")}


def deadlock_diagnostics():
    with pytest.raises(SimulationDeadlock) as excinfo:
        run_pilot(fixtures.pc003_bad, 2, config=PilotConfig(services="s"))
    exc = excinfo.value
    return {"message": str(exc),
            "blocked": {str(r): why for r, why in sorted(exc.blocked.items())},
            "findings": [[f.code, list(f.ranks)]
                         for f in exc.static_findings]}


def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


class TestByteIdentityMatrix:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_logs_identical_across_backends(self, tmp_path, name):
        assert workload_digests(str(tmp_path), name) == golden()[name]

    def test_crash_recovery_identical_across_backends(self, tmp_path):
        digests = recovery_digests(str(tmp_path))
        assert digests["recovered_ranks"] == [CRASH_RANK]
        assert digests == golden()["msglog_recovery"]


class TestFailureParity:
    def test_deadlock_diagnostics_identical_across_backends(self):
        diagnostics = deadlock_diagnostics()
        assert diagnostics == golden()["pc003_deadlock"]
        assert diagnostics["findings"] == [["PC003", [0, 1]]]
        assert set(diagnostics["blocked"]) == {"0", "1"}


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        with tempfile.TemporaryDirectory() as tmp:
            digests = {name: workload_digests(tmp, name)
                       for name in WORKLOADS}
            digests["msglog_recovery"] = recovery_digests(tmp)
        digests["pc003_deadlock"] = deadlock_diagnostics()
        with open(GOLDEN, "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("golden digests regenerated")
    else:
        print(__doc__)
