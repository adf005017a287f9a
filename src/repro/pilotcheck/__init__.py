"""pilotcheck: static communication analysis + trace linting for Pilot.

Two passes (paper context: the runtime catches misuse *during* a run
and Jumpshot shows it *after*; this module adds *before*):

* :func:`analyze_program` — capture a Pilot main's declared topology by
  executing its configuration phase, AST-walk every rank's execution
  phase, and report PC001-PC005 diagnostics (format mismatches,
  direction misuse, potential deadlock cycles, orphan channels,
  unreachable processes).
* :func:`lint_path` / :func:`lint_clog2` / :func:`lint_slog2` — verify
  CLOG2/SLOG2 invariants (TR001-TR007) so chaos-harness output is
  checkable mechanically.

CLI: ``python -m repro.pilotcheck analyze pkg.module:main`` and
``python -m repro.pilotcheck lint-trace file.clog2 ...``.  Runtime
wiring: ``run_pilot(..., config=PilotConfig(services="s"))`` runs the
analyzer before launch and annotates any observed deadlock with matching
predictions.
"""

from repro.pilotcheck.analysis import ProgramAnalysis, analyze_program
from repro.pilotcheck.capture import (
    CaptureError,
    CapturedProgram,
    capture_program,
)
from repro.pilotcheck.findings import (
    CODES,
    REGISTRY,
    Finding,
    codes_by_family,
    render_findings,
)
from repro.pilotcheck.sarif import sarif_json, to_sarif
from repro.pilotcheck.integrate import (
    annotate_doc,
    annotation_lines,
    match_deadlock,
)
from repro.pilotcheck.tracelint import (
    lint_clog2,
    lint_clog2_records,
    lint_determinants,
    lint_msglog,
    lint_path,
    lint_recovery,
    lint_slog2,
    lint_slog2_doc,
)

__all__ = [
    "CODES",
    "CaptureError",
    "CapturedProgram",
    "Finding",
    "ProgramAnalysis",
    "REGISTRY",
    "analyze_program",
    "annotate_doc",
    "annotation_lines",
    "capture_program",
    "codes_by_family",
    "lint_clog2",
    "lint_clog2_records",
    "lint_determinants",
    "lint_msglog",
    "lint_path",
    "lint_recovery",
    "lint_slog2",
    "lint_slog2_doc",
    "match_deadlock",
    "render_findings",
    "sarif_json",
    "to_sarif",
]
