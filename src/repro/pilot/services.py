"""Service selection: the one ``-pisvc`` letter validator.

Pilot selects optional services with ``-pisvc=<letters>`` (paper
Section III.C).  This module is the single place where letters are
validated and named; a :class:`~repro.pilot.PilotConfig` keeps them as
its ``services`` string, and every unknown letter produces the same
one error message, raised here and nowhere else.

=======  ==================  ============================================
letter   name                service
=======  ==================  ============================================
``c``    ``native_log``      native call log on a dedicated service rank
``d``    ``deadlock``        deadlock detection on the same rank
``j``    ``jumpshot``        MPE logging for Jumpshot
``s``    ``static_check``    pilotcheck static analysis before launch
``p``    ``perf``            pipeline perf counters (written as JSON
                             next to the MPE log)
``r``    ``resume``          resume from a journal (``-pijournal=DIR``):
                             verified replay that regenerates the log a
                             crash destroyed
``v``    ``stream``          live trace streaming service (HTTP + SSE
                             tiles over the growing log; see
                             :mod:`repro.stream`)
=======  ==================  ============================================

A deterministic fault plan can ride along via
``-pifault-plan=PATH`` pointing at a JSON file (see
:func:`load_fault_plan`), so chaos runs are launchable from the
command line without code.
"""

from __future__ import annotations

from typing import Iterable

from repro.pilot.errors import Diagnostic, PilotError

#: letter -> service name, in canonical display order.
SERVICE_LETTERS: dict[str, str] = {
    "c": "native_log",
    "d": "deadlock",
    "j": "jumpshot",
    "s": "static_check",
    "p": "perf",
    "r": "resume",
    "v": "stream",
}


def parse_service_letters(letters: Iterable[str]) -> frozenset[str]:
    """Validate ``-pisvc`` letters; THE unknown-letter error lives here."""
    letter_set = set(letters)
    bad = letter_set - set(SERVICE_LETTERS)
    if bad:
        raise PilotError(Diagnostic(
            "BAD_OPTION", f"unknown -pisvc letters {sorted(bad)}", None, -1))
    return frozenset(letter_set)


def load_fault_plan(path: str):
    """Load a :class:`repro.vmpi.faults.FaultPlan` from a JSON file.

    Schema::

        {"seed": 7,
         "rules": [
           {"kind": "message", "action": "drop", "src": 0, ...},
           {"kind": "crash", "rank": 1, "at": 0.5, ...},
           {"kind": "clock", "rank": 2, "offset": 1e-3, ...}]}

    Rule fields beyond ``kind`` map 1:1 onto the dataclass fields of
    :class:`~repro.vmpi.faults.MessageFault`,
    :class:`~repro.vmpi.faults.CrashFault` and
    :class:`~repro.vmpi.faults.ClockFault`; their own validation
    applies.  Raises :class:`~repro.vmpi.faults.FaultPlanError` on a
    malformed plan.
    """
    import json

    from repro.vmpi.faults import FaultPlanError, plan_from_dict

    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise FaultPlanError(f"{path}: fault plan must be a JSON object")
    try:
        return plan_from_dict(data)
    except FaultPlanError as exc:
        raise FaultPlanError(f"{path}: {exc}") from None
