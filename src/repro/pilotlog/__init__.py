"""``repro.pilotlog`` — the paper's contribution: Pilot's log
visualization facility.

Enable it per run with the service letter of the paper's ``-pisvc=j``
option::

    run_pilot(main, nprocs, config=PilotConfig(services="j"))

which produces a CLOG2 file; convert with :mod:`repro.slog2` and view
with :mod:`repro.jumpshot`.  See :mod:`repro.pilotlog.integration` for
the full visual design.
"""

from repro.pilotlog.colors import PALETTE, ColorScheme, rgb
from repro.pilotlog.integration import JumpshotLoggerHook, JumpshotOptions
from repro.pilotlog.taxonomy import (
    CALL_SPECS,
    Category,
    CallSpec,
    DrawStyle,
    spec_for,
)

__all__ = [
    "CALL_SPECS",
    "CallSpec",
    "Category",
    "ColorScheme",
    "DrawStyle",
    "JumpshotLoggerHook",
    "JumpshotOptions",
    "PALETTE",
    "rgb",
    "spec_for",
]
