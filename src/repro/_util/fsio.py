"""Durable small-file I/O helpers.

The journal, the runner's exit sidecar and every other
"small sidecar of JSON state" share one write discipline: serialise to
a temp file, fsync, rename.  A reader therefore sees either the old
complete contents or the new complete contents — never a torn mix —
which is what lets crash-recovery code trust these files at all.
"""

from __future__ import annotations

import json
import os


def atomic_write_json(path: str, data: dict) -> None:
    """Write ``data`` as indented JSON via the tmp+fsync+rename dance."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_json(path: str) -> dict | None:
    """Load a JSON sidecar; ``None`` when absent.  Raises ValueError on
    corrupt contents (the atomic writer never produces them, so damage
    means something else wrote here)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data
