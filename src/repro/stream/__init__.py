"""Live trace streaming: follow a running engine's logs and serve them.

The batch pipeline (``merge → convert → frame tree → render``) needs
the run to be over.  This package is the live complement: a
crash-tolerant follower tails the per-rank salvage partials as they
grow, a watermark fold turns them into a provisional frame tree, and a
stdlib HTTP/SSE service serves timeline tiles to clients while the
program is still running — then swaps in the canonical batch-built
tree the moment the writer ends, so the final view is byte-identical
to the offline pipeline's.

Entry points: ``python -m repro.stream serve <logdir>``, the ``v``
service letter (``-pisvc=v``), or :class:`StreamService` directly.
"""

from repro.stream.fold import LiveFold
from repro.stream.follow import (
    DEFAULT_POLICY,
    FollowUpdate,
    LogFollower,
    exit_path,
)
from repro.stream.service import StreamService, serve_until_final
from repro.stream.tiles import TileCache, render_tile, tile_bounds

__all__ = [
    "DEFAULT_POLICY",
    "FollowUpdate",
    "LiveFold",
    "LogFollower",
    "StreamService",
    "TileCache",
    "exit_path",
    "render_tile",
    "serve_until_final",
    "tile_bounds",
]
