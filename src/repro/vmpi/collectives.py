"""Collective operations over the point-to-point layer.

These are classic SPMD algorithms (binomial trees, dissemination
barrier) written against :class:`repro.vmpi.comm.Communicator`.  Every
rank executes the same function as its own task; correctness
falls out exactly as it does in real MPI.

Pilot's *own* collectives (PI_Broadcast and friends) are deliberately
NOT implemented on top of these: the paper specifies that a Pilot
collective over a bundle of N channels produces N per-channel messages
("a bundle with N channels will result in N arrows being drawn",
Section III.B), so the Pilot layer loops over its channels.  This module
exists because the substrate is a complete MPI-alike (MPE's log merge
and the Pilot runtime's service protocols use it).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Sequence

from repro.vmpi.comm import INTERNAL_TAG_BASE, Communicator
from repro.vmpi.errors import MessageError

# Reductions offered MPI-style.  All are associative and commutative.
SUM: Callable[[Any, Any], Any] = operator.add
PROD: Callable[[Any, Any], Any] = operator.mul
MIN: Callable[[Any, Any], Any] = min
MAX: Callable[[Any, Any], Any] = max

_COLL_TAG_SPACE = 1 << 26


def _next_coll_tag(comm: Communicator) -> int:
    """Per-rank, per-communicator collective sequence number mapped into
    the internal tag space.  Ranks participating in the same (correctly
    matched) collective hold equal sequence numbers, so their messages
    pair up; a mismatched program hangs — which is precisely MPI
    behaviour, and what Pilot's deadlock detector exists to diagnose.
    The counter is keyed by communicator context so collectives on a
    sub-communicator do not desynchronise the parent's."""
    task = comm.engine._require_task()
    key = f"coll_seq_{comm.context}"
    seq = task.locals.get(key, 0)
    task.locals[key] = seq + 1
    return INTERNAL_TAG_BASE + (seq % _COLL_TAG_SPACE)


def barrier(comm: Communicator) -> None:
    """Dissemination barrier: ceil(log2(n)) rounds, no root bottleneck."""
    rank, size = comm.rank, comm.size
    if size == 1:
        return
    tag = _next_coll_tag(comm)
    mask = 1
    while mask < size:
        comm.send(None, (rank + mask) % size, tag)
        comm.recv((rank - mask) % size, tag)
        mask <<= 1


def bcast(comm: Communicator, obj: Any = None, root: int = 0) -> Any:
    """Binomial-tree broadcast; every rank returns the root's object."""
    rank, size = comm.rank, comm.size
    _check_root(root, size)
    tag = _next_coll_tag(comm)
    rel = (rank - root) % size
    mask = 1
    while mask < size:
        if rel < mask:
            partner = rel + mask
            if partner < size:
                comm.send(obj, (partner + root) % size, tag)
        elif rel < 2 * mask:
            obj = comm.recv((rel - mask + root) % size, tag)
        mask <<= 1
    return obj


def scatter(comm: Communicator, items: Sequence[Any] | None = None,
            root: int = 0) -> Any:
    """Root distributes ``items[i]`` to rank ``i``; returns own item."""
    rank, size = comm.rank, comm.size
    _check_root(root, size)
    tag = _next_coll_tag(comm)
    if rank == root:
        if items is None or len(items) != size:
            raise MessageError(
                f"scatter at root needs exactly {size} items, got "
                f"{'None' if items is None else len(items)}")
        for dest in range(size):
            if dest != root:
                comm.send(items[dest], dest, tag)
        return items[root]
    return comm.recv(root, tag)


def gather(comm: Communicator, obj: Any, root: int = 0) -> list[Any] | None:
    """Root collects one object per rank (rank order); others get None."""
    rank, size = comm.rank, comm.size
    _check_root(root, size)
    tag = _next_coll_tag(comm)
    if rank == root:
        out: list[Any] = [None] * size
        out[root] = obj
        for src in range(size):
            if src != root:
                out[src] = comm.recv(src, tag)
        return out
    comm.send(obj, root, tag)
    return None


def reduce(comm: Communicator, obj: Any, op: Callable[[Any, Any], Any] = SUM,
           root: int = 0) -> Any:
    """Binomial-tree reduction; result lands at ``root`` (None elsewhere)."""
    rank, size = comm.rank, comm.size
    _check_root(root, size)
    tag = _next_coll_tag(comm)
    rel = (rank - root) % size
    value = obj
    mask = 1
    while mask < size:
        if rel & mask:
            dest = ((rel & ~mask) + root) % size
            comm.send(value, dest, tag)
            break
        partner = rel | mask
        if partner < size:
            other = comm.recv((partner + root) % size, tag)
            value = op(value, other)
        mask <<= 1
    return value if rank == root else None


def allreduce(comm: Communicator, obj: Any,
              op: Callable[[Any, Any], Any] = SUM) -> Any:
    return bcast(comm, reduce(comm, obj, op, root=0), root=0)


def allgather(comm: Communicator, obj: Any) -> list[Any]:
    return bcast(comm, gather(comm, obj, root=0), root=0)


def alltoall(comm: Communicator, items: Sequence[Any]) -> list[Any]:
    """Each rank sends ``items[i]`` to rank ``i``; eager sends make the
    naive exchange deadlock-free."""
    rank, size = comm.rank, comm.size
    if len(items) != size:
        raise MessageError(f"alltoall needs {size} items, got {len(items)}")
    tag = _next_coll_tag(comm)
    for dest in range(size):
        if dest != rank:
            comm.send(items[dest], dest, tag)
    out: list[Any] = [None] * size
    out[rank] = items[rank]
    for src in range(size):
        if src != rank:
            out[src] = comm.recv(src, tag)
    return out


def _check_root(root: int, size: int) -> None:
    if not 0 <= root < size:
        raise MessageError(f"root {root} outside communicator of size {size}")
