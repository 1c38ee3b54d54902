"""Payload handling: real NumPy buffers or symbolic byte counts.

The runtime runs in one of two *payload modes*:

* **data mode** — messages carry real ``numpy.ndarray`` views; receives
  copy bytes into destination buffers.  Used by the test-suite and the
  examples, where results are checked element-for-element.
* **model mode** (``payload="cost-only"``) — messages carry
  :class:`Bytes` markers (a size, no storage) and sends take
  :func:`snapshot` instead of :func:`clone`.  Timing is identical,
  memory use is O(1) per message.  Used by the paper-scale benchmark
  sweeps (a 1536-rank allgather of 16 Ki doubles would otherwise
  allocate ~190 MB *per rank*).

:func:`nbytes_of` is the single size oracle used by every cost model, so
both modes are guaranteed to follow the same code paths and charge the
same virtual time.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "Bytes", "nbytes_of", "copy_into", "clone", "snapshot", "slice_payload",
    "concat",
]


class Bytes:
    """A symbolic message payload of a given size in bytes.

    Supports the small algebra collective algorithms need: slicing by
    byte ranges and concatenation, each producing new :class:`Bytes`.
    """

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int | float):
        if nbytes < 0:
            raise ValueError("payload size must be non-negative")
        self.nbytes = int(nbytes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bytes) and other.nbytes == self.nbytes

    def __hash__(self) -> int:
        return hash(("Bytes", self.nbytes))

    def __repr__(self) -> str:
        return f"Bytes({self.nbytes})"


def nbytes_of(payload: Any) -> int:
    """Size in bytes of a payload.

    Accepts ``numpy.ndarray``, :class:`Bytes`, ``bytes``-likes, ``None``
    (zero bytes) and any object exposing an integer ``nbytes`` attribute
    (e.g. the block containers used internally by collectives).
    """
    # Every supported type except the raw bytes-likes exposes ``nbytes``,
    # so one getattr replaces an isinstance chain (this is the innermost
    # size oracle of the whole cost model).
    size = getattr(payload, "nbytes", None)
    if size is not None:
        return size if type(size) is int else int(size)
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    raise TypeError(f"unsupported payload type {type(payload).__name__}")


def copy_into(dst: Any, src: Any) -> Any:
    """Copy *src* into *dst*, returning the receive-side payload.

    * ndarray → ndarray: element copy (dtype-safe via ravel views).
    * ``dst is None``: the payload is passed through (zero-copy receive).
    * :class:`Bytes` payloads never copy.

    Raises
    ------
    ValueError
        If a real destination buffer is smaller than the source.
    """
    if dst is None:
        return src
    if isinstance(src, Bytes) or isinstance(dst, Bytes):
        return dst if isinstance(dst, Bytes) else Bytes(nbytes_of(src))
    if isinstance(dst, np.ndarray) and isinstance(src, np.ndarray):
        if dst.nbytes < src.nbytes:
            raise ValueError(
                f"destination buffer ({dst.nbytes} B) smaller than message "
                f"({src.nbytes} B)"
            )
        flat_dst = dst.reshape(-1)
        flat_src = src.reshape(-1).view(flat_dst.dtype) if (
            src.dtype != flat_dst.dtype
        ) else src.reshape(-1)
        flat_dst[: flat_src.size] = flat_src
        return dst
    raise TypeError(
        f"cannot copy {type(src).__name__} into {type(dst).__name__}"
    )


def clone(payload: Any) -> Any:
    """Snapshot a payload at send time (value semantics for sends)."""
    if payload is None or isinstance(payload, Bytes):
        return payload
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, (bytes,)):
        return payload
    if isinstance(payload, (bytearray, memoryview)):
        return bytes(payload)
    cloner = getattr(payload, "sim_clone", None)
    if cloner is not None:
        return cloner()
    raise TypeError(f"unsupported payload type {type(payload).__name__}")


def snapshot(payload: Any) -> Any:
    """Send-time snapshot for *cost-only* mode.

    Preserves every size :func:`nbytes_of` would report (so all virtual-
    time charges match :func:`clone` exactly) but never copies storage:
    ndarrays collapse to :class:`Bytes` markers and block containers take
    a shallow ``sim_snapshot`` (their members are immutable size markers
    in this mode).
    """
    # Hook first: block containers dominate send traffic in the
    # collective sweeps, and the other branches are cheap to fall through.
    snap = getattr(payload, "sim_snapshot", None)
    if snap is not None:
        return snap()
    if payload is None or isinstance(payload, Bytes):
        return payload
    if isinstance(payload, np.ndarray):
        return Bytes(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return Bytes(len(payload))
    return clone(payload)


def slice_payload(payload: Any, start: int, stop: int, itemsize: int = 1) -> Any:
    """Sub-range of a payload in *elements* of the given item size."""
    if isinstance(payload, Bytes):
        return Bytes((stop - start) * itemsize)
    if isinstance(payload, np.ndarray):
        flat = payload.reshape(-1)
        return flat[start:stop]
    raise TypeError(f"cannot slice payload of type {type(payload).__name__}")


def concat(parts: list) -> Any:
    """Concatenate payload parts (all ndarray or all :class:`Bytes`)."""
    if not parts:
        raise ValueError("concat of no parts")
    if all(isinstance(p, Bytes) for p in parts):
        return Bytes(sum(p.nbytes for p in parts))
    if all(isinstance(p, np.ndarray) for p in parts):
        return np.concatenate([p.reshape(-1) for p in parts])
    raise TypeError("cannot concat mixed payload kinds")
