"""Binary checkpoint files.

Layout (all integers little-endian uint32, floats little-endian
float32):

    magic "CNATTN1"
    vocabulary: count, then per name (byte length, utf-8 bytes)
    config text: byte length, utf-8 bytes (hyperparameters, anchors,
        resume counters as key = value lines)
    parameter records: count, then per record
        (name length, name, ndim, dims..., raw float32 values)
    optimizer state: record count, then records in the same encoding;
        written empty (count 0)

No optimizer state outlives a training stage or phase (pretraining and
each alternation phase start a fresh momentum buffer), so there is
nothing to save there. Older files
carry the base learning rate and momentum in that section; the reader
bounds-checks their records like any others and discards them, so every
file in this layout loads.

Parameters are stored in 32-bit; training keeps its parameters in 32-bit
too, so a save/load round trip reproduces forward passes bit-exactly.

The reader parses the file in one pass, reading each record straight
into an array of its own. Every count, length and shape is checked
against the bytes left in the file before anything is read or
allocated, so a truncated or corrupt file raises ``ValueError``, never
a memory or overflow error.
The writer replaces the file atomically, so a crash while saving never
leaves a half-written checkpoint.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Checkpoint", "write_checkpoint", "read_checkpoint", "MAGIC"]

MAGIC = b"CNATTN1"
_U32 = struct.Struct("<I")
_F32 = np.dtype("<f4")


@dataclass
class Checkpoint:
    vocabulary: tuple[str, ...]
    config_text: str
    params: dict[str, np.ndarray]


def _write_u32(f, value: int) -> None:
    f.write(_U32.pack(value))


def _write_str(f, s: str) -> None:
    raw = s.encode("utf-8")
    _write_u32(f, len(raw))
    f.write(raw)


def _write_records(f, records: dict[str, np.ndarray]) -> None:
    _write_u32(f, len(records))
    for name, arr in records.items():
        arr = np.asarray(arr, dtype=_F32)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = arr.copy()
        _write_str(f, name)
        _write_u32(f, arr.ndim)
        for d in arr.shape:
            _write_u32(f, d)
        f.write(arr.tobytes())


class _Cursor:
    """Parses the layout from an open file of ``left`` bytes."""

    def __init__(self, f, left: int, path):
        self.f = f
        self.left = left
        self.path = path

    def take(self, n: int, what: str) -> None:
        """Claim the next ``n`` bytes of the file."""
        if n > self.left:
            raise ValueError(f"{self.path}: truncated checkpoint: {what} runs "
                             f"past the end ({self.left} bytes left)")
        self.left -= n

    def fill(self, buf, what: str):
        """Read the next ``len(buf)`` bytes into the claimed ``buf``."""
        if self.f.readinto(buf) != memoryview(buf).nbytes:
            raise ValueError(f"{self.path}: {what} changed while being read")
        return buf

    def read(self, n: int, what: str) -> bytes:
        self.take(n, what)
        return bytes(self.fill(bytearray(n), what))

    def u32(self, what: str) -> int:
        return _U32.unpack(self.read(4, what))[0]

    def text(self, what: str) -> str:
        try:
            return self.read(self.u32(what), what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{self.path}: {what} is not utf-8") from exc

    def records(self, section: str) -> dict[str, np.ndarray]:
        records: dict[str, np.ndarray] = {}
        for _ in range(self.u32(f"{section} record count")):
            name = self.text(f"{section} record name")
            what = f"record {name!r}"
            ndim = self.u32(what)
            shape = struct.unpack(f"<{ndim}I", self.read(4 * ndim, what))
            self.take(4 * math.prod(shape), what)  # Python ints: no overflow
            arr = self.fill(np.empty(shape, dtype=_F32), what)
            arr.flags.writeable = False
            records[name] = arr
        return records


def write_checkpoint(path, vocabulary, config_text: str,
                     params: dict[str, np.ndarray]) -> None:
    """Write a checkpoint atomically: the bytes go to a temporary file in
    the same directory, which then replaces ``path``. If writing fails,
    the temporary file is removed and ``path`` keeps its old bytes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            _write_u32(f, len(vocabulary))
            for name in vocabulary:
                _write_str(f, name)
            _write_str(f, config_text)
            _write_records(f, params)
            _write_records(f, {})  # the optimizer section, kept empty
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a malformed file raises ``ValueError``.

    Each record is a read-only float32 array of its own, which a network
    built from the records takes over instead of copying.
    """
    path = Path(path)
    with open(path, "rb") as f:
        cur = _Cursor(f, os.fstat(f.fileno()).st_size, path)
        if cur.left < len(MAGIC) or cur.read(len(MAGIC), "magic") != MAGIC:
            raise ValueError(f"{path}: not a {MAGIC.decode()} checkpoint")
        vocabulary = tuple(cur.text("vocabulary name")
                           for _ in range(cur.u32("vocabulary count")))
        config_text = cur.text("config text")
        params = cur.records("parameter")
        cur.records("optimizer")  # checked, then dropped: nothing reads it
    return Checkpoint(vocabulary=vocabulary, config_text=config_text,
                      params=params)
