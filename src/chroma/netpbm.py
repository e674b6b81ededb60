"""Binary PPM (P6) and PGM (P5) image files, maxval 255, row-major.

Color images are exchanged with the rest of the package as float arrays
in [0, 1]; writing rounds to the nearest 8-bit level, so any image whose
values are multiples of 1/255 round-trips bit-exactly.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

__all__ = ["read_ppm", "write_ppm", "read_pgm", "write_pgm"]


def _read_header(f: io.BufferedReader, magic: bytes, path) -> tuple[int, int]:
    """Parse the header up to the pixel data; the size it declares must
    fit in the bytes left in the file."""
    if f.read(2) != magic:
        raise ValueError(f"{path}: not a {magic.decode()} file")
    fields = []
    while len(fields) < 3:
        tok = b""
        ch = f.read(1)
        while ch.isspace():
            ch = f.read(1)
        if ch == b"#":  # comment runs to end of line
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        while ch and not ch.isspace():
            tok += ch
            ch = f.read(1)
        if not tok:
            raise ValueError(f"{path}: truncated header")
        try:
            fields.append(int(tok))
        except ValueError:
            raise ValueError(f"{path}: bad header field {tok!r}") from None
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: invalid size {width}x{height}")
    # the one whitespace byte after maxval has been read
    left = os.fstat(f.fileno()).st_size - f.tell()
    if width * height * (3 if magic == b"P6" else 1) > left:
        raise ValueError(f"{path}: truncated pixel data for a {width}x{height} "
                         f"image ({left} bytes left)")
    return width, height


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM as an [H,W,3] float64 array in [0, 1]."""
    path = Path(path)
    with open(path, "rb") as f:
        width, height = _read_header(f, b"P6", path)
        raw = f.read(width * height * 3)
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    return pixels.astype(np.float64) / 255.0


def write_ppm(path, image: np.ndarray) -> None:
    """Write an [H,W,3] float array in [0, 1] (or uint8) as binary PPM."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"write_ppm expects [H,W,3], got {image.shape}")
    if image.dtype != np.uint8:
        image = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(image.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM as an [H,W] uint8 array."""
    path = Path(path)
    with open(path, "rb") as f:
        width, height = _read_header(f, b"P5", path)
        raw = f.read(width * height)
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path, gray: np.ndarray) -> None:
    """Write an [H,W] array (uint8, or float in [0, 1]) as binary PGM."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise ValueError(f"write_pgm expects [H,W], got {gray.shape}")
    if gray.dtype != np.uint8:
        gray = np.clip(np.rint(gray * 255.0), 0, 255).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(gray.tobytes())
