"""Field dump formats: flat binary with a text header, and CSV.

Binary layout: one ASCII header line "n M\n", then n*M*M little-endian
64-bit floats, component-major and row-major within each component.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

__all__ = ["write_binary", "read_binary", "write_csv"]


def write_binary(path: str | Path, values: np.ndarray) -> None:
    arr = np.ascontiguousarray(values, dtype="<f8")
    n, m, m2 = arr.shape
    if m != m2:
        raise ValueError(f"expected shape (n, M, M), got {arr.shape}")
    with open(path, "wb") as f:
        f.write(f"{n} {m}\n".encode("ascii"))
        f.write(arr.tobytes())


def read_binary(path: str | Path) -> np.ndarray:
    with open(path, "rb") as f:
        # Exactly what write_binary writes: a header cut short, signed or
        # padded is malformed.
        header = re.fullmatch(rb"(\d+) (\d+)\n", f.readline())
        if header is None:
            line = 'the "n M" line of a binary dump'
            raise ValueError(f"{path}: malformed field dump header, expected {line}")
        n, m = int(header[1]), int(header[2])
        payload = f.read()
    expected = n * m * m * 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: dump holds {len(payload)} payload bytes, "
            f"expected {expected} for n={n}, M={m}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(n, m, m).astype(np.float64)


def write_csv(path: str | Path, values: np.ndarray) -> None:
    """One row "x,y,u1,...,un" per node, row-major, every float as repr.
    Each grid row is formatted column-wise and written at once, so the
    text in memory stays one grid row long."""
    values = np.asarray(values, dtype=np.float64)
    n, m, _ = values.shape
    coords = [repr(i / m) for i in range(m)]
    with open(path, "w", newline="") as f:
        f.write("x,y," + ",".join(f"u{i + 1}" for i in range(n)) + "\n")
        for i, x in enumerate(coords):
            columns = [map(repr, values[c, i].tolist()) for c in range(n)]
            rows = map(",".join, zip(coords, *columns))
            f.write("".join(f"{x},{row}\n" for row in rows))
