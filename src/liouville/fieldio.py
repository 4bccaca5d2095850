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
            raise ValueError(f"{path}: malformed field dump header")
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
    n, m, _ = values.shape
    header = "x,y," + ",".join(f"u{i + 1}" for i in range(n))
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for i in range(m):
            x = i / m
            for j in range(m):
                y = j / m
                fields = [repr(x), repr(y)]
                fields.extend(repr(float(values[c, i, j])) for c in range(n))
                f.write(",".join(fields) + "\n")
