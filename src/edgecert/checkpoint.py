"""Flat text container for model checkpoints.

Layout::

    edgecert-checkpoint v1
    kind <kind>
    scalar <name> <value>
    tensor <name> <dim0> [<dim1>]
    <row-major payload, one line per leading row>
    ...
    end

Values are written with Python repr so float64 payloads round-trip exactly
and files are byte-stable across runs.
"""

from __future__ import annotations

import ast

import numpy as np

_MAGIC = "edgecert-checkpoint v1"


class _Entries(dict):
    """A checkpoint's scalars or tensors; a name it lacks raises ValueError."""

    def __init__(self, path, what: str):
        super().__init__()
        self.path, self.what = path, what

    def __missing__(self, name):
        raise ValueError(f"{self.path}: checkpoint has no {self.what} {name!r}")


def write_checkpoint(path, kind: str, scalars: dict, tensors: dict) -> None:
    lines = [_MAGIC, f"kind {kind}"]
    for name, value in scalars.items():
        lines.append(f"scalar {name} {value!r}")
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 1:
            lines.append(f"tensor {name} {arr.shape[0]}")
            lines.append(" ".join(repr(x) for x in arr.tolist()))
        elif arr.ndim == 2:
            lines.append(f"tensor {name} {arr.shape[0]} {arr.shape[1]}")
            for row in arr.tolist():
                lines.append(" ".join(repr(x) for x in row))
        else:
            raise ValueError(f"tensor {name} must be 1-D or 2-D")
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_checkpoint(path, kind: str) -> tuple[dict, dict]:
    """Read back (scalars, tensors); validates the format tag, kind and shapes."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not an edgecert checkpoint")
    if len(lines) < 2 or lines[1] != f"kind {kind}":
        raise ValueError(f"{path}: expected checkpoint kind {kind!r}")
    scalars = _Entries(path, "scalar")
    tensors = _Entries(path, "tensor")
    i = 2
    while i < len(lines):
        line = lines[i]
        if line == "end":
            return scalars, tensors
        if line.startswith("scalar "):
            parts = line.split(" ", 2)
            if len(parts) != 3:
                raise ValueError(f"{path}: line {i + 1}: scalar line {line!r} has no value")
            _, name, value = parts
            try:
                scalars[name] = ast.literal_eval(value)
            except (SyntaxError, ValueError):
                raise ValueError(
                    f"{path}: line {i + 1}: scalar {name} value {value!r} is not a literal"
                ) from None
            i += 1
        elif line.startswith("tensor "):
            parts = line.split()
            if len(parts) not in (3, 4) or not all(d.isdecimal() for d in parts[2:]):
                raise ValueError(f"{path}: tensor header {line!r} must give 1 or 2 dimensions")
            name = parts[1]
            shape = tuple(int(d) for d in parts[2:])
            n_rows = shape[0] if len(shape) == 2 else 1
            if i + 1 + n_rows > len(lines):
                raise ValueError(f"{path}: truncated checkpoint (tensor {name} is cut short)")
            rows = []
            for lineno, row in enumerate(lines[i + 1 : i + 1 + n_rows], start=i + 2):
                try:
                    rows.append([float(t) for t in row.split()])
                except ValueError as err:
                    raise ValueError(f"{path}: line {lineno}: tensor {name}: {err}") from None
            if any(len(row) != shape[-1] for row in rows):
                raise ValueError(f"{path}: tensor {name} has a row of other than {shape[-1]} values")
            tensors[name] = np.array(rows, dtype=np.float64).reshape(shape)
            i += 1 + n_rows
        else:
            raise ValueError(f"{path}: unexpected line {line!r}")
    raise ValueError(f"{path}: truncated checkpoint (missing 'end')")
