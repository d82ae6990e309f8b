"""File formats shared across the stack: headed CSV tables and binary netpbm
(PGM/PPM) images, the text rules for the numbers and booleans in them and
in scenario files, and the one rule for rejecting a parameter value.

Each format has one reader and one writer. Readers take the caller's error
class, so a bad file surfaces as the named error of the layer that reads it.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

# One header token, after any whitespace and `#` comment lines.
_NETPBM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]\S*)")
_NETPBM_CHANNELS = {b"P5": 1, b"P6": 3}


def parse_float(text: str) -> float:
    """A finite number; nan and +-inf raise ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not a finite number")
    return value


def parse_bool(text: str) -> bool:
    """1/true/yes/on or 0/false/no/off, any case, and the 1.0/0.0 that
    write_table writes; any other text raises ValueError."""
    low = text.strip().lower()
    if low in ("1", "1.0", "true", "yes", "on"):
        return True
    if low in ("0", "0.0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


class ScenarioError(ValueError):
    """A scenario file, override set or parameter value is invalid."""


def require(ok: bool, key: str, rule: str, value) -> None:
    """Reject a parameter value unless ok: ScenarioError naming it by its
    scenario key, "<key> must <rule>, got <value>"."""
    if not ok:
        raise ScenarioError(f"{key} must {rule}, got {value!r}")


def read_table(path, columns, error: type[Exception],
               parsers=None) -> tuple[np.ndarray, list[int]]:
    """Read the named columns of a headed CSV file as a float array.

    Columns are found by header name in any order; other columns are
    ignored and blank lines skipped. Cells parse with parse_float;
    `parsers` maps a column name to another text -> number function.
    Returns the (rows, len(columns)) array and the file line number of each
    row. Raises `error` for an empty file, a missing column (named), a
    malformed row (any cell its parser rejects, with its line number) or a
    file without data rows.
    """
    parsers = parsers or {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise error(f"{path}: empty file")
        header = [h.strip() for h in header]
        for col in columns:
            if col not in header:
                raise error(f"{path}: missing column '{col}'")
        fields = [(header.index(col), parsers.get(col, parse_float))
                  for col in columns]
        rows, lines = [], []
        for lineno, rec in enumerate(reader, start=2):
            if not rec or (len(rec) == 1 and not rec[0].strip()):
                continue
            try:
                rows.append([parse(rec[i]) for i, parse in fields])
            except (ValueError, IndexError):
                raise error(f"{path} line {lineno}: malformed row {rec!r}") from None
            lines.append(lineno)
    if not rows:
        raise error(f"{path}: no data rows")
    return np.array(rows, dtype=float), lines


def write_table(path, columns, rows) -> None:
    """Write a headed CSV table. Values are written as repr(float), so
    read_table gets them back bit-exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


def read_netpbm(path, magic: bytes, error: type[Exception]) -> np.ndarray:
    """Read a binary PGM (magic b"P5", (H, W)) or PPM (b"P6", (H, W, 3))
    uint8 image with maxval 255 and at least one pixel; `#` comments in the
    header are skipped."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, pos = [], 0
    for _ in range(4):
        match = _NETPBM_TOKEN.match(data, pos)
        if match is None:
            raise error(f"{path}: truncated image header")
        tokens.append(match.group(1))
        pos = match.end()
    if tokens[0] != magic:
        raise error(f"{path}: not a binary {magic.decode()} file")
    try:
        w, h, maxval = (int(tok) for tok in tokens[1:])
    except ValueError:
        raise error(f"{path}: malformed image header") from None
    if w < 1 or h < 1:
        raise error(f"{path}: image size must be at least 1 x 1, got {w} x {h}")
    if maxval != 255:
        raise error(f"{path}: only maxval 255 is supported")
    channels = _NETPBM_CHANNELS[magic]
    need = w * h * channels
    # a single whitespace byte separates the header from the pixels
    payload = data[pos + 1:pos + 1 + need]
    if len(payload) < need:
        raise error(f"{path}: truncated pixel data")
    shape = (h, w) if channels == 1 else (h, w, channels)
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape).copy()


def write_netpbm(path, img: np.ndarray) -> None:
    """Write a uint8 image: (H, W) as binary PGM (P5), (H, W, 3) as binary
    PPM (P6)."""
    magic = "P5" if img.ndim == 2 else "P6"
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(img, dtype=np.uint8).tobytes())
