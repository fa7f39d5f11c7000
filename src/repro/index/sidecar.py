"""Flat, page-aligned container of the index directory (``index.dir.bin``).

The directory's arrays (:mod:`repro.index.storage` names them) are
stored in a container designed for ``mmap``:

* a fixed 16-byte header — the magic ``RPDIRSC1`` and the byte length
  of the JSON table of contents;
* the TOC: one JSON object listing every section's ``name``, numpy
  ``dtype`` string, ``shape``, byte ``offset`` *relative to the data
  area*, and ``nbytes``;
* the data area, starting at the first :data:`DATA_ALIGN`-aligned byte
  past the TOC, holding each array's raw little-endian bytes at a
  :data:`SECTION_ALIGN`-aligned relative offset, in TOC order.

Reading is one ``mmap`` plus one ``np.frombuffer`` view per section,
with no decompression, so N forked server workers share a single
page-cache copy of the directory.  The zipped ``.npz`` archive of old
indexes is not this container; only the reader's legacy branch opens it.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from pathlib import Path

import numpy as np

from repro.exceptions import IndexFormatError

#: Sidecar file name inside an index directory.
SIDECAR_FILE = "index.dir.bin"

#: Magic bytes identifying the container (version suffix ``1``).
MAGIC = b"RPDIRSC1"

#: Every section starts at a multiple of this within the data area —
#: generous enough for any numpy dtype's alignment requirement.
SECTION_ALIGN = 64

#: The data area itself starts on a page boundary, so section
#: alignment is absolute as well as relative.
DATA_ALIGN = 4096

_HEADER_BYTES = 16


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


def write_sidecar(path: str | Path, arrays: dict[str, np.ndarray]) -> Path:
    """Write ``arrays`` as one flat, fsynced sidecar file; returns the path.

    Array bytes are stored little-endian exactly as numpy lays them
    out (``tobytes`` of the C-contiguous form), so the reader's
    ``frombuffer`` views reproduce each array without conversion.
    """
    path = Path(path)
    sections = []
    cursor = 0
    payloads: list[tuple[int, bytes]] = []
    for name, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        raw = contiguous.tobytes()
        cursor = _align_up(cursor, SECTION_ALIGN)
        sections.append(
            {
                "name": name,
                "dtype": contiguous.dtype.str,
                "shape": list(contiguous.shape),
                "offset": cursor,
                "nbytes": len(raw),
            }
        )
        payloads.append((cursor, raw))
        cursor += len(raw)
    toc = json.dumps({"align": SECTION_ALIGN, "sections": sections}).encode("utf-8")
    data_start = _align_up(_HEADER_BYTES + len(toc), DATA_ALIGN)
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(len(toc).to_bytes(8, "little"))
        handle.write(toc)
        handle.write(b"\x00" * (data_start - _HEADER_BYTES - len(toc)))
        position = 0
        for offset, raw in payloads:
            handle.write(b"\x00" * (offset - position))
            handle.write(raw)
            position = offset + len(raw)
        handle.flush()
        os.fsync(handle.fileno())
    return path


def read_toc(path: str | Path) -> tuple[list[dict], int, int]:
    """Parse a sidecar's table of contents without mapping the arrays.

    Returns ``(sections, data_start, file_size)`` — the raw metadata
    index validation checks against the loaded directory.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as handle:
            header = handle.read(_HEADER_BYTES)
            if len(header) < _HEADER_BYTES or header[:8] != MAGIC:
                raise IndexFormatError(
                    f"{path} is not a directory sidecar (bad magic)"
                )
            toc_bytes = int.from_bytes(header[8:16], "little")
            if _HEADER_BYTES + toc_bytes > size:
                raise IndexFormatError(f"{path}: truncated table of contents")
            toc = json.loads(handle.read(toc_bytes).decode("utf-8"))
    except OSError as exc:
        raise IndexFormatError(f"cannot read sidecar {path}: {exc}") from exc
    except (ValueError, UnicodeDecodeError) as exc:
        raise IndexFormatError(f"{path}: corrupt table of contents: {exc}") from exc
    sections = toc.get("sections")
    if not isinstance(sections, list):
        raise IndexFormatError(f"{path}: table of contents lists no sections")
    data_start = _align_up(_HEADER_BYTES + toc_bytes, DATA_ALIGN)
    return sections, data_start, size


def read_sidecar(path: str | Path) -> tuple[dict[str, np.ndarray], mmap.mmap]:
    """Map a sidecar and return zero-copy views of every section.

    The returned arrays are read-only ``frombuffer`` views into one
    shared read-only mapping; the mapping object is returned alongside
    so callers can keep an explicit reference (the views alone also
    keep it alive through their ``base``).
    """
    path = Path(path)
    sections, data_start, size = read_toc(path)
    with open(path, "rb") as handle:
        try:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise IndexFormatError(f"cannot map sidecar {path}: {exc}") from exc
    arrays: dict[str, np.ndarray] = {}
    for section in sections:
        try:
            name = section["name"]
            dtype = np.dtype(section["dtype"])
            shape = tuple(int(axis) for axis in section["shape"])
            offset = data_start + int(section["offset"])
            nbytes = int(section["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexFormatError(f"{path}: malformed section entry: {exc}") from exc
        # math.prod, not np.prod: the numpy reduction machinery is ~10x
        # the cost of the C builtin for these tiny shape tuples.
        count = math.prod(shape)
        if count * dtype.itemsize != nbytes or offset + nbytes > size:
            raise IndexFormatError(
                f"{path}: section {name!r} does not fit its declared bounds"
            )
        view = np.frombuffer(mapping, dtype=dtype, count=count, offset=offset)
        arrays[name] = view if len(shape) == 1 else view.reshape(shape)
    return arrays, mapping
