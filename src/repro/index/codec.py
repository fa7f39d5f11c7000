"""Compressed posting-list codec (index format v2).

A raw posting spends 16 bytes on ``(text, left, center, right)``, yet
text-sorted lists have near-monotone columns whose entropy is a small
fraction of that.  Format v2 stores each inverted list column-wise and
bit-packed in fixed-size blocks of :data:`BLOCK_POSTINGS` postings:

* column 0 — ``text`` **deltas** (``text[i] - text[i-1]`` within the
  block; the first posting's delta is 0 because the block's absolute
  ``first_text`` lives in the block directory);
* column 1 — ``center - left`` (left residual);
* column 2 — ``center`` (raw position);
* column 3 — ``right - center`` (right residual).

Each block stores, per column, the minimal bit width covering the
block's values (0 when the whole column is zero) and the values packed
MSB-first into a byte-aligned bit slab.  A block is its four column
slabs concatenated; a list is its blocks concatenated.  The per-block
``(first_text, widths)`` mini-directory lives next to the inverted-list
directory, so random access stays block-aligned: zone maps resolve a
point lookup to a posting range, the reader rounds it to blocks and
decodes only those.

Both kernels are pure numpy and vectorized across postings *and*
blocks (grouped by bit width): packing expands values to a bit matrix
(``unpackbits``/``packbits``), unpacking gathers 8-byte windows and
reduces them with shifts/ors — no Python per-posting loops anywhere.
The scalar ``reference_*`` codec reimplements the byte format with
explicit loops and is kept solely as the property-test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.index.inverted import POSTING_DTYPE

#: Postings per block.  128 postings keep every full block's column
#: slab a whole number of bytes for any bit width, so grouped pack and
#: unpack never straddle byte boundaries between blocks.
BLOCK_POSTINGS = 128

#: Columns stored per posting (text delta, left residual, center, right
#: residual).
NUM_COLUMNS = 4

#: Supported posting codecs: ``raw`` is the v1 16-byte record format,
#: ``packed`` the v2 delta + bit-packed block format.
CODECS = ("raw", "packed")

_POW2 = (np.int64(1) << np.arange(33, dtype=np.int64)).astype(np.uint64)


def check_codec(codec: str) -> str:
    if codec not in CODECS:
        raise InvalidParameterError(f"codec must be one of {CODECS}, got {codec!r}")
    return codec


@dataclass(frozen=True)
class EncodedList:
    """One inverted list in v2 form: payload bytes + block directory."""

    data: np.ndarray  #: uint8 — concatenated block slabs
    first_texts: np.ndarray  #: uint32 (nb,) — first text id per block
    widths: np.ndarray  #: uint8 (nb, 4) — per-block per-column bit widths
    count: int  #: postings encoded

    @property
    def num_blocks(self) -> int:
        return int(self.first_texts.size)

    @property
    def block_sizes(self) -> np.ndarray:
        """Byte size of each block (derived from counts and widths)."""
        return block_byte_sizes(block_counts(self.count), self.widths)


def block_counts(count: int) -> np.ndarray:
    """Postings per block for a list of ``count`` postings."""
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    nb = (count + BLOCK_POSTINGS - 1) // BLOCK_POSTINGS
    counts = np.full(nb, BLOCK_POSTINGS, dtype=np.int64)
    counts[-1] = count - (nb - 1) * BLOCK_POSTINGS
    return counts


def column_slab_sizes(counts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Byte size of every ``(block, column)`` slab — ``(nb, 4)`` int64."""
    counts = np.asarray(counts, dtype=np.int64).reshape(-1, 1)
    widths = np.asarray(widths, dtype=np.int64)
    return (counts * widths + 7) >> 3


def block_byte_sizes(counts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Total byte size of every block — ``(nb,)`` int64."""
    return column_slab_sizes(counts, widths).sum(axis=1)


def list_columns(postings: np.ndarray) -> list[np.ndarray]:
    """The four int64 column arrays of a text-sorted posting list.

    Exposed for index validation, which re-derives the columns of a
    decoded block to check the stored widths actually cover them.
    """
    texts = postings["text"].astype(np.int64)
    centers = postings["center"].astype(np.int64)
    delta = np.zeros(texts.size, dtype=np.int64)
    if texts.size > 1:
        delta[1:] = texts[1:] - texts[:-1]
    delta[::BLOCK_POSTINGS] = 0  # block-leading texts live in the directory
    return [
        delta,
        centers - postings["left"].astype(np.int64),
        centers,
        postings["right"].astype(np.int64) - centers,
    ]


def _bit_widths(block_max: np.ndarray) -> np.ndarray:
    """Bit length of each block's maximum value (0 for all-zero blocks).

    Exact integer comparison against powers of two — no float ``log2``
    edge cases at power-of-two boundaries.
    """
    return np.searchsorted(
        _POW2, np.asarray(block_max, dtype=np.uint64), side="right"
    ).astype(np.uint8)


# ----------------------------------------------------------------------
# Bit-slab kernels
# ----------------------------------------------------------------------
def _as_byte_view(buffer) -> np.ndarray:
    """A uint8 view of any byte source without copying.

    Accepts uint8 arrays/memmaps directly and wraps raw buffer objects
    (``mmap``, ``memoryview``, ``bytes``) with ``np.frombuffer``, so
    the decode kernels can read straight out of a mapped index file.
    """
    if isinstance(buffer, np.ndarray):
        return np.asarray(buffer, dtype=np.uint8)
    return np.frombuffer(buffer, dtype=np.uint8)


def pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Pack ``values`` (< 2**width) MSB-first into a byte-aligned slab.

    Vectorized as a bit-matrix transpose: each value expands to its 32
    big-endian bits (``unpackbits``), the low ``width`` bits of every
    value are concatenated, and ``packbits`` folds the stream back to
    bytes (zero-padded to the byte boundary).
    """
    if width < 0 or width > 32:
        raise InvalidParameterError(f"width must be in [0, 32], got {width}")
    values = np.ascontiguousarray(values, dtype=np.uint32)
    if width == 0 or values.size == 0:
        return np.empty(0, dtype=np.uint8)
    big_endian = values.astype(">u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(big_endian, axis=1)
    return np.packbits(bits[:, 32 - width :])


def unpack_bits_at(
    slab: np.ndarray, bit_starts: np.ndarray, width: int
) -> np.ndarray:
    """Read a ``width``-bit value at every bit offset in ``bit_starts``.

    The shifts/or-reduce kernel of the decode hot path: for each value
    an 8-byte big-endian window is gathered starting at its byte, the
    lanes are combined with shifts and ors, and one final shift+mask
    extracts every value at once.  Bit offsets may be arbitrary (even
    unsorted), which is what lets callers decode many blocks of equal
    width in a single call.  Window bytes past a value's field are
    shifted out or masked off, so reads are clamped to the slab instead
    of copying it into a padded buffer.
    """
    if width < 0 or width > 32:
        raise InvalidParameterError(f"width must be in [0, 32], got {width}")
    bit_starts = np.asarray(bit_starts, dtype=np.int64)
    if width == 0 or bit_starts.size == 0:
        return np.zeros(bit_starts.size, dtype=np.uint32)
    slab = _as_byte_view(slab)
    if slab.size == 0:
        raise InvalidParameterError("cannot unpack from an empty slab")
    byte0 = bit_starts >> 3
    last = slab.size - 1
    word = np.zeros(bit_starts.size, dtype=np.uint64)
    for lane in range((width + 14) >> 3):  # bytes covering offset+width bits
        lane_bytes = slab[np.minimum(byte0 + lane, last)]
        word |= lane_bytes.astype(np.uint64) << np.uint64(8 * (7 - lane))
    shift = (
        np.uint64(64)
        - (bit_starts.astype(np.uint64) & np.uint64(7))
        - np.uint64(width)
    )
    mask = np.uint64((1 << width) - 1)
    return ((word >> shift) & mask).astype(np.uint32)


# ----------------------------------------------------------------------
# List encode / block decode
# ----------------------------------------------------------------------
def encode_list(postings: np.ndarray) -> EncodedList:
    """Encode one text-sorted inverted list into v2 blocks.

    Full blocks are packed grouped by ``(column, width)`` — one
    :func:`pack_bits` call per distinct width — and scattered into the
    output with a flat fancy-index write; only a possible final partial
    block is packed on its own.
    """
    if postings.dtype != POSTING_DTYPE:
        raise InvalidParameterError("postings must use POSTING_DTYPE")
    count = int(postings.size)
    if count == 0:
        return EncodedList(
            data=np.empty(0, dtype=np.uint8),
            first_texts=np.empty(0, dtype=np.uint32),
            widths=np.empty((0, NUM_COLUMNS), dtype=np.uint8),
            count=0,
        )
    texts = postings["text"].astype(np.int64)
    if texts.size > 1 and np.any(texts[1:] < texts[:-1]):
        raise InvalidParameterError("postings must be sorted by text id")
    counts = block_counts(count)
    nb = int(counts.size)
    first_texts = postings["text"][::BLOCK_POSTINGS].astype(np.uint32)
    columns = list_columns(postings)

    padded = np.zeros((NUM_COLUMNS, nb * BLOCK_POSTINGS), dtype=np.int64)
    widths = np.empty((nb, NUM_COLUMNS), dtype=np.uint8)
    for col, values in enumerate(columns):
        padded[col, :count] = values
        widths[:, col] = _bit_widths(
            padded[col].reshape(nb, BLOCK_POSTINGS).max(axis=1)
        )

    slab_sizes = column_slab_sizes(counts, widths)
    block_offsets = np.zeros(nb, dtype=np.int64)
    if nb > 1:
        block_offsets[1:] = np.cumsum(slab_sizes.sum(axis=1))[:-1]
    column_offsets = block_offsets[:, None] + np.concatenate(
        [np.zeros((nb, 1), dtype=np.int64), np.cumsum(slab_sizes, axis=1)[:, :-1]],
        axis=1,
    )
    data = np.zeros(int(slab_sizes.sum()), dtype=np.uint8)

    full = counts == BLOCK_POSTINGS
    for col in range(NUM_COLUMNS):
        col_widths = widths[:, col].astype(np.int64)
        for width in np.unique(col_widths[full]) if full.any() else []:
            width = int(width)
            if width == 0:
                continue
            selected = full & (col_widths == width)
            if not selected.any():
                continue
            values = (
                padded[col]
                .reshape(nb, BLOCK_POSTINGS)[selected]
                .astype(np.uint32)
                .ravel()
            )
            packed = pack_bits(values, width)
            slab_len = BLOCK_POSTINGS * width // 8
            dest = (
                column_offsets[selected, col][:, None]
                + np.arange(slab_len, dtype=np.int64)[None, :]
            ).ravel()
            data[dest] = packed
        if not full[-1]:  # final partial block packed on its own
            width = int(col_widths[-1])
            if width:
                start = (nb - 1) * BLOCK_POSTINGS
                values = padded[col, start : start + int(counts[-1])].astype(
                    np.uint32
                )
                packed = pack_bits(values, width)
                offset = int(column_offsets[-1, col])
                data[offset : offset + packed.size] = packed
    return EncodedList(
        data=data, first_texts=first_texts, widths=widths, count=count
    )


def decode_blocks(
    buffer: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    widths: np.ndarray,
    first_texts: np.ndarray,
) -> np.ndarray:
    """Decode blocks into a :data:`POSTING_DTYPE` array (block order).

    Parameters
    ----------
    buffer:
        Byte source the blocks live in: any uint8 array or memmap
        view, or a raw buffer object (``mmap``/``memoryview``/
        ``bytes``) — wrapped zero-copy via :func:`_as_byte_view`.
    offsets:
        Byte offset of each block within ``buffer``.
    counts / widths / first_texts:
        The blocks' directory entries: postings per block, ``(nb, 4)``
        per-column bit widths, first text id per block.

    Decoding is grouped by ``(column, width)``: one
    :func:`unpack_bits_at` call covers every block sharing a width, so
    the kernel-call count depends on width diversity, not block count.
    """
    counts = np.asarray(counts, dtype=np.int64)
    nb = int(counts.size)
    total = int(counts.sum())
    out = np.empty(total, dtype=POSTING_DTYPE)
    if total == 0:
        return out
    buffer = _as_byte_view(buffer)
    offsets = np.asarray(offsets, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.uint8).reshape(nb, NUM_COLUMNS)
    slab_sizes = column_slab_sizes(counts, widths)
    column_offsets = offsets[:, None] + np.concatenate(
        [np.zeros((nb, 1), dtype=np.int64), np.cumsum(slab_sizes, axis=1)[:, :-1]],
        axis=1,
    )
    out_offsets = np.concatenate(([0], np.cumsum(counts)))
    block_of = np.repeat(np.arange(nb, dtype=np.int64), counts)
    j_within = np.arange(total, dtype=np.int64) - np.repeat(
        out_offsets[:-1], counts
    )

    columns = np.zeros((NUM_COLUMNS, total), dtype=np.int64)
    for col in range(NUM_COLUMNS):
        col_widths = widths[:, col]
        width0 = int(col_widths[0])
        if np.all(col_widths == width0):
            # Fast path: one width across every block (the common case)
            # — no per-width masks, one kernel call, direct assignment.
            if width0 != 0:
                bit_starts = (
                    column_offsets[block_of, col] * 8 + j_within * width0
                )
                columns[col] = unpack_bits_at(buffer, bit_starts, width0)
            continue
        for width in np.unique(col_widths):
            width = int(width)
            if width == 0:
                continue
            selected = (col_widths == width)[block_of]
            bit_starts = (
                column_offsets[block_of[selected], col] * 8
                + j_within[selected] * width
            )
            columns[col][selected] = unpack_bits_at(buffer, bit_starts, width)

    prefix = np.cumsum(columns[0])
    base = np.repeat(prefix[out_offsets[:-1]], counts)
    texts = (
        np.repeat(np.asarray(first_texts, dtype=np.int64), counts)
        + prefix
        - base
    )
    centers = columns[2]
    out["text"] = texts.astype(np.uint32)
    out["left"] = (centers - columns[1]).astype(np.uint32)
    out["center"] = centers.astype(np.uint32)
    out["right"] = (centers + columns[3]).astype(np.uint32)
    return out


# ----------------------------------------------------------------------
# Scalar reference codec (property-test oracle)
# ----------------------------------------------------------------------
def reference_pack_bits(values, width: int) -> np.ndarray:
    """Bit-by-bit scalar :func:`pack_bits` — byte-identical output."""
    values = [int(v) for v in values]
    if width == 0 or not values:
        return np.empty(0, dtype=np.uint8)
    out = bytearray((len(values) * width + 7) // 8)
    position = 0
    for value in values:
        for bit in range(width - 1, -1, -1):
            if (value >> bit) & 1:
                out[position >> 3] |= 0x80 >> (position & 7)
            position += 1
    return np.frombuffer(bytes(out), dtype=np.uint8)


def reference_unpack_bits(slab, count: int, width: int) -> np.ndarray:
    """Bit-by-bit scalar unpack of ``count`` ``width``-bit values."""
    raw = bytes(bytearray(np.asarray(slab, dtype=np.uint8)))
    values = []
    position = 0
    for _ in range(count):
        value = 0
        for _ in range(width):
            value = (value << 1) | (
                (raw[position >> 3] >> (7 - (position & 7))) & 1
            )
            position += 1
        values.append(value)
    return np.asarray(values, dtype=np.uint32) if values else np.zeros(
        0, dtype=np.uint32
    )


def reference_encode_list(postings: np.ndarray) -> EncodedList:
    """Scalar :func:`encode_list` — must produce identical bytes."""
    count = int(postings.size)
    if count == 0:
        return encode_list(postings)
    first_texts: list[int] = []
    width_rows: list[list[int]] = []
    chunks: list[np.ndarray] = []
    for start in range(0, count, BLOCK_POSTINGS):
        block = postings[start : start + BLOCK_POSTINGS]
        texts = [int(rec["text"]) for rec in block]
        first_texts.append(texts[0])
        columns: list[list[int]] = [[], [], [], []]
        for i, rec in enumerate(block):
            center = int(rec["center"])
            columns[0].append(0 if i == 0 else texts[i] - texts[i - 1])
            columns[1].append(center - int(rec["left"]))
            columns[2].append(center)
            columns[3].append(int(rec["right"]) - center)
        row = [max(col).bit_length() for col in columns]
        width_rows.append(row)
        for col, width in zip(columns, row):
            chunks.append(reference_pack_bits(col, width))
    data = (
        np.concatenate([c for c in chunks if c.size])
        if any(c.size for c in chunks)
        else np.empty(0, dtype=np.uint8)
    )
    return EncodedList(
        data=data,
        first_texts=np.asarray(first_texts, dtype=np.uint32),
        widths=np.asarray(width_rows, dtype=np.uint8),
        count=count,
    )


def reference_decode_list(encoded: EncodedList) -> np.ndarray:
    """Scalar block decoder — the oracle for :func:`decode_blocks`."""
    out = np.empty(encoded.count, dtype=POSTING_DTYPE)
    counts = block_counts(encoded.count)
    cursor = 0
    emitted = 0
    raw = encoded.data
    for b in range(encoded.num_blocks):
        n = int(counts[b])
        columns = []
        for col in range(NUM_COLUMNS):
            width = int(encoded.widths[b, col])
            nbytes = (n * width + 7) // 8
            columns.append(
                reference_unpack_bits(raw[cursor : cursor + nbytes], n, width)
                if width
                else np.zeros(n, dtype=np.uint32)
            )
            cursor += nbytes
        text = int(encoded.first_texts[b])
        for i in range(n):
            text += int(columns[0][i])
            center = int(columns[2][i])
            out[emitted] = (
                text,
                center - int(columns[1][i]),
                center,
                center + int(columns[3][i]),
            )
            emitted += 1
    return out
