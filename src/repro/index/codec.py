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

Both kernels are pure numpy and vectorized across postings, blocks
*and* lists.  Packing shifts every field into the big-endian 64-bit
word holding its first bit (and the next word, when it spills) and
ORs the words together — one pass over every field of every block of
every list, whatever their widths; :func:`encode_lists` encodes a
whole run of lists in one call.  Unpacking gathers each field's bytes
into a 64-bit window and shifts the field out, at one width per field,
so one call reads a column of many blocks whatever their widths.

Decoding runs in two steps.  :func:`decode_texts` unpacks column 0 and
prefix-sums it into text ids; :func:`decode_rows` then unpacks columns
1–3 at the rows asked for, one kernel call per column.  A whole-list
read asks for every row (:func:`decode_blocks`); a point read finds the
rows of its texts from the ids and unpacks only those.  No Python
per-posting or per-list loops anywhere; the scalar oracle codec lives
with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.index.inverted import POSTING_DTYPE, row_postings

#: Postings per block.  128 postings keep every full block's column
#: slab a whole number of bytes for any bit width, so grouped pack and
#: unpack never straddle byte boundaries between blocks.
BLOCK_POSTINGS = 128

#: Postings one encode pass takes at most.  The pass's temporaries
#: (int64 columns and field words, a few hundred bytes per posting)
#: grow with its input, so this caps a large write's working set, as
#: the reader's ``_DECODE_BLOCKS`` caps a large read's; a longer input
#: is encoded in block-aligned chunks.
_ENCODE_POSTINGS = 1 << 16

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


@dataclass(frozen=True)
class EncodedLists:
    """A run of inverted lists in v2 form, list after list.

    Blocks restart at every list, so list ``i`` owns blocks
    ``list_blocks[i] : list_blocks[i + 1]`` and the bytes from its
    first block's offset on — exactly what :func:`encode_list` gives
    for that list alone.
    """

    data: np.ndarray  #: uint8 — every list's block slabs, concatenated
    first_texts: np.ndarray  #: uint32 (nb,) — first text id per block
    widths: np.ndarray  #: uint8 (nb, 4) — per-block per-column bit widths
    block_offsets: np.ndarray  #: int64 (nb + 1,) — byte edges of the blocks
    list_blocks: np.ndarray  #: int64 (lists + 1,) — block edges of the lists


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
    return _columns(postings, np.arange(0, postings.size, BLOCK_POSTINGS))


def _columns(postings: np.ndarray, block_starts: np.ndarray) -> list[np.ndarray]:
    """The four int64 columns of postings split into blocks at ``block_starts``."""
    texts = postings["text"].astype(np.int64)
    centers = postings["center"].astype(np.int64)
    delta = np.zeros(texts.size, dtype=np.int64)
    if texts.size > 1:
        delta[1:] = texts[1:] - texts[:-1]
    delta[block_starts] = 0  # block-leading texts live in the directory
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

    The one-width case of the encoder's field kernel: value ``i`` is
    the field at bit ``i * width``, and the slab is zero-padded to the
    byte boundary.
    """
    if width < 0 or width > 32:
        raise InvalidParameterError(f"width must be in [0, 32], got {width}")
    values = np.ascontiguousarray(values, dtype=np.uint32)
    if width == 0 or values.size == 0:
        return np.empty(0, dtype=np.uint8)
    nbytes = (values.size * width + 7) >> 3
    words = np.zeros((nbytes + 7) >> 3, dtype=np.uint64)
    _or_fields(
        words,
        values & np.uint32((1 << width) - 1),
        width,
        np.arange(values.size, dtype=np.int64) * width,
    )
    return _stream_bytes(words, nbytes)


def _or_fields(
    words: np.ndarray, values: np.ndarray, widths, bit_starts: np.ndarray
) -> None:
    """OR fields into a stream of big-endian 64-bit words.

    Field ``i`` holds ``values[i]`` in ``widths[i]`` bits (an int is
    every field's width), MSB first, from stream bit ``bit_starts[i]``
    on; fields are disjoint, in any order.  Each field is shifted into
    the word holding its first bit; the low bits of a field that
    crosses a word boundary go, shifted up, into the next word.  Zero
    fields change nothing and are skipped.
    """
    keep = np.flatnonzero(values)
    values = values[keep].astype(np.uint64)
    bit_starts = bit_starts[keep]
    if np.ndim(widths):
        widths = widths[keep]
    word = bit_starts >> 6
    shift = 64 - (bit_starts & 63) - widths  # < 0: spills into word + 1
    head = (values << np.maximum(shift, 0).astype(np.uint64)) >> np.maximum(
        -shift, 0
    ).astype(np.uint64)
    np.bitwise_or.at(words, word, head)
    spill = shift < 0
    np.bitwise_or.at(
        words, word[spill] + 1, values[spill] << (64 + shift[spill]).astype(np.uint64)
    )


def _stream_bytes(words: np.ndarray, nbytes: int) -> np.ndarray:
    """The first ``nbytes`` bytes of a big-endian word stream."""
    return words.astype(">u8").view(np.uint8)[:nbytes]


def unpack_bits_at(
    slab: np.ndarray, bit_starts: np.ndarray, width: int | np.ndarray
) -> np.ndarray:
    """Read a ``width``-bit value at every bit offset in ``bit_starts``.

    The shifts/or-reduce kernel of the decode hot path: the bytes from
    each value's first byte on are gathered into a big-endian 64-bit
    window, one byte lane at a time (as many lanes as the widest field
    needs), and one shift and one mask cut every value out at once.
    ``width`` is an int (every field's width) or one width per field,
    in ``[0, 32]``, and bit offsets may be arbitrary (even unsorted),
    which is what lets callers decode one column of many blocks,
    whatever their widths, in a single call.  Window bytes past a
    value's field are shifted out, so reads are clamped to the slab
    instead of copying it into a padded buffer.
    """
    widths = np.asarray(width, dtype=np.int64)
    bit_starts = np.asarray(bit_starts, dtype=np.int64)
    if widths.ndim and widths.shape != bit_starts.shape:
        raise InvalidParameterError("need one width per bit offset")
    low, top = (int(widths.min()), int(widths.max())) if widths.size else (0, 0)
    if low < 0 or top > 32:
        raise InvalidParameterError(
            f"width must be in [0, 32], got {low if low < 0 else top}"
        )
    if top == 0 or bit_starts.size == 0:
        return np.zeros(bit_starts.size, dtype=np.uint32)
    slab = _as_byte_view(slab)
    if slab.size == 0:
        raise InvalidParameterError("cannot unpack from an empty slab")
    lanes = (top + 14) >> 3  # bytes covering offset+width bits, at most 5
    at = bit_starts >> 3
    word = np.take(slab, at, mode="clip").astype(np.int64)
    for _ in range(lanes - 1):
        at += 1
        word <<= 8
        word |= np.take(slab, at, mode="clip")
    # The window holds ``8 * lanes`` <= 40 bits, so int64 shifts are
    # logical: drop the bits after the field, then mask the ones before.
    word >>= 8 * lanes - (bit_starts & 7) - widths
    word &= (1 << widths) - 1
    return word.astype(np.uint32)


# ----------------------------------------------------------------------
# List encode / block decode
# ----------------------------------------------------------------------
def encode_list(postings: np.ndarray) -> EncodedList:
    """Encode one text-sorted inverted list into v2 blocks.

    The one-list case of :func:`encode_lists`.
    """
    encoded = encode_lists(postings, [0, postings.size])
    return EncodedList(
        data=encoded.data,
        first_texts=encoded.first_texts,
        widths=encoded.widths,
        count=int(postings.size),
    )


def encode_lists(postings: np.ndarray, bounds) -> EncodedLists:
    """Encode a run of text-sorted inverted lists in one grouped pass.

    List ``i`` is ``postings[bounds[i] : bounds[i + 1]]``; ``bounds``
    rises from 0 to ``postings.size``.  Text ids may fall between two
    lists but not inside one.  The run is cut into blocks that restart
    at every list; column deltas reset at every block, the per-block
    widths of all four columns come from one ``maximum.reduceat``, and
    one kernel pass packs every field, whatever its block's width.
    Inputs longer than :data:`_ENCODE_POSTINGS` are encoded in
    block-aligned chunks, which does not change the output.
    """
    if postings.dtype != POSTING_DTYPE:
        raise InvalidParameterError("postings must use POSTING_DTYPE")
    bounds = np.asarray(bounds, dtype=np.int64)
    counts = np.diff(bounds)
    if bounds.size == 0 or bounds[0] != 0 or bounds[-1] != postings.size or (
        np.any(counts < 0)
    ):
        raise InvalidParameterError(
            "bounds must rise from 0 to the number of postings"
        )
    texts = postings["text"]
    list_start = np.zeros(postings.size + 1, dtype=bool)
    list_start[bounds] = True
    if np.any((texts[1:] < texts[:-1]) & ~list_start[1:-1]):
        raise InvalidParameterError("postings must be sorted by text id within a list")
    per_list = (counts + BLOCK_POSTINGS - 1) // BLOCK_POSTINGS
    list_blocks = np.concatenate(([0], np.cumsum(per_list)))
    local = np.arange(list_blocks[-1]) - np.repeat(list_blocks[:-1], per_list)
    starts = np.repeat(bounds[:-1], per_list) + local * BLOCK_POSTINGS
    counts = np.minimum(np.repeat(bounds[1:], per_list) - starts, BLOCK_POSTINGS)
    cuts = np.searchsorted(starts, np.arange(0, postings.size, _ENCODE_POSTINGS))
    cuts = cuts.tolist() + [starts.size]
    data = [np.empty(0, dtype=np.uint8)]
    widths = [np.empty((0, NUM_COLUMNS), dtype=np.uint8)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi == lo:  # the last cut fell inside the last block
            continue
        chunk_data, chunk_widths = _encode_blocks(postings, starts[lo:hi], counts[lo:hi])
        data.append(chunk_data)
        widths.append(chunk_widths)
    widths = np.concatenate(widths)
    return EncodedLists(
        data=np.concatenate(data),
        first_texts=texts[starts],
        widths=widths,
        block_offsets=np.concatenate(
            ([0], np.cumsum(block_byte_sizes(counts, widths)))
        ),
        list_blocks=list_blocks,
    )


def _encode_blocks(
    postings: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Slab bytes and widths of the blocks ``postings[s : s + c]``.

    The blocks tile one stretch of ``postings``, in order.
    """
    base = int(starts[0])
    postings = postings[base : base + int(counts.sum())]
    starts = starts - base
    block_of = np.repeat(np.arange(counts.size), counts)
    within = np.arange(postings.size) - starts[block_of]
    columns = np.stack(_columns(postings, starts), axis=1)  # (n, 4)
    widths = _bit_widths(np.maximum.reduceat(columns, starts))  # (nb, 4)
    if widths.max() > 32:
        raise InvalidParameterError("every posting needs left <= center <= right")
    slabs = column_slab_sizes(counts, widths)
    # First bit of every (block, column) slab: blocks in order, each its
    # four column slabs in order.
    slab_bits = 8 * (np.cumsum(slabs) - slabs.ravel()).reshape(slabs.shape)
    nbytes = int(slabs.sum())
    words = np.zeros((nbytes + 7) >> 3, dtype=np.uint64)
    field_widths = widths.astype(np.int64)[block_of]
    bit_starts = slab_bits[block_of] + within[:, None] * field_widths
    _or_fields(words, columns.ravel(), field_widths.ravel(), bit_starts.ravel())
    return _stream_bytes(words, nbytes), widths


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

    The two decode steps over every row: :func:`decode_texts`, then
    :func:`decode_rows`.  Each column is one :func:`unpack_bits_at`
    call across all blocks, whatever their widths, so the kernel-call
    count is four per call, not per block or per width.
    """
    texts = decode_texts(buffer, offsets, counts, widths, first_texts)
    return decode_rows(buffer, offsets, counts, widths, texts)


def decode_texts(
    buffer: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    widths: np.ndarray,
    first_texts: np.ndarray,
) -> np.ndarray:
    """Text id of every posting of the blocks (block order), as uint32.

    Decode step one: column 0 alone — the text deltas in one kernel
    call, then each block's prefix sum from its ``first_texts`` entry.
    Arguments are :func:`decode_blocks`'; a caller that needs only some
    rows finds them here and hands them to :func:`decode_rows`.
    """
    counts = np.asarray(counts, dtype=np.int64)
    # Column 0 is the first slab of its block.
    block_width = np.asarray(widths, dtype=np.int64).reshape(-1, NUM_COLUMNS)[:, 0]
    heads = np.cumsum(counts) - counts
    base = 8 * np.asarray(offsets, dtype=np.int64) - heads * block_width
    width = np.repeat(block_width, counts)
    bits = np.repeat(base, counts) + np.arange(width.size) * width
    prefix = np.cumsum(unpack_bits_at(buffer, bits, width), dtype=np.int64)
    lead = np.asarray(first_texts, dtype=np.int64) - prefix[heads]
    return (prefix + np.repeat(lead, counts)).astype(np.uint32)


def decode_rows(
    buffer: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    widths: np.ndarray,
    texts: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """The postings at ``rows`` of the blocks, given their text ids.

    Decode step two: columns 1–3 unpacked at the given rows only (row
    ``i`` is the blocks' ``i``-th posting in block order; ``None`` is
    every row), one kernel call per column.  ``texts`` holds the rows'
    text ids, from :func:`decode_texts`.  Every block's widths are
    checked, so a corrupt width fails the read even where no row is
    unpacked.
    """
    counts = np.asarray(counts, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64).reshape(-1, NUM_COLUMNS)
    if widths.size and (widths.min() < 0 or widths.max() > 32):
        raise InvalidParameterError("every block width must be in [0, 32]")
    slabs = column_slab_sizes(counts, widths)
    heads = np.cumsum(counts) - counts
    # Bit of row 0 of the blocks if each slab ran back to it: row r of
    # block b is at ``base[b] + r * width[b]``.
    offsets = np.asarray(offsets, dtype=np.int64)[:, None]
    base = 8 * (offsets + np.cumsum(slabs, axis=1) - slabs) - heads[:, None] * widths
    if rows is None:
        rows = np.arange(int(counts.sum()))
        block = np.repeat(np.arange(counts.size), counts)
    else:
        rows = np.asarray(rows, dtype=np.int64)
        block = np.searchsorted(heads, rows, side="right") - 1

    def column(col: int) -> np.ndarray:
        width = np.take(widths[:, col], block)
        bits = np.take(base[:, col], block) + rows * width
        return unpack_bits_at(buffer, bits, width)

    out = np.empty((rows.size, NUM_COLUMNS), dtype=np.uint32)
    out[:, 0] = texts
    out[:, 2] = column(2)
    np.subtract(out[:, 2], column(1), out=out[:, 1])
    np.add(out[:, 2], column(3), out=out[:, 3])
    return row_postings(out)
