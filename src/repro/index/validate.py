"""Index integrity validation.

An operational tool: given an index (and optionally the corpus it was
built from), verify every structural invariant the query processor
relies on.  Run it after out-of-core builds, merges, or file transfers
— a silently corrupted index would return silently wrong answers, since
the searcher trusts the sort orders unconditionally.

Checked invariants:

1. directory keys are strictly increasing per hash function;
2. every inverted list is sorted by text id;
3. posting counts in the directory match the payload slices;
4. window geometry: ``left <= center <= right`` and width ``>= t``;
5. (with corpus) every window's center token hash equals the list's
   min-hash and is minimal within the window span;
6. (with corpus) window bounds lie inside their text;
7. (packed / format v2 readers) the per-block mini-directory agrees
   with the decoded contents: ``first_text`` entries match the block-
   leading postings, the stored bit widths are exactly the minimal
   widths of the re-derived columns, and block byte offsets tile the
   payload contiguously within each list;
8. (disk readers) the sidecar's TOC is self-consistent (aligned,
   in-bounds, non-overlapping sections whose byte sizes match their
   dtype/shape), and no legacy ``index.dir.npz`` sits beside it;
9. (live-index roots, :func:`validate_live_index`) the LSM structure is
   sound: the manifest parses and every run it lists exists, is fully
   committed, matches the manifest's hash family / ``t`` / codec, and
   passes invariants (1)-(8); run text-id ranges are disjoint and
   ascending in manifest order and stay below the manifest's
   ``next_text_id`` (the WAL replay fence); no stray ``run-*`` or
   ``wal-*`` entries sit outside the manifest; and the active WAL
   scans cleanly — no torn tail, records fenced correctly and
   contiguous in text id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.corpus.corpus import Corpus
from repro.index.codec import (
    BLOCK_POSTINGS,
    _bit_widths,
    block_byte_sizes,
    block_counts,
    list_columns,
)
from repro.index.sidecar import SECTION_ALIGN, SIDECAR_FILE, read_toc
from repro.index.storage import DiskInvertedIndex


@dataclass
class ValidationReport:
    """Outcome of one validation run."""

    lists_checked: int = 0
    postings_checked: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def _fail(self, message: str, limit: int = 50) -> None:
        if len(self.errors) < limit:
            self.errors.append(message)


#: Lists validation reads per vector ``load_list`` call: bounds the
#: decoded postings held at once on a large index.
_VALIDATE_KEYS = 4096


def _iter_lists(index, func: int, limit: int | None = None):
    """``(minhash, postings)`` of one function's first ``limit`` lists
    (all by default), read :data:`_VALIDATE_KEYS` lists per call."""
    keys = index.list_keys(func)[:limit]
    for start in range(0, keys.size, _VALIDATE_KEYS):
        part = keys[start : start + _VALIDATE_KEYS]
        postings, sizes = index.load_list(np.full(part.size, func), part)
        yield from zip(part.tolist(), np.split(postings, np.cumsum(sizes)[:-1]))


def validate_index(
    index,
    corpus: Corpus | None = None,
    *,
    max_lists_per_func: int | None = None,
) -> ValidationReport:
    """Validate an index's structural invariants; see the module docs.

    Parameters
    ----------
    index:
        Any reader (memory or disk).
    corpus:
        When given, content-level invariants (5)-(6) are checked too.
    max_lists_per_func:
        Optional cap for sampled validation of very large indexes.
    """
    report = ValidationReport()
    family = index.family
    t = index.t
    vocab_hashes = None
    if corpus is not None:
        vocab_top = 0
        for text in corpus:
            if text.size:
                vocab_top = max(vocab_top, int(text.max()) + 1)
        if vocab_top and vocab_top <= (1 << 24):
            vocab_hashes = family.hash_vocabulary(vocab_top)

    for func in range(family.k):
        previous_key = -1
        for minhash, postings in _iter_lists(index, func, max_lists_per_func):
            report.lists_checked += 1
            report.postings_checked += int(postings.size)
            if minhash <= previous_key:
                report._fail(
                    f"func {func}: keys not strictly increasing at {minhash}"
                )
            previous_key = minhash

            texts = postings["text"].astype(np.int64)
            if np.any(np.diff(texts) < 0):
                report._fail(f"func {func} list {minhash}: postings not sorted by text")

            lefts = postings["left"].astype(np.int64)
            centers = postings["center"].astype(np.int64)
            rights = postings["right"].astype(np.int64)
            if np.any(lefts > centers) or np.any(centers > rights):
                report._fail(f"func {func} list {minhash}: bad window geometry")
            if np.any(rights - lefts + 1 < t):
                report._fail(f"func {func} list {minhash}: window narrower than t")

            if corpus is None:
                continue
            for rec in postings:
                text_id = int(rec["text"])
                if text_id >= len(corpus):
                    report._fail(
                        f"func {func} list {minhash}: text id {text_id} out of range"
                    )
                    continue
                tokens = np.asarray(corpus[text_id])
                right = int(rec["right"])
                if right >= tokens.size:
                    report._fail(
                        f"func {func} list {minhash}: window exceeds text {text_id}"
                    )
                    continue
                left, center = int(rec["left"]), int(rec["center"])
                if vocab_hashes is not None:
                    hashes = vocab_hashes[func][
                        tokens[left : right + 1].astype(np.int64)
                    ]
                else:
                    hashes = family.hash_tokens(tokens[left : right + 1], func)
                center_hash = int(hashes[center - left])
                if center_hash != int(minhash):
                    report._fail(
                        f"func {func} list {minhash}: center hash mismatch in "
                        f"text {text_id}"
                    )
                if center_hash != int(hashes.min()):
                    report._fail(
                        f"func {func} list {minhash}: center not minimal in "
                        f"text {text_id} window [{left},{right}]"
                    )
    if getattr(index, "codec", "raw") == "packed":
        _validate_block_directory(index, report, max_lists_per_func)
    if isinstance(index, DiskInvertedIndex):
        _validate_sidecar(index.directory, report)
    return report


def _validate_sidecar(directory, report: ValidationReport) -> None:
    """Invariant (8): sidecar TOC soundness, no npz beside the sidecar."""
    if not (directory / SIDECAR_FILE).exists():
        return  # a legacy npz index: the reader already parsed it
    if (directory / "index.dir.npz").exists():
        report._fail("stray legacy index.dir.npz next to the directory sidecar")
    try:
        sections, data_start, size = read_toc(directory / SIDECAR_FILE)
    except Exception as exc:  # noqa: BLE001 - any parse failure is the finding
        report._fail(f"sidecar TOC unreadable: {exc}")
        return
    spans = []
    for section in sections:
        name = section["name"]
        offset, nbytes = int(section["offset"]), int(section["nbytes"])
        if offset % SECTION_ALIGN:
            report._fail(f"sidecar section {name}: offset not {SECTION_ALIGN}-aligned")
        expected = int(np.prod(section["shape"], dtype=np.int64)) * np.dtype(
            section["dtype"]
        ).itemsize
        if nbytes != expected:
            report._fail(
                f"sidecar section {name}: nbytes {nbytes} does not match "
                f"dtype/shape ({expected})"
            )
        if data_start + offset + nbytes > size:
            report._fail(f"sidecar section {name}: extends past end of file")
        spans.append((offset, offset + nbytes, name))
    spans.sort()
    for (_, end, name), (start, _, other) in zip(spans, spans[1:]):
        if start < end:
            report._fail(f"sidecar sections {name} and {other} overlap")


def _validate_block_directory(index, report: ValidationReport, max_lists_per_func):
    """Invariant (7): v2 block directory vs. decoded list contents."""
    for func in range(index.family.k):
        for minhash, postings in _iter_lists(index, func, max_lists_per_func):
            first, widths, offsets = index.list_blocks(func, minhash)
            counts = block_counts(postings.size)
            if counts.size != first.size:
                report._fail(
                    f"func {func} list {minhash}: {first.size} directory "
                    f"blocks for {counts.size} expected"
                )
                continue
            if not np.array_equal(
                first.astype(np.int64),
                postings["text"][::BLOCK_POSTINGS].astype(np.int64),
            ):
                report._fail(
                    f"func {func} list {minhash}: blk_first does not match "
                    "decoded block-leading texts"
                )
            padded_len = counts.size * BLOCK_POSTINGS
            for column, values in enumerate(list_columns(postings)):
                padded = np.zeros(padded_len, dtype=np.int64)
                padded[: values.size] = values
                minimal = _bit_widths(
                    padded.reshape(-1, BLOCK_POSTINGS).max(axis=1)
                )
                if not np.array_equal(minimal, widths[:, column]):
                    report._fail(
                        f"func {func} list {minhash}: stored bit widths of "
                        f"column {column} are not the minimal widths of the "
                        "decoded values"
                    )
            sizes = block_byte_sizes(counts, widths)
            if counts.size > 1 and not np.array_equal(
                np.diff(offsets.astype(np.int64)), sizes[:-1]
            ):
                report._fail(
                    f"func {func} list {minhash}: block offsets are not "
                    "contiguous with the block sizes"
                )
            if counts.size and int(offsets[-1]) + int(sizes[-1]) > index.nbytes:
                report._fail(
                    f"func {func} list {minhash}: blocks extend past the "
                    "payload end"
                )


def validate_live_index(
    root,
    *,
    max_lists_per_func: int | None = None,
) -> ValidationReport:
    """Invariant (9): validate an LSM live-index root end to end.

    Checks the manifest, every sealed run (structurally, via
    :func:`validate_index`, plus cross-run text-range discipline), the
    directory contents (no stray runs or WAL segments), and the active
    WAL segment (clean tail, replay-fence and contiguity of record
    ids).  Works on a root that is not currently open; opening it
    elsewhere concurrently may race seals and report transient strays.
    """
    from pathlib import Path

    from repro.exceptions import IndexFormatError
    from repro.index.lsm.manifest import MANIFEST_FILE, Manifest
    from repro.index.lsm.wal import scan_wal

    report = ValidationReport()
    root = Path(root)
    try:
        manifest = Manifest.load(root)
    except IndexFormatError as exc:
        report._fail(f"manifest: {exc}")
        return report

    # Directory discipline: everything run-/wal-like must be accounted for.
    wal_file = f"wal-{manifest.wal_seq:06d}.log"
    referenced = set(manifest.runs)
    for entry in sorted(root.iterdir()):
        if entry.is_dir() and entry.name.startswith("run-"):
            if entry.name not in referenced:
                report._fail(f"stray run directory {entry.name} not in manifest")
        elif entry.name.startswith("wal-") and entry.name.endswith(".log"):
            if entry.name != wal_file:
                report._fail(
                    f"stale WAL segment {entry.name} (active is {wal_file})"
                )

    # Per-run structure + cross-run text-range discipline.
    previous_hi = -1
    for name in manifest.runs:
        run_dir = root / name
        if not run_dir.is_dir():
            report._fail(f"run {name}: directory missing")
            continue
        try:
            reader = DiskInvertedIndex(run_dir)
        except IndexFormatError as exc:
            report._fail(f"run {name}: {exc}")
            continue
        if reader.family != manifest.family:
            report._fail(f"run {name}: hash family differs from manifest")
        if reader.t != manifest.t:
            report._fail(f"run {name}: t={reader.t} differs from manifest t={manifest.t}")
        if reader.codec != manifest.codec:
            report._fail(
                f"run {name}: codec {reader.codec!r} differs from manifest "
                f"{manifest.codec!r}"
            )
        sub_report = validate_index(
            reader, max_lists_per_func=max_lists_per_func
        )
        report.lists_checked += sub_report.lists_checked
        report.postings_checked += sub_report.postings_checked
        for error in sub_report.errors:
            report._fail(f"run {name}: {error}")

        lo, hi = _run_text_range(reader)
        if lo is None:
            continue  # empty run: no range to check
        if lo <= previous_hi:
            report._fail(
                f"run {name}: text range [{lo}, {hi}] overlaps or precedes "
                f"an earlier run (previous max id {previous_hi})"
            )
        if hi >= manifest.next_text_id:
            report._fail(
                f"run {name}: max text id {hi} at or above the manifest's "
                f"next_text_id {manifest.next_text_id} (broken replay fence)"
            )
        previous_hi = max(previous_hi, hi)

    # Active WAL: clean tail, fenced + contiguous records.
    wal_path = root / wal_file
    if not wal_path.exists():
        report._fail(f"active WAL segment {wal_file} is missing")
        return report
    try:
        records, _, tail_error = scan_wal(wal_path)
    except IndexFormatError as exc:
        report._fail(f"WAL {wal_file}: {exc}")
        return report
    if tail_error is not None:
        report._fail(f"WAL {wal_file}: torn tail not truncated ({tail_error})")
    expected_next = manifest.next_text_id
    for position, (first_text_id, texts) in enumerate(records):
        if first_text_id < manifest.next_text_id:
            report._fail(
                f"WAL {wal_file} record {position}: first text id "
                f"{first_text_id} below the replay fence "
                f"{manifest.next_text_id}"
            )
            continue
        if first_text_id != expected_next:
            report._fail(
                f"WAL {wal_file} record {position}: first text id "
                f"{first_text_id} not contiguous (expected {expected_next})"
            )
        expected_next = first_text_id + len(texts)
    return report


def _run_text_range(reader) -> tuple[int | None, int | None]:
    """(min, max) text id of a run, from function 0's lists."""
    lo: int | None = None
    hi: int | None = None
    for _, postings in _iter_lists(reader, 0):
        if postings.size:
            texts = postings["text"]
            first, last = int(texts.min()), int(texts.max())
            lo = first if lo is None else min(lo, first)
            hi = last if hi is None else max(hi, last)
    return lo, hi
