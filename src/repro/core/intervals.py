"""Interval sweeps for collision counting (paper Algorithms 4 and 5).

Query processing retrieves, per text, a group of compact windows whose
min-hash collided with the query.  A sequence ``T[i..j]`` collides with
the query as many times as there are windows ``(l, c, r)`` in the group
with ``l <= i <= c <= j <= r``.  Splitting each window into a *left
interval* ``[l, c]`` (which must contain ``i``) and a *right interval*
``[c, r]`` (which must contain ``j``) reduces the problem to two nested
endpoint sweeps:

* :func:`interval_scan` (Algorithm 5) sweeps the endpoints of a set of
  intervals and reports, for every maximal segment of the axis, the set
  of intervals covering it whenever that set has size ``>= alpha``.
* :func:`collision_count` (Algorithm 4) runs the sweep over the left
  intervals, and for every reported subset re-runs it over the
  corresponding right intervals, emitting rectangles
  ``[x, x'] x [y, y']`` of ``(i, j)`` pairs together with their exact
  collision count.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from repro.core.compact_windows import CompactWindow
from repro.exceptions import InvalidParameterError


@dataclass(frozen=True)
class ScanResult:
    """One segment reported by :func:`interval_scan`.

    Attributes
    ----------
    members:
        Ids of the intervals covering the segment (in insertion order).
    start, end:
        Inclusive bounds of the segment of the axis covered by exactly
        this member set.
    """

    members: tuple[int, ...]
    start: int
    end: int


def interval_scan(
    intervals: Sequence[tuple[int, int]], alpha: int
) -> list[ScanResult]:
    """Algorithm 5: endpoint sweep over inclusive integer intervals.

    Parameters
    ----------
    intervals:
        ``(start, end)`` pairs with ``start <= end``; the id of an
        interval is its position in the sequence.
    alpha:
        Minimum size of a reported covering set.

    Returns
    -------
    One :class:`ScanResult` per maximal axis segment whose covering set
    has size ``>= alpha``.  Every point covered by ``>= alpha``
    intervals lies in exactly one reported segment, and that segment's
    member set is exactly the set of intervals covering the point
    (Lemma 1 of the paper).
    """
    if alpha < 1:
        raise InvalidParameterError(f"alpha must be >= 1, got {alpha}")
    if not intervals:
        return []
    events: list[tuple[int, int, int]] = []
    for ident, (start, end) in enumerate(intervals):
        if start > end:
            raise InvalidParameterError(f"interval {ident} has start > end: ({start}, {end})")
        events.append((start, 1, ident))
        events.append((end + 1, 0, ident))
    # Closing events sort before opening events at the same coordinate,
    # so the active set between two coordinates is computed correctly.
    events.sort()

    results: list[ScanResult] = []
    active: dict[int, None] = {}  # insertion-ordered set of interval ids
    idx = 0
    total = len(events)
    while idx < total:
        coord = events[idx][0]
        while idx < total and events[idx][0] == coord:
            _, is_open, ident = events[idx]
            if is_open:
                active[ident] = None
            else:
                del active[ident]
            idx += 1
        if len(active) >= alpha and idx < total:
            next_coord = events[idx][0]
            results.append(ScanResult(tuple(active), coord, next_coord - 1))
    return results


@dataclass(frozen=True)
class CollisionRectangle:
    """A rectangle of sequences sharing one exact collision count.

    Every sequence ``T[i..j]`` with ``i in [i_lo, i_hi]`` and
    ``j in [j_lo, j_hi]`` is contained in exactly ``count`` compact
    windows of the group that was scanned.  ``i <= j`` holds for every
    pair in the rectangle by construction (each member window has
    ``i <= c <= j``).
    """

    i_lo: int
    i_hi: int
    j_lo: int
    j_hi: int
    count: int

    def clip_min_length(self, min_length: int) -> "CollisionRectangle | None":
        """Restrict the rectangle to sequences with ``j - i + 1 >= min_length``.

        The constraint ``j >= i + min_length - 1`` cuts the rectangle
        with a diagonal; we keep the enclosing sub-rectangle where *at
        least one* valid pair exists and expose per-row clipping via
        :meth:`iter_spans`.  Returns ``None`` when no pair survives.
        """
        if self.j_hi - self.i_lo + 1 < min_length:
            return None
        return self

    def iter_spans(self, min_length: int = 1) -> Iterable[tuple[int, int]]:
        """Yield every ``(i, j)`` pair of the rectangle with length ``>= min_length``."""
        for i in range(self.i_lo, self.i_hi + 1):
            j_start = max(self.j_lo, i + min_length - 1)
            for j in range(j_start, self.j_hi + 1):
                yield (i, j)

    def span_count(self, min_length: int = 1) -> int:
        """Number of pairs :meth:`iter_spans` would yield, in closed form."""
        total = 0
        for i in range(self.i_lo, self.i_hi + 1):
            j_start = max(self.j_lo, i + min_length - 1)
            if j_start <= self.j_hi:
                total += self.j_hi - j_start + 1
        return total

    def widest_span(self, min_length: int = 1) -> tuple[int, int] | None:
        """The longest sequence in the rectangle, or ``None`` if none is valid."""
        if self.j_hi - self.i_lo + 1 < min_length:
            return None
        return (self.i_lo, self.j_hi)


def collision_count(
    windows: Sequence[CompactWindow] | np.ndarray, alpha: int
) -> list[CollisionRectangle]:
    """Algorithm 4: all sequences contained in ``>= alpha`` windows.

    Parameters
    ----------
    windows:
        Compact windows of one text whose min-hash collided with the
        query (one window per colliding hash function at most, when the
        group comes from the inverted indexes).
    alpha:
        The collision threshold (``beta = ceil(k * theta)`` during
        query processing, or the reduced threshold during prefix
        filtering).

    Returns
    -------
    Rectangles whose ``count`` is the *exact* number of windows in the
    group containing each of their sequences (``count >= alpha``).  The
    rectangles are pairwise disjoint: the left sweep partitions the
    ``i`` axis and, within one left segment, the right sweep partitions
    the ``j`` axis, so every qualifying ``(i, j)`` pair appears in
    exactly one rectangle.
    """
    if isinstance(windows, np.ndarray):
        lefts = windows["left"].astype(np.int64)
        centers = windows["center"].astype(np.int64)
        rights = windows["right"].astype(np.int64)
        left_intervals = list(zip(lefts.tolist(), centers.tolist()))
        center_list = centers.tolist()
        right_list = rights.tolist()
    else:
        left_intervals = [(w.left, w.center) for w in windows]
        center_list = [w.center for w in windows]
        right_list = [w.right for w in windows]

    results: list[CollisionRectangle] = []
    for left_group in interval_scan(left_intervals, alpha):
        right_intervals = [
            (center_list[ident], right_list[ident]) for ident in left_group.members
        ]
        for right_group in interval_scan(right_intervals, alpha):
            results.append(
                CollisionRectangle(
                    i_lo=left_group.start,
                    i_hi=left_group.end,
                    j_lo=right_group.start,
                    j_hi=right_group.end,
                    count=len(right_group.members),
                )
            )
    return results


def _sweep_groups(
    starts: np.ndarray,
    ends: np.ndarray,
    group_ids: np.ndarray,
    alpha: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized multi-group endpoint sweep (Algorithm 5, counting form).

    Sweeps the inclusive intervals ``[starts[i], ends[i]]`` of *every*
    group at once and returns, per maximal constant-coverage segment
    with coverage ``>= alpha[group]``, the arrays ``(group, seg_start,
    seg_end, count)`` ordered by ``(group, segment coordinate)`` —
    exactly the order :func:`interval_scan` reports segments in, group
    by group.  ``alpha`` holds one threshold per group; an int is every
    group's.

    The trick that fuses the groups into one pass: events carry a
    composite ``group * span + coordinate`` key (``span`` exceeds every
    coordinate), so a single argsort keeps groups contiguous while
    ordering events within each group by coordinate with closing events
    first — and because every open has its close inside the same group,
    one global ``cumsum`` of the +1/−1 deltas *is* the per-group active
    count (each group's events net to zero before the next begins).
    """
    empty = np.empty(0, dtype=np.int64)
    n = int(starts.size)
    if n == 0:
        return empty, empty, empty, empty
    starts = starts.astype(np.int64, copy=False)
    ends = ends.astype(np.int64, copy=False)
    group_ids = group_ids.astype(np.int64, copy=False)
    span = int(ends.max()) + 2
    base = group_ids * span
    # Composite event keys: bit 0 orders closes (0) before opens (1) at
    # the same (group, coordinate); closing happens at ``end + 1``.
    keys = np.empty(2 * n, dtype=np.int64)
    keys[:n] = ((base + starts) << 1) | 1
    keys[n:] = (base + ends + 1) << 1
    order = keys.argsort()
    window = order % n  # event -> source interval
    deltas = np.where(order < n, 1, -1)
    active = deltas.cumsum()
    composite = keys[order] >> 1  # (group, coordinate), comparable
    ev_group = group_ids[window]
    ev_coord = composite - ev_group * span
    alpha = np.asarray(alpha)
    # A segment spans from one coordinate to the next *within a group*;
    # it is materialized at the last event of its coordinate batch.
    segment = np.zeros(2 * n, dtype=bool)
    segment[:-1] = (
        (composite[1:] != composite[:-1])
        & (ev_group[1:] == ev_group[:-1])
        & (active[:-1] >= (alpha[ev_group[:-1]] if alpha.ndim else alpha))
    )
    found = segment.nonzero()[0]
    return (
        ev_group[found],
        ev_coord[found],
        ev_coord[found + 1] - 1,
        active[found],
    )


@dataclass(frozen=True)
class FusedRectangles:
    """Column-oriented output of :func:`fused_collision_count`.

    One row per :class:`CollisionRectangle`, tagged with the id of the
    window group that produced it.  ``group`` is non-decreasing, and
    within a group rows follow the exact emission order of
    :func:`collision_count` (left segment, then right segment, both in
    coordinate order), so slicing by group reproduces the per-group
    rectangle lists of the scalar oracle.
    """

    group: np.ndarray
    i_lo: np.ndarray
    i_hi: np.ndarray
    j_lo: np.ndarray
    j_hi: np.ndarray
    count: np.ndarray

    @property
    def size(self) -> int:
        return int(self.group.size)

    def filtered(self, mask) -> "FusedRectangles":
        """Rows where ``mask`` holds (or that a slice or index array picks)."""
        return FusedRectangles(*(getattr(self, spec.name)[mask] for spec in fields(self)))

    @staticmethod
    def concat(parts: list["FusedRectangles"]) -> "FusedRectangles":
        """The rows of ``parts``, in order (new arrays)."""
        return FusedRectangles(
            *(
                np.concatenate([getattr(part, spec.name) for part in parts])
                for spec in fields(FusedRectangles)
            )
        )

    def rectangles(self) -> list[CollisionRectangle]:
        """Every row as a :class:`CollisionRectangle`, in row order."""
        columns = (self.i_lo, self.i_hi, self.j_lo, self.j_hi, self.count)
        return list(map(CollisionRectangle, *(column.tolist() for column in columns)))


def fused_collision_count(
    lefts: np.ndarray,
    centers: np.ndarray,
    rights: np.ndarray,
    group_ids: np.ndarray,
    alpha: int | np.ndarray,
) -> FusedRectangles:
    """Algorithm 4 over many window groups in one vectorized pass.

    Equivalent to running :func:`collision_count` on every group
    separately (the property-test oracle), but the per-group Python
    sweep is replaced by three flat-array passes:

    1. one global left sweep (:func:`_sweep_groups`) over all
       ``[left, center]`` intervals finds every qualifying start
       segment of every group;
    2. the member windows of all start segments are extracted with a
       single batched ``searchsorted`` over composite ``(group, left)``
       keys plus one center-coordinate mask — no per-segment loop;
    3. one global right sweep over the members' ``[center, right]``
       intervals, keyed by start segment, emits the rectangles.

    Parameters
    ----------
    lefts, centers, rights:
        Window coordinates, **sorted by** ``(group_ids, lefts)``.
    group_ids:
        Dense group labels ``0 .. G-1``, non-decreasing, aligned with
        the coordinate arrays (one group per ``(query, text)`` pair
        during query processing).
    alpha:
        Collision threshold of each group (``>= 1``), indexed by group
        id; an int is every group's.  A batch of queries at different
        reduced thresholds runs as one call.
    """
    alpha = np.asarray(alpha, dtype=np.int64)
    if alpha.size and alpha.min() < 1:
        raise InvalidParameterError(f"alpha must be >= 1, got {alpha.min()}")
    empty = np.empty(0, dtype=np.int64)
    nothing = FusedRectangles(empty, empty, empty, empty, empty, empty)
    n = int(lefts.size)
    if n == 0:
        return nothing
    lefts = lefts.astype(np.int64, copy=False)
    centers = centers.astype(np.int64, copy=False)
    rights = rights.astype(np.int64, copy=False)
    group_ids = group_ids.astype(np.int64, copy=False)

    seg_group, seg_start, seg_end, _ = _sweep_groups(
        lefts, centers, group_ids, alpha
    )
    if seg_group.size == 0:
        return nothing

    # Members of a start segment beginning at ``s`` in group ``g`` are
    # the windows with ``left <= s <= center``.  With windows sorted by
    # (group, left), the left constraint is one batched searchsorted
    # over composite keys; the center constraint is a mask.
    span = int(rights.max()) + 2
    left_keys = group_ids * span + lefts
    num_groups = int(group_ids[-1]) + 1
    group_starts = group_ids.searchsorted(np.arange(num_groups))
    upper = left_keys.searchsorted(seg_group * span + seg_start, side="right")
    lower = group_starts[seg_group]
    counts = upper - lower
    offsets = counts.cumsum() - counts
    member = (
        np.arange(int(counts.sum()), dtype=np.int64)
        - offsets.repeat(counts)
        + lower.repeat(counts)
    )
    seg_of_member = np.arange(seg_group.size, dtype=np.int64).repeat(counts)
    covered = centers[member] >= seg_start.repeat(counts)
    member = member[covered]
    seg_of_member = seg_of_member[covered]

    rect_seg, j_lo, j_hi, rect_count = _sweep_groups(
        centers[member],
        rights[member],
        seg_of_member,
        alpha[seg_group] if alpha.ndim else alpha,
    )
    return FusedRectangles(
        group=seg_group[rect_seg],
        i_lo=seg_start[rect_seg],
        i_hi=seg_end[rect_seg],
        j_lo=j_lo,
        j_hi=j_hi,
        count=rect_count,
    )


def max_collisions(
    windows: Sequence[CompactWindow] | np.ndarray, i: int, j: int
) -> int:
    """Brute-force collision count of one sequence (test helper)."""
    if isinstance(windows, np.ndarray):
        return int(
            np.count_nonzero(
                (windows["left"] <= i) & (i <= windows["center"]) & (windows["center"] <= j) & (j <= windows["right"])
            )
        )
    return sum(1 for w in windows if w.contains(i, j))
