"""The partition enumeration as it was before unplaceable partitions were cut.

A test-only copy of the earlier ``psched.solver.enumerate_partitions``: it
also yields partitions that send a job to a half its window misses (clip
``None`` there), where that job can never be placed.  ``test_solver``
holds ``main_solve`` with the current enumeration to the same system and
schedule as with this one.  ``partition_class_key``, once in
``psched.solver``, names the equivalence class of a concrete partition.

``reference_placeable_partitions`` is the enumeration of placeable
partitions as it was before a job whose window misses both halves went
straight to the discarded set: such a job formed a group of its own, with
one count vector, run through the product and the class dedup like any
other.  ``test_solver`` holds the current enumeration to the same
partitions in the same order.
"""

from __future__ import annotations

from itertools import product

from psched.core import Interval, JobSet, iter_jobs, mask_from
from psched.dyadic import Window


def _clip(w: Window, half: Interval) -> Window | None:
    b, e = max(w[0], half.begin), min(w[1], half.end)
    return (b, e) if b < e else None


def reference_enumerate_partitions(pool_windows: dict[int, Window], root: Interval):
    """Partitions of the pool into (left, right, discarded), one per class,
    whether or not every job sent to a half can be placed there."""
    groups: dict[tuple, list[int]] = {}
    for j in sorted(pool_windows):
        lc = _clip(pool_windows[j], root.left)
        rc = _clip(pool_windows[j], root.right)
        groups.setdefault((lc, rc), []).append(j)
    keys = sorted(groups, key=lambda k: (k[0] or (-1, -1), k[1] or (-1, -1)))
    counts = [
        [(a, b) for a in range(len(groups[k]) + 1) for b in range(len(groups[k]) - a + 1)]
        for k in keys
    ]
    seen: set[tuple] = set()
    for combo in product(*counts):
        left_ms: list[Window] = []
        right_ms: list[Window] = []
        for key, (a, b) in zip(keys, combo):
            lc, rc = key
            left_ms.extend([lc] * a)
            right_ms.extend([rc] * b)
        class_key = (
            tuple(sorted(left_ms, key=lambda w: w or (-1, -1))),
            tuple(sorted(right_ms, key=lambda w: w or (-1, -1))),
        )
        if class_key in seen:
            continue
        seen.add(class_key)
        j_left = 0
        j_right = 0
        j_disc = 0
        for key, (a, b) in zip(keys, combo):
            members = groups[key]
            j_left |= mask_from(members[:a])
            j_right |= mask_from(members[a : a + b])
            j_disc |= mask_from(members[a + b :])
        yield j_left, j_right, j_disc


def reference_placeable_partitions(pool_windows: dict[int, Window], root: Interval):
    """Placeable partitions of the pool into (left, right, discarded), one
    per class, every pool job grouped by its clips and enumerated."""
    groups: dict[tuple, list[int]] = {}
    for j in sorted(pool_windows):
        lc = _clip(pool_windows[j], root.left)
        rc = _clip(pool_windows[j], root.right)
        groups.setdefault((lc, rc), []).append(j)
    keys = sorted(groups, key=lambda k: (k[0] or (-1, -1), k[1] or (-1, -1)))
    counts = [
        [
            (a, b)
            for a in (range(len(groups[k]) + 1) if k[0] else (0,))
            for b in (range(len(groups[k]) - a + 1) if k[1] else (0,))
        ]
        for k in keys
    ]
    seen: set[tuple] = set()
    for combo in product(*counts):
        left_ms: list[Window] = []
        right_ms: list[Window] = []
        for key, (a, b) in zip(keys, combo):
            lc, rc = key
            left_ms.extend([lc] * a)
            right_ms.extend([rc] * b)
        class_key = (tuple(sorted(left_ms)), tuple(sorted(right_ms)))
        if class_key in seen:
            continue
        seen.add(class_key)
        j_left = 0
        j_right = 0
        j_disc = 0
        for key, (a, b) in zip(keys, combo):
            members = groups[key]
            j_left |= mask_from(members[:a])
            j_right |= mask_from(members[a : a + b])
            j_disc |= mask_from(members[a + b :])
        yield j_left, j_right, j_disc


def partition_class_key(
    pool_windows: dict[int, Window],
    root: Interval,
    j_left: JobSet,
    j_right: JobSet,
) -> tuple:
    """Equivalence-class key of a concrete partition: the sorted multisets
    of the windows clipped to each half."""
    left_ms = sorted((_clip(pool_windows[j], root.left) for j in iter_jobs(j_left)),
                     key=lambda w: w or (-1, -1))
    right_ms = sorted((_clip(pool_windows[j], root.right) for j in iter_jobs(j_right)),
                      key=lambda w: w or (-1, -1))
    return tuple(left_ms), tuple(right_ms)
