"""The earlier record forms, mapped to the ones the solver keeps.

The test references still compute the records as the package once did:
systems, covered sets and guess vectors with an entry for every interval,
empty ones included; assignments with a ``DISC`` entry for every job they
discard; subtree answers that carry their placed count; partitions that
list their discarded jobs; split outcomes listed with their guess vectors.
The package keeps only what is there, so the tests compare through these
maps: a missing key means "empty" or "discarded", and nothing that can be
derived is stored.
"""

from __future__ import annotations

from collections.abc import Mapping

from psched.core import DISC, JobSet


def nonempty(assign: Mapping[int, JobSet]) -> dict[int, JobSet]:
    """``assign`` without its empty entries, key order kept."""
    return {i: jobs for i, jobs in assign.items() if jobs}


def placed(assign: Mapping[int, object]) -> dict[int, object]:
    """``assign`` without its ``DISC`` entries."""
    return {j: t for j, t in assign.items() if t is not DISC}


def without_vectors(listed: list[tuple]) -> list[tuple]:
    """``(guess vector, outcome)`` pairs without their vectors."""
    return [outcome for _, outcome in listed]


def discarded(pool: JobSet, left: JobSet, right: JobSet) -> JobSet:
    """The jobs of ``pool`` that a partition sends to neither half."""
    return pool & ~(left | right)


def two_sided(partitions) -> list[tuple[JobSet, JobSet]]:
    """``(left, right, discarded)`` partitions as ``(left, right)``."""
    return [(left, right) for left, right, _ in partitions]
