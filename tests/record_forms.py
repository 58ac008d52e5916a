"""The earlier record forms, mapped to the ones the solver keeps.

The test references still compute the records as the package once did:
systems, covered sets and guess vectors with an entry for every interval,
empty ones included; assignments with a ``DISC`` entry for every job they
discard; subtree answers that carry their placed count; partitions that
list their discarded jobs; split outcomes listed with their guess vectors;
subproblems whose fixed and pending sets lie in two maps; a solve that
keeps nothing answered with every job on the first leaf.  The package
keeps only what is there, so the tests compare through these maps: a
missing key means "empty" or "discarded", and nothing that can be derived
is stored.
"""

from __future__ import annotations

from collections.abc import Mapping

from psched.core import DISC, JobSet, Schedule


def nonempty(assign: Mapping[int, JobSet]) -> dict[int, JobSet]:
    """``assign`` without its empty entries, key order kept."""
    return {i: jobs for i, jobs in assign.items() if jobs}


def kept(assign: Mapping[int, JobSet], sched: Schedule) -> dict[int, JobSet]:
    """A solve's system as ``nonempty``, and the empty system when the
    solve's schedule places no job."""
    return nonempty(assign) if sched.scheduled_count else {}


def one_map(*maps: Mapping[int, JobSet]) -> dict[int, JobSet]:
    """The sets of ``maps`` (heap index -> jobs) in one map, with no empty
    entry: the ``sets`` of a subproblem given as its fixed and pending
    sets."""
    out: dict[int, JobSet] = {}
    for mp in maps:
        for i, jobs in mp.items():
            if jobs:
                out[i] = out.get(i, 0) | jobs
    return out


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
