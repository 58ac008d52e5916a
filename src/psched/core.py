"""Instances, schedules, and order-combinatorics primitives.

Jobs are dense integer ids ``0..n-1``.  Sets of jobs are plain ``int``
bitmasks (bit ``j`` set means job ``j`` is a member); the precedence
relation is stored as its transitive closure, one reachability mask per
job, so "no precedence constraints from A to B" is a couple of bitwise
ops.  A schedule maps each job to a time slot in ``(0, T]`` or to
``None``, the discard sentinel.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from .errors import CycleError

JobSet = int  # bitmask over job ids
Slot = int | None  # None = discarded

DISC: Slot = None


def mask_from(jobs: Iterable[int]) -> JobSet:
    """Bitmask with the given job ids set."""
    m = 0
    for j in jobs:
        m |= 1 << j
    return m


def iter_jobs(mask: JobSet) -> Iterator[int]:
    """Ascending job ids present in the mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def job_count(mask: JobSet) -> int:
    return mask.bit_count()


@dataclass(frozen=True)
class Interval:
    """Half-open integer time interval ``(begin, end]``."""

    begin: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.begin < self.end:
            raise ValueError(f"bad interval ({self.begin}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.begin

    @property
    def center(self) -> int:
        return (self.begin + self.end) // 2

    @property
    def left(self) -> "Interval":
        return Interval(self.begin, self.center)

    @property
    def right(self) -> "Interval":
        return Interval(self.center, self.end)

    def __contains__(self, t: object) -> bool:
        return isinstance(t, int) and self.begin < t <= self.end

    def slots(self) -> range:
        return range(self.begin + 1, self.end + 1)

    def __repr__(self) -> str:  # compact, used in violation messages
        return f"({self.begin},{self.end}]"


@dataclass(frozen=True)
class Instance:
    """``n`` unit jobs on ``m`` machines under a strict partial order.

    ``succ[j]`` / ``pred[j]`` are the transitively closed successor and
    predecessor masks of job ``j``; ``topo`` is a fixed topological order
    (ascending id among incomparable jobs).
    """

    n: int
    m: int
    succ: tuple[JobSet, ...]
    pred: tuple[JobSet, ...]
    topo: tuple[int, ...]

    @property
    def all_jobs(self) -> JobSet:
        return (1 << self.n) - 1

    def precedes(self, a: int, b: int) -> bool:
        return bool(self.succ[a] >> b & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All closure pairs (a, b) with a before b, ascending."""
        for a in range(self.n):
            for b in iter_jobs(self.succ[a]):
                yield a, b

    def no_prec_between(self, src: JobSet, dst: JobSet) -> bool:
        """True if no job in ``src`` precedes any job in ``dst``."""
        reach = 0
        for j in iter_jobs(src):
            reach |= self.succ[j]
        return not reach & dst


def _closure(order: Iterable[int], direct: Sequence[JobSet]) -> list[JobSet]:
    """Per job, the union of the ``direct`` masks of the jobs it reaches
    through them; ``order`` lists every job after all it reaches."""
    closed = [0] * len(direct)
    for u in order:
        s = rest = direct[u]
        while rest:
            low = rest & -rest
            s |= closed[low.bit_length() - 1]
            rest ^= low
        closed[u] = s
    return closed


def build_instance(n: int, m: int, edges: Iterable[tuple[int, int]]) -> Instance:
    """Build an instance from direct precedence edges.

    Stores the transitive closure of ``edges``.  Raises ``CycleError`` on a
    directed cycle and ``IndexError`` on out-of-range job ids.
    """
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    out, into = [0] * n, [0] * n  # direct successor and predecessor masks
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise CycleError(f"self-loop on job {u}")
        out[u] |= 1 << v
        into[v] |= 1 << u

    # Kahn's algorithm: topological order, detects cycles.  Its queue is a
    # mask whose lowest bit is the smallest ready id.
    ready = mask_from(j for j in range(n) if not into[j])
    topo: list[int] = []
    done: JobSet = 0
    while ready:
        low = ready & -ready
        ready ^= low
        done |= low
        u = low.bit_length() - 1
        topo.append(u)
        rest = out[u]
        while rest:
            low = rest & -rest
            if not into[low.bit_length() - 1] & ~done:
                ready |= low
            rest ^= low
    if len(topo) != n:
        raise CycleError("precedence edges contain a directed cycle")
    succ, pred = _closure(reversed(topo), out), _closure(topo, into)
    return Instance(n=n, m=m, succ=tuple(succ), pred=tuple(pred), topo=tuple(topo))


def longest_chain(inst: Instance, jobs: JobSet) -> int:
    """Length (job count) of the longest precedence chain inside ``jobs``."""
    return max(chain_depths(inst, jobs).values(), default=0)


def chain_depths(inst: Instance, jobs: JobSet) -> dict[int, int]:
    """Longest-chain-ending-at-j lengths for every j in ``jobs``, keyed in
    topological order."""
    depth: dict[int, int] = {}
    pred = inst.pred
    for j in inst.topo:
        if jobs >> j & 1:
            d = 0
            rest = pred[j] & jobs
            while rest:
                low = rest & -rest
                di = depth[low.bit_length() - 1]
                if di > d:
                    d = di
                rest ^= low
            depth[j] = d + 1
    return depth


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class ValidityReport:
    violations: tuple[Violation, ...]
    discards: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return f"valid ({self.discards} discarded)"
        lines = [f"INVALID ({len(self.violations)} violations, {self.discards} discarded)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


@dataclass(frozen=True)
class Schedule:
    """Assignment of every job to a slot in ``(0, T]`` or to discard."""

    T: int
    assign: tuple[Slot, ...]

    def __post_init__(self) -> None:
        if self.T < 0:
            raise ValueError("horizon must be nonnegative")
        for j, t in enumerate(self.assign):
            if t is not None and not 1 <= t <= self.T:
                raise ValueError(f"job {j} assigned slot {t} outside (0, {self.T}]")

    @property
    def n(self) -> int:
        return len(self.assign)

    @property
    def discard_count(self) -> int:
        return sum(1 for t in self.assign if t is None)

    @property
    def scheduled_count(self) -> int:
        return sum(1 for t in self.assign if t is not None)

    @property
    def makespan(self) -> int:
        return max((t for t in self.assign if t is not None), default=0)

    def replace(self, updates: Mapping[int, Slot]) -> "Schedule":
        assign = list(self.assign)
        for j, t in updates.items():
            assign[j] = t
        return Schedule(T=self.T, assign=tuple(assign))


def slot_violations(
    inst: Instance, assign: Mapping[int, Slot] | tuple[Slot, ...], among: JobSet
) -> list[Violation]:
    """Capacity at each slot, ascending, over every job ``assign`` places;
    then each precedence clash between two placed jobs of ``among``, by the
    earlier job in the order ``assign`` lists it, then by the later one's id.
    ``assign`` maps jobs to slots, or is a tuple of the slots of jobs 0,
    1, ... (a ``Schedule``'s)."""
    listed = isinstance(assign, tuple)
    at: dict[int, JobSet] = {}  # the jobs placed at each slot
    for j, t in enumerate(assign) if listed else assign.items():
        if t is not None:
            at[t] = at.get(t, 0) | 1 << j
    out: list[Violation] = []
    upto: dict[int, JobSet] = {}  # the jobs placed at or before each slot
    acc: JobSet = 0
    for t in sorted(at):
        if at[t].bit_count() > inst.m:
            out.append(Violation("capacity", f"{at[t].bit_count()} jobs at slot {t} > m={inst.m}"))
        upto[t] = acc = acc | at[t]
    for a, ta in enumerate(assign) if listed else assign.items():
        if ta is not None and among >> a & 1 and (late := inst.succ[a] & upto[ta] & among):
            for b in iter_jobs(late):
                out.append(Violation(
                    "precedence", f"job {a} at {ta} not before job {b} at {assign[b]}"))
    return out


def verify_valid(inst: Instance, sched: Schedule) -> ValidityReport:
    """Check coverage, then ``slot_violations`` over every job; reports every violation."""
    out: list[Violation] = []
    if sched.n != inst.n:
        out.append(Violation("domain", f"schedule covers {sched.n} jobs, instance has {inst.n}"))
    out += slot_violations(inst, sched.assign, inst.all_jobs)
    return ValidityReport(violations=tuple(out), discards=sched.discard_count)


def count_inversions(
    items: Sequence,
    less: Callable[[object, object], bool],
    values: Mapping,
) -> int:
    """Unordered pairs ordered one way by ``less`` and the other way by ``values``.

    ``{a, b}`` is an inversion when ``less(a, b)`` holds but
    ``values[b] < values[a]`` (or symmetrically); equal values never count.
    """
    total = 0
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if less(a, b):
                if values[b] < values[a]:
                    total += 1
            elif less(b, a):
                if values[a] < values[b]:
                    total += 1
    return total
