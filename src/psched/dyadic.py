"""Global parameters, the dyadic interval tree, job-to-interval systems,
windows for top jobs, and the one split loop that drives the solver.  The
loop picks each pivot's side from a guess vector (replay, ``push_down``)
or from a reference schedule (record, ``system_from_schedule``).

A system assigns jobs to tree intervals so that chain lengths stay small
on top intervals, middle intervals are empty, and the in-order sequence
of assignments respects precedence.  Windows relax the precedence
constraints of top jobs to aligned sub-ranges of their owning intervals.
Everywhere, the solver included, a tree interval is named by its heap
index (see ``DyadicTree``): systems, covered sets and guess vectors are
keyed by it, and list only the intervals that hold a job, in preorder.
``in_order`` is the one in-order sort and ``node_windows`` the one window
region query.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .core import (
    Instance,
    Interval,
    JobSet,
    Schedule,
    Slot,
    ValidityReport,
    Violation,
    iter_jobs,
    job_count,
    mask_from,
    slot_violations,
    verify_valid,
)
from .errors import GuessExhausted, InvalidInput, InvalidOverride

Guesses = tuple[str, ...]  # entries 'L' / 'R'
Window = tuple[int, int]  # (b, e) meaning the half-open range (b, e]

LEFT = "L"
RIGHT = "R"

OVERRIDE_KEYS = ("h", "hp", "p", "delta", "deltap")


def _ceil_log2(x: Fraction) -> int:
    """Smallest k >= 0 with 2**k >= x, computed exactly."""
    if x <= 0:
        raise ValueError("need x > 0")
    k = 0
    while (1 << k) * x.denominator < x.numerator:
        k += 1
    return k


@dataclass(frozen=True)
class Params:
    """Derived solver parameters for horizon T, machine count m and accuracy eps.

    ``h`` fixes the bottom-interval length 2**h, ``L = log2(T) - h`` the
    tree depth, ``hp`` the number of middle levels, ``delta``/``deltap``
    the chain-length budget of top intervals, and ``p`` the guess-vector
    length for top intervals.  ``overridden`` records which fields were
    replaced by hand.  The split loop reads the budget as integers over
    the common denominator ``D``: ``A = delta * D``, ``B = deltap * D``.
    """

    T: int
    m: int
    eps: Fraction
    h: int
    hp: int
    delta: Fraction
    deltap: Fraction
    p: int
    overridden: tuple[str, ...] = ()
    D: int = field(init=False, repr=False, compare=False)
    A: int = field(init=False, repr=False, compare=False)
    B: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        D = math.lcm(self.delta.denominator, self.deltap.denominator)
        for name, value in (("D", D), ("A", self.delta * D), ("B", self.deltap * D)):
            object.__setattr__(self, name, int(value))

    @property
    def log_T(self) -> int:
        return self.T.bit_length() - 1

    @property
    def L(self) -> int:
        return self.log_T - self.h


def compute_params(
    T: int,
    m: int,
    eps: Fraction | float | str,
    overrides: Mapping[str, object] | None = None,
) -> Params:
    """Default parameters per the global formulas, with validated overrides.

    Defaults: h = ceil(log2(8 m log2(T) / eps)), hp = ceil(log2(4m / eps)),
    delta = eps / (16 * 2**h * m**2), deltap = 1 / (2 * 2**(2h)),
    p = floor((2 / delta) * ln(m / deltap)) + 1.

    The formulas presume a horizon much larger than m/eps; when the default
    h would exceed log2(T) it is clamped to log2(T), which collapses the
    tree to a single bottom interval (the whole horizon is then solved
    exactly).  Explicit overrides are validated, never clamped.

    Results are memoized on ``(T, m, eps, overrides)``, so override values
    must be hashable; invalid inputs raise on every call.
    """
    if T < 2 or T & (T - 1):
        raise InvalidOverride(f"T must be a power of two >= 2, got {T}")
    if m < 1:
        raise InvalidOverride(f"m must be >= 1, got {m}")
    eps = Fraction(eps)
    # a frozenset of the items, unlike a sorted tuple, needs no order on the keys
    return _params(T, m, eps, frozenset(overrides.items()) if overrides else frozenset())


@lru_cache(maxsize=256)
def _params(T: int, m: int, eps: Fraction, overrides: frozenset) -> Params:
    if not 0 < eps < 1:
        raise InvalidOverride(f"eps must be in (0, 1), got {eps}")
    log_T = T.bit_length() - 1

    h = min(_ceil_log2(Fraction(8 * m * log_T) / eps), log_T)
    hp = _ceil_log2(Fraction(4 * m) / eps)
    overridden: list[str] = []
    ov = dict(overrides)
    unknown = set(ov) - set(OVERRIDE_KEYS)
    if unknown:
        raise InvalidOverride(f"unknown override keys: {sorted(unknown)}")
    if "h" in ov:
        h = int(ov["h"])  # type: ignore[arg-type]
        overridden.append("h")
    if "hp" in ov:
        hp = int(ov["hp"])  # type: ignore[arg-type]
        overridden.append("hp")
    if not 0 <= h <= log_T:
        raise InvalidOverride(f"need 0 <= h <= log2(T)={log_T}, got h={h}")
    if hp < 0:
        raise InvalidOverride(f"need hp >= 0, got {hp}")
    delta = eps / (16 * (1 << h) * m * m)
    deltap = Fraction(1, 2 << (2 * h))
    if "delta" in ov:
        delta = Fraction(ov["delta"])  # type: ignore[arg-type]
        overridden.append("delta")
    if "deltap" in ov:
        deltap = Fraction(ov["deltap"])  # type: ignore[arg-type]
        overridden.append("deltap")
    if delta > 0 and deltap > 0:
        ratio = Fraction(m) / deltap
        log_ratio = math.log(ratio.numerator) - math.log(ratio.denominator)
        p = math.floor(Fraction(2) / delta * Fraction(log_ratio)) + 1
    else:
        p = 1
    if "p" in ov:
        p = int(ov["p"])  # type: ignore[arg-type]
        overridden.append("p")

    if delta < 0 or deltap < 0:
        raise InvalidOverride("delta and deltap must be nonnegative")
    if p < 1:
        raise InvalidOverride(f"need p >= 1, got {p}")
    return Params(
        T=T, m=m, eps=eps, h=h, hp=hp, delta=delta, deltap=deltap, p=p,
        overridden=tuple(overridden),
    )


TOP = "top"
MID = "mid"
BOT = "bot"


@dataclass(frozen=True)
class DyadicTree:
    """Aligned power-of-two intervals over (0, T], levels 0..L.

    Level l holds 2**l intervals of length T / 2**l; leaves (level L) have
    length 2**h.  Levels 0..L-hp-1 are top, L-hp..L-1 middle, L bottom.

    A tree interval is named by its heap index: the root is 1 and the
    children of ``i`` are ``2i`` and ``2i + 1``, so ``i`` is on level
    ``i.bit_length() - 1``.  ``span[i]``, ``kinds[i]`` and ``interval[i]``
    are its ``(begin, end)``, kind and ``Interval`` (for geometry and
    messages); entry 0 is unused.  A map keyed by heap index lists only
    the intervals it has something for.
    """

    T: int
    L: int
    hp: int
    span: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    kinds: tuple[str, ...] = field(init=False, repr=False, compare=False)
    interval: tuple[Interval, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        span: list = [None]
        kinds: list = [None]
        for l in range(self.L + 1):
            size = self.T >> l
            span.extend((b, b + size) for b in range(0, self.T, size))
            kinds += [BOT if l == self.L else MID if l >= self.L - self.hp else TOP] * (1 << l)
        interval = [None] + [Interval(b, e) for b, e in span[1:]]
        for name, table in (("span", span), ("kinds", kinds), ("interval", interval)):
            object.__setattr__(self, name, tuple(table))

    def below(self, i: int, k: int) -> range:
        """Indices of the intervals ``k`` levels below index ``i``, by begin
        (none when ``k < 0`` or that is below the leaves)."""
        if k < 0 or i.bit_length() + k > self.L + 1:
            return range(0)
        return range(i << k, (i + 1) << k)


def tree_for(params: Params) -> DyadicTree:
    # keyed on the three ints the tree depends on: hashing a whole Params
    # hashes its three Fractions on every call; L is spelled out, since
    # the solver asks for the tree once per state
    T = params.T
    return _tree(T, T.bit_length() - 1 - params.h, params.hp)


@lru_cache(maxsize=None)
def _tree(T: int, L: int, hp: int) -> DyadicTree:
    return DyadicTree(T=T, L=L, hp=hp)


def split_budget(params: Params, i: int) -> tuple[int, int]:
    """``(a, b)``: a chain of ``c`` of ``count`` jobs fits tree interval ``i``
    when ``c * params.D <= a * count + b`` (top: ``A``, ``B * length``; middle: 0)."""
    tree = tree_for(params)
    kind = tree.kinds[i]
    if kind == TOP:
        begin, end = tree.span[i]
        return params.A, params.B * (end - begin)
    if kind == MID:
        return 0, 0
    raise ValueError("the split loop applies to top and middle intervals only")


@dataclass(frozen=True)
class PartialDyadicSystem:
    """Job sets by the heap index of their tree interval (see ``DyadicTree``).

    An interval with no job has no entry."""

    assign: Mapping[int, JobSet]

    def jobs_assigned(self) -> JobSet:
        out = 0
        for jobs in self.assign.values():
            out |= jobs
        return out

    def owner_of(self) -> dict[int, int]:
        """The heap index each assigned job is assigned to."""
        out: dict[int, int] = {}
        for i, jobs in self.assign.items():
            for j in iter_jobs(jobs):
                out[j] = i
        return out


def full_system(assign: Mapping[int, JobSet]) -> PartialDyadicSystem:
    """The system of ``assign`` (heap index -> jobs), holding its own copy,
    so a result shared inside a solve never becomes part of a system."""
    return PartialDyadicSystem(assign=dict(assign))


def in_order(tree: DyadicTree, assign: Mapping[int, JobSet]) -> list[tuple[int, JobSet]]:
    """The items of ``assign`` (heap index -> jobs) in the tree's in-order:
    by begin + end, twice the center, which no two tree intervals share
    (rounded down, a leaf of length one and its parent share a center)."""
    span = tree.span
    return sorted(assign.items(), key=lambda kv: sum(span[kv[0]]))


def window_step(params: Params, interval_len: int) -> int:
    """Alignment unit for window boundaries within an owning interval.

    At ``h <= 1`` it is at least half the interval, so the center is the
    only boundary and every top window is empty; the conversion bound of
    ``2 * window_step * m`` jobs lost per top interval is then vacuous."""
    return max(interval_len >> params.h, 1 << params.h)


def node_windows(
    inst: Instance,
    root: int,
    sets: Mapping[int, JobSet],
    params: Params,
) -> dict[int, Window]:
    """Window (b, e] for every job assigned to the top interval ``root``.

    ``b`` is the least multiple of the alignment unit in (begin, center]
    such that no job assigned fully inside (b, center] precedes j; ``e``
    mirrors it on the right.  Boundaries always satisfy
    begin < b <= center <= e < end.  The jobs assigned are the ``sets``,
    by heap index, and a set counts as inside a region when its interval
    is: the solver passes the sets fixed so far and the jobs its frontier
    intervals hold, ``windows`` a whole system.

    When no boundary lies short of the center (``window_step`` at least
    half the interval, as at ``h <= 1``), every window is ``(center,
    center]`` and the sets are not read."""
    own = sets.get(root, 0)
    if not own:
        return {}
    level = root.bit_length() - 1
    length = params.T >> level
    begin = (root - (1 << level)) * length
    center = begin + length // 2
    step = window_step(params, length)
    if begin + step >= center:
        return dict.fromkeys(iter_jobs(own), (center, center))
    span = tree_for(params).span
    end = begin + length
    known = [(span[i], jobs) for i, jobs in sets.items()]

    def within(b: int, e: int) -> JobSet:
        out = 0
        for (ib, ie), jobs in known:
            if b <= ib and ie <= e:
                out |= jobs
        return out

    # the boundaries short of the center, farthest first, each with the
    # jobs between it and the center
    lefts = [(b, within(b, center)) for b in range(begin + step, center, step)]
    rights = [(e, within(center, e)) for e in range(end - step, center, -step)]
    return {
        j: (next((b for b, region in lefts if inst.no_prec_between(region, 1 << j)), center),
            next((e for e, region in rights if inst.no_prec_between(1 << j, region)), center))
        for j in iter_jobs(own)
    }


def windows(inst: Instance, sys: PartialDyadicSystem, params: Params) -> dict[int, Window]:
    """Window (b, e] for every top job of the system: ``node_windows`` of
    each top interval over the whole system."""
    kinds = tree_for(params).kinds
    out: dict[int, Window] = {}
    for i in sys.assign:
        if kinds[i] == TOP:
            out.update(node_windows(inst, i, sys.assign, params))
    return out


def check_valid_for_system(
    inst: Instance,
    sys: PartialDyadicSystem,
    params: Params,
    sched: Schedule,
) -> ValidityReport:
    """Validity against a full system: capacity, precedence, and each job
    scheduled inside its owning interval (or discarded)."""
    base = verify_valid(inst, sched)
    out = list(base.violations)
    tree = tree_for(params)
    for i, jobs in in_order(tree, sys.assign):
        begin, end = tree.span[i]
        for j in iter_jobs(jobs):
            t = sched.assign[j]
            if t is not None and not begin < t <= end:
                out.append(Violation(
                    "interval", f"job {j} at {t} outside owning {tree.interval[i]}"))
    return ValidityReport(violations=tuple(out), discards=base.discards)


def check_virtually_valid(
    inst: Instance,
    sys: PartialDyadicSystem,
    params: Params,
    sched: Mapping[int, Slot] | Schedule,
    win: Mapping[int, Window] | None = None,
) -> ValidityReport:
    """Check the four clause families of a virtually-valid schedule.

    Interval constraints for bottom jobs; capacity everywhere and
    precedence among bottom jobs, from ``core.slot_violations`` as in
    ``verify_valid`` (by job id for a ``Schedule``, else in the mapping's
    order); window constraints for top jobs, in ``win`` (the system's
    ``windows``, computed here when omitted).  The schedule must cover
    exactly the system's jobs with slots inside the root interval.
    """
    expect = sys.jobs_assigned()
    if isinstance(sched, Schedule):
        assign = sched.assign
        sched = {j: assign[j] for j in iter_jobs(expect) if j < len(assign)}
    tree = tree_for(params)
    out: list[Violation] = []
    got = mask_from(sched.keys())
    if got != expect:
        out.append(Violation(
            "domain",
            f"schedule covers {job_count(got)} jobs, system has {job_count(expect)}"))
    discards = 0
    for j, t in sched.items():
        if t is None:
            discards += 1
        elif not 0 < t <= params.T:
            out.append(Violation("domain", f"job {j} at {t} outside root {tree.interval[1]}"))
    bottom_jobs: JobSet = 0
    for i, jobs in in_order(tree, sys.assign):
        if tree.kinds[i] == BOT:
            bottom_jobs |= jobs
            begin, end = tree.span[i]
            for j in iter_jobs(jobs):
                t = sched.get(j)
                if t is not None and not begin < t <= end:
                    out.append(Violation(
                        "interval", f"bottom job {j} at {t} outside {tree.interval[i]}"))
    out += slot_violations(inst, sched, bottom_jobs)

    if win is None:
        win = windows(inst, sys, params)
    for j in sorted(win):
        t = sched.get(j)
        b, e = win[j]
        if t is not None and not b < t <= e:
            out.append(Violation("window", f"top job {j} at {t} outside ({b},{e}]"))
    return ValidityReport(violations=tuple(out), discards=discards)


def _select_pivot(inst: Instance, jobs: JobSet, threshold: int) -> int:
    """Smallest-id job whose predecessor and successor counts within ``jobs``
    both reach the threshold.  Such a job always exists while the chain
    length exceeds the budget (take the middle of a longest chain)."""
    pred, succ = inst.pred, inst.succ
    for j in iter_jobs(jobs):
        if (pred[j] & jobs).bit_count() >= threshold and (succ[j] & jobs).bit_count() >= threshold:
            return j
    raise AssertionError("no eligible pivot; split loop invariant broken")


def split_step(inst: Instance, stay: JobSet, a: int, b: int, d: int) -> int | None:
    """One iteration's budget test of the split loop: the pivot of an
    over-long chain in ``stay``, or None when its chain fits the budget
    ``(a * |stay| + b) / d`` (see ``split_budget``).  No chain outgrows its
    set, and a bound below ``d`` (middle intervals) fits no job at all."""
    count = stay.bit_count()
    bound = a * count + b
    if count * d <= bound:
        return None
    if bound < d:
        return (stay & -stay).bit_length() - 1
    # the chain fits when peeling the jobs with no predecessor left
    # ``bound // d`` times empties the set
    pred = inst.pred
    rest = stay
    for _ in range(bound // d):
        deeper = 0
        scan = rest
        while scan:
            low = scan & -scan
            scan ^= low
            if pred[low.bit_length() - 1] & rest:
                deeper |= low
        rest = deeper
        if not rest:
            return None
    # a pivot needs bound / (2d) - 1 jobs on each side: 2dc >= bound - 2d,
    # so its least count c is that ceiling
    return _select_pivot(inst, stay, -((2 * d - bound) // (2 * d)))


def moved_with(inst: Instance, pivot: int, side: str, stay: JobSet) -> JobSet:
    """The jobs of ``stay`` that go with ``pivot`` to ``side``: its
    predecessors to 'L', its successors to 'R'."""
    near = inst.pred[pivot] if side == LEFT else inst.succ[pivot]
    return (1 << pivot) | (near & stay)


def _split(
    inst: Instance,
    i: int,
    jobs: JobSet,
    params: Params,
    side_of: Callable[[int, int], str],
) -> tuple[JobSet, JobSet, JobSet, Guesses]:
    """The split loop shared by ``push_down`` and ``system_from_schedule``.

    Repeatedly picks the pivot of an over-long chain on tree interval ``i``
    (a heap index) and asks ``side_of(q, pivot)`` for the side of the q-th
    pivot: 'L' moves the pivot with its predecessors left, 'R' moves it
    with its successors right, until the chain length of the remainder
    fits the interval's budget.  Returns (stay, to-left, to-right, sides
    chosen).  The solver's guess-tree walk runs the same steps branch by
    branch: ``split_step``, and the moves ``moved_with`` makes.
    """
    a, b = split_budget(params, i)
    stay = jobs
    k_left = 0
    k_right = 0
    sides: list[str] = []
    while (j := split_step(inst, stay, a, b, params.D)) is not None:
        side = side_of(len(sides), j)
        sides.append(side)
        moved = moved_with(inst, j, side, stay)
        if side == LEFT:
            k_left |= moved
        else:
            k_right |= moved
        stay &= ~moved
    return stay, k_left, k_right, tuple(sides)


def push_down(
    inst: Instance,
    iv: int,
    jobs: JobSet,
    guesses: Guesses,
    params: Params,
) -> tuple[JobSet, JobSet, JobSet]:
    """Split ``jobs`` on the tree interval of heap index ``iv`` into (stay,
    to-left, to-right) following a guess vector.

    Runs the split loop with the q-th pivot's side read from ``guesses[q]``.
    Raises ``GuessExhausted`` when the vector is shorter than the number of
    iterations required (callers treat that as a pruned guess).
    """

    def side_of(q: int, j: int) -> str:
        if q >= len(guesses):
            raise GuessExhausted(
                f"needed more than {len(guesses)} guesses at {tree_for(params).interval[iv]}")
        return guesses[q]

    stay, k_left, k_right, _ = _split(inst, iv, jobs, params, side_of)
    return stay, k_left, k_right


def check_reference(inst: Instance, sched: Schedule, params: Params) -> None:
    """Raise ``InvalidInput`` unless ``sched`` can be replayed at horizon
    ``params.T``: zero discards, makespan at most T, and valid."""
    if sched.discard_count:
        raise InvalidInput("reference schedule must have zero discards")
    if sched.makespan > params.T:
        raise InvalidInput(f"makespan {sched.makespan} exceeds horizon {params.T}")
    report = verify_valid(inst, sched)
    if not report.ok:
        raise InvalidInput(f"reference schedule invalid:\n{report}")


def system_from_schedule(
    inst: Instance,
    sched: Schedule,
    params: Params,
) -> tuple[PartialDyadicSystem, dict[int, JobSet], dict[int, Guesses]]:
    """Build the full system a zero-discard schedule is valid for.

    Walks the tree from the root; on each non-bottom interval it runs the
    split loop, deciding each pivot's side by where the schedule put it.
    Returns the system, the per-interval covered sets (all jobs assigned
    within each interval), and the recorded guess vectors of the non-bottom
    intervals, all by heap index and in preorder.  A subtree with no job
    has no entry in any of the three, and an interval whose jobs all move
    down has none in the system.  The loop is the one ``push_down`` runs,
    so replaying a recorded vector (under any padding) reproduces the same
    split.
    """
    check_reference(inst, sched, params)
    tree = tree_for(params)
    assign: dict[int, JobSet] = {}
    covered: dict[int, JobSet] = {}
    guesses: dict[int, Guesses] = {}

    def walk(i: int, pool: JobSet) -> None:
        if not pool:  # no job under i, so no entry either
            return
        covered[i] = pool
        if tree.kinds[i] == BOT:
            assign[i] = pool
            return
        begin, end = tree.span[i]
        center = (begin + end) // 2

        def side_of(q: int, j: int) -> str:
            t = sched.assign[j]
            assert t is not None and begin < t <= end
            return LEFT if t <= center else RIGHT

        stay, k_left, k_right, sides = _split(inst, i, pool, params, side_of)
        if stay:
            assign[i] = stay
        guesses[i] = sides
        walk(2 * i, k_left)
        walk(2 * i + 1, k_right)

    walk(1, inst.all_jobs)
    del walk  # ``walk`` refers to itself; dropping it breaks that cycle
    return full_system(assign), covered, guesses
