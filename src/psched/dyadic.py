"""Global parameters, the dyadic interval tree, job-to-interval systems,
windows for top jobs, and the one split loop that drives the solver.  The
loop picks each pivot's side from a guess vector (replay, ``push_down``)
or from a reference schedule (record, ``system_from_schedule``).

A (partial) system assigns jobs to tree intervals under a root so that
chain lengths stay small on top intervals, middle intervals are empty, and
the in-order sequence of assignments respects precedence.  Windows relax
the precedence constraints of top jobs to aligned sub-ranges of their
owning intervals.
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
    longest_chain,
    mask_from,
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

    The solver names a tree interval by its heap index: the root is 1 and
    the children of ``i`` are ``2i`` and ``2i + 1``, so ``i`` is on level
    ``i.bit_length() - 1``.  ``span[i]``, ``kinds[i]`` and ``interval[i]``
    are its ``(begin, end)``, kind and ``Interval``; entry 0 is unused.
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

    @property
    def root(self) -> Interval:
        return self.interval[1]

    def level(self, l: int) -> tuple[Interval, ...]:
        if not 0 <= l <= self.L:
            return ()
        return self.interval[1 << l : 2 << l]

    def below(self, i: int, k: int) -> range:
        """Indices of the intervals ``k`` levels below index ``i``, by begin
        (none when ``k < 0`` or that is below the leaves)."""
        if k < 0 or i.bit_length() + k > self.L + 1:
            return range(0)
        return range(i << k, (i + 1) << k)

    def index(self, iv: Interval) -> int:
        """Heap index of a tree interval; ``ValueError`` for any other."""
        size = iv.end - iv.begin
        l = self.T.bit_length() - size.bit_length()
        if not (0 <= l <= self.L and self.T >> l == size and iv.begin % size == 0
                and iv.end <= self.T):
            raise ValueError(f"{iv} is not a tree interval")
        return (1 << l) + iv.begin // size

    def kind(self, iv: Interval) -> str:
        return self.kinds[self.index(iv)]


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
    """Job assignment over the tree intervals under ``root``, plus ancestor
    jobs inherited from enclosing levels with their fixed windows."""

    root: Interval
    assign: Mapping[Interval, JobSet]
    ancestors: JobSet = 0
    anc_windows: Mapping[int, Window] = field(default_factory=dict)

    def jobs_assigned(self) -> JobSet:
        out = 0
        for jobs in self.assign.values():
            out |= jobs
        return out

    def all_jobs(self) -> JobSet:
        return self.jobs_assigned() | self.ancestors

    def owner_of(self) -> dict[int, Interval]:
        out: dict[int, Interval] = {}
        for iv, jobs in self.assign.items():
            for j in iter_jobs(jobs):
                out[j] = iv
        return out

    def jobs_within(self, region: Interval) -> JobSet:
        """Union of assignments over tree intervals fully inside ``region``."""
        out = 0
        for iv, jobs in self.assign.items():
            if jobs and region.begin <= iv.begin and iv.end <= region.end:
                out |= jobs
        return out


def full_system(params: Params, assign: Mapping[Interval, JobSet]) -> PartialDyadicSystem:
    return PartialDyadicSystem(root=tree_for(params).root, assign=dict(assign))


def _sorted_items(assign: Mapping[Interval, JobSet]) -> list[tuple[Interval, JobSet]]:
    return sorted(assign.items(), key=lambda kv: (kv[0].center, kv[0].length))


def check_system(
    inst: Instance,
    sys: PartialDyadicSystem,
    params: Params,
    require_full: bool = False,
) -> ValidityReport:
    """Check the four structural clauses of a (partial) system, with witnesses.

    (a) ancestor and per-interval job sets mutually disjoint; (b) chain
    length within budget on every top interval; (c) middle intervals
    empty; (d) for in-order earlier intervals, no precedence constraints
    pointing back.  With ``require_full``: root covers the whole horizon,
    no ancestors, every job assigned.
    """
    tree = tree_for(params)
    out: list[Violation] = []
    seen = sys.ancestors
    for iv, jobs in _sorted_items(sys.assign):
        try:
            i = tree.index(iv)
        except ValueError:
            i = 0
        if not i or not sys.root.begin <= iv.begin < iv.end <= sys.root.end:
            out.append(Violation("system-key", f"{iv} is not a tree interval under {sys.root}"))
            continue
        if jobs & seen:
            dup = next(iter_jobs(jobs & seen))
            out.append(Violation("system-disjoint", f"job {dup} assigned twice (at {iv})"))
        seen |= jobs
        kind = tree.kinds[i]
        if kind == TOP:
            a, b = split_budget(params, i)
            bound = a * job_count(jobs) + b
            got = longest_chain(inst, jobs)
            if got * params.D > bound:
                out.append(Violation(
                    "system-chain",
                    f"chain {got} > budget {Fraction(bound, params.D)} on top {iv}"))
        elif kind == MID and jobs:
            out.append(Violation("system-middle", f"middle {iv} holds {job_count(jobs)} jobs"))
    items = [(iv, jobs) for iv, jobs in _sorted_items(sys.assign) if jobs]
    for i, (iv_a, jobs_a) in enumerate(items):
        for iv_b, jobs_b in items[i + 1 :]:
            if iv_a == iv_b:
                continue
            # iv_a is in-order before iv_b: no constraints from later to earlier.
            if not inst.no_prec_between(jobs_b, jobs_a):
                out.append(Violation(
                    "system-order",
                    f"precedence from jobs of {iv_b} back to jobs of {iv_a}"))
    if require_full:
        if sys.root != tree.root:
            out.append(Violation("system-cover", f"root {sys.root} != {tree.root}"))
        if sys.ancestors:
            out.append(Violation("system-cover", "full system must have no ancestors"))
        missing = inst.all_jobs & ~sys.jobs_assigned()
        if missing:
            out.append(Violation(
                "system-cover", f"jobs {list(iter_jobs(missing))} not assigned"))
    return ValidityReport(violations=tuple(out))


def window_step(params: Params, interval_len: int) -> int:
    """Alignment unit for window boundaries within an owning interval."""
    return max(interval_len >> params.h, 1 << params.h)


def _window_for(
    inst: Instance,
    j: int,
    begin: int,
    end: int,
    step: int,
    region_jobs: Callable[[int, int], JobSet],
) -> Window:
    """Largest aligned window (b, e] around the center of (begin, end] with
    no precedence into j from the left remainder nor out of j into the
    right remainder; ``region_jobs(b, e)`` is the jobs assigned fully
    inside (b, e]."""
    center = (begin + end) // 2
    b = center
    for cand in range(begin + step, center + 1, step):
        region = region_jobs(cand, center) if cand < center else 0
        if inst.no_prec_between(region, 1 << j):
            b = cand
            break
    e = center
    for cand in range(end - step, center - 1, -step):
        region = region_jobs(center, cand) if cand > center else 0
        if inst.no_prec_between(1 << j, region):
            e = cand
            break
    return b, e


def windows(inst: Instance, sys: PartialDyadicSystem, params: Params) -> dict[int, Window]:
    """Window (b, e] for every top job of the system.

    ``b`` is the least multiple of the alignment unit in (begin, center]
    such that no job assigned fully inside (b, center] precedes j; ``e``
    mirrors it on the right.  Boundaries always satisfy
    begin < b <= center <= e < end.
    """
    tree = tree_for(params)
    out: dict[int, Window] = {}
    for iv, jobs in _sorted_items(sys.assign):
        if not jobs or tree.kind(iv) != TOP:
            continue
        step = window_step(params, iv.length)
        for j in iter_jobs(jobs):
            out[j] = _window_for(inst, j, iv.begin, iv.end, step,
                                 lambda b, e: sys.jobs_within(Interval(b, e)))
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
    for iv, jobs in _sorted_items(sys.assign):
        for j in iter_jobs(jobs):
            t = sched.assign[j]
            if t is not None and t not in iv:
                out.append(Violation("interval", f"job {j} at {t} outside owning {iv}"))
    return ValidityReport(violations=tuple(out), discards=base.discards)


def check_virtually_valid(
    inst: Instance,
    sys: PartialDyadicSystem,
    params: Params,
    sched: Mapping[int, Slot] | Schedule,
) -> ValidityReport:
    """Check the five clause families of a virtually-valid schedule.

    Capacity everywhere; precedence and interval constraints for bottom
    jobs only; window constraints for top jobs; window constraints for
    ancestor jobs.  The schedule must cover exactly the system's jobs with
    slots inside the root interval.
    """
    if isinstance(sched, Schedule):
        domain_all = sched.as_dict()
        sched = {
            j: domain_all[j] for j in iter_jobs(sys.all_jobs()) if j in domain_all
        }
    tree = tree_for(params)
    out: list[Violation] = []
    expect = sys.all_jobs()
    got = mask_from(sched.keys())
    if got != expect:
        out.append(Violation(
            "domain",
            f"schedule covers {job_count(got)} jobs, system has {job_count(expect)}"))
    counts: dict[int, int] = {}
    discards = 0
    for j, t in sched.items():
        if t is None:
            discards += 1
            continue
        if t not in sys.root:
            out.append(Violation("domain", f"job {j} at {t} outside root {sys.root}"))
        counts[t] = counts.get(t, 0) + 1
    for t in sorted(counts):
        if counts[t] > inst.m:
            out.append(Violation("capacity", f"{counts[t]} jobs at slot {t} > m={inst.m}"))

    bottom_jobs: JobSet = 0
    for iv, jobs in _sorted_items(sys.assign):
        if tree.kind(iv) == BOT:
            bottom_jobs |= jobs
            for j in iter_jobs(jobs):
                t = sched.get(j)
                if t is not None and t not in iv:
                    out.append(Violation("interval", f"bottom job {j} at {t} outside {iv}"))
    placed: JobSet = 0
    at: dict[int, JobSet] = {}  # placed bottom jobs per slot
    for j in iter_jobs(bottom_jobs):
        t = sched.get(j)
        if t is not None:
            placed |= 1 << j
            at[t] = at.get(t, 0) | 1 << j
    upto: dict[int, JobSet] = {}  # placed bottom jobs at or before a slot
    acc: JobSet = 0
    for t in sorted(at):
        acc |= at[t]
        upto[t] = acc
    for a in iter_jobs(placed):
        # each clashing pair once, from its smaller id: a successor at or
        # before a's slot, or a predecessor at or after it
        t = sched[a]
        clash = inst.succ[a] & upto[t] | inst.pred[a] & ~(upto[t] ^ at[t])
        for b in iter_jobs(clash & placed & ~((2 << a) - 1)):
            if inst.precedes(a, b):
                out.append(Violation(
                    "precedence", f"bottom job {a} at {t} not before {b} at {sched[b]}"))
            else:
                out.append(Violation(
                    "precedence", f"bottom job {b} at {sched[b]} not before {a} at {t}"))

    win = windows(inst, sys, params)
    for j in sorted(win):
        t = sched.get(j)
        b, e = win[j]
        if t is not None and not b < t <= e:
            out.append(Violation("window", f"top job {j} at {t} outside ({b},{e}]"))
    for j in sorted(iter_jobs(sys.ancestors)):
        t = sched.get(j)
        if t is None:
            continue
        b, e = sys.anc_windows[j]
        if not b < t <= e:
            out.append(Violation("window-anc", f"ancestor {j} at {t} outside ({b},{e}]"))
    return ValidityReport(violations=tuple(out), discards=discards)


def _select_pivot(inst: Instance, jobs: JobSet, threshold: int) -> int:
    """Smallest-id job whose predecessor and successor counts within ``jobs``
    both reach the threshold.  Such a job always exists while the chain
    length exceeds the budget (take the middle of a longest chain)."""
    for j in iter_jobs(jobs):
        if (job_count(inst.pred[j] & jobs) >= threshold
                and job_count(inst.succ[j] & jobs) >= threshold):
            return j
    raise AssertionError("no eligible pivot; split loop invariant broken")


def split_step(inst: Instance, stay: JobSet, a: int, b: int, d: int) -> int | None:
    """One iteration's budget test of the split loop: the pivot of an
    over-long chain in ``stay``, or None when its chain fits the budget
    ``(a * |stay| + b) / d`` (see ``split_budget``)."""
    bound = a * job_count(stay) + b
    if longest_chain(inst, stay) * d <= bound:
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
    chosen).  The solver's guess-tree walk runs the same steps,
    ``split_step`` and ``moved_with``, branch by branch.
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
) -> tuple[PartialDyadicSystem, dict[Interval, JobSet], dict[Interval, Guesses]]:
    """Build the full system a zero-discard schedule is valid for.

    Walks the tree from the root; on each non-bottom interval it runs the
    split loop, deciding each pivot's side by where the schedule put it.
    Returns the system, the per-interval covered sets (all jobs assigned
    within each interval), and the recorded guess vectors.  The loop is
    the one ``push_down`` runs, so replaying a recorded vector (under any
    padding) reproduces the same split.
    """
    check_reference(inst, sched, params)
    tree = tree_for(params)
    assign: dict[int, JobSet] = {}
    covered: dict[int, JobSet] = {}
    guesses: dict[int, Guesses] = {}

    def walk(i: int, pool: JobSet) -> None:
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
        assign[i] = stay
        guesses[i] = sides
        walk(2 * i, k_left)
        walk(2 * i + 1, k_right)

    walk(1, inst.all_jobs)
    del walk  # ``walk`` refers to itself; dropping it breaks that cycle
    assign, covered, guesses = ({tree.interval[i]: v for i, v in by_index.items()}
                                for by_index in (assign, covered, guesses))
    return full_system(params, assign), covered, guesses
