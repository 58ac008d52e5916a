"""The per-run kernels of ``core``, ``baselines`` and ``dyadic`` as they were
written over ``iter_jobs``, ``max`` over generators and ``Counter``.

Test-only copies of the earlier ``build_instance``, ``chain_depths``,
``tail_heights``, ``height_counts``, ``_list_schedule``, ``bound_sandwich``
and ``split_step``: ``test_kernels`` holds the bit-loop versions to them,
results, exceptions and messages alike.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Iterable, Sequence

from psched.baselines import _level
from psched.core import DISC, Instance, JobSet, Schedule, Slot, iter_jobs, job_count, mask_from
from psched.dyadic import _select_pivot
from psched.errors import CycleError


def build_instance(n: int, m: int, edges: Iterable[tuple[int, int]]) -> Instance:
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    out: list[JobSet] = [0] * n
    indeg = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise CycleError(f"self-loop on job {u}")
        if not out[u] >> v & 1:
            out[u] |= 1 << v
            indeg[v] += 1

    ready = sorted(j for j in range(n) if indeg[j] == 0)
    topo: list[int] = []
    heap = list(ready)
    heapq.heapify(heap)
    while heap:
        u = heapq.heappop(heap)
        topo.append(u)
        for v in iter_jobs(out[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(topo) != n:
        raise CycleError("precedence edges contain a directed cycle")

    succ = [0] * n
    for u in reversed(topo):
        s = out[u]
        for v in iter_jobs(out[u]):
            s |= succ[v]
        succ[u] = s
    pred = [0] * n
    for u in range(n):
        for v in iter_jobs(succ[u]):
            pred[v] |= 1 << u
    return Instance(n=n, m=m, succ=tuple(succ), pred=tuple(pred), topo=tuple(topo))


def chain_depths(inst: Instance, jobs: JobSet) -> dict[int, int]:
    depth: dict[int, int] = {}
    for j in inst.topo:
        if jobs >> j & 1:
            d = 1
            for i in iter_jobs(inst.pred[j] & jobs):
                di = depth[i] + 1
                if di > d:
                    d = di
            depth[j] = d
    return depth


def tail_heights(inst: Instance) -> list[int]:
    height = [0] * inst.n
    for j in reversed(inst.topo):
        h = 0
        for s in iter_jobs(inst.succ[j]):
            if height[s] > h:
                h = height[s]
        height[j] = h + 1
    return height


def height_counts(heights: Iterable[int]) -> list[int]:
    count = Counter(heights)
    return [count[k] for k in range(max(count, default=0) + 1)]


def list_schedule(inst: Instance, priority: Sequence[int]) -> Schedule:
    assign: list[Slot] = [DISC] * inst.n
    done: JobSet = 0
    t = 0
    while job_count(done) < inst.n:
        t += 1
        ready = [
            j
            for j in priority
            if not done >> j & 1 and inst.pred[j] & ~done == 0
        ]
        batch = ready[: inst.m]
        for j in batch:
            assign[j] = t
        done |= mask_from(batch)
    return Schedule(T=max(t, 1) if inst.n else 0, assign=tuple(assign))


def bound_sandwich(inst: Instance) -> tuple[int, Schedule]:
    height = tail_heights(inst)
    critical = list_schedule(inst, sorted(range(inst.n), key=lambda j: (-height[j], j)))
    upper = min(list_schedule(inst, range(inst.n)), critical, key=lambda s: s.makespan)
    depths = chain_depths(inst, inst.all_jobs).values()
    lower = max(_level(height_counts(height), inst.m), _level(height_counts(depths), inst.m))
    return lower, upper


def split_step(inst: Instance, stay: JobSet, a: int, b: int, d: int) -> int | None:
    bound = a * job_count(stay) + b
    if max(chain_depths(inst, stay).values(), default=0) * d <= bound:
        return None
    return _select_pivot(inst, stay, -((2 * d - bound) // (2 * d)))
