"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own data paths: reachability
runs DFS on the raw edge lists, chain lengths come from exhaustive path
enumeration, and the small-scale optimum is recomputed from first
principles where a test needs ground truth.
"""

from __future__ import annotations

import random
from functools import lru_cache

from hypothesis import strategies as st

from psched.core import Instance, build_instance, iter_jobs, mask_from


def random_edges(n: int, density: float, rng: random.Random) -> list[tuple[int, int]]:
    """Random DAG edges oriented along a shuffled topological order."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(n):
        for k in range(i + 1, n):
            if rng.random() < density:
                edges.append((order[i], order[k]))
    return edges


def random_instance(n: int, m: int, density: float, seed: int) -> Instance:
    rng = random.Random(seed)
    return build_instance(n, m, random_edges(n, density, rng))


def dfs_reachable(n: int, edges: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Reachability pairs via plain DFS on adjacency lists."""
    adj: dict[int, list[int]] = {j: [] for j in range(n)}
    for u, v in edges:
        if v not in adj[u]:
            adj[u].append(v)
    pairs = set()
    for s in range(n):
        stack = list(adj[s])
        seen = set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            pairs.add((s, v))
            stack.extend(adj[v])
    return pairs


def brute_longest_chain(inst: Instance, jobs: int) -> int:
    """Longest chain by exhaustive extension over closure pairs."""
    members = list(iter_jobs(jobs))

    def extend(last: int, used: int) -> int:
        best = 0
        for j in members:
            if not used >> j & 1 and inst.precedes(last, j):
                best = max(best, 1 + extend(j, used | 1 << j))
        return best

    best = 0
    for j in members:
        best = max(best, 1 + extend(j, 1 << j))
    return best


def brute_depth(inst: Instance, jobs: int, j: int) -> int:
    """Longest chain ending at j by exhaustive backwards extension."""

    def back(v: int) -> int:
        best = 1
        for u in iter_jobs(inst.pred[v] & jobs):
            best = max(best, 1 + back(u))
        return best

    return back(j)


def permutation_opt(inst: Instance) -> int:
    """Optimum makespan via DP over completed sets, no batching assumptions.

    Schedules greedily in every order: state = set of completed jobs, at
    each step any subset of ready jobs of size <= m may run.  Independent
    of the library's exact oracle (no non-idling restriction: idling can
    be simulated by empty batches, which never help and are skipped, but
    batches smaller than min(m, ready) are explored).
    """
    from itertools import combinations

    n, m = inst.n, inst.m
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def go(done: int) -> int:
        if done == full:
            return 0
        ready = [
            j for j in range(n) if not done >> j & 1 and inst.pred[j] & ~done == 0
        ]
        best = n + 1
        for k in range(1, min(m, len(ready)) + 1):
            for batch in combinations(ready, k):
                got = 1 + go(done | mask_from(batch))
                if got < best:
                    best = got
        return best

    result = go(0)
    go.cache_clear()
    return result


def max_scheduled_oracle(inst: Instance, T: int) -> int:
    """Most jobs schedulable in (0, T] with the rest discarded.

    Enumerates kept subsets (largest first) and checks each by exact
    makespan of the induced sub-instance.
    """
    from itertools import combinations

    from psched.baselines import exact_opt

    n = inst.n
    order = sorted(range(n))
    for keep_size in range(n, -1, -1):
        for keep in combinations(order, keep_size):
            mask = mask_from(keep)
            sub = _sub_instance(inst, mask)
            opt, _ = exact_opt(sub)
            if opt <= T:
                return keep_size
    return 0


def _sub_instance(inst: Instance, jobs: int) -> Instance:
    ids = list(iter_jobs(jobs))
    remap = {j: i for i, j in enumerate(ids)}
    edges = [
        (remap[a], remap[b])
        for a in ids
        for b in iter_jobs(inst.succ[a] & jobs)
    ]
    return build_instance(len(ids), inst.m, edges)


def assert_no_violations(report) -> None:
    assert report.ok, f"unexpected violations:\n{report}"


@st.composite
def instances(draw):
    """Hypothesis strategy: up to 12 jobs on 1-4 machines, any DAG, ids
    relabeled so that they need not be topological."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [pair for pair, on in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if on]
    order = draw(st.permutations(range(n)))
    return build_instance(n, m, [(order[i], order[j]) for i, j in edges])
