"""The exact oracle's search as it was before ``bottom_solve`` decided it.

A test-only copy of the earlier ``psched.baselines._exact_dp``: a dynamic
program over the sets of completed jobs that minimises the makespan
directly, with no horizon.  ``test_baselines`` holds ``exact_opt`` to its
optimum and, where the bound sandwich does not certify, to its schedule.
"""

from __future__ import annotations

from itertools import combinations

from psched.core import (
    DISC, Instance, JobSet, Schedule, Slot, iter_jobs, job_count, longest_chain, mask_from,
)


def _ready(inst: Instance, remaining: JobSet) -> JobSet:
    r = 0
    for j in iter_jobs(remaining):
        if inst.pred[j] & remaining == 0:
            r |= 1 << j
    return r


def reference_exact_dp(inst: Instance) -> tuple[int, Schedule]:
    """Minimum-makespan zero-discard schedule of ``n >= 1`` jobs by
    exhaustive search.

    Branches slot by slot over maximal ready batches (for unit jobs some
    optimal schedule always runs min(m, #ready) jobs per slot), memoized on
    the bitmask of completed jobs, pruned with the admissible bound
    max(longest chain, ceil(remaining / m)).
    """
    all_jobs = inst.all_jobs
    memo: dict[JobSet, int] = {all_jobs: 0}

    def lower_bound(done: JobSet) -> int:
        rem = all_jobs & ~done
        if not rem:
            return 0
        return max(longest_chain(inst, rem), -(-job_count(rem) // inst.m))

    def batches(done: JobSet) -> list[JobSet]:
        ready = list(iter_jobs(_ready(inst, all_jobs & ~done)))
        k = min(inst.m, len(ready))
        return [mask_from(c) for c in combinations(ready, k)]

    def solve(done: JobSet, ceiling: int) -> int:
        """Fewest extra slots to finish, or ceiling if that cannot be beaten."""
        if done in memo:
            return memo[done]
        lb = lower_bound(done)
        if lb >= ceiling:
            return lb  # not stored: may be an underestimate cut
        best = ceiling
        for batch in batches(done):
            got = 1 + solve(done | batch, best - 1)
            if got < best:
                best = got
                if best == lb:
                    break
        if best < ceiling:
            memo[done] = best
        return best

    opt = solve(0, inst.n + 1)

    # Reconstruct deterministically by replaying the memoized values.
    assign: list[Slot] = [DISC] * inst.n
    done: JobSet = 0
    t = 0
    while done != all_jobs:
        t += 1
        rest = solve(done, inst.n + 1)
        for batch in batches(done):
            if 1 + solve(done | batch, inst.n + 1) == rest:
                for j in iter_jobs(batch):
                    assign[j] = t
                done |= batch
                break
        else:  # pragma: no cover - memo guarantees a matching batch
            raise AssertionError("reconstruction failed")
    del solve  # ``solve`` refers to itself; dropping it frees the memo at once
    return opt, Schedule(T=opt, assign=tuple(assign))
