"""The bit-loop kernels against their earlier generator-based copies in
``kernel_reference``: the same instances, depths, heights, counts, list
schedules, bounds and split pivots, or the same exception and message."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from psched import baselines, dyadic
from psched.core import build_instance, chain_depths


@st.composite
def edge_lists(draw):
    """``(n, m, edges)``: a random DAG over a shuffled order with repeated
    edges, and at times an out-of-range edge, a self-loop or a back edge
    that closes a cycle, inserted at a random position."""
    n = draw(st.integers(0, 40))
    m = draw(st.integers(1, 4))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[k]) for i in range(n) for k in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=5))  # repeats
    bad = draw(st.sampled_from(["none", "none", "range", "loop", "cycle"]))
    if bad == "range":
        bad_edge = draw(st.sampled_from([(-1, 0), (0, n), (n, 0), (n + 3, -2)]))
    elif bad == "loop" and n:
        j = draw(st.integers(0, n - 1))
        bad_edge = (j, j)
    elif bad == "cycle" and edges:
        u, v = draw(st.sampled_from(edges))
        bad_edge = (v, u)
    else:
        return n, m, edges
    edges.insert(draw(st.integers(0, len(edges))), bad_edge)
    return n, m, edges


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, IndexError) as exc:  # CycleError is a ValueError
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_build_instance_matches_the_reference(case):
    n, m, edges = case
    got = _outcome(build_instance, n, m, list(edges))
    want = _outcome(ref.build_instance, n, m, list(edges))
    assert got == want
    if not isinstance(want, tuple):
        assert (got.succ, got.pred, got.topo) == (want.succ, want.pred, want.topo)


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.data())
def test_kernels_match_the_reference(case, data):
    n, m, edges = case
    inst = _outcome(ref.build_instance, n, m, edges)
    if isinstance(inst, tuple):  # an error input: nothing to schedule
        return
    jobs = data.draw(st.integers(0, inst.all_jobs))
    for mask in (jobs, inst.all_jobs):
        got, want = chain_depths(inst, mask), ref.chain_depths(inst, mask)
        assert list(got.items()) == list(want.items())
    heights = baselines.tail_heights(inst)
    assert heights == ref.tail_heights(inst)
    assert baselines.height_counts(heights) == ref.height_counts(heights)
    depths = ref.chain_depths(inst, inst.all_jobs).values()
    assert baselines.height_counts(depths) == ref.height_counts(depths)
    priority = data.draw(st.permutations(range(n)))
    assert baselines._list_schedule(inst, priority) == ref.list_schedule(inst, priority)
    lower, upper = baselines.bound_sandwich(inst)
    want_lower, want_upper = ref.bound_sandwich(inst)
    assert (lower, upper) == (want_lower, want_upper)


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.data())
def test_split_step_decides_like_the_chain_first_version(case, data):
    # a, b and d span the budgets of top intervals (a > 0) and middle
    # ones (a = b = 0), with bounds above and below d
    n, m, edges = case
    inst = _outcome(ref.build_instance, n, m, edges)
    if isinstance(inst, tuple):
        return
    stay = data.draw(st.integers(0, inst.all_jobs))
    a = data.draw(st.integers(0, 12))
    b = data.draw(st.integers(0, 80))
    d = data.draw(st.integers(1, 16))
    assert dyadic.split_step(inst, stay, a, b, d) == ref.split_step(inst, stay, a, b, d)


def test_height_counts_of_no_heights_is_one_zero():
    assert baselines.height_counts([]) == ref.height_counts([]) == [0]
    assert baselines.height_counts(iter([0, 0])) == ref.height_counts([0, 0]) == [2]
