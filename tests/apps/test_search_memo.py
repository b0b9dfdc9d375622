"""The memoised TSP search kernel: purity, report identity, bounded size."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import clear_kernel_memos
from repro.apps.tsp import branch_and_bound
from repro.harness.spec import ExperimentSpec, run_spec

#: the bound the TSP main thread seeds the shared best record with
NO_BOUND = (2**63 - 1) // 4


@st.composite
def search_inputs(draw):
    """A random instance of 5-8 cities, a valid prefix from city 0, a bound."""
    n = draw(st.integers(min_value=5, max_value=8))
    dist = [[0] * n for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        dist[a][b] = dist[b][a] = draw(st.integers(min_value=1, max_value=1000))
    rest = draw(st.permutations(range(1, n)))
    prefix = (0,) + tuple(rest[: draw(st.integers(min_value=0, max_value=n - 1))])
    prefix_length = sum(dist[a][b] for a, b in zip(prefix, prefix[1:], strict=False))
    bound = draw(st.one_of(st.just(NO_BOUND), st.integers(min_value=0, max_value=8000)))
    return tuple(map(tuple, dist)), prefix, prefix_length, bound


def brute_force_completion(dist, prefix, prefix_length) -> int:
    """Shortest closed tour extending *prefix*, by enumeration."""
    remaining = [city for city in range(len(dist)) if city not in prefix]
    best = None
    for order in itertools.permutations(remaining):
        path = prefix + order
        length = prefix_length + sum(
            dist[a][b] for a, b in zip(path[len(prefix) - 1 :], path[len(prefix) :], strict=False)
        )
        length += dist[path[-1]][0]
        if best is None or length < best:
            best = length
    return best


@settings(max_examples=60, deadline=None)
@given(search_inputs())
def test_memoised_kernel_matches_uncached_search(inputs):
    dist, prefix, prefix_length, bound = inputs
    uncached = branch_and_bound.__wrapped__(dist, prefix, prefix_length, bound)
    # twice: the first call may miss, the second is a hit
    for _ in range(2):
        best, tour, candidates = branch_and_bound(dist, prefix, prefix_length, bound)
        assert (best, tour, candidates) == uncached
        assert isinstance(best, int) and isinstance(candidates, int)
    if tour is not None:
        assert isinstance(tour, tuple)
        assert tour[: len(prefix)] == prefix and sorted(tour) == list(range(len(dist)))
        closed = tour + (0,)
        assert sum(dist[a][b] for a, b in zip(closed, closed[1:], strict=False)) == best
    if bound == NO_BOUND:
        assert best == brute_force_completion(dist, prefix, prefix_length)


def test_reports_identical_with_cold_and_warm_memo():
    specs = [
        ExperimentSpec(
            app="tsp", cluster="myrinet", protocol=protocol, num_nodes=2, workload="testing"
        )
        for protocol in ("java_ic", "java_pf")
    ]
    clear_kernel_memos()
    cold = [run_spec(spec).to_dict() for spec in specs]
    hits_before = branch_and_bound.cache_info().hits
    warm = [run_spec(spec).to_dict() for spec in specs]
    assert warm == cold
    assert branch_and_bound.cache_info().hits > hits_before


def test_search_memo_is_bounded():
    maxsize = branch_and_bound.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
