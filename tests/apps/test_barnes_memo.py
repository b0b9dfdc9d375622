"""The memoised Barnes-Hut kernels: equivalence, report identity, keys, bounds."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import clear_kernel_memos
from repro.apps.barnes import (
    FlatTree,
    build_octree,
    compute_acceleration,
    memoised_step,
    memoised_tree,
    reference_simulation,
    step_memo,
    tree_memo,
)
from repro.apps.workloads import WorkloadPreset
from repro.harness.spec import ExperimentSpec, run_spec

TREE_ARRAYS = ("mass", "com", "half", "leaf_body", "children")


def _bodies(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.random((n, 3)), np.full(n, 1.0 / n)


def _assert_same_tree(got: FlatTree, want: FlatTree) -> None:
    assert got.count == want.count
    for name in TREE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


def _assert_forces_match(forces, flat, positions, masses, theta) -> None:
    """Every body's memoised (acc, interactions) equals the plain kernel's, bit for bit."""
    for body in range(len(positions)):
        want_acc, want_interactions = compute_acceleration(flat, positions, masses, body, theta)
        acc, interactions = forces.acceleration(body)
        assert acc.tobytes() == want_acc.tobytes()
        assert interactions == want_interactions


@st.composite
def instances(draw):
    """2-24 bodies anywhere in the unit cube with positive masses, and a theta."""
    n = draw(st.integers(min_value=2, max_value=24))
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    positions = np.array(draw(st.lists(unit, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    masses = np.array(
        draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n))
    )
    theta = draw(st.floats(min_value=0.1, max_value=1.5))
    return positions, masses, theta


@settings(max_examples=40, deadline=None)
@given(instances())
def test_memoised_kernels_match_the_plain_ones(instance):
    positions, masses, theta = instance
    plain = build_octree(positions, masses)
    # twice: the first call may miss, the second is a hit
    for _ in range(2):
        tree = memoised_tree(positions, masses)
        _assert_same_tree(tree, plain)
        assert not any(getattr(tree, name).flags.writeable for name in TREE_ARRAYS)
        forces = memoised_step(plain, positions, masses, theta)
        _assert_forces_match(forces, plain, positions, masses, theta)


@pytest.mark.parametrize("nodes", [1, 3, 4])
@pytest.mark.parametrize("protocol", ["java_ic", "java_pf"])
def test_reports_identical_with_cold_and_warm_memo(protocol, nodes):
    spec = ExperimentSpec(
        app="barnes", cluster="myrinet", protocol=protocol, num_nodes=nodes, workload="testing"
    )
    clear_kernel_memos()
    cold = run_spec(spec).to_dict()
    hits_before = (tree_memo.cache_info().hits, step_memo.cache_info().hits)
    warm = run_spec(spec).to_dict()
    assert warm == cold
    assert tree_memo.cache_info().hits > hits_before[0]
    assert step_memo.cache_info().hits > hits_before[1]


@pytest.mark.parametrize("memo", [tree_memo, step_memo], ids=["tree", "step"])
def test_memos_are_bounded(memo):
    maxsize = memo.cache_info().maxsize
    assert maxsize is not None and maxsize >= WorkloadPreset.paper().barnes.steps
    clear_kernel_memos()
    for seed in range(maxsize + 3):
        positions, masses = _bodies(6, seed)
        flat = memoised_tree(positions, masses)
        memoised_step(flat, positions, masses, 0.6)
        assert memo.cache_info().currsize <= maxsize
    assert memo.cache_info().currsize == maxsize


def _flip(name: str, positions, masses, flat):
    """Copies of the inputs with one element of *name* changed."""
    positions, masses = positions.copy(), masses.copy()
    arrays = {field: getattr(flat, field).copy() for field in TREE_ARRAYS}
    internal = np.flatnonzero(arrays["children"].max(axis=1) >= 0)
    leaves = np.flatnonzero(arrays["leaf_body"] >= 0)
    cell = int(internal[1])
    if name == "positions":
        positions[3, 1] += 0.25
    elif name == "masses":
        masses[3] *= 4.0
    elif name in ("mass", "half"):
        arrays[name][cell] *= 4.0
    elif name == "com":
        arrays["com"][cell, 0] += 0.25
    elif name == "leaf_body":
        leaf = int(leaves[0])
        arrays["leaf_body"][leaf] = (arrays["leaf_body"][leaf] + 1) % len(positions)
    else:  # prune the root's first subtree
        octant = int(np.flatnonzero(arrays["children"][0] >= 0)[0])
        arrays["children"][0, octant] = -1
    return positions, masses, FlatTree.from_arrays(*(arrays[field] for field in TREE_ARRAYS))


@pytest.mark.parametrize("name", ["positions", "masses", *TREE_ARRAYS])
def test_a_flipped_input_misses_and_never_returns_a_stale_step(name):
    positions, masses = _bodies(16, 3)
    flat = build_octree(positions, masses)
    theta = 0.6
    clear_kernel_memos()
    original = memoised_step(flat, positions, masses, theta)
    before = [original.acceleration(body) for body in range(len(positions))]
    positions2, masses2, flat2 = _flip(name, positions, masses, flat)
    misses = step_memo.cache_info().misses
    forces = memoised_step(flat2, positions2, masses2, theta)
    assert step_memo.cache_info().misses == misses + 1
    assert forces is not original
    _assert_forces_match(forces, flat2, positions2, masses2, theta)
    after = [forces.acceleration(body) for body in range(len(positions))]
    assert any(
        a[0].tobytes() != b[0].tobytes() or a[1] != b[1] for a, b in zip(before, after, strict=True)
    ), "the flip must change the physics, or a stale entry would go unnoticed"


@pytest.mark.parametrize("name", ["positions", "masses"])
def test_a_flipped_body_input_misses_the_tree_memo(name):
    positions, masses = _bodies(16, 5)
    clear_kernel_memos()
    original = memoised_tree(positions, masses)
    positions2, masses2, _ = _flip(name, positions, masses, original)
    misses = tree_memo.cache_info().misses
    tree = memoised_tree(positions2, masses2)
    assert tree_memo.cache_info().misses == misses + 1
    assert tree is not original
    _assert_same_tree(tree, build_octree(positions2, masses2))


def test_the_oracle_never_touches_the_memos():
    spec = ExperimentSpec(
        app="barnes", cluster="myrinet", protocol="java_pf", num_nodes=3, workload="testing"
    )
    run_spec(spec)
    infos = (tree_memo.cache_info(), step_memo.cache_info())
    reference_simulation(WorkloadPreset.testing().barnes)
    assert (tree_memo.cache_info(), step_memo.cache_info()) == infos
    # a verified run on the warm memo hits it and still matches the oracle
    run_spec(dataclasses.replace(spec, verify=True))
    assert step_memo.cache_info().hits > infos[1].hits
