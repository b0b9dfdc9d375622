"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.apps.workloads import WorkloadPreset
from repro.cluster.presets import myrinet_cluster, sci_cluster
from repro.hyperion.runtime import HyperionRuntime, RuntimeConfig
from repro.simulation.engine import Engine

#: ``pytest --hypothesis-profile=deep``: the generated differential suites at
#: depth, as their own CI step (tier-1 keeps each to a few seconds)
settings.register_profile("deep", max_examples=300, deadline=None)


@pytest.fixture
def engine() -> Engine:
    """A fresh discrete-event engine."""
    return Engine()


@pytest.fixture
def testing_preset() -> WorkloadPreset:
    """Tiny workloads suitable for unit tests."""
    return WorkloadPreset.testing()


@pytest.fixture
def myrinet():
    """The Myrinet/BIP cluster preset."""
    return myrinet_cluster()


@pytest.fixture
def sci():
    """The SCI/SISCI cluster preset."""
    return sci_cluster()


def make_runtime(cluster=None, num_nodes=2, protocol="java_pf", **config_kwargs) -> HyperionRuntime:
    """Convenience runtime factory used across the tests."""
    spec = cluster or myrinet_cluster()
    config = RuntimeConfig(protocol=protocol, **config_kwargs)
    return HyperionRuntime(spec, num_nodes=num_nodes, config=config)


@pytest.fixture
def runtime_factory():
    """Factory fixture returning :func:`make_runtime`."""
    return make_runtime
