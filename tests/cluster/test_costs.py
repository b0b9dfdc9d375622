"""Tests for the combined software cost model."""

import pytest

from repro.cluster.costs import CostModel, SoftwareCosts
from repro.cluster.network import NetworkSpec
from repro.cluster.node import MachineSpec


@pytest.fixture
def cost_model():
    return CostModel(
        machine=MachineSpec(name="m", frequency_hz=200e6),
        network=NetworkSpec(name="n", latency_seconds=8e-6, bandwidth_bytes_per_second=125e6),
        software=SoftwareCosts(inline_check_cycles=8, page_fault_seconds=22e-6, mprotect_seconds=6e-6),
        page_size=4096,
    )


def test_inline_check_scales_with_count(cost_model):
    one = cost_model.inline_check_seconds(1)
    ten = cost_model.inline_check_seconds(10)
    assert one == pytest.approx(8 / 200e6)
    assert ten == pytest.approx(10 * one)


def test_page_fault_and_mprotect_costs(cost_model):
    assert cost_model.software.page_fault_seconds == pytest.approx(22e-6)
    assert cost_model.mprotect_seconds(3) == pytest.approx(18e-6)
    assert cost_model.mprotect_seconds(0) == 0.0


def test_page_request_includes_page_payload(cost_model):
    one_page = cost_model.page_request_seconds(1)
    two_pages = cost_model.page_request_seconds(2)
    assert two_pages > one_page
    # the difference is the extra page's bandwidth term
    assert two_pages - one_page == pytest.approx(4096 / 125e6)


def test_update_message_scales_with_bytes(cost_model):
    small = cost_model.update_message_seconds(8)
    large = cost_model.update_message_seconds(8192)
    assert large > small


def test_thread_create_remote_costs_more(cost_model):
    assert cost_model.thread_create_seconds(remote=True) > cost_model.thread_create_seconds(
        remote=False
    )


def test_monitor_remote_costs_more_than_local(cost_model):
    assert cost_model.monitor_remote_seconds() > cost_model.monitor_local_seconds()


def test_software_costs_overrides():
    base = SoftwareCosts()
    tweaked = base.with_overrides(inline_check_cycles=32.0)
    assert tweaked.inline_check_cycles == 32.0
    assert tweaked.page_fault_seconds == base.page_fault_seconds


def test_software_costs_validation():
    with pytest.raises(ValueError):
        SoftwareCosts(inline_check_cycles=-1)
    with pytest.raises(ValueError):
        SoftwareCosts(page_fault_seconds=-1e-6)


def test_describe_mentions_key_constants(cost_model):
    text = cost_model.describe()
    assert "page fault" in text
    assert "22 us" in text
