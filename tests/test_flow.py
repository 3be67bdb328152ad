"""Flow and FlowState behaviour."""

import pytest

from repro.core.flow import Flow, FlowState


def test_flow_ids_are_unique():
    a = Flow("h0", "h1", 10.0)
    b = Flow("h0", "h1", 10.0)
    assert a.flow_id != b.flow_id


def test_flow_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Flow("h0", "h1", 0.0)
    with pytest.raises(ValueError):
        Flow("h0", "h1", -1.0)


def test_flow_rejects_infinite_size():
    # An infinite flow used to "complete" at t=0.
    with pytest.raises(ValueError, match="finite"):
        Flow("h0", "h1", float("inf"))


def test_flow_rejects_nan_size():
    # A NaN flow used to surface later as a simulation deadlock.
    with pytest.raises(ValueError, match="finite"):
        Flow("h0", "h1", float("nan"))


def test_flow_rejects_self_loop():
    with pytest.raises(ValueError):
        Flow("h0", "h0", 1.0)


def test_flow_str_mentions_group():
    flow = Flow("h0", "h1", 1.0, group_id="ef", index_in_group=3)
    assert "ef#3" in str(flow)


def test_state_advance_drains_bytes():
    state = FlowState(flow=Flow("a", "b", 100.0), start_time=0.0, remaining=100.0)
    state.rate = 10.0
    state.advance(2.0)
    assert state.remaining == pytest.approx(80.0)
    assert state.transferred == pytest.approx(20.0)


def test_state_advance_clamps_at_zero():
    state = FlowState(flow=Flow("a", "b", 10.0), start_time=0.0, remaining=10.0)
    state.rate = 100.0
    state.advance(1.0)
    assert state.remaining == 0.0
    assert state.finished


def test_state_advance_rejects_negative_dt():
    state = FlowState(flow=Flow("a", "b", 10.0), start_time=0.0, remaining=10.0)
    with pytest.raises(ValueError):
        state.advance(-0.5)


def test_time_to_finish():
    state = FlowState(flow=Flow("a", "b", 10.0), start_time=0.0, remaining=10.0)
    assert state.time_to_finish() == float("inf")
    state.rate = 5.0
    assert state.time_to_finish() == pytest.approx(2.0)
    state.advance(2.0)
    assert state.time_to_finish() == 0.0


def test_finished_uses_relative_tolerance_for_huge_flows():
    size = 2e9
    state = FlowState(flow=Flow("a", "b", size), start_time=0.0, remaining=size)
    state.remaining = 0.5  # half a byte left of two gigabytes: done
    assert state.finished


def test_tardiness_requires_ideal():
    state = FlowState(flow=Flow("a", "b", 10.0), start_time=0.0, remaining=0.0)
    with pytest.raises(ValueError):
        state.tardiness_at(5.0)
    state.ideal_finish_time = 3.0
    assert state.tardiness_at(5.0) == pytest.approx(2.0)
    assert state.tardiness_at(2.0) == pytest.approx(-1.0)
