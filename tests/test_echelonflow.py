"""EchelonFlow (Def. 3.1): reference time, ideal finish times, tardiness."""

import pytest

from repro.core.arrangement import CoflowArrangement, StaggeredArrangement
from repro.core.echelonflow import EchelonFlow, make_coflow, total_tardiness
from repro.core.flow import Flow


def _staggered_ef(n=3, distance=2.0):
    ef = EchelonFlow("ef", StaggeredArrangement(distance=distance))
    flows = [
        Flow("h0", "h1", 1.0, group_id="ef", index_in_group=j) for j in range(n)
    ]
    for flow in flows:
        ef.add_flow(flow)
    return ef, flows


def test_reference_time_pins_on_head_flow():
    ef, flows = _staggered_ef()
    ef.observe_flow_start(flows[1], 5.0)  # not the head: no effect
    assert ef.reference_time is None
    ef.observe_flow_start(flows[0], 7.0)
    assert ef.reference_time == 7.0


def test_reference_cannot_be_pinned_twice():
    ef, flows = _staggered_ef()
    ef.set_reference_time(1.0)
    with pytest.raises(RuntimeError):
        ef.set_reference_time(2.0)


def test_ideal_finish_times_follow_arrangement():
    ef, flows = _staggered_ef(distance=2.0)
    ef.set_reference_time(3.0)
    assert ef.ideal_finish_time_of(flows[0]) == 3.0
    assert ef.ideal_finish_time_of(flows[1]) == 5.0
    assert ef.ideal_finish_time_of(flows[2]) == 7.0


def test_ideal_finish_before_reference_raises():
    ef, flows = _staggered_ef()
    with pytest.raises(RuntimeError):
        ef.ideal_finish_time_of(flows[0])


def test_recalibration_late_flows_get_past_deadlines():
    """Fig. 6b: a late flow's ideal finish may precede its own start."""
    ef, flows = _staggered_ef(distance=1.0)
    ef.set_reference_time(0.0)
    # Flow 2 starts at t=10, but its ideal finish time is still r + 2.
    assert ef.ideal_finish_time_of(flows[2]) == 2.0


def test_tardiness_is_max_over_flows():
    ef, flows = _staggered_ef(distance=2.0)
    ef.set_reference_time(0.0)  # ideals: 0, 2, 4
    finishes = {flows[0].flow_id: 1.0, flows[1].flow_id: 2.5, flows[2].flow_id: 4.2}
    # tardiness: 1.0, 0.5, 0.2 -> max = 1.0
    assert ef.tardiness(finishes) == pytest.approx(1.0)


def test_tardiness_can_be_negative():
    ef, flows = _staggered_ef(distance=2.0)
    ef.set_reference_time(0.0)
    finishes = {f.flow_id: ef.ideal_finish_time_of(f) - 0.5 for f in flows}
    assert ef.tardiness(finishes) == pytest.approx(-0.5)


def test_tardiness_missing_flow_raises():
    ef, flows = _staggered_ef()
    ef.set_reference_time(0.0)
    with pytest.raises(KeyError):
        ef.tardiness({flows[0].flow_id: 1.0})


def test_tardiness_on_empty_ef_raises():
    ef = EchelonFlow("empty", CoflowArrangement())
    ef.set_reference_time(0.0)
    with pytest.raises(ValueError):
        ef.tardiness({})


def test_flows_sharing_an_index_share_ideal_finish():
    """Flows at the same arrangement index form an intra-EF Coflow."""
    ef = EchelonFlow("ef", StaggeredArrangement(distance=3.0))
    a = Flow("h0", "h1", 1.0, group_id="ef", index_in_group=1)
    b = Flow("h1", "h0", 1.0, group_id="ef", index_in_group=1)
    ef.add_flow(a)
    ef.add_flow(b)
    ef.set_reference_time(10.0)
    assert ef.ideal_finish_time_of(a) == ef.ideal_finish_time_of(b) == 13.0


def test_add_flow_rejects_foreign_group():
    ef = EchelonFlow("ef", CoflowArrangement())
    foreign = Flow("h0", "h1", 1.0, group_id="other")
    with pytest.raises(ValueError):
        ef.add_flow(foreign)


def test_is_coflow_detection():
    coflow = make_coflow("c", [Flow("h0", "h1", 1.0), Flow("h1", "h0", 1.0)])
    assert coflow.is_coflow()
    staggered, _ = _staggered_ef()
    assert not staggered.is_coflow()


def test_make_coflow_reindexes_members():
    flows = [Flow("h0", "h1", 1.0, group_id="c", index_in_group=j) for j in range(3)]
    coflow = make_coflow("c", flows)
    assert all(f.index_in_group == 0 for f in coflow.flows)
    coflow.set_reference_time(1.0)
    ideals = set(coflow.ideal_finish_times().values())
    assert ideals == {1.0}


def test_cardinality_and_index_count():
    ef, _ = _staggered_ef(n=4)
    assert ef.cardinality == 4
    assert len(ef) == 4
    assert ef.index_count == 4


def test_weight_validation():
    with pytest.raises(ValueError):
        EchelonFlow("ef", CoflowArrangement(), weight=0.0)


def test_total_tardiness_sums_eq4():
    ef1, flows1 = _staggered_ef(n=2, distance=1.0)
    ef2 = EchelonFlow("ef2", CoflowArrangement(), weight=2.0)
    f2 = Flow("h0", "h1", 1.0, group_id="ef2")
    ef2.add_flow(f2)
    ef1.set_reference_time(0.0)
    ef2.set_reference_time(0.0)
    finishes = {
        flows1[0].flow_id: 1.0,  # tardiness 1.0
        flows1[1].flow_id: 1.0,  # tardiness 0.0 -> ef1 max = 1.0
        f2.flow_id: 3.0,  # ef2 tardiness 3.0
    }
    assert total_tardiness([ef1, ef2], finishes) == pytest.approx(4.0)
    assert total_tardiness([ef1, ef2], finishes, weighted=True) == pytest.approx(7.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_weight_is_rejected(bad):
    # A nan weight makes every weighted tardiness key nan, so MADD's
    # ordering sorts would depend on input order.
    with pytest.raises(ValueError, match=repr(bad)):
        EchelonFlow("ef", CoflowArrangement(), weight=bad)
