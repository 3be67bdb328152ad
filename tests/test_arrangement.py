"""Arrangement functions: Eqs. 5, 6, 7 and profiled tables."""

import pytest

from repro.core.arrangement import (
    CoflowArrangement,
    PhasedArrangement,
    StaggeredArrangement,
    TabledArrangement,
    arrangement_from_compute_durations,
)


class TestCoflowArrangement:
    def test_all_offsets_zero(self):
        arr = CoflowArrangement()
        assert [arr.offset(j) for j in range(5)] == [0.0] * 5

    def test_ideal_finish_times_equal_reference(self):
        arr = CoflowArrangement()
        assert arr.ideal_finish_times(7.5, 4) == [7.5] * 4

    def test_is_coflow(self):
        assert CoflowArrangement().is_coflow(10)

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError):
            CoflowArrangement().offset(-1)


class TestStaggeredArrangement:
    def test_eq6_recurrence(self):
        # d_0 = r; d_j = d_{j-1} + T.
        arr = StaggeredArrangement(distance=2.0)
        times = arr.ideal_finish_times(reference_time=3.0, count=4)
        assert times == [3.0, 5.0, 7.0, 9.0]

    def test_zero_distance_degenerates_to_coflow(self):
        arr = StaggeredArrangement(distance=0.0)
        assert arr.is_coflow(5)

    def test_positive_distance_is_not_coflow(self):
        assert not StaggeredArrangement(distance=1.0).is_coflow(2)
        # ... but trivially a coflow with a single flow.
        assert StaggeredArrangement(distance=1.0).is_coflow(1)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            StaggeredArrangement(distance=-1.0)


class TestPhasedArrangement:
    def test_eq7_forward_then_backward(self):
        # n = 3 layers, T_fwd = 1, T_bwd = 2:
        # offsets: C0=0, C1=1, C2=2 (forward), C3=4, C4=6, C5=8 (backward).
        arr = PhasedArrangement(layers=3, forward_distance=1.0, backward_distance=2.0)
        offsets = [arr.offset(i) for i in range(6)]
        assert offsets == [0.0, 1.0, 2.0, 4.0, 6.0, 8.0]

    def test_out_of_range_rejected(self):
        arr = PhasedArrangement(layers=2, forward_distance=1.0, backward_distance=1.0)
        arr.offset(3)  # 2n - 1 = 3 is the last valid index
        with pytest.raises(IndexError):
            arr.offset(4)

    def test_single_layer(self):
        arr = PhasedArrangement(layers=1, forward_distance=5.0, backward_distance=7.0)
        assert arr.offset(0) == 0.0
        assert arr.offset(1) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PhasedArrangement(layers=0, forward_distance=1.0, backward_distance=1.0)
        with pytest.raises(ValueError):
            PhasedArrangement(layers=2, forward_distance=-1.0, backward_distance=1.0)


class TestTabledArrangement:
    def test_lookup(self):
        arr = TabledArrangement((0.0, 1.0, 1.5))
        assert arr.offset(2) == 1.5

    def test_requires_monotonicity(self):
        with pytest.raises(ValueError):
            TabledArrangement((0.0, 2.0, 1.0))

    def test_out_of_range(self):
        arr = TabledArrangement((0.0,))
        with pytest.raises(IndexError):
            arr.offset(1)

    def test_equal_offsets_is_coflow(self):
        assert TabledArrangement((1.0, 1.0, 1.0)).is_coflow(3)


class TestValidateAndBuilders:
    def test_validate_passes_for_monotone(self):
        StaggeredArrangement(distance=1.0).validate(10)

    def test_from_compute_durations(self):
        # Durations [2, 3, 4]: flow j's ideal finish trails by the sum of
        # the first j durations -> offsets [0, 2, 5].
        arr = arrangement_from_compute_durations([2.0, 3.0, 4.0])
        assert [arr.offset(j) for j in range(3)] == [0.0, 2.0, 5.0]

    def test_from_empty_durations(self):
        arr = arrangement_from_compute_durations([])
        assert arr.offset(0) == 0.0

    def test_from_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            arrangement_from_compute_durations([1.0, -2.0, 3.0])

    def test_ideal_finish_times_rejects_negative_count(self):
        with pytest.raises(ValueError):
            CoflowArrangement().ideal_finish_times(0.0, -1)


class TestNonFiniteRejected:
    """A nan or inf offset yields nan deadlines, which make MADD's stage
    grouping and ordering sorts depend on input order; every arrangement
    rejects one at construction, naming the value."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_staggered_distance(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            StaggeredArrangement(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_tabled_offset(self, bad):
        with pytest.raises(ValueError, match=r"offsets\[1\] = " + repr(bad)):
            TabledArrangement([0.0, bad])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["forward_distance", "backward_distance"])
    def test_phased_distances(self, field, bad):
        kwargs = {"layers": 2, "forward_distance": 1.0, "backward_distance": 1.0}
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"{field} = {bad!r}"):
            PhasedArrangement(**kwargs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_compute_durations(self, position, bad):
        durations = [1.0, 2.0, 3.0]
        durations[position] = bad
        with pytest.raises(ValueError, match=repr(bad)):
            arrangement_from_compute_durations(durations)
