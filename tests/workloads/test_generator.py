"""Tests for workload generation and mix schedules."""

import pytest

from repro.workloads.generator import MixPhase, WorkloadGenerator, WorkloadSchedule

from tests.conftest import mix_update_fraction


def change_times(schedule):
    """Times at which the active mix changes (excludes time 0)."""
    return [phase.start_time for phase in schedule.phases[1:]]


def test_constant_schedule(tiny_workload):
    schedule = WorkloadSchedule.constant("balanced")
    gen = WorkloadGenerator(spec=tiny_workload, schedule=schedule)
    assert gen.mix_at(0).name == "balanced"
    assert gen.mix_at(1e9).name == "balanced"
    assert change_times(schedule) == []


def test_alternating_schedule(tiny_workload):
    schedule = WorkloadSchedule.alternating(["readonly", "balanced", "readonly"], 100.0)
    gen = WorkloadGenerator(spec=tiny_workload, schedule=schedule)
    assert gen.mix_at(0).name == "readonly"
    assert gen.mix_at(150).name == "balanced"
    assert gen.mix_at(250).name == "readonly"
    assert change_times(schedule) == [100.0, 200.0]


def test_schedule_validation():
    with pytest.raises(ValueError):
        WorkloadSchedule([])
    with pytest.raises(ValueError):
        WorkloadSchedule([MixPhase(5.0, "a")])
    with pytest.raises(ValueError):
        WorkloadSchedule([MixPhase(0.0, "a"), MixPhase(0.0, "b")])
    with pytest.raises(ValueError):
        WorkloadSchedule.alternating(["a"], 0.0)


def test_generator_samples_follow_mix(tiny_workload):
    gen = WorkloadGenerator.constant(tiny_workload, "balanced", seed=3)
    names = [gen.next_type(0.0).name for _ in range(3000)]
    assert 0.30 < names.count("Read") / 3000 < 0.50
    assert names.count("Big") / 3000 < 0.12


def test_generator_respects_schedule(tiny_workload):
    gen = WorkloadGenerator(
        spec=tiny_workload,
        schedule=WorkloadSchedule.alternating(["readonly", "balanced"], 100.0),
        seed=1)
    early = [gen.next_type(10.0).name for _ in range(500)]
    late = [gen.next_type(150.0).name for _ in range(500)]
    assert "Write" not in early
    assert "Write" in late
    assert mix_update_fraction(gen.mix_at(10.0), tiny_workload.types) == 0.0
    assert mix_update_fraction(gen.mix_at(150.0), tiny_workload.types) > 0.2


def test_generator_rejects_unknown_mix(tiny_workload):
    with pytest.raises(KeyError):
        WorkloadGenerator.constant(tiny_workload, "nope")


def test_generator_is_deterministic(tiny_workload):
    a = WorkloadGenerator.constant(tiny_workload, "balanced", seed=7)
    b = WorkloadGenerator.constant(tiny_workload, "balanced", seed=7)
    assert [a.next_type(0.0).name for _ in range(50)] == [b.next_type(0.0).name for _ in range(50)]
