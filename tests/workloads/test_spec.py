"""Unit tests for workload specifications."""

import random

import pytest

from repro.workloads.spec import (
    AccessPattern, Mix, TableAccess, WorkloadSpec, lookup, scan, transaction_type, write)

from tests.conftest import mix_update_fraction


def test_access_constructors():
    s = scan("users")
    l = lookup("users", pages=8, selectivity=0.5)
    assert s.is_scan and s.pattern is AccessPattern.SCAN
    assert not l.is_scan and l.pages_per_execution == 8


def test_access_validation():
    with pytest.raises(ValueError):
        TableAccess(relation="x", pages_per_execution=0)
    with pytest.raises(ValueError):
        lookup("x", selectivity=0.0)
    with pytest.raises(ValueError):
        lookup("x", selectivity=1.5)


def test_write_spec_validation():
    write("orders", rows=2, pages_dirtied=2)
    with pytest.raises(ValueError):
        write("orders", rows=0)


def test_transaction_type_properties():
    t = transaction_type("T", reads=[lookup("a")], writes=[write("b")], cpu_ms=5)
    assert t.is_update
    assert [access.relation for access in t.reads] == ["a"]
    assert [w.relation for w in t.writes] == ["b"]
    assert sum(w.pages_dirtied for w in t.writes) == 1


def test_transaction_type_rejects_duplicate_reads():
    with pytest.raises(ValueError):
        transaction_type("T", reads=[lookup("a"), scan("a")])


def test_mix_normalisation_and_sampling():
    mix = Mix("m", {"A": 3.0, "B": 1.0})
    assert mix.weights["A"] / sum(mix.weights.values()) == pytest.approx(0.75)
    rng = random.Random(0)
    samples = [mix.sample(rng) for _ in range(2000)]
    assert 0.70 < samples.count("A") / 2000 < 0.80


def test_mix_validation():
    with pytest.raises(ValueError):
        Mix("empty", {})
    with pytest.raises(ValueError):
        Mix("neg", {"A": -1})
    with pytest.raises(ValueError):
        Mix("zero", {"A": 0.0})


def test_mix_update_fraction(tiny_workload):
    frac = mix_update_fraction(tiny_workload.mix("balanced"), tiny_workload.types)
    assert frac == pytest.approx(0.30, abs=0.01)
    assert mix_update_fraction(tiny_workload.mix("readonly"), tiny_workload.types) == 0.0


def test_workload_validation_catches_unknown_relation(tiny_schema):
    with pytest.raises(ValueError):
        WorkloadSpec(
            name="bad", schema=tiny_schema,
            types={"T": transaction_type("T", reads=[lookup("missing")])},
            mixes={"m": Mix("m", {"T": 1})})


def test_workload_validation_catches_unknown_type(tiny_schema):
    with pytest.raises(ValueError):
        WorkloadSpec(
            name="bad", schema=tiny_schema,
            types={"T": transaction_type("T", reads=[lookup("users")])},
            mixes={"m": Mix("m", {"Other": 1})})


def test_workload_validation_rejects_write_to_index(tiny_schema):
    with pytest.raises(ValueError):
        WorkloadSpec(
            name="bad", schema=tiny_schema,
            types={"T": transaction_type("T", writes=[write("users_pkey")])},
            mixes={"m": Mix("m", {"T": 1})})


def test_workload_accessors(tiny_workload):
    assert tiny_workload.type("Read").name == "Read"
    with pytest.raises(KeyError):
        tiny_workload.type("nope")
    with pytest.raises(KeyError):
        tiny_workload.mix("nope")
    types = tiny_workload.types.values()
    assert {t.name for t in types if t.is_update} == {"Write"}
    assert len([t for t in types if not t.is_update]) == 3
