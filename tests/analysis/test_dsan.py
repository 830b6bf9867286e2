"""dsan fixture tests: probe equivalence, fingerprinting and localization.

The scenarios here are toy simulators built inline, so the tests pin the
sanitizer's *mechanics* -- that arming the probe changes nothing about the
run, that identical runs fingerprint identically, and that an injected
divergence is localized to the exact first diverging event -- without
paying for a cluster build.
"""

import random

from repro.analysis.dsan import (
    DsanSession,
    check_determinism,
    compare_fingerprints,
    describe_callback,
)
from repro.sim.simulator import Simulator


def _cb_a() -> None:
    pass


def _cb_b() -> None:
    pass


def _toy_run(session=None, events=40):
    """A deterministic run of two callbacks interleaved in time."""
    sim = Simulator()
    if session is not None:
        session.attach_simulator(sim)
    for i in range(events):
        sim.schedule(0.5 * i, _cb_a)
    sim.schedule(2.25, _cb_b)
    sim.run_until(1000.0)
    return sim


# ----------------------------------------------------------------------
# Probe slot: zero behavioural overhead
# ----------------------------------------------------------------------
def test_probed_run_is_behaviourally_identical():
    plain = _toy_run()
    session = DsanSession(block_size=16)
    probed = _toy_run(session)
    assert probed.events_processed == plain.events_processed
    assert probed.now == plain.now
    assert session.events == probed.events_processed


def test_probe_refuses_double_arm():
    sim = Simulator()
    DsanSession().attach_simulator(sim)
    try:
        DsanSession().attach_simulator(sim)
    except RuntimeError as exc:
        assert "already armed" in str(exc)
    else:
        raise AssertionError("second attach_simulator should raise")


# ----------------------------------------------------------------------
# Callback descriptions (must be process-stable: no repr, no addresses)
# ----------------------------------------------------------------------
def test_describe_callback_renders_stable_identities():
    class FakeReplica:
        def __init__(self):
            self.replica_id = 3

        def tick(self):
            pass

    assert describe_callback(FakeReplica().tick) == "FakeReplica[3].tick"
    assert describe_callback(_cb_a).endswith("_cb_a")
    assert "0x" not in describe_callback(FakeReplica().tick)


# ----------------------------------------------------------------------
# Fingerprints and check_determinism
# ----------------------------------------------------------------------
def test_identical_runs_are_deterministic():
    report = check_determinism(lambda session: _toy_run(session),
                               block_size=16)
    assert report.deterministic
    assert report.events[0] == report.events[1] > 0
    assert report.diverging_block is None
    assert "deterministic" in report.format()


def test_fingerprint_blocks_cover_the_partial_tail():
    session = DsanSession(block_size=16)
    _toy_run(session, events=20)    # 21 executed events: one partial block
    fp = session.fingerprint()
    assert fp["events"] == 21
    assert len(fp["blocks"]) == 2
    assert compare_fingerprints(fp, fp).deterministic


def test_injected_divergence_is_localized_to_the_exact_event():
    # The run callable flips behaviour on every second invocation, so the
    # A/B pair diverges and the detail re-run pair reproduces each side.
    calls = {"n": 0}

    def run(session):
        variant = calls["n"] % 2
        calls["n"] += 1
        sim = Simulator()
        session.attach_simulator(sim)
        for i in range(30):
            sim.schedule(float(i), _cb_a)
        sim.schedule(10.0, _cb_b if variant else _cb_a)
        sim.run_until(100.0)

    report = check_determinism(run, block_size=8)
    assert not report.deterministic
    assert report.events == (31, 31)
    # Events 0..9 are t=0..9; index 10 is the loop's t=10 event; index 11
    # is the injected one -- the first diverging event, in block 11 // 8.
    assert report.diverging_block == 1
    assert report.first_divergence is not None
    assert report.first_divergence["index"] == 11
    assert report.first_divergence["desc_a"].endswith("_cb_a")
    assert report.first_divergence["desc_b"].endswith("_cb_b")
    assert "DIVERGENCE" in report.format()


def test_extra_event_divergence_reports_one_sided_tail():
    calls = {"n": 0}

    def run(session):
        extra = calls["n"] % 2
        calls["n"] += 1
        sim = Simulator()
        session.attach_simulator(sim)
        for i in range(5):
            sim.schedule(float(i), _cb_a)
        if extra:
            sim.schedule(50.0, _cb_b)
        sim.run_until(100.0)

    report = check_determinism(run, block_size=8)
    assert not report.deterministic
    assert report.events == (5, 6)
    assert report.first_divergence["index"] == 5
    assert report.first_divergence["desc_a"] is None
    assert report.first_divergence["desc_b"].endswith("_cb_b")


# ----------------------------------------------------------------------
# RNG stream fingerprinting
# ----------------------------------------------------------------------
class _FakeClients:
    def __init__(self, seed):
        self._rng = random.Random(seed)


class _FakeCluster:
    """The minimum surface DsanSession.instrument_cluster records on."""

    def __init__(self, seed):
        self.sim = Simulator()
        self.clients = _FakeClients(seed)


def test_recording_rng_preserves_the_draw_sequence():
    cluster = _FakeCluster(seed=7)
    DsanSession().instrument_cluster(cluster)
    control = random.Random(7)
    assert [cluster.clients._rng.random() for _ in range(5)] == \
        [control.random() for _ in range(5)]


def test_extra_rng_draw_is_attributed_to_its_stream():
    def run_once(extra_draw):
        session = DsanSession()
        cluster = _FakeCluster(seed=7)
        session.instrument_cluster(cluster)
        cluster.clients._rng.random()
        if extra_draw:
            cluster.clients._rng.random()
        cluster.sim.schedule(0.0, _cb_a)
        cluster.sim.run_until(1.0)
        return session.fingerprint()

    report = compare_fingerprints(run_once(False), run_once(True))
    assert not report.deterministic
    assert report.diverged_rng == ["clients"]
    assert "clients" in report.format()
