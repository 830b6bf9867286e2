"""Tests for the seeded unreliable channel and the cluster network."""

import pytest

from repro.net.channel import Channel, ChannelConfig, Network
from repro.sim.simulator import Simulator

from tests.conftest import drain


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(drop_probability=1.5)
    with pytest.raises(ValueError):
        ChannelConfig(duplicate_probability=-0.1)
    with pytest.raises(ValueError):
        ChannelConfig(jitter_s=-1.0)
    assert ChannelConfig().is_perfect
    assert not ChannelConfig(drop_probability=0.1).is_perfect
    assert not ChannelConfig(jitter_s=0.001).is_perfect


def test_perfect_channel_delivers_exactly_once_at_latency():
    sim = Simulator()
    channel = Channel(sim, "test")
    arrivals = []
    assert channel.deliver(0.5, lambda: arrivals.append(sim.now))
    drain(sim)
    assert arrivals == [0.5]
    assert channel.stats.sent == 1
    assert channel.stats.delivered == 1
    assert channel.stats.dropped == 0


def test_perfect_channel_draws_no_randomness():
    sim = Simulator()
    channel = Channel(sim, "test", seed=3)
    state = channel._rng.getstate()
    for _ in range(10):
        channel.deliver(0.1, lambda: None)
    assert channel._rng.getstate() == state


def test_partitioned_channel_drops_and_reports():
    sim = Simulator()
    channel = Channel(sim, "test")
    dropped = []
    channel.partition()
    assert not channel.deliver(0.1, lambda: dropped.append("delivered"),
                               on_drop=lambda: dropped.append("dropped"))
    drain(sim)
    assert dropped == ["dropped"]
    assert channel.stats.dropped_partition == 1
    assert not channel.pull_allowed()
    assert channel.stats.pulls_blocked == 1
    channel.heal()
    assert channel.pull_allowed()
    assert channel.deliver(0.1, lambda: dropped.append("after-heal"))


def test_lossy_channel_is_deterministic_per_seed():
    def run(seed):
        sim = Simulator()
        channel = Channel(sim, "test", seed=seed)
        channel.set_config(ChannelConfig(drop_probability=0.5))
        outcomes = [channel.deliver(0.1, lambda: None) for _ in range(50)]
        return outcomes

    assert run(7) == run(7)
    assert run(7) != run(8)
    assert any(run(7)) and not all(run(7))


def test_duplicate_channel_delivers_copies_later():
    sim = Simulator()
    channel = Channel(sim, "test", seed=1)
    channel.set_config(ChannelConfig(duplicate_probability=1.0))
    arrivals = []
    channel.deliver(0.2, lambda: arrivals.append(sim.now))
    drain(sim)
    assert len(arrivals) == 2
    assert arrivals[0] == pytest.approx(0.2)
    assert arrivals[1] > arrivals[0]
    assert channel.stats.duplicated == 1


def test_reordering_holds_messages_back():
    sim = Simulator()
    channel = Channel(sim, "test", seed=1)
    channel.set_config(ChannelConfig(reorder_probability=1.0, reorder_delay_s=1.0))
    order = []
    channel.deliver(0.1, lambda: order.append("first"))
    channel.set_config(ChannelConfig())
    channel.deliver(0.1, lambda: order.append("second"))
    drain(sim)
    # The first message was held back a full second, so the later send wins.
    assert order == ["second", "first"]
    assert channel.stats.reordered == 1


def lossy_deliveries(network, replica_id, count=40):
    """Delivery outcomes of ``count`` sends over a 50%-lossy link."""
    network.degrade(replica_id, ChannelConfig(drop_probability=0.5))
    return [network.link(replica_id).deliver(0.1, lambda: None) for _ in range(count)]


def test_network_links_have_independent_seeded_streams():
    network = Network(Simulator())
    a = lossy_deliveries(network, 0)
    b = lossy_deliveries(network, 1)
    assert a != b          # distinct streams...

    a2 = lossy_deliveries(Network(Simulator()), 0)
    assert a == a2         # ...but reproducible per replica


def test_network_degrade_and_restore():
    sim = Simulator()
    network = Network(sim)
    assert network.link(2).config.is_perfect       # every link starts perfect
    flaky = ChannelConfig(drop_probability=0.3, jitter_s=0.002)
    network.degrade(2, flaky)
    assert network.link(2).config is flaky
    network.restore(2)
    assert not network.link(2).partitioned and network.link(2).config.is_perfect


def test_network_partition_control_and_summary():
    sim = Simulator()
    network = Network(sim)
    for rid in (0, 1, 2):
        network.link(rid)
    network.partition(1)
    assert network.partitioned_ids() == (1,)
    network.link(0).deliver(0.1, lambda: None)
    network.link(1).deliver(0.1, lambda: None)
    summary = network.summary()
    assert summary["sent"] == 2
    assert summary["delivered"] == 1
    assert summary["dropped_partition"] == 1
    assert summary["partitioned_links"] == 1
    network.heal_all()
    assert network.partitioned_ids() == ()

