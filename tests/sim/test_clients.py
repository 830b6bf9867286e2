"""Tests for the closed-loop client population."""

import pytest

from repro.replication.cluster import ClusterConfig
from repro.sim.clients import ClientPopulation
from repro.sim.simulator import Simulator
from repro.workloads.generator import WorkloadGenerator


class Server:
    """Serves every request in ``service`` seconds and counts completions."""

    def __init__(self, sim, service):
        self.sim = sim
        self.service = service
        self.submitted = []
        self.completed = 0

    def submit(self, txn_type, client_id, done):
        self.submitted.append(txn_type.name)

        def finish():
            self.completed += 1
            done(True)

        self.sim.schedule(self.service, finish)

    def outstanding(self):
        """Requests submitted but not yet completed."""
        return len(self.submitted) - self.completed


def _population(tiny_workload, clients=4, think=0.1, service=0.05):
    sim = Simulator()
    gen = WorkloadGenerator.constant(tiny_workload, "balanced", seed=1)
    server = Server(sim, service)
    pop = ClientPopulation(sim, clients, think, 1, gen, server.submit)
    return sim, pop, server


def test_invalid_client_config():
    # The population's settings come from ClusterConfig, which rejects them.
    with pytest.raises(ValueError):
        ClusterConfig(clients_per_replica=0)
    with pytest.raises(ValueError):
        ClusterConfig(think_time_s=-0.1)


def test_clients_issue_and_complete(tiny_workload):
    sim, pop, server = _population(tiny_workload)
    pop.start()
    sim.run_until(10.0)
    assert server.completed > 50
    assert server.outstanding() <= 4
    assert len(server.submitted) == pop.requests_issued


def test_closed_loop_bounded_by_clients(tiny_workload):
    sim, pop, server = _population(tiny_workload, clients=2, think=0.0, service=1.0)
    pop.start()
    sim.run_until(10.0)
    # 2 clients, 1 second service, zero think: at most ~20 completions.
    assert server.completed <= 22


def test_start_is_idempotent(tiny_workload):
    sim, pop, _ = _population(tiny_workload)
    pop.start()
    pop.start()
    sim.run_until(1.0)
    assert pop.requests_issued <= 4 * 12


def test_population_grows_mid_run(tiny_workload):
    sim, pop, server = _population(tiny_workload, clients=2, think=0.1, service=0.05)
    pop.start()
    sim.run_until(5.0)
    rate_before = server.completed / 5.0
    pop.set_active_clients(8)
    assert pop._active_target == 8
    start_count = server.completed
    sim.run_until(10.0)
    rate_after = (server.completed - start_count) / 5.0
    assert rate_after > 2 * rate_before


def test_population_shrinks_gracefully(tiny_workload):
    sim, pop, server = _population(tiny_workload, clients=8, think=0.1, service=0.05)
    pop.start()
    sim.run_until(5.0)
    pop.set_active_clients(2)
    sim.run_until(6.0)                       # in-flight work finishes, excess park
    start_count = server.completed
    sim.run_until(11.0)
    completed = server.completed - start_count
    # 2 clients in a ~0.15 s loop: roughly 13/s, nowhere near 8 clients' rate.
    assert completed < 5.0 * 2 / 0.15 * 1.5
    assert server.outstanding() <= 2


def test_parked_clients_wake_on_regrowth(tiny_workload):
    sim, pop, server = _population(tiny_workload, clients=6, think=0.1, service=0.05)
    pop.start()
    sim.run_until(3.0)
    pop.set_active_clients(1)
    sim.run_until(6.0)
    assert server.outstanding() <= 1
    pop.set_active_clients(6)
    issued = pop.requests_issued
    sim.run_until(9.0)
    assert pop.requests_issued > issued
    assert server.outstanding() <= 6
