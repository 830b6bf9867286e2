"""Closed-loop client population.

The paper loads the cluster with a fixed number of emulated clients per
replica: "We measure the performance of a single standalone database and
determine the number of clients needed to generate 85% of the peak
throughput.  In the following experiments, we use that number of clients per
replica to load the system" (Section 4.4).

Each client here runs the classic closed loop: think, issue one transaction
(whose type is drawn from the active workload mix), wait for it to complete,
repeat.  The client population talks to the replicated cluster through a
single ``submit`` callable, so the same client code drives a standalone
database, a 16-replica cluster, or any load-balancing policy.

Clients are slotted objects whose issue/complete continuations are bound
once at construction: a client completes hundreds of thousands of
transactions, and its continuations go straight onto the event queue with
``EventQueue.push``, so the per-transaction loop allocates nothing and
performs no per-transaction callback-registry lookups.
"""

from __future__ import annotations

import random
from math import log
from typing import Callable, List, Optional, Set

from repro.sim.simulator import Simulator
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import TransactionType

# submit(transaction_type, client_id, completion_callback); the callback
# receives whether the transaction committed.
SubmitFn = Callable[[TransactionType, int, Callable[[bool], None]], None]


class Client:
    """One closed-loop client: think, issue, wait for completion, repeat.

    ``issue`` and ``complete`` hold the bound continuations, created exactly
    once: ``issue`` sits in the event queue while the client thinks, and
    ``complete`` is the callback handed to the cluster with every submitted
    transaction.  Shared state (RNG, generator, counters, parking) lives on
    the population.
    """

    __slots__ = ("population", "client_id", "issue", "complete")

    def __init__(self, population: "ClientPopulation", client_id: int) -> None:
        self.population = population
        self.client_id = client_id
        self.issue = self._issue
        self.complete = self._complete

    def _issue(self) -> None:
        pop = self.population
        if self.client_id >= pop._active_target:
            pop._parked.add(self.client_id)
            return
        txn_type = pop.generator.next_type(pop.sim.now)
        pop.requests_issued += 1
        pop.submit(txn_type, self.client_id, self.complete)

    def _complete(self, committed: bool) -> None:
        pop = self.population
        # Exponential think time, -ln(1 - U) / lambda with U = rng.random().
        # It equals random.Random.expovariate on Python 3.11+, but unlike the
        # stdlib, whose expovariate changed across versions, it draws the
        # same value on every supported Python, so seeded runs reproduce
        # everywhere.  Think times are never negative, so the continuation
        # skips schedule's check and goes straight onto the event queue.
        lambd = pop._think_lambd
        think = -log(1.0 - pop._rng.random()) / lambd if lambd is not None else 0.0
        sim = pop.sim
        sim.queue.push(sim.now + think, self.issue)


class ClientPopulation:
    """Drives closed-loop clients against the cluster.

    ``clients`` is the initial population (total, not per replica),
    ``think_time_s`` the mean of the exponential think time between a
    completion and the next request, and ``seed`` the base of the clients'
    shared random stream.
    """

    def __init__(self, sim: Simulator, clients: int, think_time_s: float,
                 seed: int, generator: WorkloadGenerator,
                 submit: SubmitFn) -> None:
        self.sim = sim
        self.generator = generator
        self.submit = submit
        self._rng = random.Random(seed ^ 0x5EED)
        self._think_time_s = think_time_s
        self._think_lambd: Optional[float] = \
            (1.0 / think_time_s) if think_time_s > 0 else None
        self.requests_issued = 0
        self._started = False
        # Elasticity: the population can grow and shrink mid-run (flash
        # crowds).  Clients with ids at or above the active target park
        # themselves between transactions and are woken when it rises again.
        self._active_target = clients
        self._clients: List[Client] = []
        self._parked: Set[int] = set()

    def start(self) -> None:
        """Start every client with a small random initial offset (idempotent).

        The offset de-synchronises clients so the system does not see a
        thundering herd at time zero.
        """
        if self._started:
            return
        self._started = True
        self._spawn_up_to(self._active_target)

    def _spawn_up_to(self, count: int) -> None:
        clients = self._clients
        for client_id in range(len(clients), count):
            client = Client(self, client_id)
            clients.append(client)
            offset = self._rng.uniform(0.0, max(self._think_time_s, 0.05))
            self.sim.schedule(offset, client.issue)

    def set_active_clients(self, count: int) -> None:
        """Grow or shrink the closed-loop population (flash crowds).

        Growing spawns new client loops (and wakes parked ones) immediately;
        shrinking is graceful: excess clients finish their in-flight
        transaction and then park instead of issuing another.  ``count=0``
        quiesces the population entirely -- every client parks after its
        in-flight transaction -- which is how the chaos harness drains the
        cluster before auditing consistency invariants.
        """
        if count < 0:
            raise ValueError("client count cannot be negative")
        self._active_target = count
        if not self._started:
            return
        for client_id in sorted(self._parked):
            if client_id < count:
                self._parked.discard(client_id)
                offset = self._rng.uniform(0.0, max(self._think_time_s, 0.05))
                self.sim.schedule(offset, self._clients[client_id].issue)
        self._spawn_up_to(count)
