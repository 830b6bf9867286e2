"""Differential tests: the certifier against a brute-force GSI reference.

The reference scans the retained log on every request, the way the
certifier worked before it grew an inverted index: a writeset commits iff
no retained entry newer than its snapshot wrote one of its
``(relation, key)`` pairs, and ``conflict_with`` is the oldest such entry.
Hypothesis drives the production certifier, plain and replicated, and the
reference with the same adversarial stream -- a hot key space, snapshots
lagging far behind, conflicts inside one batch, empty batches, single
requests and interleaved truncation -- and every observable must agree.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.replication.certifier import Certifier
from repro.storage.engine import WriteItem, WriteSet


class ReferenceCertifier:
    """Brute-force GSI certification over a truncatable log."""

    def __init__(self):
        self.log = []          # (version, writeset), dense and ascending
        self.offset = 0        # versions at or below this were truncated
        self.commits = 0
        self.aborts = 0

    @property
    def current_version(self):
        return self.offset + len(self.log)

    @property
    def oldest_available_version(self):
        return self.offset + 1

    def certify(self, writeset, snapshot):
        mine = {(item.relation, key) for item in writeset.items for key in item.keys}
        conflicts = [version for version, other in self.log
                     if version > snapshot and any(
                         (item.relation, key) in mine
                         for item in other.items for key in item.keys)]
        if conflicts:
            self.aborts += 1
            return (False, self.current_version, min(conflicts))
        self.log.append((self.current_version + 1, writeset))
        self.commits += 1
        return (True, self.current_version, None)

    def writesets_since(self, version):
        if version < self.offset:
            raise KeyError(version)
        return self.log[version - self.offset:]

    def truncate(self, oldest_needed):
        drop = max(0, min(oldest_needed - self.offset, len(self.log)))
        del self.log[:drop]
        self.offset += drop
        return drop

    def last_writers(self):
        """``{relation: {key: version}}`` of every key's last retained writer."""
        index = {}
        for version, writeset in self.log:
            for item in writeset.items:
                for key in item.keys:
                    index.setdefault(item.relation, {})[key] = version
        return index


def writeset(items):
    return WriteSet(transaction_type="T", items=tuple(
        WriteItem(relation=relation, keys=tuple(keys), pages_dirtied=1)
        for relation, keys in items))


# A request is (items, snapshot lag); lags up to 40 reach far below the
# truncation horizon.  Eight keys on two relations keep contention hot, and
# two items may share a relation.
requests = st.lists(
    st.tuples(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                                 st.lists(st.integers(0, 7), min_size=1, max_size=3)),
                       min_size=0, max_size=3),
              st.integers(0, 40)),
    min_size=0, max_size=6)
operations = st.lists(st.one_of(
    st.tuples(st.just("batch"), requests, st.integers(0, 40)),
    st.tuples(st.just("certify"), requests.filter(len), st.just(0)),
    st.tuples(st.just("truncate"), st.just([]), st.integers(0, 30)),
), max_size=40)


def entries(log):
    return [(entry.version, entry.writeset) for entry in log]


def check_same_state(certifier, reference):
    assert certifier.current_version == reference.current_version
    assert certifier.oldest_available_version == reference.oldest_available_version
    log = certifier.writesets_since(reference.offset)
    assert [version for version, _ in entries(log)] == \
        [version for version, _ in reference.log]
    assert all(got is want for (_, got), (_, want) in zip(entries(log), reference.log))
    assert certifier.stats.commits == reference.commits
    assert certifier.stats.aborts == reference.aborts
    assert certifier.log_is_total_order()
    assert certifier._last_writer == reference.last_writers()


def drive(certifier, ops):
    reference = ReferenceCertifier()
    batches = 0
    for kind, stream, amount in ops:
        current = reference.current_version
        pairs = [(writeset(items), max(0, current - lag)) for items, lag in stream]
        if kind == "batch":
            since = max(reference.offset, current - amount)
            results, piggyback = certifier.certify_batch(pairs, since)
            expected = [reference.certify(ws, snapshot) for ws, snapshot in pairs]
            assert results == expected
            assert entries(piggyback) == reference.writesets_since(since)
            batches += 1
        elif kind == "certify":
            ws, snapshot = pairs[0]
            assert certifier.certify(ws, snapshot) == reference.certify(ws, snapshot)
        else:
            floor = reference.offset + amount
            assert certifier.truncate(floor) == reference.truncate(floor)
            if reference.offset > 0:
                with pytest.raises(KeyError):
                    certifier.writesets_since(reference.offset - 1)
        check_same_state(certifier, reference)
    assert certifier.stats.batches == batches
    return reference


@settings(max_examples=150, deadline=None)
@given(operations)
def test_certifier_matches_reference(ops):
    drive(Certifier(), ops)


@settings(max_examples=100, deadline=None)
@given(operations)
def test_replicated_log_matches_reference(ops):
    certifier = Certifier(backups=2)
    reference = drive(certifier, ops)
    # Every backup holds exactly the leader's log, aborted requests excluded.
    for backup in certifier.backups:
        check_backup = entries(backup.writesets_since(reference.offset))
        assert check_backup == entries(certifier.writesets_since(reference.offset))
        assert backup.current_version == reference.current_version
        assert backup._last_writer == reference.last_writers()
