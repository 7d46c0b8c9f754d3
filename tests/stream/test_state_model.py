"""Model test: the in-process bus and the SimKV broker agree op for op.

A ``hypothesis`` state machine drives a :class:`LocalEventBus` and a
:class:`KVEventBus` (one module-scoped :class:`KVServer`) through the same
operation sequence and compares every observable result:

* topic operations — publish, publish_batch, configure_topic with small
  retentions, subscribe from ``None``/``0``/mid-ring and drain to
  ``next_seq`` (seqs, payloads, ``lost``, ``position``), and the
  ``topic_stats`` keys both transports report;
* group operations with leases far longer than the test — join,
  heartbeat, leave, commit, fetch and stats — through a
  :class:`GroupCoordinator` per transport, comparing every reply (or the
  exception type raised).

Both transports run the one sans-IO copy of these rules
(:mod:`repro.kvserver.state`); the unit tests at the end drive it
directly with an explicit clock.
"""
from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import HealthCheck
from hypothesis import given
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine
from hypothesis.stateful import invariant
from hypothesis.stateful import rule
from hypothesis.stateful import run_state_machine_as_test

from repro.exceptions import GroupMembershipError
from repro.kvserver.server import KVServer
from repro.kvserver.state import GroupState
from repro.kvserver.state import TopicLog
from repro.stream import KVEventBus
from repro.stream import LocalEventBus
from repro.stream.bus import DEFAULT_LOCAL_RETENTION
from repro.stream.groups import GroupCoordinator
from repro.stream.groups import PartitionRouter

_COUNTER = itertools.count()

#: Member lease: long enough that nothing expires during a run.
_LEASE = 120.0
_MEMBERS = ('m0', 'm1', 'm2')
_PARTITIONS = 2

#: topic_stats keys both transports report.
_COMMON_STATS = ('next_seq', 'ring_events', 'ring_bytes', 'retention', 'dropped_events')

_payloads = st.binary(max_size=24)
_member = st.sampled_from(_MEMBERS)
_seq_map = st.dictionaries(
    st.sampled_from([f'p{i}' for i in range(_PARTITIONS)]),
    st.integers(min_value=0, max_value=40),
    max_size=_PARTITIONS,
)


@pytest.fixture(scope='module')
def model_server():
    """The SimKV broker behind every KV-side run of the model."""
    server = KVServer(stream_retention=256)
    server.start()
    yield server
    server.stop()


def _outcome(call):
    """``('ok', result)`` or ``('raise', exception type name)``."""
    try:
        return ('ok', call())
    except Exception as e:  # noqa: BLE001 - the type is the compared outcome
        return ('raise', type(e).__name__)


def _drain(sub, target: int) -> list[tuple[int, bytes]]:
    """Read ``sub`` until its position reaches ``target`` (bounded wait)."""
    received: list[tuple[int, bytes]] = []
    deadline = time.monotonic() + 10.0
    while sub.position < target:
        assert time.monotonic() < deadline, f'drain stalled at {sub.position}/{target}'
        received.extend((seq, bytes(data)) for seq, data in sub.next_batch(timeout=0.5))
    return received


class BusModel(RuleBasedStateMachine):
    """Both transports, one topic and one group per run."""

    def __init__(self, server: KVServer) -> None:
        super().__init__()
        run = next(_COUNTER)
        self.topic = f'model-topic-{run}'
        self.buses = (
            LocalEventBus(f'model-bus-{run}'),
            KVEventBus(server.host, server.port, pool_size=1),
        )
        self.coordinators = tuple(
            GroupCoordinator(f'model-group-{run}', PartitionRouter(self.topic, 1, bus))
            for bus in self.buses
        )

    def teardown(self) -> None:
        for bus in self.buses:
            bus.close()

    @staticmethod
    def _same(handles, call) -> None:
        """Run ``call`` on the local and the KV handle; the outcomes must match."""
        local, kv = (_outcome(lambda h=h: call(h)) for h in handles)
        assert local == kv, f'local {local!r} != kv {kv!r}'

    def _local_stats(self) -> dict:
        return self.buses[0].topic_stats(self.topic) or {
            'next_seq': 0, 'ring_events': 0, 'retention': DEFAULT_LOCAL_RETENTION,
        }

    # -- topic operations --------------------------------------------------- #
    @rule(payload=_payloads)
    def publish(self, payload):
        self._same(self.buses, lambda bus: bus.publish(self.topic, payload))

    @rule(payloads=st.lists(_payloads, max_size=6))
    def publish_batch(self, payloads):
        self._same(self.buses, lambda bus: bus.publish_batch(self.topic, payloads))

    @rule(retention=st.integers(min_value=1, max_value=8))
    def configure_topic(self, retention):
        self._same(self.buses, lambda bus: bus.configure_topic(self.topic, retention=retention))

    @rule(start=st.sampled_from(['head', 'zero', 'mid']), offset=st.integers(0, 10))
    def subscribe_and_drain(self, start, offset):
        stats = self._local_stats()
        first = stats['next_seq'] - stats['ring_events']
        from_seq = {
            'head': None,
            'zero': 0,
            'mid': min(first + offset, stats['next_seq']),
        }[start]
        subs = [bus.subscribe(self.topic, from_seq=from_seq) for bus in self.buses]
        try:
            opened = [(sub.position, sub.lost) for sub in subs]
            assert opened[0] == opened[1], f'after subscribe: local {opened[0]} != kv {opened[1]}'
            if start == 'head':
                # Live events only: no more than the ring holds, so the
                # local reader (ring) and the KV reader (pushes) both see all.
                extra = [b'live-%d' % i for i in range(min(offset, self._local_stats()['retention']))]
                self._same(self.buses, lambda bus: bus.publish_batch(self.topic, extra))
            target = self._local_stats()['next_seq']
            drained = [_drain(sub, target) for sub in subs]
            assert drained[0] == drained[1]
            closed = [(sub.position, sub.lost) for sub in subs]
            assert closed[0] == closed[1], f'after drain: local {closed[0]} != kv {closed[1]}'
        finally:
            for sub in subs:
                sub.close()

    @invariant()
    def topic_stats_agree(self):
        local, kv = (bus.topic_stats(self.topic) for bus in self.buses)
        if local is None or kv is None:
            assert local is None and kv is None
            return
        assert {k: local[k] for k in _COMMON_STATS} == {k: kv[k] for k in _COMMON_STATS}

    # -- group operations --------------------------------------------------- #
    def _partition(self, seqs: dict) -> dict:
        return {f'{self.topic}.{k}': v for k, v in seqs.items()}

    @rule(member=_member)
    def join(self, member):
        self._same(self.coordinators, lambda c: c.join(member, session_timeout=_LEASE))

    @rule(member=_member, positions=_seq_map, ends=_seq_map)
    def heartbeat(self, member, positions, ends):
        self._same(
            self.coordinators,
            lambda c: c.heartbeat(member, self._partition(positions), self._partition(ends)),
        )

    @rule(member=_member, positions=_seq_map)
    def leave(self, member, positions):
        self._same(self.coordinators, lambda c: c.leave(member, self._partition(positions)))

    @rule(member=_member, offsets=_seq_map, positions=_seq_map, ends=_seq_map)
    def commit(self, member, offsets, positions, ends):
        self._same(
            self.coordinators,
            lambda c: c.commit(
                member, self._partition(offsets), self._partition(positions),
                self._partition(ends),
            ),
        )

    @rule(which=st.lists(st.integers(0, _PARTITIONS - 1), max_size=_PARTITIONS))
    def fetch(self, which):
        topics = list(self._partition({f'p{i}': 0 for i in which}))
        self._same(self.coordinators, lambda c: c.fetch(topics))

    @rule()
    def stats(self):
        self._same(self.coordinators, lambda c: c.stats())


def test_local_and_kv_transports_match_the_model(model_server):
    run_state_machine_as_test(
        lambda: BusModel(model_server),
        settings=settings(
            max_examples=50,
            stateful_step_count=30,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )


# --------------------------------------------------------------------------- #
# The sans-IO state machines, driven with an explicit clock
# --------------------------------------------------------------------------- #
def test_group_expiry_follows_the_injected_clock():
    group = GroupState()
    group.join('quiet', 1.0, now=0.0)
    view = group.join('alive', 5.0, now=0.0)
    assert view == {'generation': 2, 'members': ['alive', 'quiet']}
    # A deadline is inclusive: at exactly now == deadline the member lives.
    assert group.heartbeat('alive', now=1.0)['members'] == ['alive', 'quiet']
    assert group.heartbeat('alive', now=1.5) == {'generation': 3, 'members': ['alive']}
    with pytest.raises(GroupMembershipError):
        group.heartbeat('quiet', now=1.5)
    # The heartbeat at 1.5 renewed 'alive' until 6.5; a commit renews too.
    group.commit('alive', {'t': 2}, now=6.5)
    assert group.stats(now=11.5)['members'] == ['alive']
    stats = group.stats(now=11.6)
    assert stats['members'] == [] and stats['generation'] == 4
    assert stats['expired_members'] == 2
    assert stats['committed'] == {'t': 2}


_offsets = st.dictionaries(st.sampled_from(['t0', 't1']), st.integers(0, 50), max_size=2)
_delta = st.fixed_dictionaries(
    {
        'op': st.sampled_from(['join', 'heartbeat', 'commit', 'leave']),
        'member': st.sampled_from(['', 'a', 'b']),
        'generation': st.integers(0, 20),
        'offsets': _offsets,
        'positions': _offsets,
    },
    optional={'session_timeout': st.floats(1.0, 100.0)},
)


@settings(max_examples=60, deadline=None)
@given(deltas=st.lists(_delta, max_size=12), rnd=st.randoms(use_true_random=False))
def test_merge_is_monotonic_and_order_free(deltas, rnd):
    group = GroupState()
    for delta in deltas:
        before = (group.generation, dict(group.committed), dict(group.watermarks))
        group.merge(delta, now=0.0)
        assert group.generation >= before[0]
        assert all(group.committed[t] >= v for t, v in before[1].items())
        assert all(group.watermarks[t] >= v for t, v in before[2].items())
    # Late, duplicated and reordered deltas converge on the same offsets
    # and generation: the max over everything seen.
    shuffled = list(deltas) * 2
    rnd.shuffle(shuffled)
    replica = GroupState()
    for delta in shuffled:
        replica.merge(delta, now=0.0)
    assert replica.generation == group.generation == max(
        (d['generation'] for d in deltas), default=0,
    )
    assert replica.committed == group.committed
    assert replica.watermarks == group.watermarks


def test_topic_log_reads_a_gapped_replica_ring_up_to_limit():
    log = TopicLog(retention=4)
    accepted = [log.append_at(seq, b'e%d' % seq) for seq in (3, 5, 4, 7, 5)]
    assert accepted == [True, True, True, True, False]
    assert log.next_seq == 8

    def seqs(since, limit=None):
        events, lost = log.events_since(since, limit)
        return [seq for seq, _ in events], lost

    assert seqs(5) == ([5, 7], 0)
    assert seqs(6) == ([7], 0)
    assert seqs(4, limit=2) == ([4, 5], 0)
    assert seqs(0, limit=1) == ([3], 3)
    assert seqs(9) == ([], 0)
    log.append_at(8, b'e8')
    assert seqs(0) == ([4, 5, 7, 8], 4)
    assert log.stats() == {
        'next_seq': 9, 'ring_events': 4, 'ring_bytes': 8, 'retention': 4,
        'dropped_events': 1,
    }
    log.set_retention(1)
    assert seqs(0) == ([8], 8)
