"""Subscriber reconnect-resume: a broker restart must not lose the gap.

The satellite scenario for broker failover: a subscriber's push
connection dies when its broker goes down; the broker comes back on the
*same* port (here: a fresh server process whose ring is repopulated at
the original sequence numbers, exactly what ``REPL_PUBLISH`` mirroring
produces); the subscription reconnects from its cursor and the
SUBSCRIBE-time backfill delivers the missed events exactly once.
"""
from __future__ import annotations

import time

import pytest

from repro.kvserver.client import KVClient
from repro.kvserver.server import KVServer

TOPIC = 'reconnect-topic'


def _collect(subscription, count, deadline_s=30.0):
    """Drain ``count`` events from ``subscription`` (bounded wait)."""
    deadline = time.monotonic() + deadline_s
    events = []
    while len(events) < count:
        assert time.monotonic() < deadline, (
            f'only {len(events)}/{count} events before deadline'
        )
        events.extend(subscription.next_batch(timeout=1.0))
    return events


@pytest.mark.timeout(120)
def test_restarted_broker_backfills_cursor_gap_exactly_once():
    from repro.stream.kv import KVEventBus

    server = KVServer()
    host, port = server.start()

    bus = KVEventBus(host, port)
    payloads = [f'event-{i}'.encode() for i in range(10)]
    for payload in payloads[:5]:
        bus.publish(TOPIC, payload)

    subscription = bus.subscribe(TOPIC, from_seq=0)
    first = _collect(subscription, 5)
    assert [seq for seq, _ in first] == [0, 1, 2, 3, 4]
    assert subscription.position == 5

    # The broker dies and restarts on the same port.  Its replacement's
    # ring is repopulated at the ORIGINAL sequence numbers — the same
    # explicit-seq REPL_PUBLISH path replicas use to mirror a primary.
    server.stop()
    restarted = KVServer(host, port)
    restarted.start()
    try:
        mirror = KVClient(host, port)
        mirror.repl_publish(
            TOPIC,
            [(seq, payloads[seq]) for seq in range(5, 10)],
        )
        mirror.close()

        # The subscription notices the dead connection, reconnects with
        # backoff, and the cursor-driven SUBSCRIBE backfills 5..9.
        gap = _collect(subscription, 5)
        assert [seq for seq, _ in gap] == [5, 6, 7, 8, 9]
        assert [bytes(data) for _seq, data in gap] == payloads[5:]
        assert subscription.position == 10
        assert subscription.lost == 0
        # Exactly once: no event delivered twice across the restart.
        all_seqs = [seq for seq, _ in first + gap]
        assert len(all_seqs) == len(set(all_seqs)) == 10
    finally:
        subscription.close()
        bus.close()
        restarted.stop()


@pytest.mark.timeout(60)
def test_coordinator_rides_out_a_restarting_unreplicated_broker():
    """Group calls retry a restarting broker like publishes on the router do."""
    import threading

    from repro.stream.groups import GroupCoordinator
    from repro.stream.groups import PartitionRouter
    from repro.stream.kv import KVEventBus

    server = KVServer()
    host, port = server.start()
    bus = KVEventBus(host, port)
    router = PartitionRouter('restart-topic', 2, bus)
    coordinator = GroupCoordinator('restart-group', router)
    restarted = KVServer(host, port)
    try:
        coordinator.join('m0', 30.0)
        server.stop()
        timer = threading.Timer(0.3, restarted.start)
        timer.start()
        view = coordinator.join('m1', 30.0)
        timer.join(timeout=10.0)
        assert not timer.is_alive()
        assert 'm1' in view['members']
        assert coordinator.failovers == 0
    finally:
        bus.close()
        restarted.stop()


@pytest.mark.timeout(60)
def test_group_consumer_close_does_not_wait_out_a_dead_broker():
    """Leaving is best effort: a dead broker costs one owner walk, no backoff."""
    import repro
    from repro.stream.groups import GroupConsumer
    from repro.stream.groups import GroupCoordinator
    from repro.stream.groups import PartitionRouter
    from repro.stream.kv import KVEventBus

    server = KVServer()
    host, port = server.start()
    store = repro.store_from_url('local:///dead-broker-leave-store')
    bus = KVEventBus(host, port)
    try:
        # With the broker up, a leave bumps the generation at once.
        coordinator = GroupCoordinator(
            'leave-group', PartitionRouter('leave-topic', 2, bus),
        )
        coordinator.join('m0', 30.0)
        joined = coordinator.join('m1', 30.0)
        coordinator.leave('m1', {})
        view = coordinator.stats()
        assert view['generation'] == joined['generation'] + 1
        assert view['members'] == ['m0']

        consumer = GroupConsumer(
            store, KVEventBus(host, port), 'dead-topic', group='dead-group',
            partitions=2, member='m0', session_timeout=30.0,
        )
        consumer.refresh()
        server.stop()
        started = time.monotonic()
        consumer.close()
        elapsed = time.monotonic() - started
        assert elapsed < 0.3, f'close() took {elapsed:.3f}s on a dead broker'
    finally:
        bus.close()
        server.stop()
        store.close(clear=True)
