"""KV subscription lifecycle: bounded pushes, prompt close, no leaks.

A subscription rides one dedicated client connection whose reader hands
pushed batches to a bounded queue.  These tests pin the two edges of
that handoff: a backlog replay larger than the queue arrives *before*
the SUBSCRIBE reply and must not wedge the reader, and closing a
subscription whose queue is full must unblock and reap the reader.
"""
from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.kvserver.server import KVServer
from repro.stream.kv import KVEventBus


def _resources() -> tuple[int, int]:
    """Live threads and open file descriptors of this process."""
    return threading.active_count(), len(os.listdir('/proc/self/fd'))


def _settles_to(baseline: tuple[int, int], within: float = 2.0) -> tuple[int, int]:
    deadline = time.monotonic() + within
    current = _resources()
    while current != baseline and time.monotonic() < deadline:
        time.sleep(0.02)
        current = _resources()
    return current


def test_backlog_larger_than_queue_arrives_before_reply(kv_server):
    bus = KVEventBus(
        kv_server.host, kv_server.port, retention=640, max_queued_batches=2,
    )
    topic = f'backlog-{id(bus)}'
    try:
        payloads = [b'e%d' % i for i in range(640)]
        bus.publish_batch(topic, payloads)
        # 640 retained events replay as 10 push frames ahead of the
        # SUBSCRIBE reply — five times the live queue bound.
        sub = bus.subscribe(topic, from_seq=0)
        assert sub._queue.maxsize == 2
        seen = []
        deadline = time.monotonic() + 30.0
        while len(seen) < 640 and time.monotonic() < deadline:
            seen.extend(sub.next_batch(timeout=1.0))
        assert [seq for seq, _ in seen] == list(range(640))
        assert [bytes(data) for _, data in seen] == payloads
        assert sub.lost == 0
        sub.close()
    finally:
        bus.close()


@pytest.mark.skipif(
    not os.path.isdir('/proc/self/fd'), reason='needs /proc/self/fd',
)
@pytest.mark.timeout(120)
def test_close_reaps_reader_even_with_full_queue_and_restart():
    server = KVServer()
    host, port = server.start()
    bus = KVEventBus(host, port, pool_size=1, max_queued_batches=2)
    topic = 'close-leak'
    # Frequent thread switches interleave close() with the reader's
    # hand-over of the pushes each cycle leaves undrained.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        bus.publish(topic, b'warm')  # open the pooled publish connection
        baseline = _resources()
        for cycle in range(20):
            sub = bus.subscribe(topic)
            bus.publish_batch(topic, [b'q'] * (cycle % 4))
            if cycle == 5:
                # Leave 20 pushes undrained: the queue fills and the
                # connection's reader blocks handing over the third.
                for i in range(20):
                    bus.publish(topic, b'p%d' % i)
                deadline = time.monotonic() + 5.0
                while not sub._queue.full() and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert sub._queue.full()
                time.sleep(0.1)
            if cycle == 10:
                # Same-port restart under a live subscription: its
                # connection dies and the next poll reconnects it.
                server.stop()
                server = KVServer(host, port)
                server.start()
                deadline = time.monotonic() + 10.0
                while not sub._conn.dead and time.monotonic() < deadline:
                    time.sleep(0.01)
                while sub._conn.dead and time.monotonic() < deadline:
                    sub.next_batch(timeout=0.5)
                assert not sub._conn.dead
            start = time.monotonic()
            sub.close()
            assert time.monotonic() - start < 0.5, f'close of cycle {cycle} was slow'
        bus.client.ping()  # the pooled connection is back after the restart
        assert _settles_to(baseline) == baseline
    finally:
        sys.setswitchinterval(switch_interval)
        bus.close()
        server.stop()
