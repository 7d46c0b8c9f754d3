"""Values sent as several pieces travel and are stored as one wire buffer.

A serialized array is three pieces in the sender's memory (ident byte,
``.npy`` header, data).  The client gathers them into one out-of-band
buffer on the wire, the server stores the buffer it received into as is,
and large buffers are received into uninitialized memory.  These tests
guard the three properties that must survive that: every path reads back
byte-equal, no stored value shares memory with another, and no byte of a
partly received buffer is ever visible.
"""
from __future__ import annotations

import queue
import random
import socket
import time
from itertools import count

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings
from hypothesis import strategies as st

from repro.kvserver import KVClient
from repro.kvserver import KVServer
from repro.kvserver.client import _Connection
from repro.kvserver.client import _wrap_value
from repro.kvserver.protocol import UNINITIALIZED_MIN
from repro.kvserver.protocol import encode_message
from repro.serialize import serialize
from repro.serialize.buffers import SerializedObject

_NAMES = count()

#: Piece sizes: empty, small, and large enough to cross UNINITIALIZED_MIN.
_PIECE_SIZE = st.one_of(
    st.just(0),
    st.integers(1, 200),
    st.integers(UNINITIALIZED_MIN - 100, 2 * UNINITIALIZED_MIN),
)
_SPLITS = st.tuples(
    st.lists(_PIECE_SIZE, min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)


def _pieces(sizes: list[int], seed: int) -> tuple[SerializedObject, bytes]:
    """A payload split into ``sizes`` pieces of mixed buffer types."""
    rng = random.Random(seed)
    raw = [rng.randbytes(size) for size in sizes]
    kinds = (bytes, bytearray, memoryview)
    pieces = [kinds[i % 3](piece) for i, piece in enumerate(raw)]
    return SerializedObject(pieces), b''.join(raw)


@pytest.fixture(scope='module')
def server():
    srv = KVServer()
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture(scope='module')
def client(server):
    cli = KVClient(server.host, server.port)
    yield cli
    cli.close()


@settings(max_examples=30, deadline=None)
@given(splits=st.lists(_SPLITS, min_size=1, max_size=3))
def test_gathered_values_read_back_byte_equal(server, client, splits):
    """SET/GET, MSET/MGET, PUBLISH, FETCH, live push and REPL_PUBLISH."""
    values = [_pieces(sizes, seed) for sizes, seed in splits]
    name = f'gathered-{next(_NAMES)}'
    keys = [f'{name}-{i}' for i in range(len(values))]

    for key, (value, expected) in zip(keys, values):
        client.set(key, value)
        assert bytes(client.get(key)) == expected
    client.mset([(f'm-{key}', value) for key, (value, _) in zip(keys, values)])
    got = client.mget([f'm-{key}' for key in keys])
    assert [bytes(v) for v in got] == [expected for _, expected in values]

    pushed: queue.Queue = queue.Queue()
    subscriber = _Connection(server.host, server.port, 10.0, on_push=pushed.put)
    try:
        status, _reply = subscriber.request(('SUBSCRIBE', name, {}), 10.0)
        assert status == 'ok'
        seqs = [client.publish(name, values[0][0])]
        seqs += client.publish_batch(name, [value for value, _ in values[1:]])
        live = []
        while len(live) < len(values):
            _topic, events = pushed.get(timeout=10.0)
            live.extend(events)
    finally:
        subscriber.close()
    assert [seq for seq, _ in live] == seqs
    assert [bytes(data) for _, data in live] == [e for _, e in values]
    fetched = client.fetch_events(name, 0)['events']
    assert [bytes(data) for _, data in fetched] == [e for _, e in values]

    replica = f'{name}-replica'
    reply = client.repl_publish(
        replica, [(seq, value) for seq, (value, _) in zip(seqs, values)],
    )
    assert reply['accepted'] == len(values)
    mirrored = client.fetch_events(replica, 0)['events']
    assert [bytes(data) for _, data in mirrored] == [e for _, e in values]


def test_serialized_array_is_one_length_table_entry():
    """Three sender pieces, one buffer length on the wire, same bytes."""
    value = serialize(np.arange(10_000, dtype=np.float32))
    assert isinstance(value, SerializedObject) and len(value.pieces) == 3
    segments = encode_message((0, 'SET', 'key', _wrap_value(value)))
    header = bytes(segments[0])
    assert int.from_bytes(header[4:8], 'big') == 1
    assert int.from_bytes(header[8:16], 'big') == value.nbytes
    assert len(header) == 16
    assert b''.join(segments[2:]) == bytes(value)


def test_mset_values_own_their_memory(server, client):
    """Each stored value is exactly its own bytes, in its own allocation."""
    sizes = [1, 100, UNINITIALIZED_MIN - 1, UNINITIALIZED_MIN, 3 * UNINITIALIZED_MIN]
    items = [
        (f'own-{size}', _pieces([1, 64, size], seed=size)[0]) for size in sizes
    ]
    client.mset(items)
    stored = [server._data[key] for key, _ in items]
    for (_key, value), data in zip(items, stored):
        assert len(data) == value.nbytes
        assert bytes(data) == bytes(value)
    arrays = [np.frombuffer(data, dtype=np.uint8) for data in stored]
    for i, left in enumerate(arrays):
        for right in arrays[i + 1:]:
            assert not np.shares_memory(left, right)
    # Large values arrive in uninitialized memory, small ones keep bytearray.
    assert isinstance(client.get('own-1'), bytearray)
    assert isinstance(client.get(f'own-{3 * UNINITIALIZED_MIN}'), memoryview)


def test_partial_frame_is_dropped_with_its_connection():
    """A cut-off 1 MiB buffer never becomes a value; the server carries on."""
    payload = random.Random(7).randbytes(1 << 20)
    segments = encode_message((0, 'SET', 'cut-off', _wrap_value(payload)))
    header, pickled, data = (bytes(s) for s in segments)
    assert int.from_bytes(header[8:16], 'big') == len(payload)
    server = KVServer()
    server.start()
    try:
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(header + pickled + data[: len(data) // 2])
            deadline = time.monotonic() + 5.0
            while not server._conns:  # accepted and reading the frame
                assert time.monotonic() < deadline
                time.sleep(0.005)
        while server._conns:  # the close was seen and the frame dropped
            assert time.monotonic() < deadline
            time.sleep(0.005)
        with KVClient(server.host, server.port) as client:
            assert client.ping()
            assert not client.exists('cut-off')
            client.set('cut-off', payload)
            got = client.get('cut-off')
            assert isinstance(got, memoryview)
            assert bytes(got) == payload
    finally:
        server.stop()
