"""Wire protocol shared by the SimKV server and client.

Messages are framed as::

    uint32 pickle_len | uint32 n_buffers | n_buffers x uint64 buffer_len
    pickle bytes | buffer 0 | ... | buffer n-1

The pickle section is produced with protocol 5 and a ``buffer_callback``:
any :class:`pickle.PickleBuffer` inside the message (the payload of a
``SET``/``MSET``/``PUBLISH``, response values of a ``GET``/``MGET``)
travels *out of band* — its bytes are never copied into the pickle stream.
A value the sender holds as several pieces (a serialized array's ident
byte, ``.npy`` header and data) is one length-table entry: it is wrapped
with :func:`wire_buffer`, and the entry's bytes are gathered from the
pieces by the same scatter/gather (``sendmsg``) loop that sends header and
pickle, so neither end joins them.  The receiver reads each buffer with
``recv_into`` straight into fresh memory of its own and hands it to
``pickle.loads``: a ``bytearray`` below :data:`UNINITIALIZED_MIN` bytes,
above it uninitialized memory (a ``memoryview`` over ``numpy.empty``),
which is never zero-filled and reaches pickle only once ``recv_into`` has
filled all of it.  A frame cut short is dropped with its connection.

Requests are ``(request_id, command, key, value)`` tuples; responses are
``(request_id, status, payload)`` tuples where ``status`` is ``'ok'`` or
``'error'``.  Request ids let many requests share one connection: a
pipelined client tags each request and a reader thread matches responses
back to waiters, so the transport no longer serializes round trips.
Pickle is acceptable here because both ends are this library (SimKV is an
internal substrate, not an internet-facing service).

One decoder serves the receive side: :class:`StreamDecoder`, an
incremental state machine that reads every fill target straight into
pre-sized memory.  The event-loop server feeds it from non-blocking
sockets (:meth:`~StreamDecoder.read_from`); the client connection's
reader thread blocks on it (:meth:`~StreamDecoder.read_message`).
:func:`recv_message` is that blocking read for tests and benchmarks that
speak the wire directly.
"""
from __future__ import annotations

import pickle
import socket
import struct
from typing import Any
from typing import Sequence

import numpy as np

from repro.serialize.buffers import vectored_write

__all__ = [
    'COMMANDS',
    'EVENT_STATUS',
    'GROUP_COMMANDS',
    'MAX_FRAME_BYTES',
    'REPL_COMMANDS',
    'STREAM_COMMANDS',
    'StreamDecoder',
    'UNINITIALIZED_MIN',
    'encode_message',
    'recv_message',
    'send_message',
    'wire_buffer',
]

#: Pub/sub commands (stream event transport): see repro.stream.kv.  The
#: server dispatches these to its broker handler, so they live here, next
#: to COMMANDS, as the single source of truth.
STREAM_COMMANDS = frozenset({
    'PUBLISH', 'MPUBLISH', 'SUBSCRIBE', 'UNSUBSCRIBE', 'FETCH',
    'TSTATS', 'TCONFIG',
})

#: Consumer-group commands (see repro.stream.groups): membership with
#: heartbeat-timeout expiry plus per-partition committed offsets and
#: delivered watermarks, all held by the group's designated broker.
GROUP_COMMANDS = frozenset({
    'GROUP_JOIN', 'GROUP_LEAVE', 'GROUP_HEARTBEAT',
    'OFFSET_COMMIT', 'OFFSET_FETCH', 'GROUP_STATS',
})

#: Replication commands (broker failover, see repro.stream.failover):
#: clients mirror a partition topic's retention ring (REPL_PUBLISH carries
#: events *with explicit sequence numbers*) and the group coordinator's
#: state (REPL_GROUP carries a lenient, monotonic state delta) onto the
#: hash-ring successor brokers, so a replica can take over with the same
#: sequence numbering and committed offsets when the primary dies.
REPL_COMMANDS = frozenset({'REPL_PUBLISH', 'REPL_GROUP'})

#: Commands understood by the server.
COMMANDS = frozenset({
    'SET', 'GET', 'EXISTS', 'DEL', 'FLUSH', 'PING', 'SIZE', 'SHUTDOWN',
    'MSET', 'MGET', 'MDEL',
}) | STREAM_COMMANDS | GROUP_COMMANDS | REPL_COMMANDS

#: ``status`` value of a server-initiated push frame (not a response to any
#: request): ``(None, EVENT_STATUS, (topic, [(seq, payload), ...]))``.
#: Only connections that issued a SUBSCRIBE ever receive these.
EVENT_STATUS = 'EVENT'

_HEADER = struct.Struct('>II')
_U64 = struct.Struct('>Q')

#: Defensive bound on one frame (pickle stream + out-of-band buffers).
#: Real payloads are far smaller; without it a corrupt or desynchronized
#: stream could drive multi-GB allocations straight from wire headers.
MAX_FRAME_BYTES = 1 << 34  # 16 GiB
_MAX_BUFFERS = 1 << 20

#: Out-of-band buffers of at least this many bytes are received into
#: uninitialized memory.  Zero-filling a 10 MiB ``bytearray`` costs about
#: half a millisecond that ``numpy.empty`` skips; below this size a
#: ``bytearray`` is the cheaper allocation.
UNINITIALIZED_MIN = 64 * 1024


def _check_frame(pickle_len: int, n_buffers: int, buffer_bytes: int = 0) -> None:
    """Reject frame dimensions no legitimate sender produces."""
    if n_buffers > _MAX_BUFFERS or pickle_len + buffer_bytes > MAX_FRAME_BYTES:
        raise ValueError(
            f'corrupt or oversized SimKV frame: pickle_len={pickle_len}, '
            f'n_buffers={n_buffers}, buffer_bytes={buffer_bytes}',
        )


class _Gathered(bytearray):
    """An empty stand-in for one out-of-band buffer made of several pieces.

    A ``bytearray`` so that :class:`pickle.PickleBuffer` accepts it;
    :func:`encode_message` finds it again through ``raw().obj`` and puts
    ``pieces`` on the wire under one length-table entry of ``nbytes``.
    """

    __slots__ = ('pieces', 'nbytes')


def wire_buffer(pieces: Sequence[memoryview]) -> pickle.PickleBuffer:
    """Wrap a value's non-empty byte pieces as *one* out-of-band buffer.

    The pieces stay in the caller's memory until the frame is sent; the
    receiver gets them as a single contiguous buffer.
    """
    if len(pieces) == 1:
        return pickle.PickleBuffer(pieces[0])
    gathered = _Gathered()
    gathered.pieces = list(pieces)
    gathered.nbytes = sum(piece.nbytes for piece in pieces)
    return pickle.PickleBuffer(gathered)


def encode_message(message: Any) -> list[memoryview]:
    """Pickle ``message`` (buffers out-of-band) into wire-order segments.

    ``PickleBuffer``-wrapped segments inside ``message`` are *aliased*, not
    copied: the returned list holds views over the caller's memory, ready
    for one scatter/gather send (or an event loop's outgoing queue).  A
    :func:`wire_buffer` of several pieces contributes all of them under
    one buffer length.
    """
    pickle_buffers: list[pickle.PickleBuffer] = []
    payload = pickle.dumps(
        message, protocol=5, buffer_callback=pickle_buffers.append,
    )
    # Out-of-band buffers come from wire_buffer()/PickleBuffer wrapping of
    # flat byte views, so raw() cannot fail with BufferError here (pickle
    # itself rejects non-contiguous PickleBuffers even in-band).
    lengths: list[bytes] = []
    buffers: list[memoryview] = []
    for pickle_buffer in pickle_buffers:
        raw = pickle_buffer.raw()
        if isinstance(raw.obj, _Gathered):
            lengths.append(_U64.pack(raw.obj.nbytes))
            buffers.extend(raw.obj.pieces)
        else:
            lengths.append(_U64.pack(raw.nbytes))
            buffers.append(raw)
    header = b''.join([_HEADER.pack(len(payload), len(lengths)), *lengths])
    return [memoryview(header), memoryview(payload), *buffers]


def send_message(sock: socket.socket, message: Any) -> None:
    """Pickle ``message`` (buffers out-of-band) and send it with one frame."""
    vectored_write(sock.sendmsg, encode_message(message))


def recv_message(sock: socket.socket) -> Any | None:
    """Blocking receive of one framed message; ``None`` on a closed peer."""
    return StreamDecoder().read_message(sock)


# --------------------------------------------------------------------------- #
# Incremental decoding
# --------------------------------------------------------------------------- #
_STAGE_HEADER = 0
_STAGE_LENGTHS = 1
_STAGE_PICKLE = 2
_STAGE_BUFFERS = 3

_NO_MESSAGE = object()


def _receive_buffer(length: int) -> 'bytearray | memoryview':
    """Fresh memory for one out-of-band buffer of ``length`` bytes.

    Large buffers are left uninitialized: the decoder fills every byte
    with ``recv_into`` before pickle sees the buffer.  Each buffer is its
    own allocation, so no received value shares memory with another.
    """
    if length >= UNINITIALIZED_MIN:
        return memoryview(np.empty(length, dtype=np.uint8))
    return bytearray(length)


class StreamDecoder:
    """Incremental frame decoder: the one receive path of both ends.

    The decoder keeps exactly one fill target at a time (frame header,
    buffer-length table, pickle bytes, or the current out-of-band buffer)
    and reads into it with ``recv_into`` — one allocation per target, no
    joins.  Out-of-band buffers are ``bytearray`` objects below
    :data:`UNINITIALIZED_MIN` bytes and uninitialized ``memoryview``
    objects above it.  It is restartable at any byte boundary, so a single
    event-loop thread can interleave many non-blocking connections
    (:meth:`read_from`), and a client reader thread blocks on one
    (:meth:`read_message`).
    """

    __slots__ = (
        '_stage', '_target', '_filled',
        '_pickle', '_buffers', '_buffer_index',
    )

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._stage = _STAGE_HEADER
        self._target = memoryview(bytearray(_HEADER.size))
        self._filled = 0
        self._pickle: bytearray | None = None
        self._buffers: list[bytearray | memoryview] = []
        self._buffer_index = 0

    def _begin(self, stage: int, size: int) -> None:
        self._stage = stage
        self._target = memoryview(bytearray(size))
        self._filled = 0

    def _next_buffer_stage(self) -> Any:
        """Advance to the next non-empty out-of-band buffer (or finish)."""
        while self._buffer_index < len(self._buffers):
            buffer = self._buffers[self._buffer_index]
            if len(buffer):
                self._stage = _STAGE_BUFFERS
                self._target = memoryview(buffer)
                self._filled = 0
                return _NO_MESSAGE
            self._buffer_index += 1
        return self._finish()

    def _finish(self) -> Any:
        assert self._pickle is not None
        message = pickle.loads(self._pickle, buffers=self._buffers)
        self._reset()
        return message

    def _advance(self) -> Any:
        """Handle a completely filled target; returns a message when done."""
        if self._stage == _STAGE_HEADER:
            pickle_len, n_buffers = _HEADER.unpack(self._target)
            _check_frame(pickle_len, n_buffers)
            self._pickle = bytearray(pickle_len)
            if n_buffers:
                self._begin(_STAGE_LENGTHS, _U64.size * n_buffers)
            else:
                self._stage = _STAGE_PICKLE
                self._target = memoryview(self._pickle)
                self._filled = 0
            return _NO_MESSAGE
        if self._stage == _STAGE_LENGTHS:
            raw = self._target
            lengths = [
                _U64.unpack_from(raw, i * _U64.size)[0]
                for i in range(len(raw) // _U64.size)
            ]
            assert self._pickle is not None
            _check_frame(len(self._pickle), len(lengths), sum(lengths))
            self._buffers = [_receive_buffer(length) for length in lengths]
            self._stage = _STAGE_PICKLE
            self._target = memoryview(self._pickle)
            self._filled = 0
            return _NO_MESSAGE
        if self._stage == _STAGE_PICKLE:
            if self._buffers:
                self._buffer_index = 0
                return self._next_buffer_stage()
            return self._finish()
        # _STAGE_BUFFERS: current buffer filled, move to the next one.
        self._buffer_index += 1
        return self._next_buffer_stage()

    def read_message(
        self,
        sock: socket.socket,
        on_bytes: Any = None,
    ) -> Any | None:
        """Blocking receive of one message; ``None`` on a closed peer.

        ``on_bytes(n)`` is invoked after every successful ``recv_into`` so a
        caller can observe byte-level progress (e.g. to distinguish a large
        transfer that is still streaming from a dead connection).
        """
        while True:
            received = sock.recv_into(self._target[self._filled:])
            if received == 0:
                return None
            if on_bytes is not None:
                on_bytes(received)
            self._filled += received
            if self._filled == len(self._target):
                message = self._advance()
                if message is not _NO_MESSAGE:
                    return message

    def read_from(self, sock: socket.socket) -> tuple[list[Any], bool]:
        """Drain readable bytes from ``sock``; returns ``(messages, closed)``.

        Reads until the socket would block (``messages`` holds every frame
        completed by the drained bytes) or the peer closes/errors
        (``closed`` is True; partially received frames are discarded).
        """
        messages: list[Any] = []
        while True:
            try:
                received = sock.recv_into(self._target[self._filled:])
            except (BlockingIOError, InterruptedError):
                return messages, False
            except OSError:
                return messages, True
            if received == 0:
                return messages, True
            self._filled += received
            if self._filled == len(self._target):
                message = self._advance()
                if message is not _NO_MESSAGE:
                    messages.append(message)
