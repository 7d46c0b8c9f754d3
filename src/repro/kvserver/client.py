"""Pipelined, multiplexing client for the SimKV server.

Earlier revisions held one socket behind a lock, so every request paid a
full round trip before the next could start and N threads sharing a client
(the normal situation: one connector instance per Store) ran at 1/N of the
wire's capability.  This client removes that serialization:

* Every request carries a **request id**; a reader thread per connection
  receives response frames and hands each to the waiter registered under
  its id.  Many requests from many threads are therefore *in flight on one
  connection at once* — the send path only locks long enough to write the
  frame (the pickling happens outside the lock).
* A small **connection pool** (``pool_size``) spreads requests round-robin
  across sockets, so a large transfer streaming down one connection does
  not head-of-line block small operations, and sharded transfers to one
  node get true parallel streams.
* A request that fails because a pooled connection went stale (the server
  restarted, an idle socket was torn down) is transparently **retried
  once** on a fresh connection — SimKV commands are idempotent, so a
  reconnectable failure no longer surfaces as a ``ConnectorError``.
* The same connection type carries **stream subscriptions**
  (:mod:`repro.stream.kv`): a subscriber opens one outside the pool with
  a push handler, and the reader hands the broker's ``EVENT`` frames to
  it instead of a waiter.

Payload values are transmitted zero-copy: :meth:`KVClient.set` wraps the
payload's segments as one out-of-band wire buffer
(:func:`~repro.kvserver.protocol.wire_buffer`), so the wire protocol
scatter/gathers them straight from the caller's memory without building an
intermediate copy, and the server receives the value as one buffer it
stores as is.  ``get`` returns the buffer received by the reader thread,
again without a defensive copy: a ``memoryview`` or a ``bytearray``.
Values of at least :data:`~repro.kvserver.protocol.UNINITIALIZED_MIN`
bytes arrive as a ``memoryview`` over fresh memory that was never
zero-filled.
"""
from __future__ import annotations

import socket
import struct
import threading
import time
from typing import Any
from typing import Callable
from typing import Iterable
from typing import Sequence

from repro.exceptions import ConnectorError
from repro.exceptions import NodeUnavailableError
from repro.faults import injection
from repro.faults.retry import RetryPolicy
from repro.kvserver.protocol import EVENT_STATUS
from repro.kvserver.protocol import StreamDecoder
from repro.kvserver.protocol import encode_message
from repro.kvserver.protocol import wire_buffer
from repro.serialize.buffers import SerializedObject
from repro.serialize.buffers import segments_of
from repro.serialize.buffers import vectored_write

__all__ = ['DEFAULT_POOL_SIZE', 'DEFAULT_TIMEOUT', 'KVClient']

#: Default number of pooled connections per client.  Two keeps small
#: operations flowing while a bulk transfer occupies the other socket;
#: sharded DIM transfers raise it per node for parallel streams.
DEFAULT_POOL_SIZE = 2

#: Default per-request inactivity bound (seconds), shared by every
#: connector that builds a :class:`KVClient`.
DEFAULT_TIMEOUT = 10.0


def _wrap_value(data: 'bytes | bytearray | memoryview | SerializedObject') -> list:
    """A payload as the one-buffer list the server stores (empty if no bytes)."""
    segments = segments_of(data)
    return [wire_buffer(segments)] if segments else []


class _StaleConnectionError(Exception):
    """A pooled connection died under a request (candidate for one retry)."""


class _Pending:
    """A waiter for one in-flight request."""

    __slots__ = ('event', 'result', 'error')

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: tuple[Any, Any] | None = None
        self.error: Exception | None = None


class _Connection:
    """One SimKV socket: a send lock, a reader thread, and in-flight waiters.

    The reader thread is the only consumer of the socket; it dispatches
    each ``(request_id, status, payload)`` response to the matching waiter.
    Sends are serialized by ``_send_lock`` but *responses are not awaited
    under it*, which is what allows pipelining.

    ``on_push`` makes this a subscription connection: the reader hands the
    payload of every server-initiated ``EVENT`` frame to it, and calls
    ``on_push(None)`` once when the connection dies.  A failed connect
    raises :class:`~repro.exceptions.NodeUnavailableError`, so callers know
    the node itself is unreachable rather than the request being bad.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float,
        on_push: Callable[[Any], None] | None = None,
    ) -> None:
        self._addr = (host, port)
        self._on_push = on_push
        try:
            injection.on_connect(host, port)  # fault seam: refuse/latency
            self.sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as e:
            raise NodeUnavailableError(
                f'cannot connect to SimKV server at {host}:{port}: {e}',
            ) from e
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # The reader thread owns all receives and blocks until frames
        # arrive; request waits are bounded client-side by *inactivity*
        # (see request()), so recv never times out.  Sends are bounded in
        # the kernel instead (SO_SNDTIMEO does not affect recv): a server
        # that stops reading makes sendmsg fail after ~timeout rather than
        # blocking the sender (and _send_lock) forever.
        self.sock.settimeout(None)
        try:
            self.sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_SNDTIMEO,
                struct.pack('ll', int(timeout), int((timeout % 1.0) * 1e6)),
            )
        except (OSError, ValueError):  # pragma: no cover - niche platforms
            pass
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._next_id = 0
        self.dead = False
        self.dead_error: Exception | None = None
        #: Monotonic timestamp of the last bytes received — a large response
        #: that is still streaming keeps refreshing this, so waiters do not
        #: time out on transfers that are making progress.
        self.last_activity = time.monotonic()
        self._reader = threading.Thread(
            target=self._read_loop, name='simkv-client-reader', daemon=True,
        )
        self._reader.start()

    # -- receive side ------------------------------------------------------ #
    def _touch(self, _nbytes: int) -> None:
        self.last_activity = time.monotonic()

    def _read_loop(self) -> None:
        decoder = StreamDecoder()
        on_push = self._on_push
        while True:
            try:
                message = decoder.read_message(self.sock, on_bytes=self._touch)
            # repro: ignore[RP004] - not swallowed: _fail() delivers the
            # error to every waiter and poisons the connection
            except Exception as e:  # noqa: BLE001 - any failure kills the conn
                self._fail(e)
                return
            if message is None:
                self._fail(ConnectionError('SimKV server closed the connection'))
                return
            try:
                request_id, status, payload = message
            except (TypeError, ValueError):
                self._fail(ConnectorError(f'malformed SimKV response: {message!r}'))
                return
            if on_push is not None and status == EVENT_STATUS:
                on_push(payload)
                continue
            with self._state_lock:
                pending = self._pending.pop(request_id, None)
            if pending is not None:
                pending.result = (status, payload)
                pending.event.set()

    def _fail(self, error: Exception) -> None:
        """Mark the connection dead and wake every in-flight waiter."""
        # Strip the traceback before storing: a kept traceback pins the
        # failing frame — including wire segments whose memoryviews still
        # hold pickle buffer exports.  A reference cycle through such a
        # view makes the GC's tp_clear raise BufferError and can abort
        # the whole process.
        error = error.with_traceback(None)
        with self._state_lock:
            if self.dead:
                return
            self.dead = True
            self.dead_error = error
            pending, self._pending = self._pending, {}
        for waiter in pending.values():
            waiter.error = error
            waiter.event.set()
        if self._on_push is not None:
            self._on_push(None)
        # shutdown() (unlike a bare close()) reliably wakes a reader thread
        # blocked in recv so join_reader() returns promptly.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - platform dependent
            pass

    def join_reader(self, timeout: float = 2.0) -> None:
        """Wait for the reader thread to exit (after :meth:`_fail`).

        Leaving the daemon reader alive at interpreter shutdown can crash
        teardown (it may hold buffer exports over memory being finalized),
        so :meth:`KVClient.close` joins it.  A reader joining itself (a
        failure detected *on* the reader thread) is skipped.
        """
        if self._reader is not threading.current_thread():
            try:
                self._reader.join(timeout=timeout)
            except RuntimeError:  # pragma: no cover - interpreter shutdown
                # join() can refuse during interpreter teardown (daemon
                # threads are being finalized); close() must stay safe to
                # call from __del__ at that point.
                pass

    # -- send side --------------------------------------------------------- #
    def request(self, message_tail: tuple, timeout: float | None) -> tuple[Any, Any]:
        """Issue one request and wait for its response.

        ``timeout`` bounds *inactivity*, not total duration: as long as the
        connection keeps receiving bytes (a large response streaming in, or
        other pipelined responses), the wait continues — matching the
        per-``recv`` socket timeout of the pre-pipelining client.

        Raises ``_StaleConnectionError`` when the connection died (before,
        during, or after the send) — the caller may retry on a fresh one.
        """
        waiter = _Pending()
        with self._state_lock:
            if self.dead:
                raise _StaleConnectionError(self.dead_error)
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = waiter
        # Pickle outside the send lock so concurrent senders only serialize
        # on the actual socket write.
        segments = encode_message((request_id, *message_tail))
        try:
            fault = injection.on_send(*self._addr)  # fault seam
            if fault == 'reset':
                raise ConnectionResetError('injected connection reset')
            with self._send_lock:
                if fault == 'truncate':
                    # A strict prefix of the frame, then death — exactly
                    # what a peer crashing mid-write produces on the wire.
                    head = bytes(segments[0])
                    self.sock.sendall(head[: max(1, len(head) // 2)])
                    raise ConnectionResetError('injected payload truncation')
                vectored_write(self.sock.sendmsg, segments)
        except OSError as e:
            # Drop the frame's reference to the wire segments before the
            # exception (whose traceback pins this frame) escapes: their
            # memoryviews hold pickle buffer exports, and an exported view
            # caught in a GC cycle crashes the collector's tp_clear.
            del segments
            with self._state_lock:
                self._pending.pop(request_id, None)
            self._fail(e)
            raise _StaleConnectionError(e) from e
        sent_at = time.monotonic()
        if timeout is None:
            waiter.event.wait()
        else:
            while not waiter.event.is_set():
                idle_for = time.monotonic() - max(self.last_activity, sent_at)
                remaining = timeout - idle_for
                if remaining <= 0:
                    with self._state_lock:
                        self._pending.pop(request_id, None)
                    raise ConnectorError(
                        f'SimKV request timed out after {timeout}s of '
                        'connection inactivity',
                    )
                waiter.event.wait(remaining)
        if waiter.error is not None:
            raise _StaleConnectionError(waiter.error)
        assert waiter.result is not None
        return waiter.result

    def close(self) -> None:
        """Fail the connection and reap its reader (idempotent)."""
        self._fail(ConnectionError('client closed the connection'))
        self.join_reader()


class KVClient:
    """Pipelined client for a :class:`~repro.kvserver.server.KVServer`.

    Args:
        host: server host name.
        port: server port.
        timeout: seconds to wait for a connect, and the per-request
            *inactivity* bound — a request only times out once its
            connection has received no bytes for this long, so large
            transfers that are still streaming never trip it.
        pool_size: number of pooled connections requests round-robin over.
        retry_policy: backoff schedule for stale-connection retries.  The
            default retries immediately (zero delay) ``pool_size + 1``
            times — cycling to a fresh pooled socket costs nothing — but
            failover-aware callers may install a jittered schedule from
            :mod:`repro.faults.retry` to ride out broker restarts.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        pool_size: int = DEFAULT_POOL_SIZE,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if pool_size < 1:
            raise ValueError('pool_size must be at least 1')
        self.host = host
        self.port = port
        self.timeout = timeout
        self.pool_size = pool_size
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=pool_size + 1, base_delay=0.0, jitter=0.0,
        )
        self._pool: list[_Connection | None] = [None] * pool_size
        self._pool_lock = threading.Lock()
        # Per-slot locks so a blocking (re)connect of one slot never stalls
        # requests using the other, healthy pooled connections.
        self._slot_locks = [threading.Lock() for _ in range(pool_size)]
        self._round_robin = 0

    # -- connection management -------------------------------------------- #
    def _connection(self) -> _Connection:
        """Return the next pooled connection, (re)connecting a dead slot."""
        with self._pool_lock:
            index = self._round_robin % self.pool_size
            self._round_robin += 1
        with self._slot_locks[index]:
            connection = self._pool[index]
            if connection is None or connection.dead:
                connection = _Connection(self.host, self.port, self.timeout)
                self._pool[index] = connection
            return connection

    def _request(self, command: str, key: str | None = None, value: Any = None) -> Any:
        """Issue ``command`` and return its payload.

        A request that fails because its pooled connection went stale is
        retried on a fresh connection (every SimKV command is idempotent).
        Up to ``pool_size`` stale connections may be encountered before a
        fresh one (e.g. after a server restart every pooled socket is
        dead), so stale failures do not consume the retry — by default the
        request only fails after ``pool_size + 1`` immediate attempts;
        ``retry_policy`` governs the attempt count and any backoff.
        """
        last_error: Exception | None = None
        for _attempt in self.retry_policy.attempts():
            connection = self._connection()
            try:
                status, payload = connection.request((command, key, value), self.timeout)
            except _StaleConnectionError as e:
                last_error = e.__cause__ or (e.args[0] if e.args else e)
                continue
            if status != 'ok':
                raise ConnectorError(f'SimKV error: {payload}')
            return payload
        # Every attempt died at the connection level: the node itself is
        # unreachable (crashed or restarting), not the request malformed.
        raise NodeUnavailableError(
            f'SimKV server at {self.host}:{self.port} is unavailable: '
            f'{last_error}',
        )

    def close(self) -> None:
        """Close every pooled connection (a later request reconnects).

        Idempotent and safe from ``__del__``: a second close sees an empty
        pool and does nothing, and connection teardown tolerates reader
        threads that already exited (or cannot be joined at interpreter
        shutdown).
        """
        with self._pool_lock:
            connections = [c for c in self._pool if c is not None]
            self._pool = [None] * self.pool_size
        for connection in connections:
            connection.close()

    def __del__(self) -> None:
        """Best-effort close so dropped clients never leak reader threads."""
        try:
            self.close()
        # repro: ignore[RP004] - __del__ during interpreter teardown;
        # nothing is left to report to
        except Exception:  # noqa: BLE001 - interpreter teardown
            pass

    def __enter__(self) -> 'KVClient':
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- commands ----------------------------------------------------------- #
    def ping(self) -> bool:
        """Return True if the server responds to a PING."""
        return self._request('PING') == 'PONG'

    def set(self, key: str, value: 'bytes | bytearray | memoryview | SerializedObject') -> None:
        self._request('SET', key, _wrap_value(value))

    def get(self, key: str) -> 'bytearray | memoryview | None':
        """Return the stored value: the received ``memoryview`` or ``bytearray``."""
        return self._request('GET', key)

    def mset(
        self,
        items: Sequence[tuple[str, 'bytes | bytearray | memoryview | SerializedObject']],
    ) -> None:
        """Store several key/value pairs in one round trip."""
        self._request('MSET', None, [(k, _wrap_value(v)) for k, v in items])

    def mget(self, keys: Iterable[str]) -> 'list[bytes | bytearray | memoryview | None]':
        """Fetch several keys in one round trip (``None`` for missing keys)."""
        return self._request('MGET', None, list(keys))

    def mdel(self, keys: Iterable[str]) -> int:
        """Delete several keys in one round trip; returns how many existed."""
        return int(self._request('MDEL', None, list(keys)))

    def exists(self, key: str) -> bool:
        """Return whether ``key`` currently exists on the server."""
        return bool(self._request('EXISTS', key))

    def keys(self) -> list[str]:
        """Return every key currently stored on the server.

        Used by the cluster rebalancer to enumerate a node's holdings when
        computing the ring-delta migration set.
        """
        return list(self._request('KEYS'))

    # -- pub/sub commands (stream event transport) -------------------------- #
    def publish(self, topic: str, payload: 'bytes | bytearray | memoryview | SerializedObject') -> int:
        """Publish one event payload on ``topic``; returns its sequence number.

        The payload's segments travel out-of-band (scatter/gather, no copy);
        the server retains the event in the topic's ring buffer and fans it
        out to current subscribers.
        """
        return int(self._request('PUBLISH', topic, _wrap_value(payload)))

    def publish_batch(
        self,
        topic: str,
        payloads: Sequence['bytes | bytearray | memoryview | SerializedObject'],
    ) -> list[int]:
        """Publish several event payloads on ``topic`` in one round trip."""
        return list(
            self._request('MPUBLISH', topic, [_wrap_value(p) for p in payloads]),
        )

    def fetch_events(
        self,
        topic: str,
        since: int,
        max_events: int = 0,
    ) -> dict[str, Any]:
        """Fetch retained events with ``seq >= since`` from ``topic``'s ring.

        Returns ``{'events': [(seq, payload), ...], 'next_seq': int,
        'lost': int}`` where ``lost`` counts events that aged out of the
        ring before ``since`` — the consumer catch-up path after a gap.
        ``max_events`` bounds the reply (0 = everything retained).
        """
        return self._request(
            'FETCH', topic, {'since': since, 'max_events': max_events},
        )

    def topic_stats(self, topic: str) -> dict[str, Any] | None:
        """Return broker statistics for ``topic`` (``None`` if it never existed)."""
        return self._request('TSTATS', topic)

    # -- consumer-group commands -------------------------------------------- #
    def group_join(
        self,
        group: str,
        member: str,
        *,
        session_timeout: float | None = None,
    ) -> dict[str, Any]:
        """Join ``group`` as ``member``; returns ``{'generation', 'members'}``.

        ``session_timeout`` is the member's heartbeat lease: miss it and
        the broker expires the member, bumping the group generation so
        survivors rebalance its partitions.
        """
        return self._request('GROUP_JOIN', group, {
            'member': member, 'session_timeout': session_timeout,
        })

    def group_heartbeat(
        self,
        group: str,
        member: str,
        positions: dict[str, int] | None = None,
        ends: dict[str, int] | None = None,
    ) -> dict[str, Any]:
        """Refresh ``member``'s lease, reporting delivered ``positions``.

        ``ends`` reports partitions whose end-of-stream marker this member
        delivered (topic -> marker seq) — the group-completion signal.
        Returns the current ``{'generation', 'members'}`` view; raises
        :class:`~repro.exceptions.ConnectorError` if the member was already
        expired (it must rejoin and resync before consuming further).
        """
        return self._request('GROUP_HEARTBEAT', group, {
            'member': member, 'positions': positions or {},
            'ends': ends or {},
        })

    def group_leave(
        self,
        group: str,
        member: str,
        positions: dict[str, int] | None = None,
    ) -> dict[str, Any]:
        """Leave ``group`` voluntarily (bumps the generation immediately)."""
        return self._request('GROUP_LEAVE', group, {
            'member': member, 'positions': positions or {},
        })

    def offset_commit(
        self,
        group: str,
        offsets: dict[str, int],
        *,
        member: str | None = None,
        positions: dict[str, int] | None = None,
        ends: dict[str, int] | None = None,
    ) -> dict[str, Any]:
        """Commit per-partition offsets (monotonic: stale commits are kept).

        ``offsets`` maps partition topic to the first *un-acked* sequence
        number; a successor claiming the partition resumes there.  ``ends``
        reports delivered end-of-stream markers.  A commit from a live
        ``member`` doubles as a heartbeat.
        """
        return self._request('OFFSET_COMMIT', group, {
            'offsets': offsets,
            'member': member or '',
            'positions': positions or {},
            'ends': ends or {},
        })

    def offset_fetch(self, group: str, topics: Sequence[str]) -> dict[str, Any]:
        """Fetch per-partition offset state for ``topics``.

        Each entry carries ``committed`` (replay point), ``watermark``
        (furthest delivered), ``end`` (end-marker seq or ``None``) and
        ``end_member`` (who reported it).
        """
        return self._request('OFFSET_FETCH', group, {'topics': list(topics)})

    def group_stats(self, group: str) -> dict[str, Any]:
        """Return the group's full broker-side state (members, offsets)."""
        return self._request('GROUP_STATS', group)

    def topic_config(self, topic: str, *, retention: int) -> dict[str, Any]:
        """Set ``topic``'s ring-buffer retention (trimming immediately)."""
        return self._request('TCONFIG', topic, {'retention': retention})

    # -- replication commands (broker failover) ------------------------------ #
    def repl_publish(
        self,
        topic: str,
        entries: Sequence[tuple[int, 'bytes | bytearray | memoryview | SerializedObject']],
    ) -> dict[str, Any]:
        """Mirror ``(seq, payload)`` events into ``topic``'s ring on a replica.

        Unlike ``publish``, the sequence numbers are *explicit* — they were
        assigned by the primary broker — so the replica's ring ends up with
        identical numbering and a failed-over subscriber resumes from its
        cursor without renumbering.  Idempotent: duplicates and already
        trimmed events are dropped server-side.  Returns ``{'accepted',
        'next_seq'}``.
        """
        return self._request(
            'REPL_PUBLISH', topic,
            [(int(seq), _wrap_value(payload)) for seq, payload in entries],
        )

    def repl_group(self, group: str, state: dict[str, Any]) -> dict[str, Any]:
        """Mirror a coordinator-state delta for ``group`` onto a replica.

        ``state`` carries ``op`` ('join'/'heartbeat'/'commit'/'leave'),
        ``member``, ``generation``, and optionally ``session_timeout``,
        ``offsets``, ``positions``, and ``ends``.  Applied leniently and
        monotonically server-side, so deltas may arrive late, duplicated,
        or out of order.  Returns the replica's ``{'generation', 'members'}``
        view.
        """
        return self._request('REPL_GROUP', group, dict(state))

    def delete(self, key: str) -> bool:
        return bool(self._request('DEL', key))

    def flush(self) -> int:
        """Remove every key on the server; returns how many were removed."""
        return int(self._request('FLUSH'))

    def size(self) -> int:
        return int(self._request('SIZE'))
