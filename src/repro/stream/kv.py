"""Event bus brokered by the SimKV event-loop server.

The SimKV server (:mod:`repro.kvserver`) doubles as the pub/sub broker for
multi-process streams: ``PUBLISH`` appends an event payload to a per-topic
ring buffer and fans it out to subscribed connections as unsolicited
``EVENT`` frames.  :class:`KVEventBus` is the client side:

* Publishing and catch-up fetches reuse the **pipelined** :class:`KVClient`
  (batched ``MPUBLISH`` frames, many publishes in flight on one socket).
* Each subscription holds a **dedicated connection** of the type the
  client pools, opened outside the pool; ``SUBSCRIBE`` is an ordinary
  request on it.  The server pushes event batches to that connection,
  its reader hands them to the subscription's queue, and the consumer
  drains the queue.  Once the subscription is live the queue is bounded
  — a consumer that stops draining stalls its own TCP receive window,
  the server's outgoing queue for that connection hits the
  ``push_highwater`` mark and pushes stop, and the topic's ring
  retention bounds what the server keeps.  When the consumer resumes,
  the sequence gap is detected and a ``FETCH`` replays whatever the ring
  still holds (the rest is counted as *lost*, never silently skipped).

The bus registers under the ``kv`` and ``redis`` URL schemes, so
``event_bus_from_url('kv://127.0.0.1:7777?launch=1')`` selects it through
the same scheme-registry pattern stores use.
"""
from __future__ import annotations

import queue
import threading
import time
from typing import Any
from typing import Sequence

from repro.connectors.registry import StoreURL
from repro.exceptions import ConnectorError
from repro.faults.retry import DEFAULT_RECONNECT_POLICY
from repro.kvserver.client import DEFAULT_POOL_SIZE
from repro.kvserver.client import DEFAULT_TIMEOUT
from repro.kvserver.client import KVClient
from repro.kvserver.client import _Connection
from repro.kvserver.client import _StaleConnectionError
from repro.kvserver.server import launch_server
from repro.stream.bus import register_event_bus

__all__ = ['KVEventBus', 'KVSubscription']

#: Bound on the push-batch queue of one live subscription.  A full queue
#: blocks the connection's reader, which stalls the TCP stream and engages
#: the server's highwater backpressure — bounded memory at every hop.
DEFAULT_MAX_QUEUED_BATCHES = 64


class KVSubscription:
    """One consumer's subscription to a topic on a SimKV broker.

    The subscription owns a dedicated, non-pooled client connection
    (server pushes are per-connection) whose reader feeds pushed batches
    into a bounded queue.  :meth:`next_batch` reconciles pushed batches
    with the expected sequence number: gaps (pushes dropped while this
    consumer lagged, or a reconnect) are backfilled from the topic ring
    via the bus's pipelined client, and events that aged out of retention
    are counted in :attr:`lost`.
    """

    def __init__(
        self,
        bus: 'KVEventBus',
        topic: str,
        from_seq: int | None,
        *,
        max_queued_batches: int = DEFAULT_MAX_QUEUED_BATCHES,
        poll_interval: float = 0.5,
    ) -> None:
        self._bus = bus
        self.topic = topic
        self._poll_interval = poll_interval
        self._max_queued_batches = max_queued_batches
        self._queue: queue.Queue[list[tuple[int, Any]]] = queue.Queue()
        self._lost = 0
        self._closed = False
        self._expected = 0
        self._connect(from_seq)

    # -- wire ------------------------------------------------------------- #
    def _connect(self, from_seq: int | None) -> None:
        """Open the dedicated push connection and issue the SUBSCRIBE."""
        # The broker sends the backlog replay *before* the SUBSCRIBE reply,
        # while nobody drains the queue yet: it stays unbounded until the
        # reply is in, so a long replay cannot block the reader.
        self._set_queue_bound(0)
        conn = self._conn = _Connection(
            self._bus.host, self._bus.port, self._bus.timeout, self._on_push,
        )
        try:
            status, reply = conn.request(
                ('SUBSCRIBE', self.topic, {'from_seq': from_seq}),
                self._bus.timeout,
            )
        except (_StaleConnectionError, ConnectorError) as e:
            status, reply = 'error', e
        if status != 'ok':
            conn.close()
            raise ConnectorError(f'SUBSCRIBE failed: {reply}')
        self._set_queue_bound(self._max_queued_batches)
        reply_lost = int(reply.get('lost', 0))
        self._lost += reply_lost
        # Replay starts at the oldest retained event past from_seq; with no
        # from_seq the cursor starts at the broker's current head.
        self._expected = (
            int(from_seq) + reply_lost
            if from_seq is not None
            else int(reply['next_seq'])
        )

    def _set_queue_bound(self, maxsize: int) -> None:
        with self._queue.mutex:
            self._queue.maxsize = maxsize

    def _on_push(self, payload: Any) -> None:
        """Connection reader: queue one pushed batch (``None``: it died)."""
        if payload is None:
            # Wake a blocked next_batch so it notices the death.
            try:
                self._queue.put_nowait([])
            except queue.Full:
                pass
        elif not self._closed:
            _topic, events = payload
            self._queue.put([(int(seq), data) for seq, data in events])

    # -- consumption ------------------------------------------------------- #
    @property
    def lost(self) -> int:
        """Events that aged out of retention before this subscriber saw them."""
        return self._lost

    @property
    def position(self) -> int:
        """Sequence number of the next event this subscriber will deliver."""
        return self._expected

    def _fetch(self, up_to: int | None = None) -> list[tuple[int, Any]]:
        """Fetch events past the cursor (below ``up_to``) from the topic ring.

        With ``up_to`` this fills the push gap ``[expected, up_to)``, and
        whatever the ring no longer holds below ``up_to`` is lost for good.
        Without it this is the idle poll — the liveness net under
        server-side push dropping: when this consumer lagged past the
        highwater mark, the events it missed sit in the ring but no push
        will re-announce them unless someone publishes again.
        """
        gap = 0 if up_to is None else up_to - self._expected
        fetched = self._bus.client.fetch_events(
            self.topic, since=self._expected, max_events=gap,
        )
        # Count the fetch's lost events once, moving the cursor past them
        # (left inside the lost region, the next fetch would count them
        # again).  With a gap, events past it may still be in flight as
        # pushes, so only a later fetch may declare them lost.
        lost = int(fetched.get('lost', 0))
        if up_to is not None:
            lost = min(lost, gap)
        if lost > 0:
            self._lost += lost
            self._expected += lost
        out: list[tuple[int, Any]] = []
        for seq, data in fetched.get('events', []):
            seq = int(seq)
            if seq >= self._expected and (up_to is None or seq < up_to):
                out.append((seq, data))
                self._expected = seq + 1
        if up_to is not None and self._expected < up_to:
            self._lost += up_to - self._expected
            self._expected = up_to
        return out

    def next_batch(self, timeout: float | None = None) -> list[tuple[int, Any]]:
        """Return the next in-order events (empty list on timeout).

        Pushed batches are reconciled against the expected sequence number:
        duplicates (push/fetch overlap) are dropped, and gaps are
        backfilled from the server's ring buffer — the caller sees each
        surviving event exactly once, in order.  When pushes go quiet for
        ``poll_interval`` the ring is polled directly, so events whose
        pushes were dropped under backpressure are still delivered.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while not self._closed:
            wait = self._poll_interval
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            try:
                raw = self._queue.get(timeout=wait)
            except queue.Empty:
                raw = None
            if raw is None:
                if self._conn.dead:
                    self._reconnect()
                polled = self._fetch()
                if polled:
                    return polled
                if deadline is not None and time.monotonic() >= deadline:
                    return []
                continue
            # Drain whatever else is already queued — batching is free here.
            while True:
                try:
                    raw.extend(self._queue.get_nowait())
                except queue.Empty:
                    break
            out: list[tuple[int, Any]] = []
            for seq, data in raw:
                if seq < self._expected:
                    continue
                if seq > self._expected:
                    out.extend(self._fetch(seq))
                    if seq < self._expected:  # aged out under the backfill
                        continue
                out.append((seq, data))
                self._expected = seq + 1
            if out:
                return out
            if self._conn.dead:
                self._reconnect()
            if deadline is not None and time.monotonic() >= deadline:
                return []
        return []

    def _reconnect(self) -> None:
        """Re-establish a died push connection, resuming from the cursor.

        Retries with the shared jittered-backoff policy: a broker that is
        restarting (same address, new process) answers within a few
        attempts and the cursor-driven SUBSCRIBE backfills the gap from
        its ring.  Only after the policy is exhausted does the failure
        propagate — at which point a replication-aware wrapper
        (:class:`~repro.stream.failover.FailoverSubscription`) fails over
        to another broker instead.
        """
        if self._closed:
            return
        self._conn.close()
        last: Exception | None = None
        for _attempt in DEFAULT_RECONNECT_POLICY.attempts():
            if self._closed:
                return
            try:
                self._connect(self._expected)
            except ConnectorError as e:
                last = e
                continue
            return
        if last is not None:
            raise last

    # -- lifecycle --------------------------------------------------------- #
    def close(self) -> None:
        """Close the push connection (the server drops the subscription)."""
        self._closed = True
        # With _closed set the reader queues nothing more; draining frees a
        # reader blocked on a full queue so the connection can reap it.
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._conn.close()

    def __enter__(self) -> 'KVSubscription':
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()


class KVEventBus:
    """Event bus whose topics live on a SimKV event-loop server.

    Args:
        host: broker host name.
        port: broker port.  With ``launch=True`` and ``port=0`` a fresh
            in-process server is started (ephemeral port recorded so
            ``config()`` round-trips point at the same broker).
        launch: start an in-process server if one is not already running.
        retention: per-topic ring-buffer bound applied (via ``TCONFIG``)
            to topics first touched through this handle; ``None`` keeps
            the server default.
        timeout: per-request inactivity bound, as for :class:`KVClient`.
        pool_size: pooled connections of the publish/fetch client.
        max_queued_batches: bound on each subscription's local push queue.
        poll_interval: seconds an idle subscription waits between direct
            ring polls (the liveness net when its pushes were dropped
            under backpressure); lower it for latency-sensitive consumers.
    """

    scheme = 'kv'

    def __init__(
        self,
        host: str = '127.0.0.1',
        port: int = 0,
        *,
        launch: bool = False,
        retention: int | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        pool_size: int = DEFAULT_POOL_SIZE,
        max_queued_batches: int = DEFAULT_MAX_QUEUED_BATCHES,
        poll_interval: float = 0.5,
    ) -> None:
        if launch:
            server = launch_server(host, port)
            assert server.port is not None
            host, port = server.host, server.port
        self.host = host
        self.port = port
        self.retention = retention
        self.timeout = timeout
        self.pool_size = pool_size
        self.max_queued_batches = max_queued_batches
        self.poll_interval = poll_interval
        self.client = KVClient(host, port, timeout=timeout, pool_size=pool_size)
        self._configured: set[str] = set()
        self._configure_lock = threading.Lock()

    def __repr__(self) -> str:
        return f'KVEventBus(host={self.host!r}, port={self.port})'

    def _ensure_topic(self, topic: str) -> None:
        """Apply this handle's retention to ``topic`` exactly once."""
        if self.retention is None or topic in self._configured:
            return
        with self._configure_lock:
            if topic in self._configured:
                return
            self.client.topic_config(topic, retention=self.retention)
            self._configured.add(topic)

    # -- EventBus protocol ------------------------------------------------- #
    def publish(self, topic: str, payload: Any) -> int:
        """Publish one payload on ``topic``; returns its sequence number."""
        self._ensure_topic(topic)
        return self.client.publish(topic, payload)

    def publish_batch(self, topic: str, payloads: Sequence[Any]) -> list[int]:
        """Publish several payloads on ``topic`` in one wire round trip."""
        self._ensure_topic(topic)
        return self.client.publish_batch(topic, payloads)

    def subscribe(self, topic: str, *, from_seq: int | None = None) -> KVSubscription:
        """Open a dedicated push subscription to ``topic``.

        ``from_seq`` replays the retained backlog from that sequence
        number; events older than the ring are counted on the
        subscription's ``lost``.
        """
        self._ensure_topic(topic)
        return KVSubscription(
            self,
            topic,
            from_seq,
            max_queued_batches=self.max_queued_batches,
            poll_interval=self.poll_interval,
        )

    def topic_stats(self, topic: str) -> dict[str, Any] | None:
        """Return broker-side statistics for ``topic``."""
        return self.client.topic_stats(topic)

    def configure_topic(self, topic: str, *, retention: int) -> None:
        """Set ``topic``'s ring retention on the broker."""
        self.client.topic_config(topic, retention=retention)
        self._configured.add(topic)

    def config(self) -> dict[str, Any]:
        """Return a picklable dict re-creating a handle to the same broker."""
        return {
            'scheme': self.scheme,
            'host': self.host,
            'port': self.port,
            'retention': self.retention,
            'timeout': self.timeout,
            'pool_size': self.pool_size,
            'max_queued_batches': self.max_queued_batches,
            'poll_interval': self.poll_interval,
        }

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> 'KVEventBus':
        """Rebuild a bus handle from a :meth:`config` dictionary."""
        return cls(**config)

    @classmethod
    def from_url(cls, url: 'StoreURL | str') -> 'KVEventBus':
        """Build from ``kv://host:port[?launch=1&retention=N&timeout=S]``."""
        url = StoreURL.parse(url)
        timeout = url.pop_float('timeout', DEFAULT_TIMEOUT)
        pool_size = url.pop_int('pool_size', DEFAULT_POOL_SIZE)
        poll_interval = url.pop_float('poll_interval', 0.5)
        assert timeout is not None and pool_size is not None
        assert poll_interval is not None
        return cls(
            host=url.host or '127.0.0.1',
            port=url.port or 0,
            launch=url.pop_bool('launch', False),
            retention=url.pop_int('retention'),
            timeout=timeout,
            pool_size=pool_size,
            poll_interval=poll_interval,
        )

    def close(self) -> None:
        """Close the publish/fetch client (subscriptions close themselves)."""
        self.client.close()

    def __enter__(self) -> 'KVEventBus':
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()


register_event_bus('kv', KVEventBus)
register_event_bus('redis', KVEventBus)
