"""Consumer groups with at-least-once delivery over partitioned topics.

The PR 5 bus serves one broker and independent subscribers: every
subscriber sees every event, and a consumer that crashes with delivered-
but-unprocessed events silently strands them (and their backing proxy
keys).  This module turns the bus into a fleet-scale delivery substrate:

* **Partitioned topics** — a topic is split into N partition topics
  (``{topic}.p{i}``) spread across any number of brokers by a
  :class:`~repro.cluster.ring.HashRing` over stable broker ids
  (:func:`~repro.stream.bus.broker_id`).  Placement is deterministic and
  coordinator-free: every producer and consumer handed the same broker
  URLs computes the same partition -> broker map, the same ``blake2b``
  scheme :mod:`repro.cluster` uses for key placement.
* **Consumer groups** — members of a group split the partitions among
  themselves (round-robin over the sorted member ids, recomputed locally
  by every member from the membership view, so assignment needs no
  central assignor).  A :class:`GroupCoordinator` on the group's
  *designated broker* (``ring.primary`` over the group name) tracks
  membership with leased heartbeats, per-partition **committed offsets**
  (advanced only on :meth:`GroupConsumer.ack`) and delivered
  **watermarks** (the furthest position any member reported).
* **At-least-once redelivery** — when a member misses its heartbeats the
  broker expires it and bumps the group generation; survivors detect the
  change on their next heartbeat, claim the dead member's partitions, and
  resume from the *committed* offset — everything the dead member
  delivered but never acked is replayed from the topic ring's retention.
  Events inside the redelivery window whose keys were already evicted
  (the dead member crashed mid-ack) are recognized and skipped, so a
  crash at any instant neither strands keys nor double-processes acked
  work.  Per-group ``delivered`` / ``redelivered`` / ``lost`` /
  ``deduplicated`` accounting is kept on the consumer and surfaced
  through store metrics (``stream.group.*``).

Delivery guarantees, by construction:

========================  ==========================================
mode                      guarantee
========================  ==========================================
inline events             at-most-once (data dies with the event)
plain consumer + ``ack``  at-most-once per consumer (no redelivery)
``group=...`` + ``ack``   at-least-once across the group
========================  ==========================================
"""
from __future__ import annotations

import hashlib
import threading
import time
from typing import Any
from typing import Iterator
from typing import Sequence
from typing import TYPE_CHECKING

from repro.cluster.membership import ClusterMembership
from repro.cluster.membership import DEFAULT_FAILURE_THRESHOLD
from repro.cluster.ring import HashRing
from repro.exceptions import ConnectorError
from repro.exceptions import GroupMembershipError
from repro.exceptions import NodeUnavailableError
from repro.exceptions import StoreError
from repro.exceptions import StreamGroupError
from repro.exceptions import ProxyResolveError
from repro.proxy.proxy import Proxy
from repro.proxy.resolve import resolve
from repro.proxy.resolve import resolve_async
from repro.faults.retry import DEFAULT_RECONNECT_POLICY
from repro.faults.retry import RetryPolicy
from repro.kvserver.state import DEFAULT_SESSION_TIMEOUT
from repro.kvserver.state import GroupState
from repro.store.factory import StoreFactory
from repro.stream.bus import EventBus
from repro.stream.bus import broker_id
from repro.stream.bus import bus_from_config
from repro.stream.bus import event_bus_from_url
from repro.stream.failover import FailoverSubscription

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.store.store import Store
    from repro.stream.events import StreamEvent

__all__ = [
    'DEFAULT_SESSION_TIMEOUT',
    'GroupConsumer',
    'GroupCoordinator',
    'PartitionRouter',
    'assign_partitions',
    'partition_for',
    'partition_topics',
]

#: Fraction of the session timeout between heartbeats (3 beats per lease).
_HEARTBEAT_FRACTION = 3.0

#: Seconds one poll pass spreads across the assigned subscriptions.
_POLL_SLICE = 0.1


def partition_topics(topic: str, partitions: int) -> list[str]:
    """The concrete per-partition topic names of ``topic``.

    One partition keeps the plain topic name, so ``partitions=1`` is wire-
    compatible with unpartitioned producers and subscribers; more yield
    ``{topic}.p0 .. {topic}.p{N-1}``.
    """
    if partitions < 1:
        raise ValueError('partitions must be at least 1')
    if partitions == 1:
        return [topic]
    return [f'{topic}.p{i}' for i in range(partitions)]


def partition_for(partition_key: str, partitions: int) -> int:
    """Deterministic partition index for ``partition_key``.

    ``blake2b`` over the key string (the :mod:`repro.cluster` scheme, never
    Python's randomized ``hash()``), so every producer process sends the
    same key to the same partition — the property that makes per-key
    ordering survive multi-producer deployments.
    """
    if partitions < 1:
        raise ValueError('partitions must be at least 1')
    digest = hashlib.blake2b(
        str(partition_key).encode(), digest_size=8,
    ).digest()
    return int.from_bytes(digest, 'big') % partitions


def assign_partitions(
    members: Sequence[str],
    topics: Sequence[str],
) -> dict[str, list[str]]:
    """Round-robin partition topics over the sorted member ids.

    Pure and deterministic: every member computes the same assignment from
    the same membership view, so no central assignor is needed — the
    coordinator only has to version the view (the group generation).
    """
    ordered = sorted(members)
    assignment: dict[str, list[str]] = {member: [] for member in ordered}
    for index, topic in enumerate(topics):
        if ordered:
            assignment[ordered[index % len(ordered)]].append(topic)
    return assignment


class PartitionRouter:
    """Deterministic partition-topic -> broker placement for one topic.

    Args:
        topic: the logical topic name.
        partitions: number of partitions it is split into.
        brokers: the broker fleet — event-bus instances, bus URLs, or a
            mixture.  Buses created here from URLs are owned by the router
            (closed by :meth:`close`); caller-passed instances are shared.
        replicas: how many ring-successor brokers hold each partition
            topic's retention ring.  With ``replicas > 1`` (and more than
            one broker) the router mirrors every publish to the successor
            replicas via ``REPL_PUBLISH``, tracks broker health in a
            :class:`~repro.cluster.membership.ClusterMembership`, and
            fails publishes and subscriptions over to the next live owner
            when a broker dies.
        failure_threshold: consecutive unavailable-failures before a
            broker is declared dead by this router's failure detector.

    Placement hashes each partition topic onto a consistent-hash ring over
    the brokers' stable ids, so adding a broker moves ~``1/N`` of the
    partitions and every process computes the same map without talking to
    anyone.  The ring stays *static* over the full fleet even when a
    broker dies: failover walks the partition's fixed owner list to the
    first live broker, so independent processes — each with their own
    failure detector — converge on the same replica without coordination.
    """

    def __init__(
        self,
        topic: str,
        partitions: int,
        brokers: 'Sequence[EventBus | str] | EventBus | str',
        *,
        replicas: int = 1,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
    ) -> None:
        if isinstance(brokers, (str, bytes)) or not isinstance(brokers, Sequence):
            brokers = [brokers]  # type: ignore[list-item]
        if not brokers:
            raise ValueError('at least one broker is required')
        if replicas < 1:
            raise ValueError('replicas must be at least 1')
        self.topic = topic
        self.partitions = partitions
        self._owned: list[EventBus] = []
        resolved: list[EventBus] = []
        for broker in brokers:
            if isinstance(broker, str):
                bus = event_bus_from_url(broker)
                self._owned.append(bus)
            else:
                bus = broker
            resolved.append(bus)
        self._by_id = {broker_id(bus): bus for bus in resolved}
        if len(self._by_id) != len(resolved):
            raise ValueError('brokers must have distinct identities')
        self.ring = HashRing(self._by_id)
        self.topics = partition_topics(topic, partitions)
        self.replicas = min(replicas, len(self._by_id))
        #: Failure detector over the broker fleet — present only when
        #: replication is on (with one owner per partition there is no
        #: live replica to fail over to, so detection buys nothing).
        self.membership: ClusterMembership | None = (
            ClusterMembership(
                list(self._by_id), failure_threshold=failure_threshold,
            )
            if self.replicas > 1
            else None
        )

    def __repr__(self) -> str:
        return (
            f'PartitionRouter(topic={self.topic!r}, '
            f'partitions={self.partitions}, brokers={len(self._by_id)})'
        )

    @property
    def brokers(self) -> list[EventBus]:
        """Every broker bus handle, in ring-id order."""
        return [self._by_id[node] for node in self.ring.nodes]

    # -- placement and health ------------------------------------------------ #
    def _alive(self, node: str) -> bool:
        """Whether ``node`` is considered usable by the failure detector."""
        if self.membership is None:
            return True
        return self.membership.state_of(node) != 'dead'

    def owners(self, key: str) -> list[str]:
        """The fixed ring-owner node ids for ``key`` (primary first)."""
        return list(self.ring.owners(key, self.replicas))

    def ordered_owners(self, key: str) -> list[str]:
        """Owner node ids for ``key``, live brokers first.

        The order is the failover walk: the ring primary when healthy,
        otherwise the first live successor; dead owners trail the list so
        a broker that comes back is still retried last-resort when every
        replica is down.
        """
        owners = self.owners(key)
        if self.membership is None:
            return owners
        alive = [n for n in owners if self._alive(n)]
        dead = [n for n in owners if not self._alive(n)]
        return alive + dead

    def bus_of(self, node: str) -> EventBus:
        """The bus handle for ring node ``node``."""
        return self._by_id[node]

    def client_of(self, node: str) -> Any:
        """The node's SimKV request client, or ``None`` (local transport)."""
        return getattr(self._by_id[node], 'client', None)

    def record(self, node: str, *, ok: bool, error: Exception | None = None) -> None:
        """Fold one broker-operation outcome into the failure detector.

        A streak of ``failure_threshold`` consecutive
        :class:`~repro.exceptions.NodeUnavailableError` failures marks the
        broker dead, after which :meth:`ordered_owners` routes around it;
        any other error counts against its health only.  A no-op when
        replication (and therefore the detector) is off.
        """
        if self.membership is not None:
            self.membership.record(
                node, ok=ok, error=error,
                unavailable=isinstance(error, NodeUnavailableError),
            )

    def bus_for(self, partition_topic: str) -> EventBus:
        """The live broker bus that currently hosts ``partition_topic``."""
        return self._by_id[self.ordered_owners(partition_topic)[0]]

    def bus_for_partition(self, partition: int) -> EventBus:
        """The broker bus that hosts partition index ``partition``."""
        return self.bus_for(self.topics[partition])

    def designated(self, label: str) -> EventBus:
        """The live broker currently designated to coordinate ``label``."""
        return self._by_id[self.coordinator_owners(label)[0]]

    def coordinator_owners(self, label: str) -> list[str]:
        """Owner node ids for coordinating ``label``, live brokers first."""
        return self.ordered_owners(f'coordinator:{label}')

    # -- replicated publish -------------------------------------------------- #
    def publish(self, partition_topic: str, payload: Any) -> int:
        """Publish one payload with failover and replication; returns its seq."""
        return self.publish_batch(partition_topic, [payload])[0]

    def publish_batch(self, partition_topic: str, payloads: Sequence[Any]) -> list[int]:
        """Publish ``payloads`` to the partition's live primary, then mirror.

        The first live ring owner assigns the sequence numbers; the events
        are then mirrored — with those explicit numbers — onto the other
        live owners via ``REPL_PUBLISH`` *before returning*, so a single
        broker death after the publish cannot lose an event the caller was
        told succeeded.  Owner walk and retries use the shared jittered
        backoff policy; a replica mirror failure is recorded against that
        replica but does not fail the publish (the data is durable on the
        primary — the fleet is merely under-replicated until it recovers).
        """
        last: Exception | None = None
        for _attempt in DEFAULT_RECONNECT_POLICY.attempts():
            owners = self.ordered_owners(partition_topic)
            for node in owners:
                bus = self._by_id[node]
                try:
                    seqs = list(bus.publish_batch(partition_topic, list(payloads)))
                except NodeUnavailableError as e:
                    self.record(node, ok=False, error=e)
                    last = e
                    continue
                self.record(node, ok=True)
                if seqs:
                    self._mirror(
                        partition_topic, node, 'repl_publish',
                        partition_topic, list(zip(seqs, payloads)),
                    )
                return seqs
        raise last if last is not None else NodeUnavailableError(
            f'no broker reachable for topic {partition_topic!r}',
        )

    def _mirror(self, key: str, primary: str, command: str, *args: Any) -> None:
        """Best-effort ``client.<command>(*args)`` on ``key``'s other live owners.

        A replica failure is recorded against that replica and otherwise
        ignored: the primary holds the state, the fleet is merely
        under-replicated until the replica recovers.
        """
        if self.replicas < 2:
            return
        for node in self.owners(key):
            if node == primary or not self._alive(node):
                continue
            send = getattr(self.client_of(node), command, None)
            if send is None:
                continue  # transport without replication support
            try:
                send(*args)
            except ConnectorError as e:
                self.record(node, ok=False, error=e)
            else:
                self.record(node, ok=True)

    def subscribe(self, partition_topic: str, *, from_seq: int | None = None) -> Any:
        """Subscribe to ``partition_topic`` on its current live owner.

        With replication on, returns a
        :class:`~repro.stream.failover.FailoverSubscription` that rides
        out broker death by re-subscribing on the next live owner from
        its cursor; otherwise a plain transport subscription.
        """
        if self.replicas > 1:
            return FailoverSubscription(self, partition_topic, from_seq=from_seq)
        return self.bus_for(partition_topic).subscribe(
            partition_topic, from_seq=from_seq,
        )

    def config(self) -> dict[str, Any]:
        """Return a picklable dict re-creating an equivalent router."""
        return {
            'topic': self.topic,
            'partitions': self.partitions,
            'brokers': [bus.config() for bus in self.brokers],
            'replicas': self.replicas,
        }

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> 'PartitionRouter':
        """Rebuild a router from a :meth:`config` dictionary."""
        router = cls(
            config['topic'],
            config['partitions'],
            [bus_from_config(c) for c in config['brokers']],
            replicas=int(config.get('replicas', 1)),
        )
        # Buses rebuilt from configs are owned by this router.
        router._owned = router.brokers
        return router

    def close(self) -> None:
        """Close the buses this router created from URLs or configs."""
        for bus in self._owned:
            bus.close()
        self._owned = []


# --------------------------------------------------------------------------- #
# Group state backends
# --------------------------------------------------------------------------- #
#: Process-global group states of the in-process transport, keyed by
#: (local bus id, group name) like the topics of a
#: :class:`~repro.stream.bus.LocalEventBus` namespace.  One lock guards
#: the registry and every state in it.
_LOCAL_GROUPS: dict[tuple[str, str], GroupState] = {}
_LOCAL_GROUPS_LOCK = threading.Lock()


class _LocalBackend:
    """Group-state backend over the in-process transport: a locked GroupState."""

    def __init__(self, namespace: str, group: str) -> None:
        with _LOCAL_GROUPS_LOCK:
            self._state = _LOCAL_GROUPS.setdefault((namespace, group), GroupState())

    def _locked(self, op: Any, *args: Any) -> Any:
        with _LOCAL_GROUPS_LOCK:
            return op(self._state, *args, now=time.monotonic())

    def join(self, member: str, session_timeout: float) -> dict[str, Any]:
        return self._locked(GroupState.join, member, session_timeout)

    def heartbeat(
        self,
        member: str,
        positions: dict[str, int],
        ends: dict[str, int] | None = None,
    ) -> dict[str, Any]:
        return self._locked(GroupState.heartbeat, member, positions, ends)

    def leave(self, member: str, positions: dict[str, int]) -> None:
        self._locked(GroupState.leave, member, positions)

    def commit(
        self,
        member: str,
        offsets: dict[str, int],
        positions: dict[str, int],
        ends: dict[str, int] | None = None,
    ) -> None:
        self._locked(GroupState.commit, member, offsets, positions, ends)

    def fetch(self, topics: Sequence[str]) -> dict[str, dict[str, Any]]:
        return self._locked(GroupState.fetch, topics)

    def stats(self) -> dict[str, Any]:
        return self._locked(GroupState.stats)


#: One walk over the coordinator owners, no retry: for best-effort calls.
_ONE_WALK = RetryPolicy(max_attempts=1)


class _KVBackend:
    """Group-state backend over the SimKV coordinator broker chain.

    Every mutating command goes to the *acting* coordinator — the first
    live broker in the fixed ring-owner list for ``coordinator:group:X``
    — and is then mirrored to the other live owners as a lenient
    ``REPL_GROUP`` delta carrying the primary's post-op generation.  When
    the acting broker dies (a :class:`~repro.exceptions.NodeUnavailableError`
    streak recorded into the router's failure detector), the owner walk
    lands on the next live replica, whose mirrored state — membership
    leases, generation, committed offsets, recorded ends — lets the group
    continue without losing a commit.  :attr:`failovers` counts acting-
    broker changes; consumers observing a bump force a rejoin/resync.
    Without replication the chain is the one designated broker: mirroring
    is a no-op, :attr:`failovers` stays 0, and a restarting broker is
    ridden out by the same jittered backoff walk publishes use.
    """

    def __init__(self, group: str, router: PartitionRouter) -> None:
        self._group = group
        self._router = router
        self._key = f'group:{group}'
        #: Times the acting coordinator broker changed (observed by
        #: consumers as the force-rejoin signal).
        self.failovers = 0
        self._acting: str | None = None

    @property
    def acting_broker(self) -> str | None:
        """Node id of the broker that last served a coordinator command."""
        return self._acting

    def _call(
        self,
        op: Any,
        mirror: dict[str, Any] | None = None,
        policy: RetryPolicy = DEFAULT_RECONNECT_POLICY,
    ) -> Any:
        """Run ``op(client)`` on the acting coordinator with failover.

        Only :class:`~repro.exceptions.NodeUnavailableError` triggers the
        failover walk — any other connector error is the request's own
        problem (e.g. an expired member) and propagates to the caller.
        ``policy`` paces the repeated walks over the owners.
        """
        last: Exception | None = None
        for _attempt in policy.attempts():
            for node in self._router.coordinator_owners(self._key):
                client = self._router.client_of(node)
                if client is None:
                    continue
                try:
                    result = op(client)
                except NodeUnavailableError as e:
                    self._router.record(node, ok=False, error=e)
                    last = e
                    continue
                self._router.record(node, ok=True)
                if self._acting is not None and node != self._acting:
                    self.failovers += 1
                self._acting = node
                if mirror is not None:
                    if isinstance(result, dict) and 'generation' in result:
                        mirror['generation'] = result['generation']
                    self._router._mirror(
                        f'coordinator:{self._key}', node, 'repl_group',
                        self._group, mirror,
                    )
                return result
        raise last if last is not None else NodeUnavailableError(
            f'no coordinator broker reachable for group {self._group!r}',
        )

    def join(self, member: str, session_timeout: float) -> dict[str, Any]:
        """Join on the acting coordinator; mirrored to the replicas."""
        return self._call(
            lambda c: c.group_join(
                self._group, member, session_timeout=session_timeout,
            ),
            mirror={
                'op': 'join', 'member': member,
                'session_timeout': session_timeout,
            },
        )

    def heartbeat(
        self,
        member: str,
        positions: dict[str, int],
        ends: dict[str, int] | None = None,
    ) -> dict[str, Any]:
        """Heartbeat the acting coordinator (lease refresh mirrors too)."""
        return self._call(
            lambda c: c.group_heartbeat(self._group, member, positions, ends),
            mirror={
                'op': 'heartbeat', 'member': member,
                'positions': dict(positions), 'ends': dict(ends or {}),
            },
        )

    def leave(self, member: str, positions: dict[str, int]) -> None:
        """Leave via the acting coordinator; mirrored to the replicas.

        Best effort: one walk over the owners with no backoff.  A member
        that cannot reach any of them is expired when its lease runs out,
        so riding out a dead broker would only stall the caller.
        """
        self._call(
            lambda c: c.group_leave(self._group, member, positions),
            mirror={
                'op': 'leave', 'member': member, 'positions': dict(positions),
            },
            policy=_ONE_WALK,
        )

    def commit(
        self,
        member: str,
        offsets: dict[str, int],
        positions: dict[str, int],
        ends: dict[str, int] | None = None,
    ) -> None:
        """Commit offsets on the acting coordinator; mirrored monotonically."""
        self._call(
            lambda c: c.offset_commit(
                self._group, offsets,
                member=member, positions=positions, ends=ends,
            ),
            mirror={
                'op': 'commit', 'member': member, 'offsets': dict(offsets),
                'positions': dict(positions), 'ends': dict(ends or {}),
            },
        )

    def fetch(self, topics: Sequence[str]) -> dict[str, dict[str, int]]:
        """Fetch offset state from the acting coordinator (read-only)."""
        return self._call(lambda c: c.offset_fetch(self._group, list(topics)))

    def stats(self) -> dict[str, Any]:
        """Fetch full group state from the acting coordinator (read-only)."""
        return self._call(lambda c: c.group_stats(self._group))


class GroupCoordinator:
    """Client handle to one group's membership and offset state.

    The state lives on the group's *designated broker* — the ring-primary
    of ``coordinator:{group}`` over the broker fleet — so every member
    finds the coordinator without any lookup service (the same
    coordinator-free placement partitions use).  Over the in-process
    transport it is the same :class:`~repro.kvserver.state.GroupState`
    the broker runs, one per bus namespace and group, behind a lock.
    """

    def __init__(self, group: str, router: PartitionRouter) -> None:
        if not group:
            raise ValueError('group name must be non-empty')
        self.group = group
        designated = router.designated(f'group:{group}')
        if hasattr(getattr(designated, 'client', None), 'group_join'):
            self._backend: Any = _KVBackend(group, router)
        elif type(designated).__name__ == 'LocalEventBus':
            self._backend = _LocalBackend(designated.bus_id, group)
        else:
            raise StreamGroupError(
                f'bus {designated!r} supports no group-state backend',
            )
        self.designated_broker = broker_id(designated)

    @property
    def failovers(self) -> int:
        """Coordinator-broker failovers observed (0 without replication)."""
        return getattr(self._backend, 'failovers', 0)

    def __repr__(self) -> str:
        return (
            f'GroupCoordinator(group={self.group!r}, '
            f'broker={self.designated_broker!r})'
        )

    def join(self, member: str, session_timeout: float) -> dict[str, Any]:
        """Register ``member``; returns the ``{'generation', 'members'}`` view."""
        return self._backend.join(member, session_timeout)

    def heartbeat(
        self,
        member: str,
        positions: dict[str, int],
        ends: dict[str, int] | None = None,
    ) -> dict[str, Any]:
        """Refresh the lease, report delivered positions and seen ends.

        Raises:
            GroupMembershipError: the member was expired and must rejoin.
            NodeUnavailableError: the designated broker is unreachable
                (transient — the caller retries on the next beat).
        """
        try:
            return self._backend.heartbeat(member, positions, ends)
        except ConnectorError as e:
            # A broker reports an expired member as an 'unknown member' error.
            if isinstance(e, (GroupMembershipError, NodeUnavailableError)) or (
                'unknown member' not in str(e)
            ):
                raise
            raise GroupMembershipError(f'member {member!r} expired from the group') from e

    def leave(self, member: str, positions: dict[str, int]) -> None:
        """Deregister ``member`` voluntarily (immediate generation bump)."""
        self._backend.leave(member, positions)

    def commit(
        self,
        member: str,
        offsets: dict[str, int],
        positions: dict[str, int],
        ends: dict[str, int] | None = None,
    ) -> None:
        """Commit per-partition offsets (monotonic), positions, and ends."""
        self._backend.commit(member, offsets, positions, ends)

    def fetch(self, topics: Sequence[str]) -> dict[str, dict[str, Any]]:
        """Fetch ``{topic: {'committed', 'watermark', 'end', 'end_member'}}``."""
        return self._backend.fetch(topics)

    def stats(self) -> dict[str, Any]:
        """Return the group's full coordinator-side state."""
        return self._backend.stats()


# --------------------------------------------------------------------------- #
# The group consumer
# --------------------------------------------------------------------------- #
class _PartitionClaim:
    """One claimed partition: its subscription, cursor, and un-acked keys."""

    __slots__ = (
        'topic', 'subscription', 'read_pos', 'position', 'acked_through',
        'redeliver_below', 'unacked', 'ended', 'end_seq', 'lost_seen',
    )

    def __init__(
        self,
        topic: str,
        subscription: Any,
        committed: int,
        watermark: int,
    ) -> None:
        self.topic = topic
        self.subscription = subscription
        #: Next sequence number to read from the subscription (dedup guard).
        self.read_pos = committed
        #: Next sequence number to *yield to the caller* — everything the
        #: commit/watermark machinery reports is in yielded terms, so an
        #: in-flight batch that was read but never handed to the
        #: application is redelivered after a crash, not skipped.
        self.position = committed
        #: Offset already committed for this partition.
        self.acked_through = committed
        #: Events below this position were delivered before (by a previous
        #: claimant) but never acked — delivering them again is redelivery.
        self.redeliver_below = watermark
        #: Delivered-but-unacked ``(seq, key)`` pairs since the last ack.
        self.unacked: list[tuple[int, Any]] = []
        self.ended = False
        #: Sequence number of the end-of-stream marker (once delivered).
        self.end_seq: int | None = None
        #: Subscription lost-count already folded into the group totals.
        self.lost_seen = 0


class GroupConsumer:
    """A member of a consumer group over a partitioned topic.

    Joins ``group`` at construction, heartbeats in the background, and
    iterates exactly the partitions assigned to this member — yielding
    lazy proxies like :class:`~repro.stream.StreamConsumer`, but with
    **at-least-once** semantics: :meth:`ack` first evicts the delivered
    keys, then commits the per-partition offsets, so a crash at any point
    is recovered by redelivery (never by stranding keys).  When another
    member joins, leaves, or dies, the coordinator bumps the group
    generation and this consumer transparently re-syncs its partition
    claims on the next poll.

    Args:
        store: store the items' bulk data lives in.
        bus: the broker fleet — one bus/URL or a sequence of them.
        topic: the logical (partitioned) topic.
        group: consumer-group name; offsets and membership are scoped to it.
        partitions: partition count of the topic — must match the
            producer's (the coordinator-free contract, like agreeing on a
            hash ring).
        member: this member's id (generated when omitted; must be unique
            within the group).
        session_timeout: heartbeat lease seconds — miss it and the broker
            expires this member and survivors take its partitions.
        heartbeat_interval: seconds between heartbeats (default: a third
            of the session timeout).
        timeout: seconds without any delivered event before iteration
            raises ``TimeoutError`` (``None`` = wait forever).
        prefetch: kick off background resolution of up to this many
            delivered-but-unconsumed proxies.
        replicas: partition replication factor — must match the
            producer's.  Above 1, subscriptions fail over to replica
            brokers and the coordinator state survives the designated
            broker's death (the member rejoins on the surviving replica).

    Iteration ends when every partition assigned to this member has
    delivered its end-of-stream marker.  The marker is deliberately never
    committed past, so a partition re-claimed later replays it and the new
    claimant terminates too.
    """

    def __init__(
        self,
        store: 'Store',
        bus: 'Sequence[EventBus | str] | EventBus | str',
        topic: str,
        *,
        group: str,
        partitions: int,
        member: str | None = None,
        session_timeout: float = DEFAULT_SESSION_TIMEOUT,
        heartbeat_interval: float | None = None,
        timeout: float | None = 30.0,
        prefetch: int = 0,
        replicas: int = 1,
    ) -> None:
        if session_timeout <= 0:
            raise ValueError('session_timeout must be positive')
        if prefetch < 0:
            raise ValueError('prefetch must be non-negative')
        from repro.connectors.protocol import new_object_id

        self.store = store
        self.router = PartitionRouter(topic, partitions, bus, replicas=replicas)
        self.topic = topic
        self.group = group
        self.member = member if member is not None else f'member-{new_object_id()}'
        self.session_timeout = session_timeout
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval is not None
            else session_timeout / _HEARTBEAT_FRACTION
        )
        self.timeout = timeout
        self.prefetch = prefetch
        self.coordinator = GroupCoordinator(group, self.router)

        self._claims: dict[str, _PartitionClaim] = {}
        self._ready: list[tuple[str, Any, Any, bool, bool]] = []
        self._view_lock = threading.Lock()
        self._view: dict[str, Any] = {'generation': -1, 'members': []}
        self._needs_rejoin = False
        self._synced_generation = -1
        self._seen_failovers = 0
        self._closed = threading.Event()
        self._rr = 0

        self.delivered = 0
        self.redelivered = 0
        self.deduplicated = 0
        self.acked = 0
        self._lost = 0

        self._set_view(self.coordinator.join(self.member, session_timeout))
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f'group-heartbeat-{self.member}',
            daemon=True,
        )
        self._heartbeat_thread.start()

    def __repr__(self) -> str:
        return (
            f'GroupConsumer(topic={self.topic!r}, group={self.group!r}, '
            f'member={self.member!r})'
        )

    # -- membership --------------------------------------------------------- #
    def _set_view(self, view: dict[str, Any]) -> None:
        with self._view_lock:
            if view['generation'] > self._view['generation']:
                self._view = view

    def _positions(self) -> dict[str, int]:
        """Delivered positions per claimed partition (the watermark report)."""
        # Snapshot: the heartbeat thread reads while the consumer thread
        # may be adding or dropping claims.
        return {
            topic: claim.position
            for topic, claim in list(self._claims.items())
        }

    def _ends(self) -> dict[str, int]:
        """End-marker seqs of the partitions *fully yielded* to the caller.

        A read-ahead marker with items still in the ready window is not an
        end yet: reporting it early would let the group conclude the
        partition is finished while this member still holds undelivered
        events.
        """
        return {
            topic: claim.end_seq
            for topic, claim in list(self._claims.items())
            if claim.end_seq is not None and claim.position >= claim.end_seq
        }

    def _beat(self) -> None:
        """Heartbeat with this member's positions and ends; adopt the view."""
        self._set_view(
            self.coordinator.heartbeat(self.member, self._positions(), self._ends()),
        )

    def _heartbeat_loop(self) -> None:
        while not self._closed.wait(self.heartbeat_interval):
            try:
                self._beat()
            except GroupMembershipError:
                self._needs_rejoin = True
            except ConnectorError:
                # The designated broker is unreachable or mid-restart: a
                # transient condition — the next beat retries, and the
                # session only ends if the broker itself expires us.
                continue

    @property
    def generation(self) -> int:
        """The membership generation this member has synced to."""
        return self._synced_generation

    def refresh(self) -> int:
        """Heartbeat immediately and sync the partition assignment.

        Normally membership changes propagate at the heartbeat cadence;
        this forces a round trip now — useful to make a fleet converge on
        one generation deterministically (e.g. before starting a load, or
        in tests).  Returns the generation synced to.
        """
        try:
            self._beat()
        except GroupMembershipError:
            self._needs_rejoin = True
        self._sync_membership()
        return self._synced_generation

    @property
    def assignment(self) -> list[str]:
        """The partition topics currently claimed by this member."""
        return sorted(self._claims)

    def _sync_membership(self) -> None:
        """Re-derive this member's partition claims from the latest view."""
        failovers = self.coordinator.failovers
        if failovers != self._seen_failovers:
            # The coordinator broker changed under us.  The replica's
            # mirrored state is authoritative now but its generation may
            # trail the one we synced to — rejoin and resync from scratch.
            self._seen_failovers = failovers
            self._needs_rejoin = True
        if self._needs_rejoin:
            # Our lease expired (or the coordinator failed over):
            # survivors may already own our partitions.  Drop every claim
            # (their un-acked events will be redelivered — possibly to us)
            # and start over from the committed offsets.  The view resets
            # too: a stale generation from the old coordinator must not
            # out-rank the new acting coordinator's numbering.
            self._needs_rejoin = False
            self._drop_claims(list(self._claims))
            self._synced_generation = -1
            with self._view_lock:
                self._view = {'generation': -1, 'members': []}
            self._set_view(
                self.coordinator.join(self.member, self.session_timeout),
            )
        with self._view_lock:
            view = dict(self._view)
        if view['generation'] == self._synced_generation:
            return
        mine = assign_partitions(
            view['members'], self.router.topics,
        ).get(self.member, [])
        dropped = [t for t in self._claims if t not in mine]
        added = [t for t in mine if t not in self._claims]
        self._drop_claims(dropped)
        if added:
            offsets = self.coordinator.fetch(added)
            for topic in added:
                entry = offsets.get(topic, {})
                committed = int(entry.get('committed', 0))
                watermark = int(entry.get('watermark', 0))
                subscription = self.router.subscribe(
                    topic, from_seq=committed,
                )
                self._claims[topic] = _PartitionClaim(
                    topic, subscription, committed, watermark,
                )
        self._synced_generation = view['generation']

    def _drop_claims(self, topics: list[str]) -> None:
        """Release partitions reassigned away from this member.

        Their delivered-but-unacked events are *not* evicted and *not*
        committed: the new claimant resumes from the committed offset and
        redelivers them — the nack-back path that keeps handoff lossless.
        """
        for topic in topics:
            claim = self._claims.pop(topic, None)
            if claim is None:
                continue
            self._harvest_lost(claim)
            claim.subscription.close()
            self._ready = [
                entry for entry in self._ready if entry[0] != topic
            ]

    def _harvest_lost(self, claim: _PartitionClaim) -> None:
        delta = claim.subscription.lost - claim.lost_seen
        if delta > 0:
            self._lost += delta
            claim.lost_seen = claim.subscription.lost
            self._record('stream.group.lost', delta)

    # -- delivery ----------------------------------------------------------- #
    def _record(self, operation: str, count: int = 1, nbytes: int = 0) -> None:
        metrics = self.store.metrics
        if metrics is None or count <= 0:
            return
        for _ in range(count):
            metrics.record(operation, 0.0, nbytes)

    def _materialize(self, claim: _PartitionClaim, event: 'StreamEvent') -> None:
        """Deliver one decoded event from ``claim`` into the ready window."""
        from repro.stream.events import StreamEvent  # local: cycle avoidance

        assert isinstance(event, StreamEvent)
        if event.seq < claim.read_pos:
            return  # duplicate push/fetch overlap
        claim.read_pos = event.seq + 1
        if event.end:
            claim.ended = True
            claim.end_seq = event.seq
            return
        redelivered = event.seq < claim.redeliver_below
        if redelivered and event.key is not None and not self.store.exists(event.key):
            # The previous claimant evicted the key but died before its
            # commit landed: the work was done — skip, don't re-deliver a
            # proxy that can no longer resolve.  The skip still advances
            # the yield cursor so the commit can move past it.
            self.deduplicated += 1
            self._record('stream.group.deduplicated')
            # A skip entry keeps the yield cursor advancing in seq order.
            self._ready.append((claim.topic, event, None, redelivered, True))
            return
        if event.inline:
            assert event.payload is not None
            item: Any = self.store.deserializer(event.payload)
        else:
            item = Proxy(StoreFactory(event.key, self.store.config()))
            if self.prefetch and len(self._ready) <= self.prefetch:
                resolve_async(item)
        self._ready.append((claim.topic, event, item, redelivered, False))

    def _poll_once(self, slice_timeout: float) -> None:
        """One pass over the assigned subscriptions, budgeting the wait."""
        from repro.stream.events import StreamEvent

        claims = [c for c in self._claims.values() if not c.ended]
        if not claims:
            if not self._claims:
                # No partitions assigned (more members than partitions):
                # idle until a rebalance hands us some.
                self._closed.wait(slice_timeout)
            return
        per_claim = slice_timeout / len(claims)
        for offset in range(len(claims)):
            claim = claims[(self._rr + offset) % len(claims)]
            batch = claim.subscription.next_batch(timeout=per_claim)
            self._harvest_lost(claim)
            for seq, data in batch:
                self._materialize(claim, StreamEvent.decode(data, seq=seq))
        self._rr += 1

    def _group_done(self) -> bool:
        """Whether every partition of the topic is finished for the group.

        A partition is finished when its end marker is recorded and either
        the committed offset reached it (fully acked) or the member that
        delivered it is still alive (its ack is pending — and if it dies
        first, expiry re-opens the partition for redelivery).  Pushes our
        own ends via a heartbeat first so two members draining
        concurrently observe each other's markers.
        """
        try:
            self._beat()
            state = self.coordinator.fetch(self.router.topics)
        except GroupMembershipError:
            self._needs_rejoin = True
            return False
        except ConnectorError:
            return False
        with self._view_lock:
            members = set(self._view['members'])
        for topic in self.router.topics:
            entry = state.get(topic) or {}
            end = entry.get('end')
            if end is None:
                return False
            if int(entry.get('committed', 0)) >= int(end):
                continue
            if entry.get('end_member') not in members:
                return False
        return True

    def events(self) -> 'Iterator[tuple[StreamEvent, Any]]':
        """Yield ``(event, item)`` pairs from this member's partitions.

        Raises:
            TimeoutError: when no event arrives within ``timeout`` seconds
                (rebalances reset the clock — a claim handoff is progress).
        """
        deadline = (
            None if self.timeout is None
            else time.monotonic() + self.timeout
        )
        while not self._closed.is_set():
            before = self._synced_generation
            self._sync_membership()
            if self._synced_generation != before and deadline is not None:
                deadline = time.monotonic() + self.timeout  # type: ignore[operator]
            if not self._ready:
                self._poll_once(_POLL_SLICE)
            if self._ready:
                topic, event, item, redelivered, skip = self._ready.pop(0)
                claim = self._claims.get(topic)
                if claim is None:
                    continue  # partition was reassigned away mid-window
                # Delivery happens *here*, not at read time: the yield
                # cursor (commits, watermarks, the un-acked ledger) covers
                # exactly what the application has seen.
                claim.position = event.seq + 1
                if skip:
                    continue
                if redelivered and not event.inline:
                    # Resolve redelivered proxies *eagerly*: the previous
                    # claimant's fenced ack may still be in flight, and
                    # its evict can land between our exists check and the
                    # application's resolve.  A failed resolve here means
                    # the work was acked after all — dedup, don't crash.
                    try:
                        resolve(item)
                    except ProxyResolveError:
                        self.deduplicated += 1
                        self._record('stream.group.deduplicated')
                        continue
                if not event.inline:
                    claim.unacked.append((event.seq, event.key))
                self.delivered += 1
                self._record('stream.group.delivered', 1, event.nbytes)
                if redelivered:
                    self.redelivered += 1
                    self._record('stream.group.redelivered')
                yield event, item
                if deadline is not None:
                    deadline = time.monotonic() + self.timeout  # type: ignore[operator]
                continue
            if self._claims and all(c.ended for c in self._claims.values()):
                # Our partitions are drained, but the *group* may not be
                # done: a dead member's partitions could still rebalance
                # to us.  Return only once every partition of the topic is
                # finished; otherwise keep heartbeating and syncing.
                if self._group_done():
                    return
                self._closed.wait(_POLL_SLICE)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f'no event for group {self.group!r} member '
                    f'{self.member!r} within {self.timeout}s',
                )

    def __iter__(self) -> Iterator[Any]:
        for _event, item in self.events():
            yield item

    # -- acknowledgement ---------------------------------------------------- #
    def ack(self) -> int:
        """Evict every delivered key, then commit the offsets; returns count.

        Eviction precedes the commit deliberately: a crash between the two
        leaves *committed-behind* state, which redelivery plus the
        missing-key dedup check repairs — the opposite order could commit
        past events whose keys still exist, stranding them forever.

        The ack is *fenced*: it first heartbeats and syncs to the latest
        generation, so a partition reassigned away since the last sync is
        nacked back (nothing evicted, nothing committed) rather than
        acked concurrently with its new owner — without the fence the old
        owner could evict a key the new owner is about to resolve.  The
        fence heartbeat also reports the delivered positions, so anything
        this member acks right after it is inside the new owner's
        redelivery window and hits the missing-key dedup check instead of
        a failed resolve.
        """
        self.refresh()
        keys = []
        offsets: dict[str, int] = {}
        counted = 0
        for claim in self._claims.values():
            if claim.unacked:
                keys.extend(key for _seq, key in claim.unacked)
                counted += len(claim.unacked)
                claim.unacked = []
            if claim.position > claim.acked_through or claim.ended:
                offsets[claim.topic] = claim.position
                claim.acked_through = claim.position
        if keys:
            self.store.evict_batch(keys)
        if offsets:
            self.coordinator.commit(
                self.member, offsets, self._positions(), self._ends(),
            )
            self._record('stream.group.commits')
        self.acked += counted
        return counted

    # -- accounting ---------------------------------------------------------- #
    @property
    def lost(self) -> int:
        """Events that aged out of broker retention before delivery here."""
        for claim in self._claims.values():
            self._harvest_lost(claim)
        return self._lost

    def stats(self) -> dict[str, Any]:
        """This member's delivery accounting and membership position."""
        return {
            'group': self.group,
            'member': self.member,
            'generation': self._synced_generation,
            'assignment': self.assignment,
            'delivered': self.delivered,
            'redelivered': self.redelivered,
            'deduplicated': self.deduplicated,
            'acked': self.acked,
            'lost': self.lost,
        }

    # -- lifecycle ----------------------------------------------------------- #
    def close(self, *, ack_pending: bool = False) -> None:
        """Leave the group, releasing this member's partitions to survivors.

        Delivered-but-unacked events are *nacked back*: their offsets stay
        uncommitted and their keys stay stored, so the members that claim
        these partitions redeliver them — nothing is stranded, nothing is
        silently dropped.  ``ack_pending=True`` instead acks (evicts and
        commits) everything delivered before leaving.
        """
        if self._closed.is_set():
            return
        if ack_pending:
            self.ack()
        self._closed.set()
        try:
            self.coordinator.leave(self.member, self._positions())
        except ConnectorError:  # broker already gone: expiry will handle it
            pass
        for claim in self._claims.values():
            claim.subscription.close()
        self._claims.clear()
        self._heartbeat_thread.join(timeout=2.0)
        self.router.close()

    def __enter__(self) -> 'GroupConsumer':
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close()

    def __reduce__(self) -> Any:
        """Group consumers do not pickle: membership is a live lease.

        A pickled copy would duplicate the member id (two heartbeats, one
        lease) and silently split the un-acked bookkeeping.  Construct a
        new consumer in the target process — it joins as a fresh member
        and the group rebalances to include it.
        """
        raise StoreError(
            'a GroupConsumer cannot be pickled: group membership is a live '
            'heartbeat lease; construct a consumer with the same group= in '
            'the target process and the partitions will rebalance to it',
        )
