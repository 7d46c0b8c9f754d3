"""Spans around the calls the benchmark makes into each layer.

A :class:`Tracer` keeps spans in memory as ``(id, parent, op, name,
start_ns, end_ns)`` tuples.  The parent is the innermost open span on the
same thread; the op id is whatever the thread last set with
:meth:`Tracer.set_op`.  :func:`instrument` wraps public entry points of
each layer for the duration of a traced phase:

* ``Store`` instance methods (``proxy``, ``put``, ``get``, ``evict``,
  ``evict_batch``) and the ``serializer`` instance attribute;
* the connector instance's ``put``/``get``/``evict``/``evict_batch``;
* ``KVClient`` public request methods, on the class, so the stream bus
  clients are covered too.

``Store.deserializer`` is never wrapped: ``Store._inbound`` tests it by
identity, and a wrapper would force a copy of every large payload.  The
deserialize time is part of the ``store.get`` self time instead.
"""
from __future__ import annotations

import functools
import itertools
import threading
from time import perf_counter_ns
from typing import Any
from typing import Callable

from repro.kvserver.client import KVClient
from repro.serialize.buffers import payload_nbytes

#: KVClient methods that each issue one request, and the span they record.
KV_METHODS = {
    'set': 'kvclient.set',
    'get': 'kvclient.get',
    'delete': 'kvclient.delete',
    'mdel': 'kvclient.delete',
    'mset': 'kvclient.set',
    'mget': 'kvclient.get',
    'exists': 'kvclient.exists',
    'publish': 'kvclient.publish',
    'publish_batch': 'kvclient.publish',
    'fetch_events': 'kvclient.fetch_events',
    'topic_config': 'kvclient.topic_config',
    'topic_stats': 'kvclient.topic_stats',
    'ping': 'kvclient.ping',
    'size': 'kvclient.size',
}

STORE_METHODS = {
    'proxy': 'store.proxy',
    'put': 'store.put',
    'get': 'store.get',
    'evict': 'store.evict',
    'evict_batch': 'store.evict',
}

CONNECTOR_METHODS = {
    'put': 'connector.put',
    'get': 'connector.get',
    'evict': 'connector.evict',
    'evict_batch': 'connector.evict',
}


def direct(_name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """The untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder shared by every thread of the load process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int | None, str, int, int]] = []
        self.serialized_bytes = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_op(self, op: int | None) -> None:
        """Tag spans this thread opens from now on with ``op``."""
        self._local.op = op

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        local = self._local
        stack = getattr(local, 'stack', None)
        if stack is None:
            stack = local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append(
                (span_id, parent, getattr(local, 'op', None), name, start, end),
            )

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``fn`` recording a span called ``name`` per call."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)
        return traced

    def wrap_serializer(self, fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
        """Like :meth:`wrap`, and count the serialized bytes after the span."""
        def traced(obj: Any) -> Any:
            data = self.call('serialize', fn, obj)
            self.serialized_bytes += payload_nbytes(data)
            return data
        return traced

    def self_times(self) -> dict[int, int]:
        """Each span's duration minus the time its child spans cover.

        Children run on their parent's thread, nested and one after
        another, so the time they cover is the sum of their durations.
        """
        covered: dict[int, int] = {}
        for _id, parent, _op, _name, start, end in self.spans:
            if parent:
                covered[parent] = covered.get(parent, 0) + end - start
        return {
            span_id: end - start - covered.get(span_id, 0)
            for span_id, _parent, _op, _name, start, end in self.spans
        }


def instrument(tracer: Tracer, stores: list[Any]) -> Callable[[], None]:
    """Wrap the layer entry points; returns the function that unwraps them."""
    undo: list[Callable[[], None]] = []

    def patch_instance(obj: Any, attr: str, value: Any) -> None:
        setattr(obj, attr, value)
        undo.append(lambda: delattr(obj, attr))

    for store in stores:
        original = store.serializer
        store.serializer = tracer.wrap_serializer(original)
        undo.append(functools.partial(setattr, store, 'serializer', original))
        for attr, name in STORE_METHODS.items():
            patch_instance(store, attr, tracer.wrap(name, getattr(store, attr)))
        for attr, name in CONNECTOR_METHODS.items():
            connector = store.connector
            patch_instance(connector, attr, tracer.wrap(name, getattr(connector, attr)))
    for attr, name in KV_METHODS.items():
        original = KVClient.__dict__[attr]
        setattr(KVClient, attr, tracer.wrap(name, original))
        undo.append(functools.partial(setattr, KVClient, attr, original))

    def uninstrument() -> None:
        for step in reversed(undo):
            step()
    return uninstrument
