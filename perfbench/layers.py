"""Per-layer metrics of a traced run, and the end-to-end metric each moves.

``LAYER_MAP`` is the prediction written down before measuring: which
end-to-end metric a change in each layer metric should move, and on which
workload (``task_small`` is runnable but not in ``BENCHMARK.json``; see
the README).  The names, their order and their units are those of
``BENCHMARK.json``.  A metric of a layer a workload does not cross (the
stream layer on the task workloads, ``Store.proxy`` on the stream) reads 0
there.

Self time is only a layer's own time when the layer's children run on its
thread.  On ``stream_mixed`` a prefetch thread makes the ``Store.get`` of a
proxied item, so the consumer's ``proxy.resolve`` self time there is mostly
the wait for that thread; ``stream.resolve_p50_us`` reports the stream's
resolve time, and ``proxy.resolve_self_p50_us`` is mapped to the task
workloads only.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from perfbench.harness import Phase
from perfbench.harness import p50_us
from perfbench.tracing import Tracer

#: metric -> (end-to-end metric it should move, workloads it shows on).
LAYER_MAP: dict[str, tuple[str, str]] = {
    'proxy.create_self_p50_us': ('produce_p50_us', 'task_large task_small'),
    'proxy.resolve_self_p50_us': ('consume_p50_us', 'task_large task_small'),
    'proxy.pickled_bytes': ('op_p50_us', 'task_large task_small'),
    'serialize.p50_us': ('produce_p50_us', 'task_large task_small'),
    'serialize.bytes_per_user_byte': ('MBps', 'task_large'),
    'store.get_self_p50_us': ('consume_p50_us', 'task_large'),
    'store.evict_p50_us': ('consume_p50_us', 'stream_mixed task_small'),
    'cache.hit_rate': ('none predicted', 'all'),
    'connector.put_self_p50_us': ('op_p50_us', 'stream_mixed task_small'),
    'connector.get_self_p50_us': ('op_p50_us', 'stream_mixed task_small'),
    'connector.evict_self_p50_us': ('op_p50_us', 'stream_mixed task_small'),
    'kvclient.set_p50_us': ('op_p50_us', 'stream_mixed task_small'),
    'kvclient.get_p50_us': ('op_p50_us', 'stream_mixed task_small'),
    'kvclient.delete_p50_us': ('op_p50_us', 'stream_mixed task_small'),
    'kvclient.publish_p50_us': ('op_p50_us', 'stream_mixed'),
    'kvclient.requests_per_op': ('op_p50_us', 'stream_mixed task_small'),
    'kvclient.ping_p50_us': ('op_p50_us', 'stream_mixed task_small'),
    'wire.floor_p50_us': ('op_p50_us', 'stream_mixed task_small'),
    'kvclient.ping_over_floor': ('op_p50_us', 'stream_mixed task_small'),
    'kvserver.cpu_us_per_op': ('cpu_us_per_op', 'stream_mixed'),
    'kvserver.rss_peak_mb': ('peak_rss_mb', 'task_large'),
    'kvserver.keys_after': ('correctness: must be 0', 'all'),
    'client.cpu_us_per_op': ('cpu_us_per_op', 'stream_mixed task_large'),
    'client.threads_peak': ('cpu_us_per_op', 'stream_mixed'),
    'client.rss_peak_mb': ('peak_rss_mb', 'task_large'),
    'stream.inline_share': ('op_p50_us', 'stream_mixed'),
    'stream.wait_p50_us': ('op_p50_us', 'stream_mixed'),
    'stream.resolve_p50_us': ('consume_p50_us', 'stream_mixed'),
    'stream.lost': ('failed ops', 'stream_mixed'),
    'trace.op_p50_us': ('op_p50_us (traced)', 'all'),
    'trace.overhead_ratio': ('tracing cost', 'all'),
    'trace.accounted_share': ('op_p50_us', 'task_large task_small'),
}

def layer_metrics(
    tracer: Tracer,
    traced: Phase,
    untraced: Phase,
    *,
    floor_us: float,
    ping_us: float,
    keys_after: int,
    client_rss_mb: float,
    server_rss_mb: float,
    cache_stats: list[dict[str, Any]],
) -> dict[str, float]:
    """Every metric of ``LAYER_MAP`` from one traced and one untraced phase.

    Span times come from the traced phase; process counters (CPU, RSS,
    threads) come from the untraced one, which tracing does not inflate.
    """
    self_ns = tracer.self_times()
    duration: dict[str, list[int]] = {}
    own: dict[str, list[int]] = {}
    requests = 0
    for span_id, _parent, _op, name, start, end in tracer.spans:
        duration.setdefault(name, []).append(end - start)
        own.setdefault(name, []).append(self_ns[span_id])
        if name.startswith('kvclient.'):
            requests += 1
    ops = max(traced.attempted, 1)
    accounted = [
        1 - self_ns[span_id] / max(end - start, 1)
        for span_id, _parent, _op, name, start, end in tracer.spans
        if name == 'op'
    ]
    hits = sum(s['hits'] for s in cache_stats)
    lookups = hits + sum(s['misses'] for s in cache_stats)
    process_ops = max(len(untraced.op_ns), 1)
    totals = untraced.marks[-1]
    traced_p50 = p50_us(traced.op_ns)
    untraced_p50 = p50_us(untraced.op_ns)
    return {
        'proxy.create_self_p50_us': p50_us(own.get('store.proxy', [])),
        'proxy.resolve_self_p50_us': p50_us(own.get('proxy.resolve', [])),
        'proxy.pickled_bytes': float(traced.pickled_bytes),
        'serialize.p50_us': p50_us(duration.get('serialize', [])),
        'serialize.bytes_per_user_byte': (
            tracer.serialized_bytes / traced.user_bytes
            if traced.user_bytes else 0.0
        ),
        'store.get_self_p50_us': p50_us(own.get('store.get', [])),
        'store.evict_p50_us': p50_us(duration.get('store.evict', [])),
        'cache.hit_rate': hits / lookups if lookups else 0.0,
        'connector.put_self_p50_us': p50_us(own.get('connector.put', [])),
        'connector.get_self_p50_us': p50_us(own.get('connector.get', [])),
        'connector.evict_self_p50_us': p50_us(own.get('connector.evict', [])),
        'kvclient.set_p50_us': p50_us(duration.get('kvclient.set', [])),
        'kvclient.get_p50_us': p50_us(duration.get('kvclient.get', [])),
        'kvclient.delete_p50_us': p50_us(duration.get('kvclient.delete', [])),
        'kvclient.publish_p50_us': p50_us(duration.get('kvclient.publish', [])),
        'kvclient.requests_per_op': requests / ops,
        'kvclient.ping_p50_us': ping_us,
        'wire.floor_p50_us': floor_us,
        'kvclient.ping_over_floor': ping_us / floor_us,
        'kvserver.cpu_us_per_op': totals.server_cpu_ns / process_ops / 1e3,
        'kvserver.rss_peak_mb': server_rss_mb,
        'kvserver.keys_after': float(keys_after),
        'client.cpu_us_per_op': totals.client_cpu_ns / process_ops / 1e3,
        'client.threads_peak': float(untraced.threads_peak),
        'client.rss_peak_mb': client_rss_mb,
        'stream.inline_share': traced.inline_sends / traced.sent if traced.sent else 0.0,
        'stream.wait_p50_us': p50_us(traced.wait_ns),
        'stream.resolve_p50_us': p50_us(traced.resolve_ns),
        'stream.lost': float(traced.lost),
        'trace.op_p50_us': traced_p50,
        'trace.overhead_ratio': traced_p50 / untraced_p50 if untraced_p50 else 0.0,
        'trace.accounted_share': float(np.median(accounted)) if accounted else 0.0,
    }
