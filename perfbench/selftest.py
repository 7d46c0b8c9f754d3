"""Self-tests of the benchmark: seeded inputs and exact count metrics.

Run with ``python3 -m pytest perfbench/selftest.py`` from the repository
root.  The file name keeps it out of the default test collection: each
test starts real server processes.
"""
from __future__ import annotations

import itertools
import json
import pickle
import sys
from pathlib import Path
from typing import Any

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / 'src'), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.harness import WORKLOADS  # noqa: E402
from perfbench.inputs import SMALL_FRAME_BYTES  # noqa: E402
from perfbench.inputs import make_inputs  # noqa: E402
from perfbench.layers import LAYER_MAP  # noqa: E402
from perfbench.run import run  # noqa: E402
from repro.exceptions import StoreKeyError  # noqa: E402
from repro.serialize.buffers import payload_nbytes  # noqa: E402
from repro.serialize.serializer import serialize  # noqa: E402
from repro.serialize.serializer import small_frame_threshold  # noqa: E402

CONTRACT = json.loads((ROOT / 'BENCHMARK.json').read_text())

#: Per-layer metrics that count work rather than time it.
COUNT_METRICS = (
    'kvclient.requests_per_op',
    'proxy.pickled_bytes',
    'serialize.bytes_per_user_byte',
    'stream.inline_share',
)


def _units(kind: str) -> dict[str, str]:
    return {m['name']: m['unit'] for m in CONTRACT[kind]}


def _sequence(workload: str, seed: int) -> list[bytes]:
    inputs = make_inputs(workload, seed, tiny=True)
    return [pickle.dumps(item.obj) for item in inputs.cycle()]


@pytest.mark.parametrize('workload', WORKLOADS)
def test_inputs_follow_the_seed(workload: str) -> None:
    assert _sequence(workload, 7) == _sequence(workload, 7)
    assert _sequence(workload, 7) != _sequence(workload, 8)


def test_input_sizes_sit_on_the_intended_side_of_the_compact_frame() -> None:
    assert small_frame_threshold() == SMALL_FRAME_BYTES
    for tiny in (True, False):
        small = make_inputs('task_small', 1, tiny=tiny).items
        assert all(payload_nbytes(serialize(i.obj)) <= SMALL_FRAME_BYTES for i in small)
        large = make_inputs('task_large', 1, tiny=tiny).items
        assert all(payload_nbytes(serialize(i.obj)) > SMALL_FRAME_BYTES for i in large)
        mixed = make_inputs('stream_mixed', 1, tiny=tiny).items
        inline = sum(payload_nbytes(serialize(i.obj)) <= SMALL_FRAME_BYTES for i in mixed)
        assert inline == len(mixed) * 4 // 5


def _counts(workload: str, seed: int) -> dict[str, float]:
    record = run(workload, seed, 0.4, trace=True, tiny=True)
    result = record['result']
    assert result['correct'], record['env']
    assert result['failed'] == 0
    assert result['attempted'] >= 1
    metrics = result['metrics']
    assert list(metrics) == list(LAYER_MAP)
    assert {n: m['unit'] for n, m in metrics.items()} == _units('per_layer')
    assert metrics['kvserver.keys_after']['value'] == 0
    assert metrics['stream.lost']['value'] == 0
    return {name: metrics[name]['value'] for name in COUNT_METRICS}


@pytest.mark.parametrize('workload', WORKLOADS)
def test_tiny_traced_run_is_clean_and_counts_repeat(workload: str) -> None:
    first = _counts(workload, 3)
    assert _counts(workload, 3) == first
    if workload == 'stream_mixed':
        assert first['stream.inline_share'] == pytest.approx(0.8)
        assert first['kvclient.requests_per_op'] == pytest.approx(1 + 3 * 0.2)
    else:
        assert first['kvclient.requests_per_op'] == 3


def test_untraced_run_reports_every_end_to_end_metric() -> None:
    record = run('task_small', 5, 3.0, trace=False, tiny=True)
    result = record['result']
    assert result['correct'] and result['failed'] == 0
    values = {name: m['value'] for name, m in result['metrics'].items()}
    assert {n: m['unit'] for n, m in result['metrics'].items()} == _units('end_to_end')
    assert all(np.isfinite(v) and v > 0 for v in values.values())
    assert record['env']['emulated'] is False
    windows = record['env']['windows']
    assert len(windows['op_p50_us']) == 2  # two windows of WINDOW_S (1.5 s)
    for name, per_window in windows.items():
        assert values[name] == pytest.approx(float(np.median(per_window)))


@pytest.mark.parametrize('workload', ('task_large', 'stream_mixed'))
def test_a_failed_op_makes_the_run_incorrect(
    workload: str, monkeypatch: pytest.MonkeyPatch,
) -> None:
    """An op that raises counts in ``failed`` and the run is not correct.

    The injected error strikes after the value is resolved and evicted, so
    nothing else (a mismatch, a stranded key) marks the run.
    """
    calls = itertools.count()
    real_extract = harness.extract

    def extract_then_fail(*args: Any, **kwargs: Any) -> Any:
        value = real_extract(*args, **kwargs)
        if next(calls) == 3:  # past the set-up and the first ops
            raise StoreKeyError('injected')
        return value

    monkeypatch.setattr(harness, 'extract', extract_then_fail)
    record = run(workload, 3, 0.4, trace=True, tiny=True)
    result = record['result']
    assert result['failed'] == 1
    assert not result['correct']
    assert record['env']['keys_after'] == 0
