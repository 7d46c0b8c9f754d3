"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload task_small --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median of
several set-ups, the rest are medians over the windows of one untraced pass
of ``--seconds``.
``--trace 1`` prints the per-layer metrics: an untraced and a traced pass
of ``--seconds / 2`` each, with spans written to
``.perfbench/trace-<workload>.json.gz``.  The last line of standard output
is always the result object; the line before it records the environment.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / 'src' / 'repro' / '__init__.py').is_file():
    sys.exit(f'perfbench: no program to measure: {ROOT / "src" / "repro"} is missing')
sys.path[:0] = [str(ROOT / 'src'), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.inputs import Inputs  # noqa: E402
from perfbench.inputs import make_inputs  # noqa: E402
from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.tracing import instrument  # noqa: E402

CONTRACT = ROOT / 'BENCHMARK.json'


def source_digest() -> str:
    """SHA-256 over ``src/``: identifies the measured code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / 'src').rglob('*.py')):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / '.git').exists():
        return None
    try:
        out = subprocess.run(
            ['git', '-C', str(ROOT), 'rev-parse', 'HEAD'],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    cpus: tuple[int | None, int | None] = (None, None),
    tiny: bool = False,
) -> dict:
    """Measure ``workload``; returns the result and environment records.

    ``cpus`` is ``(load, server)`` as :func:`harness.pin_load_process`
    returned it; the server process is pinned to the second.  ``tiny``
    shrinks the inputs, for the self-tests.
    """
    inputs = make_inputs(workload, seed, tiny=tiny)
    polled = {cpu for cpu in cpus if cpu is not None} or os.sched_getaffinity(0)
    with harness.idle_pollers(polled):
        return _measure(workload, seed, seconds, trace, inputs, cpus)


def _measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    inputs: Inputs,
    cpus: tuple[int | None, int | None],
) -> dict:
    load_cpu, server_cpu = cpus
    base_threads, base_fds = threading.active_count(), harness.open_fds()

    setups = []
    repeats = 1 if trace else harness.SETUP_REPEATS
    for repeat in range(repeats):
        session, elapsed = harness.timed_session(workload, server_cpu)
        setups.append(elapsed)
        if repeat < repeats - 1:
            session.close()
    steal0, wall0 = harness.host_steal_ticks(), time.monotonic()
    try:
        floor_us, ping_us = harness.measure_floor(session)
        warm_up = harness.run_phase(workload, session, inputs, 0.0)  # one cycle
        if trace:
            untraced = harness.run_phase(workload, session, inputs, seconds / 2)
            client_rss_mb = harness.client_rss_peak_mb()  # before spans pile up
            tracer = Tracer()
            uninstrument = instrument(tracer, session.stores)
            try:
                phase = harness.run_phase(workload, session, inputs, seconds / 2, tracer)
            finally:
                uninstrument()
        else:
            phase = harness.run_phase(workload, session, inputs, seconds)
        cache_stats = [store.cache_stats() for store in session.stores]
        if session.producer is not None:
            session.producer.close()
        if session.consumer is not None:
            session.consumer.close()
        keys_after = session.admin.size()
        server_rss_mb = session.server.rss_peak_mb()
        rss_mb = harness.client_rss_peak_mb() + server_rss_mb
        windows = harness.window_metrics(phase)
        e2e = harness.end_to_end(windows, statistics.median(setups), rss_mb)
    finally:
        session.close()
    steal_share = (
        (harness.host_steal_ticks() - steal0) / os.sysconf('SC_CLK_TCK')
        / (time.monotonic() - wall0) / os.cpu_count()
    )
    phases = [warm_up, untraced, phase] if trace else [warm_up, phase]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    threads_after, fds_after = harness.wait_for_baseline(base_threads, base_fds)
    leaks = {
        'threads': threads_after - base_threads,
        'fds': fds_after - base_fds,
    }
    correct = (
        failed == 0
        and keys_after == 0
        and leaks['threads'] <= 0
        and leaks['fds'] <= 0
    )
    if trace:
        metrics = layer_metrics(
            tracer, phase, untraced,
            floor_us=floor_us, ping_us=ping_us, keys_after=keys_after,
            client_rss_mb=client_rss_mb,
            server_rss_mb=server_rss_mb, cache_stats=cache_stats,
        )
        write_trace(workload, seed, tracer)
    else:
        metrics = e2e
    # BENCHMARK.json holds the names, order and units of the reported metrics.
    declared = json.loads(CONTRACT.read_text())['per_layer' if trace else 'end_to_end']
    result_metrics = {
        m['name']: {'value': metrics[m['name']], 'unit': m['unit']} for m in declared
    }
    env = {
        'workload': workload,
        'seed': seed,
        'seconds': seconds,
        'trace': trace,
        'emulated': False,
        'nproc': os.cpu_count(),
        'python': platform.python_version(),
        'git_sha': git_sha(),
        'src_sha256': source_digest(),
        'cpu_pinning': {'load': load_cpu, 'server': server_cpu},
        'idle_poll': True,
        'host_steal_share': steal_share,
        'wire.floor_p50_us': floor_us,
        'kvclient.ping_p50_us': ping_us,
        'ops': attempted - failed,
        'op_p99_us': harness.percentile_us(phase.op_ns, 99),
        'setup_s_samples': setups,
        'windows': {name: [w[name] for w in windows] for name in windows[0]},
        'keys_after': keys_after,
        'leaks': leaks,
        'error_rate': failed / max(attempted, 1),
        'mismatched': sum(p.mismatched for p in phases),
    }
    result = {
        'correct': correct,
        'attempted': attempted,
        'failed': failed,
        'metrics': result_metrics,
    }
    return {'env': env, 'result': result}


def write_trace(workload: str, seed: int, tracer: Tracer) -> None:
    """Write the spans of a traced pass (one file per workload, replaced)."""
    out = ROOT / '.perfbench'
    out.mkdir(exist_ok=True)
    with gzip.open(out / f'trace-{workload}.json.gz', 'wt', compresslevel=1) as f:
        json.dump({
            'workload': workload,
            'seed': seed,
            'fields': ['id', 'parent', 'op', 'name', 'start_ns', 'end_ns'],
            'spans': tracer.spans,
        }, f)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True, choices=harness.WORKLOADS)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error('--seconds must be positive')
    cpus = harness.pin_load_process()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), cpus=cpus)
    print(json.dumps({'env': record['env']}))
    print(json.dumps(record['result']))
    return 0


if __name__ == '__main__':
    sys.exit(main())
