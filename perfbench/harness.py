"""Set-up, workload loops and metrics of the benchmark.

The load process drives a ``KVServer`` that runs in its own process
(``server.py``) over real loopback: no emulated link, no sleeps.  When the
machine has two or more CPUs the server and the load process are pinned to
different ones, so the scheduler does not interleave them on one core.
:func:`idle_pollers` keeps those CPUs out of their idle loop for the run.

Workloads (the op is what latency is measured over):

* ``task_small`` / ``task_large``: a closed loop on one thread.  Each op is
  ``Store.proxy(obj, evict=True)``, ``pickle.dumps`` of the proxy (the task
  argument), ``pickle.loads`` and ``extract``, timed from ``proxy()`` until
  the value is in hand; the value is compared with its source afterwards.
* ``stream_mixed``: one producer thread sends with ``policy='auto'``, one
  consumer thread iterates with prefetch, and at most ``STREAM_IN_FLIGHT``
  items are between ``send()`` and their resolved value.  The op runs from
  ``send()`` to the resolved item in the consumer.
"""
from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import resource
import select
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from dataclasses import field
from pathlib import Path
from time import perf_counter
from time import perf_counter_ns
from time import process_time_ns
from time import thread_time_ns
from typing import Any
from typing import Callable
from typing import Iterable
from typing import Iterator

import numpy as np

from repro.connectors.redis import RedisConnector
from repro.exceptions import ReproError
from repro.kvserver.client import KVClient
from repro.proxy import extract
from repro.proxy import is_proxy
from repro.store import Store
from repro.stream import StreamConsumer
from repro.stream import StreamProducer
from repro.stream.kv import KVEventBus

from perfbench.inputs import Inputs
from perfbench.inputs import same
from perfbench.tracing import Tracer
from perfbench.tracing import direct

SERVER_SCRIPT = Path(__file__).resolve().parent / 'server.py'
IDLE_POLL_SCRIPT = Path(__file__).resolve().parent / 'idle_poll.py'
HOST = '127.0.0.1'

WORKLOADS = ('task_small', 'task_large', 'stream_mixed')

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Items between ``send()`` and their resolved value in ``stream_mixed``.
STREAM_IN_FLIGHT = 2
#: Consumer prefetch depth in ``stream_mixed``.
STREAM_PREFETCH = 2
#: Shortest run of whole input cycles that makes one measurement window.
WINDOW_S = 1.5
#: Seconds any single wait may take before the op counts as failed.
WAIT_TIMEOUT_S = 20.0
#: Round trips of the loopback floor and of ``KVClient.ping``.
FLOOR_ROUNDS = 1000
#: Errors that count an op as failed rather than stopping the benchmark.
OP_ERRORS = (ReproError, TimeoutError, OSError)

_names = itertools.count()


# --------------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------------- #
def pin_load_process() -> tuple[int | None, int | None]:
    """Pin this process to one CPU; return ``(load_cpu, server_cpu)``.

    Call before any thread starts: threads inherit the affinity of the
    thread that creates them.  With a single usable CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0], cpus[-1]


@contextlib.contextmanager
def idle_pollers(cpus: Iterable[int]) -> Iterator[None]:
    """Keep ``cpus`` out of their idle loop (see ``idle_poll.py``)."""
    procs: list[subprocess.Popen] = []
    try:
        for cpu in sorted(cpus):
            procs.append(subprocess.Popen(
                [sys.executable, str(IDLE_POLL_SCRIPT), str(cpu), str(os.getpid())],
            ))
        yield
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait()


def host_steal_ticks() -> int:
    """Clock ticks the hypervisor gave other guests while ours waited."""
    with open('/proc/stat') as f:
        return int(f.readline().split()[8])


def open_fds() -> int:
    return len(os.listdir('/proc/self/fd'))


def client_rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class ServerProcess:
    """``server.py`` in a child process, pinned to ``cpu`` when given."""

    def __init__(self, cpu: int | None) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER_SCRIPT)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            if cpu is not None:
                os.sched_setaffinity(self.proc.pid, {cpu})
            ready, _, _ = select.select([self.proc.stdout], [], [], WAIT_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ''
            if not line:
                raise RuntimeError('the benchmark server did not start')
            self.kv_port, self.echo_port = (int(p) for p in line.split())
        except BaseException:
            self.stop()
            raise

    def cpu_ns(self) -> int:
        """CPU nanoseconds of the server's threads so far (all long-lived)."""
        total = 0
        task_dir = f'/proc/{self.proc.pid}/task'
        for tid in os.listdir(task_dir):
            try:
                with open(f'{task_dir}/{tid}/schedstat') as f:
                    total += int(f.read().split()[0])
            except FileNotFoundError:  # the thread exited meanwhile
                pass
        return total

    def rss_peak_mb(self) -> float:
        with open(f'/proc/{self.proc.pid}/status') as f:
            status = f.read()
        for line in status.splitlines():
            if line.startswith('VmHWM:'):
                return int(line.split()[1]) / 1024
        raise RuntimeError('VmHWM missing from /proc status')

    def stop(self) -> None:
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=WAIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
@dataclass
class Session:
    """One set-up: the server process and every client connected to it."""

    server: ServerProcess
    admin: KVClient
    stores: list[Store] = field(default_factory=list)
    buses: list[KVEventBus] = field(default_factory=list)
    producer: StreamProducer | None = None
    consumer: StreamConsumer | None = None

    def close(self) -> None:
        try:
            if self.producer is not None:
                self.producer.close()
            if self.consumer is not None:
                self.consumer.close()
            for store in self.stores:
                store.close()
            for bus in self.buses:
                bus.close()
            self.admin.close()
        finally:
            self.server.stop()


def _store(role: str, port: int) -> Store:
    name = f'perfbench-{role}-{os.getpid()}-{next(_names)}'
    return Store(name, RedisConnector(HOST, port, pool_size=1))


def open_session(workload: str, server_cpu: int | None) -> Session:
    """Start the server, build the stores and connect every client.

    Set-up ends with one round trip through each client connection the
    workload uses, so no connection is opened inside the timed loop.
    """
    server = ServerProcess(server_cpu)
    session = Session(server, KVClient(HOST, server.kv_port, pool_size=1))
    try:
        session.admin.ping()
        warm = bytes(64 * 1024)  # above the compact-frame threshold: proxied
        if workload == 'stream_mixed':
            producer_store = _store('producer', server.kv_port)
            consumer_store = _store('consumer', server.kv_port)
            session.stores += [producer_store, consumer_store]
            buses = [KVEventBus(HOST, server.kv_port, pool_size=1) for _ in range(2)]
            session.buses += buses
            topic = f'perfbench-{os.getpid()}-{next(_names)}'
            session.producer = StreamProducer(
                producer_store, buses[0], topic, policy='auto',
            )
            session.consumer = StreamConsumer(
                consumer_store, buses[1], topic,
                from_seq=0, prefetch=STREAM_PREFETCH, timeout=WAIT_TIMEOUT_S,
            )
            session.producer.send(warm)
            _event, item = next(session.consumer.events())
            extract(item, evict=True)
        else:
            store = _store('task', server.kv_port)
            session.stores.append(store)
            extract(pickle.loads(pickle.dumps(store.proxy(warm, evict=True))))
    except BaseException:
        session.close()
        raise
    return session


def timed_session(workload: str, server_cpu: int | None) -> tuple[Session, float]:
    start = perf_counter()
    session = open_session(workload, server_cpu)
    return session, perf_counter() - start


def measure_floor(session: Session, rounds: int = FLOOR_ROUNDS) -> tuple[float, float]:
    """Interleaved p50s (µs) of a raw loopback echo and ``KVClient.ping``."""
    message = bytes(64)
    floor, ping = [], []
    with socket.create_connection((HOST, session.server.echo_port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for _ in range(rounds):
            start = perf_counter_ns()
            sock.sendall(message)
            received = 0
            while received < len(message):
                chunk = sock.recv(len(message) - received)
                if not chunk:
                    raise ConnectionError('echo socket closed')
                received += len(chunk)
            floor.append(perf_counter_ns() - start)
            start = perf_counter_ns()
            session.admin.ping()
            ping.append(perf_counter_ns() - start)
    return p50_us(floor), p50_us(ping)


# --------------------------------------------------------------------------- #
# Workload loops
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Mark:
    """Cumulative counts of a phase where one of its windows closed."""

    ops: int
    produced: int
    consumed: int
    user_bytes: int
    wall_ns: int
    client_cpu_ns: int
    server_cpu_ns: int


@dataclass
class Phase:
    """What one timed pass over a workload measured.

    ``marks`` splits the pass into windows of whole input cycles, each at
    least ``WINDOW_S`` long (the last one may be shorter); the last mark
    holds the totals.
    """

    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    op_ns: list[int] = field(default_factory=list)
    produce_ns: list[int] = field(default_factory=list)
    consume_ns: list[int] = field(default_factory=list)
    wait_ns: list[int] = field(default_factory=list)
    resolve_ns: list[int] = field(default_factory=list)
    user_bytes: int = 0
    pickled_bytes: int = 0
    threads_peak: int = 0
    inline_sends: int = 0
    sent: int = 0
    lost: int = 0
    marks: list[Mark] = field(default_factory=list)


class _Meter:
    """Wall, client-CPU and server-CPU time of a phase, window by window.

    Time spent comparing values with their sources is added to
    ``excluded_*`` and left out.
    """

    def __init__(self, server: ServerProcess, phase: Phase, window_s: float) -> None:
        self._server = server
        self._phase = phase
        self._window_s = window_s
        self._start = self._now()
        self.window_end = perf_counter() + window_s
        self.excluded_wall_ns = 0
        self.excluded_cpu_ns = 0

    def _now(self) -> tuple[int, int, int]:
        return perf_counter_ns(), process_time_ns(), self._server.cpu_ns()

    def mark(self) -> None:
        """Close the current window at a cycle boundary."""
        end, phase = self._now(), self._phase
        phase.marks.append(Mark(
            len(phase.op_ns), len(phase.produce_ns), len(phase.consume_ns),
            phase.user_bytes,
            end[0] - self._start[0] - self.excluded_wall_ns,
            end[1] - self._start[1] - self.excluded_cpu_ns,
            end[2] - self._start[2],
        ))
        self.window_end = perf_counter() + self._window_s


def _task_op(store: Store, obj: Any, call: Callable[..., Any]) -> tuple:
    start = perf_counter_ns()
    proxy = store.proxy(obj, evict=True)
    produced = perf_counter_ns()
    blob = call('task.pickle', pickle.dumps, proxy)
    pickled = perf_counter_ns()
    value = call('proxy.resolve', extract, call('task.unpickle', pickle.loads, blob))
    end = perf_counter_ns()
    return value, start, produced, pickled, end, len(blob)


def run_tasks(
    session: Session,
    inputs: Inputs,
    seconds: float,
    tracer: Tracer | None = None,
) -> Phase:
    """Whole windows of the task loop until ``seconds`` have passed.

    Comparing each value with its source is left out of the wall and CPU
    time.  ``seconds=0`` runs a single cycle.
    """
    store = session.stores[0]
    call = tracer.call if tracer is not None else direct
    phase = Phase()
    meter = _Meter(session.server, phase, min(WINDOW_S, seconds))
    deadline = perf_counter() + seconds
    while True:
        for item in inputs.cycle():
            if tracer is not None:
                tracer.set_op(phase.attempted)
            phase.attempted += 1
            try:
                value, t0, t1, t2, t3, pickled = call('op', _task_op, store, item.obj, call)
            except OP_ERRORS:
                phase.failed += 1
                continue
            verify_start, verify_cpu = perf_counter_ns(), thread_time_ns()
            if same(value, item.obj):
                phase.op_ns.append(t3 - t0)
                phase.produce_ns.append(t1 - t0)
                phase.consume_ns.append(t3 - t2)
                phase.user_bytes += item.nbytes
            else:
                phase.mismatched += 1
                phase.failed += 1
            del value
            phase.pickled_bytes = pickled
            phase.threads_peak = max(phase.threads_peak, threading.active_count())
            meter.excluded_cpu_ns += thread_time_ns() - verify_cpu
            meter.excluded_wall_ns += perf_counter_ns() - verify_start
        now = perf_counter()
        if now >= meter.window_end:
            meter.mark()
            if now >= deadline:
                return phase


def _stream_op(events: Any, call: Callable[..., Any]) -> tuple:
    start = perf_counter_ns()
    event, item = call('stream.next', next, events)
    arrived = perf_counter_ns()
    error = None
    if is_proxy(item):
        try:
            item = call('proxy.resolve', extract, item, evict=True)
        except OP_ERRORS as e:
            error = e
    return event, item, error, start, arrived, perf_counter_ns()


def run_stream(
    session: Session,
    inputs: Inputs,
    seconds: float,
    tracer: Tracer | None = None,
) -> Phase:
    """Whole cycles of the stream until ``seconds`` have passed.

    The last item of the last cycle carries ``last=True`` in its metadata;
    the consumer stops after it, so the next phase (or the close) starts
    with nothing in flight.  Comparing values with their sources is left out
    of the CPU time, not of the wall time: it overlaps the producer.

    The consumer closes a window at the first cycle boundary (in items
    received) after ``WINDOW_S``; the producer's sends are counted in the
    window open when they were timed.

    ``consume_ns`` (``next()`` plus resolve) covers the proxied items only:
    an inlined item arrives resolved, and its ``next()`` is the consumer
    idling until the producer's next send.
    """
    producer, consumer = session.producer, session.consumer
    assert producer is not None and consumer is not None
    call = tracer.call if tracer is not None else direct
    phase = Phase()
    in_flight = threading.Semaphore(STREAM_IN_FLIGHT)
    sent_at: dict[int, int] = {}
    errors: list[BaseException] = []
    pool = [inputs.items[i] for i in inputs.order]
    size = len(pool)
    inline0, sent0 = producer.inline_sends, producer.sent

    def produce() -> None:
        deadline = perf_counter() + seconds
        n = 0
        try:
            while True:
                for k, item in enumerate(pool):
                    last = k == size - 1 and perf_counter() >= deadline
                    if not in_flight.acquire(timeout=WAIT_TIMEOUT_S):
                        raise TimeoutError('in-flight stream items never resolved')
                    if tracer is not None:
                        tracer.set_op(n)
                    sent_at[n] = start = perf_counter_ns()
                    call('stream.send', producer.send, item.obj,
                         metadata={'i': n, 'last': last})
                    phase.produce_ns.append(perf_counter_ns() - start)
                    n += 1
                    if last:
                        return
        except BaseException as e:  # noqa: BLE001 - reported by the caller
            errors.append(e)
        finally:
            phase.attempted = n

    def consume() -> None:
        events = consumer.events()
        done = 0
        try:
            while True:
                if tracer is not None:
                    tracer.set_op(done)
                done += 1
                try:
                    event, value, error, t0, t1, t2 = call('op', _stream_op, events, call)
                except StopIteration:
                    return
                in_flight.release()
                index = event.metadata['i']
                sent = sent_at.pop(index)
                item = pool[index % size]
                verify_cpu = thread_time_ns()
                if error is None and same(value, item.obj):
                    phase.op_ns.append(t2 - sent)
                    phase.wait_ns.append(t1 - t0)
                    if not event.inline:
                        phase.consume_ns.append(t2 - t0)
                        phase.resolve_ns.append(t2 - t1)
                    phase.user_bytes += item.nbytes
                elif error is None:
                    phase.mismatched += 1
                del value
                phase.threads_peak = max(phase.threads_peak, threading.active_count())
                meter.excluded_cpu_ns += thread_time_ns() - verify_cpu
                if event.metadata['last']:
                    meter.mark()
                    return
                if done % size == 0 and perf_counter() >= meter.window_end:
                    meter.mark()
        except BaseException as e:  # noqa: BLE001 - reported by the caller
            errors.append(e)

    meter = _Meter(session.server, phase, min(WINDOW_S, seconds))
    threads = [
        threading.Thread(target=produce, name='perfbench-producer'),
        threading.Thread(target=consume, name='perfbench-consumer'),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 3 * WAIT_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError('stream phase did not finish')
    if not phase.marks or phase.marks[-1].ops < len(phase.op_ns):
        meter.mark()  # the consumer stopped early
    # An error that stopped the producer or the consumer fails at least one
    # op, even if it struck before the op was counted as attempted.
    phase.failed = phase.attempted - len(phase.op_ns) + len(errors)
    phase.inline_sends = producer.inline_sends - inline0
    phase.sent = producer.sent - sent0
    phase.lost = consumer.lost
    for error in errors:
        if not isinstance(error, OP_ERRORS):
            raise error
    return phase


def run_phase(
    workload: str,
    session: Session,
    inputs: Inputs,
    seconds: float,
    tracer: Tracer | None = None,
) -> Phase:
    runner = run_stream if workload == 'stream_mixed' else run_tasks
    return runner(session, inputs, seconds, tracer)


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def percentile_us(samples_ns: list[int], q: float) -> float:
    return float(np.percentile(samples_ns, q)) / 1e3 if samples_ns else 0.0


def p50_us(samples_ns: list[int]) -> float:
    return percentile_us(samples_ns, 50)


def window_metrics(phase: Phase) -> list[dict[str, float]]:
    """The timed end-to-end metrics of each window of ``phase``.

    A last window shorter than half the one before it is merged into that
    one.
    """
    marks = [Mark(0, 0, 0, 0, 0, 0, 0), *phase.marks]
    if len(marks) > 2 and (
        marks[-1].wall_ns - marks[-2].wall_ns < (marks[-2].wall_ns - marks[-3].wall_ns) / 2
    ):
        del marks[-2]
    windows = []
    for a, b in zip(marks, marks[1:]):
        ops = phase.op_ns[a.ops:b.ops]
        wall_s = (b.wall_ns - a.wall_ns) / 1e9
        cpu_ns = b.client_cpu_ns - a.client_cpu_ns + b.server_cpu_ns - a.server_cpu_ns
        windows.append({
            'op_p50_us': p50_us(ops),
            'op_p90_us': percentile_us(ops, 90),
            'ops_per_s': len(ops) / wall_s,
            'MBps': (b.user_bytes - a.user_bytes) / wall_s / 1e6,
            'produce_p50_us': p50_us(phase.produce_ns[a.produced:b.produced]),
            'consume_p50_us': p50_us(phase.consume_ns[a.consumed:b.consumed]),
            'cpu_us_per_op': cpu_ns / max(len(ops), 1) / 1e3,
        })
    return windows


def end_to_end(
    windows: list[dict[str, float]], setup_s: float, rss_mb: float,
) -> dict[str, float]:
    """Each timed metric is the median over the windows."""
    values = {
        name: float(np.median([w[name] for w in windows])) for name in windows[0]
    }
    return {'setup_s': setup_s, **values, 'peak_rss_mb': rss_mb}


def wait_for_baseline(threads: int, fds: int, timeout: float = 5.0) -> tuple[int, int]:
    """Thread and fd counts once they are back at the baseline (or timeout)."""
    deadline = time.monotonic() + timeout
    while True:
        now = threading.active_count(), open_fds()
        if (now[0] <= threads and now[1] <= fds) or time.monotonic() >= deadline:
            return now
        time.sleep(0.05)
