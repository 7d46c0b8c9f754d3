"""Shared pytest fixtures and chaos/timeout wiring for the test suite."""
from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.serialize.registry import default_registry
from repro.store import unregister_all

try:
    import pytest_timeout  # noqa: F401
    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


def pytest_configure(config):
    """Register the suite's custom markers (no pytest.ini in this repo)."""
    config.addinivalue_line(
        'markers',
        'chaos: fault-injection tests that kill real subprocesses '
        "(deselect with -m 'not chaos')",
    )
    config.addinivalue_line(
        'markers',
        "slow: long-running tests (deselect with -m 'not slow')",
    )
    config.addinivalue_line(
        'markers',
        'timeout(seconds): fail the test if it runs longer than the bound '
        '(pytest-timeout when installed, SIGALRM fallback otherwise)',
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """SIGALRM fallback for ``@pytest.mark.timeout`` without pytest-timeout.

    A hung failover test must fail fast, not wedge the whole run.  When
    the real plugin is installed it handles the marker itself; this
    fallback only arms an alarm on the main thread of platforms that
    have ``SIGALRM`` (the CI runners do).
    """
    marker = item.get_closest_marker('timeout')
    seconds = 0
    if marker is not None and not _HAVE_PYTEST_TIMEOUT:
        if marker.args:
            seconds = int(marker.args[0])
        elif 'seconds' in marker.kwargs:
            seconds = int(marker.kwargs['seconds'])
    usable = (
        seconds > 0
        and hasattr(signal, 'SIGALRM')
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        return (yield)

    def _expired(signum, frame):
        raise TimeoutError(
            f'test exceeded its {seconds}s timeout (SIGALRM fallback)',
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Keep process-global registries isolated between tests."""
    yield
    unregister_all()
    default_registry.clear()


#: The witness wraps every lock the suite creates when this env var is
#: set — the dedicated CI job runs the cluster/stream/chaos tests with
#: it to catch dynamic lock-order inversions the static RP003 rule
#: cannot see.
_WITNESS_ENABLED = os.environ.get('REPRO_WITNESS') == '1'


@pytest.fixture(scope='session', autouse=_WITNESS_ENABLED)
def _witness_session():
    """Install the runtime lock-order witness for the whole run."""
    from repro.analysis import witness

    witness.install(raise_on_violation=True)
    yield
    witness.uninstall()


@pytest.fixture(autouse=_WITNESS_ENABLED)
def _witness_check(_witness_session):
    """Fail any test during which an inversion was recorded.

    A violation normally raises inside the offending thread; if that
    thread swallowed it (a broad except in a worker), the recorded
    message still fails the test here.
    """
    from repro.analysis import witness

    witness.clear_violations()
    yield
    seen = witness.violations()
    witness.clear_violations()
    assert not seen, 'lock-order inversion(s) observed:\n' + '\n'.join(seen)


@pytest.fixture()
def local_store(tmp_path):
    """A Store backed by a LocalConnector, unregistered on teardown."""
    from repro.store import Store

    store = Store.from_url('local:///test-local-store?cache_size=4')
    yield store
    store.close(clear=True)


@pytest.fixture()
def file_store(tmp_path):
    """A Store backed by a FileConnector rooted in a temp directory."""
    from repro.store import Store

    store = Store.from_url(f'file://{tmp_path}/data?name=test-file-store')
    yield store
    store.close(clear=True)
