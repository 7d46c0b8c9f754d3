"""Server process for the benchmark: one ``KVServer`` plus a raw echo socket.

Run as ``python3 perfbench/server.py``.  The process prints one line,
``<kv_port> <echo_port>``, once both listeners accept connections, then
serves until its standard input closes.  The echo socket answers each
message with the same bytes from a plain blocking thread; the benchmark
uses it as the loopback floor that ``KVClient.ping`` is compared against,
measured against the same process on the same CPU.
"""
from __future__ import annotations

import socket
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / 'src'))

from repro.kvserver.server import KVServer  # noqa: E402


def _echo(listener: socket.socket) -> None:
    while True:
        try:
            conn, _ = listener.accept()
        except OSError:  # listener closed at shutdown
            return
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with conn:
            while True:
                data = conn.recv(65536)
                if not data:
                    break
                conn.sendall(data)


def main() -> int:
    server = KVServer('127.0.0.1', 0)
    host, port = server.start()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind((host, 0))
    listener.listen(4)
    echo = threading.Thread(target=_echo, args=(listener,), daemon=True)
    echo.start()
    print(port, listener.getsockname()[1], flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes our stdin
    finally:
        listener.close()
        server.stop()
    return 0


if __name__ == '__main__':
    sys.exit(main())
