"""Keep one CPU busy at the lowest priority while the benchmark runs.

Run as ``python3 perfbench/idle_poll.py <cpu> <parent-pid>``.  The process
pins itself to ``<cpu>``, switches to ``SCHED_IDLE`` and spins.  The kernel
runs a ``SCHED_IDLE`` task only when nothing else wants the CPU, and
preempts it at once when something does.  So the CPU never enters its idle
loop.

This matters in a virtual machine.  An idle vCPU halts and hands its
physical CPU back to the hypervisor.  Every wake-up then waits for the
hypervisor to schedule the vCPU again, and on a busy host that wait is
long and varies.  On a shared 2-vCPU guest, the hypervisor stole 10-60% of
CPU time in one-second windows of the `task_small` loop without this
process, and about 0% with it.  Throughput without it ranged 2.5x between
windows.  This is the ``idle=poll`` / guest halt-polling remedy, done from
user space.

The process exits when ``<parent-pid>`` is no longer its parent.
"""
from __future__ import annotations

import os
import sys

#: Spins between checks that the parent is still alive.
_CHECK_EVERY = 1 << 16


def main() -> int:
    cpu, parent = int(sys.argv[1]), int(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    while os.getppid() == parent:
        for _ in range(_CHECK_EVERY):
            pass
    return 0


if __name__ == '__main__':
    sys.exit(main())
