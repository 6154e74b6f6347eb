"""Keep one CPU out of the idle state, at the lowest scheduling priority.

    python -m garlbench.spin CPU PARENT_PID

On a virtual machine a halted vCPU can take milliseconds to be scheduled
again when work arrives; every request of a closed-loop server pays
that wake-up several times.  This process runs under ``SCHED_IDLE``, so
the kernel runs it only when nothing else wants the CPU and preempts it
the moment anything does; the CPU never halts.  It exits when its parent
does, or at once if the scheduling class cannot be set.
"""

import os
import sys


def main() -> int:
    cpu, parent = int(sys.argv[1]), int(sys.argv[2])
    try:
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        return 1
    while os.getppid() == parent:
        for _ in range(200_000):
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
