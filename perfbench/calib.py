"""Reference-speed clock: CPU time scaled by a fixed calibration kernel.

On a shared virtual machine the speed of a CPU second is not fixed: the
host core is shared with other machines, and four solves took 0.55 s of CPU
time for a few seconds and 1.1 s for the next few, back and forth
throughout a run. A median over a run then depends on how the run fell on
the fast and slow stretches, not on the program.

So each timed call is bracketed by a short fixed computation, the kernel,
which shares no code with the program. The call's CPU time is divided by
the mean CPU time of the kernel just before and just after it, and
multiplied by ``REF_S``. The result is in reference seconds: the call's
CPU time on a machine where one kernel run takes ``REF_S`` seconds. A
change that makes the program do more work raises it in proportion; a
change in the speed of the machine cancels out.
"""

from __future__ import annotations

import random
import time

# Sets the scale only: about the CPU time of one kernel run, in a process of
# its own, on the fast stretches of the 2-core Xeon virtual machine the
# benchmark was tuned on (0.010 s on its slow ones).
REF_S = 0.007

_NODES = 2000
_rng = random.Random(20250206)
_ADJ = tuple(tuple(_rng.randrange(_NODES) for _ in range(5)) for _ in range(_NODES))


def kernel() -> int:
    """Fixed pure-Python work of the program's kind: breadth-first searches
    over a sparse graph, grouping into lists in a dict, and sorting."""
    total = 0
    for source in range(0, _NODES, 250):
        parent = {source: source}
        queue = [source]
        for u in queue:
            for v in _ADJ[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        total += len(parent)
    groups: dict[int, list[int]] = {}
    for i in range(10_000):
        groups.setdefault(i % 613, []).append(i * 7919 % 10_007)
    for members in groups.values():
        members.sort()
        total += members[0]
    return total


def kernel_s() -> float:
    """CPU seconds of one kernel run."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def scale(cpu_s: float, before_s: float, after_s: float) -> float:
    """Reference seconds of a call that took ``cpu_s`` CPU seconds between
    kernel runs of ``before_s`` and ``after_s``."""
    return REF_S * cpu_s / ((before_s + after_s) / 2)
