"""The reference kernel: a fixed, stdlib-only unit of interpreter work.

Every end-to-end timing of the benchmark is reported in *reference units*
(``ref``): wall seconds divided by the duration of this kernel timed right
next to the measured work.  The host's speed (CPU frequency, steal time
from neighbouring tenants, cache pressure) scales both alike, so the ratio
keeps what the program costs and drops most of what the host is doing.

The kernel must never import ``repro``: a change to the program may not
change the yardstick.  Its mix mirrors the simulator's hot paths in
miniature -- generator resumption, small-object allocation, dict and list
traffic, integer ``bit_length`` sizing and a sort -- so that host effects
that hit interpreter-bound code hit it in proportion.

On a shared 2-vCPU VM the host alternates between a fast and a slow state
within a second.  The compute part alone runs about 1.6x slower in the
slow state, the simulator about 1.3x, and random reads from a dict larger
than the L2 cache about 1.2x.  Half of the kernel's time goes to such
reads.  With that mix, across runs on such a VM, the log of a sweep
execution's wall time moved 0.7-0.9 times as much as the log of the
kernel's duration, with a correlation of 0.94-0.98.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: Repetitions timed right before and right after each measured execution.
SAMPLES = 10
#: Work per repetition: about 6 ms of interpreter time on a 2-vCPU VM.
_PROCESSES = 48
_ROUNDS = 24
#: Random reads per repetition from a table of ``_TABLE_SIZE`` entries.
_READS = 5_000
_TABLE_SIZE = 1 << 17
_table: tuple[dict[int, int], list[int]] | None = None
_cursor = 0


def _program(pid: int, n: int):
    state = pid
    inbox = yield [(pid, (pid + 1) % n, state)]
    for round_no in range(_ROUNDS):
        total = 0
        for sender, _recipient, value in inbox:
            total += (value ^ sender).bit_length() + 1
        state = (state * 31 + total + round_no) & 0xFFFF
        inbox = yield [
            (pid, (pid + step) % n, (state, step)[0])
            for step in (1, 3, 7)
        ]


def _reads() -> int:
    """Random reads from a dict larger than the L2 cache.  Each call reads
    the next stretch of one fixed random order, so successive calls do
    not find their entries cached."""
    global _table, _cursor
    if _table is None:
        table = {key: key * 3 for key in range(_TABLE_SIZE)}
        order = list(table)
        random.Random(12345).shuffle(order)
        _table = (table, order)
    table, order = _table
    start = _cursor
    _cursor = (start + _READS) % (_TABLE_SIZE - _READS)
    total = 0
    for key in order[start:start + _READS]:
        total += table[key]
    return total


def _body() -> int:
    n = _PROCESSES
    programs = [_program(pid, n) for pid in range(n)]
    outbound = [next(program) for program in programs]
    checksum = 0
    for _ in range(_ROUNDS):
        boxes: dict[int, list[tuple[int, int, int]]] = {}
        for messages in outbound:
            for message in messages:
                boxes.setdefault(message[1], []).append(message)
        outbound = []
        for pid, program in enumerate(programs):
            inbox = sorted(boxes.get(pid, ()))
            checksum += len(inbox)
            outbound.append(program.send(inbox))
    return checksum + _reads()


def sample(count: int = SAMPLES) -> list[float]:
    """Durations of ``count`` back-to-back kernel repetitions, in seconds.

    The collector is paused while timing: a collection's cost depends on
    the heap the program left behind, not on the host.
    """
    _reads()  # builds the table outside the timed region on first use
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            started = time.perf_counter()
            _body()
            samples.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return samples


if __name__ == "__main__":
    print(f"{statistics.median(sample()) * 1e3:.3f} ms")
