"""The closed loop: one client on one thread sends the next operation only
after the previous one has completed.

`execute(op, traced)` runs one operation and returns a sample: a dict with
its wall time in `seconds`, the `status` the checker gave it, and a
`message`.  The loop works through the workload's cycle in order, and
times the host reference (`hostref.py`) before and after every operation.
A sample's `ref_s` is the median of the reference times nearest to it
(REF_WINDOW on each side): that follows the host's phases, which last
seconds to minutes, and not the odd interrupted reference.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from hostref import reference

WARM_SHARE = 0.2  # warm-up stays within this share of the run length
WARM_STEADY = 0.97  # a warm-up batch this close to the best one has stopped speeding up
REF_WINDOW = 5  # reference times on each side of an operation that set its `ref_s`


def run_ops(cycle, execute, seconds: float, round_size: int) -> list[dict]:
    """Run the cycle's operations in order, from its start, until `seconds`
    have passed; the clock is read only after whole rounds."""
    samples = []
    refs = [reference()]  # refs[i] and refs[i + 1] bracket operation i
    t_end = perf_counter() + seconds
    i = 0
    while True:
        samples.append(execute(cycle[i % len(cycle)], False))
        refs.append(reference())
        i += 1
        if i % round_size == 0 and perf_counter() >= t_end:
            break
    for i, sample in enumerate(samples):
        sample["ref_s"] = statistics.median(refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW])
    return samples


def warm_up(batch, execute, seconds: float) -> list[dict]:
    """Repeat a batch of operations until its mean time stops falling, or
    until another batch would overrun the warm-up share of the run; at
    least once."""
    samples = []
    best = None
    t_start = perf_counter()
    while True:
        t_batch = perf_counter()
        done = run_ops(batch, execute, 0.0, len(batch))
        samples += done
        mean = sum(s["seconds"] for s in done) / len(done)
        if best is not None and mean >= WARM_STEADY * best:
            return samples
        best = mean if best is None else min(best, mean)
        now = perf_counter()
        if now + (now - t_batch) - t_start > WARM_SHARE * seconds:
            return samples


def measure(ops, execute, seconds: float, trace: bool, round_size: int, warm: int,
            trace_ops: int) -> dict:
    """Warm up, then measure.  Without tracing, the cycle runs in whole
    rounds for `seconds`.  With tracing, the first `trace_ops` operations
    run untraced and then again traced: the difference is the tracing
    overhead, and the traced counts repeat exactly for a given seed."""
    warm_samples = warm_up(ops[:warm], execute, seconds)
    if not trace:
        return {"warm": warm_samples, "untraced": run_ops(ops, execute, seconds, round_size)}
    subset = [ops[i % len(ops)] for i in range(trace_ops)]
    return {
        "warm": warm_samples,
        "untraced": [execute(op, False) for op in subset],
        "traced": [execute(op, True) for op in subset],
    }
