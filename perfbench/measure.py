"""Latency summaries and the in-memory span tracer.

Nothing here imports mucofix, so the helpers can be tested on their own.
"""
from __future__ import annotations

import time
from collections import Counter

# percentiles in permille, so that rank arithmetic stays in integers
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
MIN_BEYOND = 10
# The reported tail. Every workload's run makes at least 40 requests on a
# 2-vCPU Xeon virtual machine, which leaves 10 beyond p75; the request
# count swings twofold with that machine's speed, and letting the
# percentile follow it would change what latency_tail_s means from one
# run of the same code to the next.
TAIL_PERMILLE = 750


# The speed every end-to-end time is reported at: the speed at which the
# calibration kernel below takes exactly CAL_REF_S. On a shared 2-vCPU
# Xeon virtual machine the CPU speed drifts up to twofold over minutes, and
# the kernel, run before and after every request, tracks that drift: over
# 15 s windows the spread of a workload's median fell from 0.14 to 0.05
# once scaled.
CAL_REF_S = 0.001


def _calibration_kernel() -> int:
    counts: dict[int, int] = {}
    total = 0
    for i in range(4000):
        k = i % 97
        counts[k] = counts.get(k, 0) + i
        total += len(str(i))
    return total


def calibrate(clock=time.perf_counter) -> float:
    'Seconds the calibration kernel takes right now: the fastest of three runs.'
    best = float("inf")
    for _ in range(3):
        start = clock()
        _calibration_kernel()
        best = min(best, clock() - start)
    return best


def at_reference(seconds: float, cal_s: float) -> float:
    'A time measured while the calibration kernel took cal_s, at the reference speed.'
    return seconds * CAL_REF_S / cal_s


def rank_index(n: int, permille: int) -> int:
    'Nearest-rank index of a percentile in a sorted list of n samples.'
    return max(0, -(-permille * n // 1000) - 1)


def tail_percentile(sorted_values):
    """(permille, value, samples beyond) for the highest ladder percentile
    that has at least MIN_BEYOND samples ranked above it, or None when
    even the median has fewer."""
    n = len(sorted_values)
    best = None
    for permille in TAIL_LADDER:
        k = rank_index(n, permille)
        beyond = n - 1 - k
        if beyond >= MIN_BEYOND:
            best = (permille, sorted_values[k], beyond)
    return best


def latency_summary(records, limit_s: float) -> dict:
    """Summarise (latency_s, ok) request records: count, failures, p50
    and the tail percentile with the number of requests beyond it.

    A failed request counts as missing every limit: it is ranked at the
    per-request limit, or at the slowest success if that is slower, so
    that turning failures into slow successes never reads as a regression."""
    worst = max([limit_s] + [lat for lat, ok in records if ok])
    ranked = sorted(lat if ok else worst for lat, ok in records)
    n = len(ranked)
    k = rank_index(n, TAIL_PERMILLE)
    permille, tail_s, beyond = TAIL_PERMILLE, ranked[k], n - 1 - k
    if beyond < MIN_BEYOND:
        # a short run: the highest percentile that still has 10 beyond it,
        # or the maximum when even the median has fewer
        permille, tail_s, beyond = tail_percentile(ranked) or (1000, ranked[-1], 0)
    return {
        "requests": n,
        "failed": sum(1 for _, ok in records if not ok),
        "p50_s": ranked[rank_index(n, 500)],
        "tail_permille": permille,
        "tail_s": tail_s,
        "tail_beyond": beyond,
    }


class Tracer:
    """Spans kept in memory, aggregated per layer as they close.

    A frame is [name, start, child_s, span_id, hot]. Calls to hot layers
    (called so often that one span each would swamp the run) get no span
    of their own: their count and self time are added to the nearest
    enclosing recorded span, and to the layer totals. A layer's self time
    is its duration minus the time of the frames nested directly in it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []
        self.layers: dict[str, list] = {}    # name -> [calls, self_s, total_s]
        self.edges: Counter = Counter()      # (parent, child) -> calls
        self.errors: Counter = Counter()     # (name, exception type) -> count
        self.counts: Counter = Counter()     # named counters taken from results
        self.spans: list[tuple] = []
        self.record = True
        self.request = None
        self._next_id = 0

    def call(self, name: str, hot: bool, fn, args=(), kwargs=None):
        stack = self.stack
        parent = stack[-1] if stack else None
        if hot:
            frame = [name, 0.0, 0.0, None, None]
        else:
            self._next_id += 1
            frame = [name, 0.0, 0.0, self._next_id, {}]
        stack.append(frame)
        start = frame[1] = self.clock()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException as exc:
            self.errors[(name, type(exc).__name__)] += 1
            raise
        finally:
            end = self.clock()
            stack.pop()
            self._close(frame, parent, end - start, end)

    def _close(self, frame, parent, dur, end):
        name = frame[0]
        own = dur - frame[2]
        agg = self.layers.get(name)
        if agg is None:
            agg = self.layers[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += own
        agg[2] += dur
        if parent is not None:
            parent[2] += dur
            self.edges[(parent[0], name)] += 1
        if frame[3] is None:
            for outer in reversed(self.stack):
                if outer[3] is not None:
                    slot = outer[4].setdefault(name, [0, 0.0])
                    slot[0] += 1
                    slot[1] += own
                    break
        elif self.record:
            owner = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.spans.append((frame[3], owner, self.request, name,
                               frame[1], end, frame[4]))

    def layer(self, name: str):
        'calls, self_s, total_s of one layer (zeros when it never ran).'
        return tuple(self.layers.get(name, (0, 0.0, 0.0)))
