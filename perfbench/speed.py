"""Timing that corrects for the speed of a shared host.

On a small VM the speed of the vCPUs moves between levels up to 50% apart
from one second to the next and for up to a minute at a time, with load
elsewhere on the host. CPU-bound code slows with it, and so does its CPU
time. A corrected phase is therefore bracketed by ``probe()``, a fixed mix
of pure-Python, small-numpy and JSON work that belongs to the benchmark,
not to the program, run on the same thread as the phase. ``f``, the
probe's CPU time at the reference speed over its mean CPU time around the
phase, is the host's speed as a multiple of the reference speed, and
``Timing`` rescales the phase's CPU time by it. Time the program spent off
the CPU because it chose to (sleeping on the injected chat latency, waiting
on I/O) is kept as measured; time its main thread spent ready to run while
the CPU served other processes is taken out.

Over 200 s of unscoped retrieval, the median time of 10 s windows moved
between 191 and 318 ms while its ratio to this probe stayed within 4%.
Probing from a background thread while the phase ran did not work: that
thread's CPU time read up to three times the main thread's slowdown.

Short bursts of CPU work between sleeps did not track the probe either: on
the chat latency workload the corrected CPU time spread twice as much
across runs as the measured one, so that workload times its phase
uncorrected.
"""

from __future__ import annotations

import gc
import json
import resource
import time
from dataclasses import dataclass

import numpy as np

# The probe's CPU time at the speed the benchmark reports in: about its time
# on the fast level of a 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11, numpy
# 2.4 (about 0.055 s on the slow level).
REFERENCE_PROBE_S = 0.040

_RNG = np.random.default_rng(0)
_VEC_A, _VEC_B = _RNG.random(256), _RNG.random(256)
_OBJ = {f"k{i}": [i * 0.5, "x" * (i % 13), {"a": i}] for i in range(300)}


def _python_loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def _numpy_calls() -> float:
    total = 0.0
    for _ in range(6_000):
        total += float(np.linalg.norm(_VEC_A)) + float(np.dot(_VEC_A, _VEC_B))
    return total


def _json_and_strings() -> int:
    size = 0
    for _ in range(10):
        text = json.dumps(_OBJ, sort_keys=True)
        size += len(json.loads(text)) + len(sorted(_OBJ.items(), key=lambda kv: kv[1][0]))
        size += len("".join(str(x) for x in range(2_000)))
    return size


def probe() -> float:
    """CPU seconds the fixed probe work takes now.

    The garbage collector is off while it runs, so the size of the
    program's heap does not change the probe's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _python_loop()
        _numpy_calls()
        _json_and_strings()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class Timing:
    """One timed phase, as measured and at the reference speed."""

    wall_s: float
    user_s: float  # user CPU of the process, threads included
    cpu_s: float  # user + system CPU of the process and its waited children
    run_delay_s: float = 0.0  # main thread ready to run but not running
    factor: float = 1.0  # host speed as a multiple of the reference speed
    probed: bool = False

    @property
    def ref_wall_s(self) -> float:
        """Wall time with the CPU part rescaled to the reference speed."""
        return self.wall_s - self.run_delay_s + self.cpu_s * (self.factor - 1.0)

    @property
    def ref_user_s(self) -> float:
        return self.user_s * self.factor


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime, own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _run_delay() -> float:
    """Seconds the main thread has waited on a run queue (0 where the kernel does not say)."""
    try:
        with open("/proc/self/schedstat", encoding="ascii") as fh:
            return int(fh.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


def timed(fn, corrected: bool = True):
    """``fn()`` and its ``Timing``; without ``corrected``, nothing is probed or taken out."""
    before = probe() if corrected else 0.0
    (user0, cpu0), delay0, start = _cpu(), _run_delay(), time.perf_counter()
    value = fn()
    wall, delay, (user1, cpu1) = time.perf_counter() - start, _run_delay() - delay0, _cpu()
    if not corrected:
        return value, Timing(wall, user1 - user0, cpu1 - cpu0)
    factor = REFERENCE_PROBE_S / ((before + probe()) / 2)
    return value, Timing(wall, user1 - user0, cpu1 - cpu0, delay, factor, probed=True)
