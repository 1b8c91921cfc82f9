"""Host-speed sampling, probe normalisation and the percentile maths.

The benchmark runs on small shared VMs whose speed wanders: the same
busy loop swings by 2x within a second, with no steal time visible to
the guest, so thread CPU time slows down with it and no one-off
calibration can follow it.  Instead :class:`SpeedSampler` interrupts
the benchmark every :data:`PERIOD_S` with a timer signal and runs a
frozen pure-Python *speed probe*, one block of byte-wise AES, in the
signal handler, in the same thread as the work being timed.  Each timed
interval is then rescaled to what it would have taken on the reference
box::

    normalised = (raw - time spent in probes)
                 * PROBE_REF_MS / mean(probes during it, and one either side)

The probe is part of the benchmark, not of the program under test, so
no change to the simulator can make it faster or slower.  Its code,
``PROBE_REF_MS`` and ``PERIOD_S`` must stay frozen: editing any of them
rescales every recorded number.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import time

#: Median probe time on the reference box (a 2-vCPU x86-64 VM running
#: CPython 3.11).  All normalised times are in units of that box.
PROBE_REF_MS = 0.4

#: Wall-clock period of the speed samples.
PERIOD_S = 0.01

def _xtime(b: int) -> int:
    b <<= 1
    return b ^ 0x11B if b & 0x100 else b


def _gf_mul(a: int, b: int) -> int:
    product = 0
    for _ in range(8):
        if b & 1:
            product ^= a
        a = _xtime(a)
        b >>= 1
    return product


def _build_sbox() -> list[int]:
    sbox = [0x63] * 256
    p = q = 1
    while True:
        p = _gf_mul(p, 3)
        # q = p ** -1: multiply by the inverse of 3 (0xF6).
        q = _gf_mul(q, 0xF6)
        rot = q
        affine = q
        for _ in range(4):
            rot = ((rot << 1) | (rot >> 7)) & 0xFF
            affine ^= rot
        sbox[p] = affine ^ 0x63
        if p == 1:
            return sbox


_SBOX = _build_sbox()


def _round_keys(key: bytes) -> list[list[int]]:
    words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
    rcon = 1
    for i in range(4, 44):
        word = list(words[i - 1])
        if i % 4 == 0:
            word = [_SBOX[b] for b in word[1:] + word[:1]]
            word[0] ^= rcon
            rcon = _xtime(rcon)
        words.append([a ^ b for a, b in zip(words[i - 4], word)])
    return [sum(words[4 * r:4 * r + 4], []) for r in range(11)]


_KEYS = _round_keys(bytes(range(16)))


def _encrypt_block(state: list[int]) -> list[int]:
    """AES-128 (FIPS-197) on a column-major 16-byte state."""
    state = [s ^ k for s, k in zip(state, _KEYS[0])]
    for rnd in range(1, 11):
        state = [_SBOX[b] for b in state]
        state = [state[(i + 4 * (i % 4)) % 16] for i in range(16)]
        if rnd < 10:
            mixed = []
            for c in range(0, 16, 4):
                a0, a1, a2, a3 = state[c:c + 4]
                mixed += [_gf_mul(a0, 2) ^ _gf_mul(a1, 3) ^ a2 ^ a3,
                          a0 ^ _gf_mul(a1, 2) ^ _gf_mul(a2, 3) ^ a3,
                          a0 ^ a1 ^ _gf_mul(a2, 2) ^ _gf_mul(a3, 3),
                          _gf_mul(a0, 3) ^ a1 ^ a2 ^ _gf_mul(a3, 2)]
            state = mixed
        state = [s ^ k for s, k in zip(state, _KEYS[rnd])]
    return state


def _probe() -> list[int]:
    """The probe: one block of byte-wise pure-Python AES.  Its host time
    tracks the simulator's across speed changes (a slope of 0.97-1.04
    for echo, ring, epc and serving in a log-log regression over
    one-second windows), closer than dict- or arithmetic-only loops
    (0.76-0.95)."""
    return _encrypt_block(list(range(16)))


class SpeedSampler:
    """Runs the probe every :data:`PERIOD_S` while active (a context
    manager) and normalises intervals of host time by it.

    ``times``/``probes_ms`` are the wall-clock end (``perf_counter_ns``)
    and the thread CPU time of each sample's probe; ``paused_ns`` is the
    running total of thread CPU time spent sampling, which callers
    subtract from what they time; ``on_pause(ns)``, when set, is told
    each sample's wall-clock duration.

    Timed work is measured in thread CPU time, so a process that
    preempts the benchmark inside the guest cannot inflate it; what the
    probe corrects is the guest CPU itself running slower.
    """

    def __init__(self) -> None:
        self.times: list[int] = []
        self.probes_ms: list[float] = []
        self.paused_ns = 0
        self.on_pause = None
        self._previous = None

    def sample(self, *_signal_args) -> None:
        wall = time.perf_counter_ns()
        cpu = time.thread_time_ns()
        enabled = gc.isenabled()
        gc.disable()
        probe_start = time.thread_time_ns()
        _probe()
        probe_end = time.thread_time_ns()
        if enabled:
            gc.enable()
        self.times.append(time.perf_counter_ns())
        self.probes_ms.append((probe_end - probe_start) / 1e6)
        self.paused_ns += time.thread_time_ns() - cpu
        if self.on_pause is not None:
            self.on_pause(time.perf_counter_ns() - wall)

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Reference-box time per host ns over ``[start_ns, end_ns]``:
        from the samples taken inside it and the nearest one on either
        side."""
        lo = max(bisect.bisect_left(self.times, start_ns) - 1, 0)
        hi = min(bisect.bisect_right(self.times, end_ns) + 1,
                 len(self.times))
        window = self.probes_ms[lo:hi]
        return PROBE_REF_MS * len(window) / sum(window)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1): the smallest value with
    at least ``q * len(values)`` of the values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]
