"""Host-speed probe that scales the benchmark's end-to-end times.

On a shared host the same run can take half again as long while other
tenants load the CPUs, and such phases last for minutes, longer than a
whole benchmark run.  :class:`HostSpeed` times a fixed kernel that does
not touch vccsim, right before and right after each measured call, on as
many CPUs as the call uses.  The mean of the two samples over the
kernel's :data:`REFERENCE_S` time is the host's slowdown during the call,
and a measured time divided by it reads as seconds on the reference host.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Median kernel seconds per CPU count, sampled on all CPUs at once, on the
# reference host: a 2-core Intel Xeon VM, Python 3.11, numpy 2.4 with
# single-threaded OpenBLAS 0.3.31.
REFERENCE_S = {1: 0.09, 2: 0.11}
KERNEL_REPS = 1500


def kernel(_=None) -> float:
    """Seconds for a fixed mix of interpreter work and small complex algebra,
    the same kind of work a Monte Carlo location does."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    start = time.perf_counter()
    for _ in range(KERNEL_REPS):
        np.linalg.inv(a.T @ a.conj())
        sum(range(200))
    return time.perf_counter() - start


def _serve() -> None:
    """Helper process: run the kernel each time a line arrives on stdin, and
    exit at end of input."""
    for _ in sys.stdin:
        print(kernel(), flush=True)


class HostSpeed:
    """Samples the host's slowdown on ``cpus`` CPUs at once.

    The calling thread samples the CPU the measured call runs on; each
    further CPU is sampled by a helper interpreter started once and stopped,
    and waited for, on exit.  Helpers are plain subprocesses that talk over
    their stdin and stdout, so no multiprocessing machinery (and none of the
    processes it starts on its own) is involved, and the benchmark process
    starts no threads that a later fork could copy.
    """

    def __init__(self, cpus: int):
        self._helpers: list[subprocess.Popen] = []
        try:
            for _ in range(cpus - 1):
                self._helpers.append(subprocess.Popen(
                    [sys.executable, __file__], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop every helper and wait until each has ended."""
        for proc in self._helpers:
            try:
                proc.stdin.close()
                proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self._helpers.clear()

    def slowdown(self) -> float:
        """Kernel time averaged over the CPUs, over its reference time."""
        for proc in self._helpers:
            proc.stdin.write("\n")
            proc.stdin.flush()
        times = [kernel()] + [float(proc.stdout.readline()) for proc in self._helpers]
        return statistics.fmean(times) / REFERENCE_S[len(times)]

    def paired(self, action, more) -> list[tuple[float, float]]:
        """Call ``action`` once, then while ``more(calls so far)`` holds.

        Returns ``(value, slowdown)`` for each call that returned a value
        other than None, the slowdown being the mean of the samples taken
        just before and just after that call.
        """
        out = []
        calls = 0
        before = self.slowdown()
        while True:
            value = action()
            calls += 1
            after = self.slowdown()
            if value is not None:
                out.append((value, (before + after) / 2))
            before = after
            if not more(calls):
                return out


if __name__ == "__main__":
    _serve()
