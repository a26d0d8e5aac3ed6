"""Machine-speed sampling, so that wall times do not drift with the host.

On a shared 2-vCPU KVM guest the same single-threaded work runs up to
1.7 times slower from one minute to the next. CPU time tracks wall time
within 2 %, so the loss is speed, not stolen time. A raw wall time
therefore drifts with the host as much as with the program.

``SpeedProbe`` runs a fixed reference loop from a ``SIGALRM`` handler every
``PERIOD_S`` seconds while a process works, and times it. Within one
process:

- the time spent in the handler is subtracted from a phase's wall time;
- the rest is scaled by ``REFERENCE_S`` over the phase's mean sample, with
  the longest and shortest ``TRIM`` of the samples left out.

The result is the phase's wall time at the reference speed: the speed at
which one reference loop takes ``REFERENCE_S``. The program's work and the
reference are both single-threaded pure Python, so they slow down together.
The reference runs with the garbage collector off, so a collection of the
program's heap is never timed as reference time: a program that allocates
or collects more shows in full. Trimming keeps a few long samples, such as a
page fault or a preemption, from moving a phase's scale. A plain median would
do that too, but it tracks the machine poorly: the samples spread widely
(deciles 0.31 to 0.55 ms in one 10 s phase), and the program slows with
their mean, not with their middle. Over six seeds the median left a
quartile spread of 8 % on ``replay`` and 12 % on ``disjoint``; the trimmed
mean left 3 % or less on both.

Over 90 s of a repeated ``lambda_n`` call, the quartile spread of 15 s
windows fell from 12.5 % of the median raw to 3.7 % scaled. A reference
timed once per process had not helped in an earlier trial; sampling
through the whole phase does.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

PERIOD_S = 0.025
REFERENCE_S = 0.0005   # about one reference loop on the machine in README
TRIM = 0.1             # share of samples left out at each end


def reference() -> int:
    """Dict stores, tuple allocation and int arithmetic, as in the program."""
    d = {}
    for i in range(3000):
        d[i & 255] = (i, i * i % 7)
    return len(d)


class SpeedProbe:
    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self.hook = None          # called with each sample's seconds

    def sample(self, *_signal_args) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        seconds = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(seconds)
        self.spent += seconds
        if self.hook is not None:
            self.hook(seconds)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> tuple:
        return len(self.samples), self.spent

    def scale(self, since: tuple, until: tuple) -> float:
        """Reference speed over this machine's speed between two marks."""
        samples = sorted(self.samples[since[0]:until[0]])
        if not samples:           # a phase shorter than one period
            self.sample()
            samples = self.samples[-1:]
        cut = int(len(samples) * TRIM)
        return REFERENCE_S / statistics.fmean(samples[cut:len(samples) - cut])

    def scaled(self, raw_s: float, since: tuple, until: tuple) -> float:
        """`raw_s` seconds between two marks, less the probe's own time,
        at the reference speed."""
        return (raw_s - (until[1] - since[1])) * self.scale(since, until)
