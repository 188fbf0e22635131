"""Untraced run of one tensq CLI command that samples the host's speed.

Usage: python3 perfbench/refclock.py CLOCK.json ARG...

Runs ``tensq ARG...`` in this process (the package is not edited).  A
timer signal interrupts it every SAMPLE_EVERY_S seconds to time a fixed
reference loop of about 0.2 ms, on the same CPU and at the same moments
as the command, so the samples cost about 0.8% of the run.  CLOCK.json
gets the sample count and the trimmed mean of the loop times; the
process exits with the command's exit code.

Why: on a shared host the speed of a vCPU drifts by up to 2x within a
minute (measured on a 2-vCPU VM: a fixed loop's 2-s medians ranged from
0.82 to 1.73 of their overall median within 90 s), so wall time alone
does not repeat from run to run.  Wall time scaled by
REFERENCE_S / (mean loop time) is the time the command would take on a
host that runs the loop in REFERENCE_S.  Those reference seconds cancel
most of the drift: per-child spreads fell from 0.08-0.20 to 0.02-0.06
(coefficient of variation) on the verify and oracle panels.
"""

from __future__ import annotations

import json
import signal
import sys
from time import perf_counter

SAMPLE_EVERY_S = 0.025
# Nominal time of one reference loop; any fixed value works, because
# only ratios between runs on one host are compared.
REFERENCE_S = 2e-4
TRIM = 0.1
BURST = 20


def reference_loop() -> int:
    """Integer arithmetic and dict stores, like tensq's inner loops."""
    x, d = 1, {}
    for _ in range(400):
        x = (x * 1103515245 + 12345) % (1 << 61)
        d[x & 255] = x
    return x


def burst() -> list[float]:
    """BURST back-to-back timings of the reference loop, for work that
    runs in the calling process and so cannot be interrupted to sample."""
    reference_loop()
    times = []
    for _ in range(BURST):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return times


def trimmed_mean(times: list[float]) -> float:
    """Mean without the lowest and highest TRIM share (an interrupt can
    land inside a sample)."""
    times = sorted(times)
    cut = int(len(times) * TRIM)
    kept = times[cut:len(times) - cut]
    return sum(kept) / len(kept)


def main(argv) -> int:
    out_path, args = argv[0], argv[1:]
    samples: list[float] = []

    def sample(signum=None, frame=None):
        start = perf_counter()
        reference_loop()
        samples.append(perf_counter() - start)

    reference_loop()  # warm the loop up before the first sample
    sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        from tensq import cli

        code = cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 64
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    sample()
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"samples": len(samples), "loop_s": trimmed_mean(samples)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
