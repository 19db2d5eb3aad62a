"""Summary statistics, the host-speed probe and the environment block
of a benchmark result."""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import signal
import statistics
import time
from pathlib import Path

TAIL_BEYOND = 10  # samples a reported tail percentile must leave above it

# reference_work's median time on an uncontended core of the host the
# bounds were set on (2-vCPU Xeon VM, Python 3.11.7).  Normalized times
# are wall times scaled to this speed.
REF_NOMINAL_S = 0.002
_REF_BIG = (1 << 150_000) - 1
_REF_MASK = (1 << 512) - 1


def reference_work() -> int:
    """A fixed mix of interpreter work and full-width big-int shifts, in
    roughly the proportions of the pipeline's own slowdown under core
    contention."""
    s = 0
    d = {}
    for i in range(15_000):
        s += i * i % 7
        d[i & 127] = s
    for i in range(150):
        s += ((_REF_BIG >> (i * 7 % 1000)) & _REF_MASK).bit_count()
    return s


class SpeedProbe:
    """Times reference_work to track the host's speed around and during
    an operation.  The host's cores are shared, and its speed moves by up
    to 1.8x for tens of seconds at a time; dividing by the probe's median
    removes that from normalized times."""

    PERIOD_S = 0.1  # sampling interval inside ``sampling()``

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent in reference_work

    def sample(self, k: int = 1) -> None:
        for _ in range(k):
            t0 = time.perf_counter()
            reference_work()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.spent += dt

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every PERIOD_S of wall time inside the block,
        from a SIGALRM handler that runs on this thread."""
        old = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def scale(self) -> float:
        """Factor that takes a wall time measured now to nominal speed."""
        return REF_NOMINAL_S / statistics.median(self.samples)


def tail(values) -> dict:
    """The highest nearest-rank percentile with at least TAIL_BEYOND
    samples above it, or the largest sample (percentile 100, nothing
    above) when there are too few samples for any such percentile."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return {"value": xs[-1], "percentile": 100.0, "beyond": 0,
                "samples": n}
    rank = n - TAIL_BEYOND  # 1-based rank of the value reported
    return {"value": xs[rank - 1], "percentile": 100.0 * rank / n,
            "beyond": TAIL_BEYOND, "samples": n}


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit(root: Path):
    """HEAD's commit read from root/.git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "loadavg_start": list(os.getloadavg()),
    }
