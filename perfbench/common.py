"""Helpers shared by the workloads: source lookup, statistics, digests, env."""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class CheckFailed(AssertionError):
    """A correctness check on the program's outputs did not hold."""


class MissingSource(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` (no install step)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSource(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def digest(items) -> str:
    """Short SHA-256 of an iterable of ``repr``-able items (input identity)."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(repr(item).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def settle() -> None:
    """Collect, then freeze what survives out of the collector's scans.

    Called before each measured round.  The dataset and tree are millions
    of long-lived objects; without this, every full collection during the
    round rescans them and adds pauses of tens of milliseconds at
    allocation-dependent moments.  Frozen objects are still freed when
    their last reference goes.
    """
    gc.collect()
    gc.freeze()


@contextmanager
def rotating_cpus():
    """Yield a callable that pins this process to the next allowed CPU.

    Called before each measured round, so the rounds of one run take turns
    on every CPU the process may use.  On a shared host each virtual CPU
    drifts between speed states for tens of seconds, independently of the
    others; a run that samples all of them spreads about half as much as
    one that stays where the scheduler put it.  The original affinity is
    restored on exit (a server spawned afterwards must not inherit a pin).
    """
    if not hasattr(os, "sched_setaffinity"):
        yield lambda: None
        return
    allowed = sorted(os.sched_getaffinity(0))
    turn = itertools.count()

    def next_cpu() -> None:
        os.sched_setaffinity(0, {allowed[next(turn) % len(allowed)]})

    try:
        yield next_cpu
    finally:
        os.sched_setaffinity(0, allowed)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_revision() -> str:
    if not (ROOT / ".git").exists():  # a plain checkout: do not ask a parent repo
        return "unavailable"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    revision = done.stdout.strip()
    return revision if done.returncode == 0 and revision else "unavailable"


def environment() -> dict:
    """What a reader needs to spot a noisy or mismatched run."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "client_pid": os.getpid(),
        "loadavg_1m": round(os.getloadavg()[0], 2),
    }
