"""Process-tree accounting for the benchmark process and the Ray session it
starts: CPU seconds, summed RSS, and the stop-and-wait that guarantees no
process outlives an invocation.

Ray's daemons (gcs_server, raylet, ...) are children of the benchmark
process (the Ray driver) and its workers are children of the raylet, so
"this process plus all its descendants" is the whole Ray session. The tree is rebuilt from /proc on every
sample (about 1 ms on a box with ~100 processes).
"""

from __future__ import annotations

import os
import signal
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat(pid: int):
    """(ppid, state, cpu_seconds) of one process, or None once it is gone.
    cpu_seconds counts the process and its reaped children."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name may hold spaces and parentheses: split after the last ')'
    fields = raw[raw.rindex(b")") + 2:].split()
    ppid = int(fields[1])
    cpu = sum(int(x) for x in fields[11:15]) / _TICK  # utime stime cutime cstime
    return ppid, fields[0].decode(), cpu


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as f:
            return int(f.read().split()[1]) * _PAGE
    except OSError:
        return 0


def descendants(root: int) -> list[int]:
    """Every live descendant of ``root`` (not ``root`` itself)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        st = _stat(int(name))
        if st is not None and st[1] != "Z":
            children.setdefault(st[0], []).append(int(name))
    out, stack = [], [root]
    while stack:
        for c in children.get(stack.pop(), ()):
            out.append(c)
            stack.append(c)
    return out


def tree_cpu_seconds() -> float:
    """CPU seconds of this process plus its descendants."""
    me = os.getpid()
    return sum(st[2] for p in [me] + descendants(me) if (st := _stat(p)))


def tree_rss_bytes() -> int:
    me = os.getpid()
    return sum(_rss_bytes(p) for p in [me] + descendants(me))


class PeakRss:
    """Samples the summed RSS of this process tree every ``interval`` seconds
    on a background thread while active; ``peak`` is the largest sample."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "PeakRss":
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self.peak = max(self.peak, tree_rss_bytes())

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss_bytes())
            self._stop.wait(self.interval)


def stop_tree(pids: list[int], grace: float = 10.0) -> list[int]:
    """Wait for ``pids`` and every descendant of this process to end; after
    ``grace`` seconds SIGTERM, then SIGKILL, what is still alive, re-reading
    the tree each round so a process started meanwhile is caught too.
    Returns the pids that had to be signalled."""
    me = os.getpid()
    killed: list[int] = []

    def alive() -> list[int]:
        live = [p for p in pids if (st := _stat(p)) is not None and st[1] != "Z"]
        return sorted(set(live + descendants(me)))

    deadline = time.monotonic() + grace
    while alive() and time.monotonic() < deadline:
        _reap_children()
        time.sleep(0.1)
    for sig in (signal.SIGTERM, signal.SIGKILL, signal.SIGKILL):
        end = time.monotonic() + 3.0
        while (left := alive()) and time.monotonic() < end:
            for p in left:
                try:
                    os.kill(p, sig)
                    killed.append(p)
                except ProcessLookupError:
                    pass
            _reap_children()
            time.sleep(0.1)
    _reap_children()
    if alive():
        raise RuntimeError(f"processes survived SIGKILL: {alive()}")
    return sorted(set(killed))


def become_subreaper() -> None:
    """Have orphaned descendants (Ray workers whose raylet has died) re-parent
    to this process instead of init, so ``stop_tree`` can reap them."""
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _reap_children() -> None:
    """Collect exit status of our own finished children (no zombies)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
