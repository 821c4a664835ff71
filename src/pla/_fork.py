"""The one process model: tasks split across forked children over pipes."""

import contextlib
import ctypes
import math
import os
import threading
from pathlib import Path

import numpy as np

_CGROUP_ROOT = Path("/sys/fs/cgroup")  # where cgroup v2 is mounted
_OWN_CGROUP = Path("/proc/self/cgroup")  # "0::/path" names this process's v2 cgroup
_MAPS = Path("/proc/self/maps")


def usable_cpus() -> int:
    """The CPUs this process may run on, capped by the cgroup v2 quota of its
    cgroup and of each ancestor; 1 if unknown."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    try:
        lines = _OWN_CGROUP.read_text().splitlines()
    except OSError:
        lines = []
    own = Path(next((line[3:] for line in lines if line.startswith("0::")), "").strip("/"))
    for group in (own, *own.parents):  # the last is ".", the root
        try:
            quota, period = (_CGROUP_ROOT / group / "cpu.max").read_text().split()
            cpus = min(cpus, math.ceil(int(quota) / int(period)))
        except (OSError, ValueError):  # no file, or "max": no quota
            pass
    return max(1, cpus)


def even_cuts(work: int, floor: int) -> list[int]:
    """Cut points 0 to ``work``: even pieces, one per usable CPU, at most ``work // floor``."""
    pieces = max(1, min(usable_cpus(), work // floor))
    return [work * i // pieces for i in range(pieces + 1)]


def fork_map(fn, tasks: list) -> list:
    """``fn(task)`` for each task, in order, each a float64 array.

    The first task runs here and each other in a forked child that pipes its
    array back, shape first; a failed child's slot holds None.  Beside
    another thread, or without ``os.fork``, every task runs here.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(task) for task in tasks]
    pids, fds = [], []
    try:
        for task in tasks[1:]:
            fds += os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    for fd in fds[:-1]:  # the parent alone reads, so it can break the pipe
                        os.close(fd)
                    with open(fds[-1], "wb") as pipe:
                        values = np.ascontiguousarray(fn(task), np.float64)
                        pipe.writelines([np.array(values.shape, np.int64), values])
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(fds.pop())
        parts = [fn(tasks[0])]
        for fd in fds:
            with open(fd, "rb", closefd=False) as pipe:
                reply = pipe.read()
            try:
                shape = np.frombuffer(reply[:16], np.int64)
                parts.append(np.frombuffer(reply, offset=16).reshape(shape))
            except ValueError:
                parts.append(None)
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    return parts


@contextlib.contextmanager
def one_blas_thread():
    """OpenBLAS on one thread, which forked children inherit.

    Yields False, and changes nothing, where OpenBLAS is not found or another
    thread runs: the setting is the whole process's, and ``fork_map`` would
    not fork beside that thread anyway.
    """
    found = _blas_threads() if threading.active_count() == 1 else None
    if found is None:
        yield False
        return
    get, set_ = found
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


def _blas_threads():
    """OpenBLAS's thread-count getter and setter, or None if not found."""
    try:
        with _MAPS.open(encoding="utf-8") as fh:
            # the path is the sixth field and may hold spaces
            paths = {fields[5].rstrip("\n") for fields in (line.split(maxsplit=5) for line in fh)
                     if len(fields) == 6 and "openblas" in fields[5].lower()}
    except OSError:
        return None
    # numpy's wheels carry scipy-openblas; a system OpenBLAS has the plain names
    names = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
             "openblas_{}_num_threads")
    for path in sorted(paths):
        if path.endswith(" (deleted)"):  # the file was replaced since it was mapped
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            try:
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            except AttributeError:
                continue
            get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
            return get, set_
    return None
