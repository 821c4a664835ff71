"""The one process model: tasks split across forked children over pipes."""

import contextlib
import ctypes
import math
import os
import pickle
import threading
from pathlib import Path

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
    """``[fn(task) for task in tasks]``: the same values in order, or the same exception.

    The first task runs here and each other in a forked child that pickles
    its value into a pipe.  A task whose child fails, or that the system
    refuses to fork, runs again here, so its exception, if any, reaches the
    caller.  Beside another thread, or without ``os.fork``, every task runs
    here.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(task) for task in tasks]
    pids, fds = [], []
    try:
        for task in tasks[1:]:
            fds += os.pipe()
            try:
                pid = os.fork()
            except OSError:  # the empty pipe sends this task back here
                os.close(fds.pop())
                continue
            if pid == 0:
                try:
                    for fd in fds[:-1]:  # the parent alone reads, so it can break the pipe
                        os.close(fd)
                    with open(fds[-1], "wb") as pipe:
                        pickle.dump(fn(task), pipe, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(fds.pop())
        values = [fn(tasks[0])]
        for task, fd in zip(tasks[1:], fds):
            with open(fd, "rb", closefd=False) as pipe:
                try:
                    values.append(pickle.load(pipe))
                except (EOFError, pickle.UnpicklingError):  # an empty or short reply
                    values.append(fn(task))
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    return values


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
