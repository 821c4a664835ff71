import _ctypes
import ctypes
import os
import threading
from unittest import mock

import numpy as np
import pytest

import pla._fork
import pla.ingest
import pla.simulate
from pla import MonteCarloSpec, ScenarioSpec, load_csv, type_one_error
from test_ingest import _no_children_left
from test_simulate import PINNED


@pytest.fixture
def four_cpus():
    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1, 2, 3}, create=True):
        yield


@pytest.fixture
def cgroup(tmp_path, monkeypatch):
    """A cgroup v2 tree under tmp_path, and this process in its root."""
    root = tmp_path / "cgroup"
    root.mkdir()
    own = tmp_path / "own"
    own.write_text("0::/\n")
    monkeypatch.setattr(pla._fork, "_CGROUP_ROOT", root)
    monkeypatch.setattr(pla._fork, "_OWN_CGROUP", own)
    return root, own


@pytest.mark.parametrize(
    "cpu_max, cpus", [("max 100000\n", 4), ("150000 100000\n", 2), ("50000 100000\n", 1),
                      ("800000 100000\n", 4), (None, 4)]
)
def test_usable_cpus_honour_a_cgroup_quota(cgroup, four_cpus, cpu_max, cpus):
    root, _ = cgroup
    if cpu_max is not None:
        (root / "cpu.max").write_text(cpu_max)
    assert pla._fork.usable_cpus() == cpus


@pytest.mark.parametrize(
    "own, quotas, cpus",
    [("0::/a/b\n", {"a": "150000 100000", "a/b": "max 100000"}, 2),  # an ancestor's
     ("0::/a/b\n", {"a": "300000 100000", "a/b": "100000 100000"}, 1),  # its own
     ("0::/a/b\n", {"": "100000 100000", "a/b": "max 100000"}, 1),  # the root's
     ("0::/a\n", {"a/b": "100000 100000"}, 4),  # a child's is not this process's
     ("1:cpu:/x\n0::/a\n", {"a": "200000 100000"}, 2),  # cgroup v1 lines beside v2
     ("1:cpu:/a\n", {"a": "100000 100000"}, 4),  # no v2 cgroup: only the root counts
     (None, {"": "200000 100000", "a": "100000 100000"}, 2)],  # own cgroup unknown
)
def test_usable_cpus_take_the_least_quota_up_the_tree(cgroup, four_cpus, own, quotas, cpus):
    root, own_file = cgroup
    if own is None:
        own_file.unlink()
    else:
        own_file.write_text(own)
    for group, quota in quotas.items():
        (root / group).mkdir(parents=True, exist_ok=True)
        (root / group / "cpu.max").write_text(quota + "\n")
    assert pla._fork.usable_cpus() == cpus


def test_both_fork_sites_get_the_capped_count(tmp_path, cgroup, four_cpus):
    (cgroup[0] / "cpu.max").write_text("150000 100000\n")
    data = tmp_path / "data.csv"
    data.write_text("a,b\n1,2\n3,4\n5,6\n7,8\n")
    spec = ScenarioSpec(m_total=6, scenario="single-vars", count=1, n_sample=200, tau=0.4)
    with mock.patch.object(pla.ingest, "_SPAN_FLOOR", 1), \
            mock.patch.object(pla.simulate, "_RANGE_WORK", 1), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        np.testing.assert_array_equal(load_csv(data).values, [[1, 2], [3, 4], [5, 6], [7, 8]])
        assert fork.call_count == 1
        type_one_error(spec, MonteCarloSpec(iterations=8))
        assert fork.call_count == 1 + PINNED
    _no_children_left()


def test_a_library_path_with_a_space_is_loaded_whole(tmp_path, monkeypatch):
    spaced = tmp_path / "My Drive"
    spaced.mkdir()
    (spaced / "libopenblas.so").symlink_to(_ctypes.__file__)  # loads, but has no setter
    (spaced / "libopenblas.txt").write_text("not a library\n")
    libs = [str(spaced / name)
            for name in ("libopenblas.so", "libopenblas.txt", "libopenblas-gone.so")]
    maps = tmp_path / "maps"
    maps.write_text("".join(f"7f00-7f01 r-xp 00000000 08:01 1234    {lib}\n" for lib in libs)
                    + f"7f01-7f02 r-xp 00000000 08:01 1235    {libs[0]} (deleted)\n"
                    + "7f02-7f03 rw-p 00000000 00:00 0\n")
    monkeypatch.setattr(pla._fork, "_MAPS", maps)
    with mock.patch.object(ctypes, "CDLL", wraps=ctypes.CDLL) as cdll, \
            pla._fork.one_blas_thread() as pinned:
        assert pinned is False
    assert sorted(call.args[0] for call in cdll.call_args_list) == sorted(libs)


class _Blas:
    """Stands in for OpenBLAS's thread count, recording who sets it."""

    def __init__(self):
        self.threads, self.setters = 2, []

    def get(self):
        return self.threads

    def set(self, threads):
        self.threads = threads
        self.setters.append(threading.current_thread())


def test_blas_is_pinned_only_in_a_lone_thread(monkeypatch):
    blas = _Blas()
    monkeypatch.setattr(pla._fork, "_blas_threads", lambda: (blas.get, blas.set))
    with pla._fork.one_blas_thread() as pinned:
        assert (pinned, blas.threads) == (True, 1)
    assert blas.threads == 2
    blas.setters.clear()

    spec = ScenarioSpec(m_total=6, scenario="single-vars", count=1, n_sample=200, tau=0.4)
    both_running = threading.Barrier(2)
    pins = []

    def run():
        both_running.wait()
        with pla._fork.one_blas_thread() as pinned:
            pins.append(pinned)
            both_running.wait()  # the other run is inside too
        type_one_error(spec, MonteCarloSpec(iterations=4))

    threads = [threading.Thread(target=run) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert pins == [False, False]
    assert (blas.threads, blas.setters) == (2, [])
