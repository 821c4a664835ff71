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
from pla.cli import main
from conftest import PINNED, Planted, cpus


@pytest.fixture
def cgroup(tmp_path):
    """Four usable CPUs, a cgroup v2 tree under tmp_path, and this process in its root."""
    root = tmp_path / "cgroup"
    root.mkdir()
    own = tmp_path / "own"
    own.write_text("0::/\n")
    with cpus(4), mock.patch.object(pla._fork, "_CGROUP_ROOT", root), \
            mock.patch.object(pla._fork, "_OWN_CGROUP", own):
        yield root, own


@pytest.mark.parametrize(
    "cpu_max, cpus", [("max 100000\n", 4), ("150000 100000\n", 2), ("50000 100000\n", 1),
                      ("800000 100000\n", 4), (None, 4)]
)
def test_usable_cpus_honour_a_cgroup_quota(cgroup, cpu_max, cpus):
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
def test_usable_cpus_take_the_least_quota_up_the_tree(cgroup, own, quotas, cpus):
    root, own_file = cgroup
    if own is None:
        own_file.unlink()
    else:
        own_file.write_text(own)
    for group, quota in quotas.items():
        (root / group).mkdir(parents=True, exist_ok=True)
        (root / group / "cpu.max").write_text(quota + "\n")
    assert pla._fork.usable_cpus() == cpus


def test_both_fork_sites_get_the_capped_count(tmp_path, cgroup):
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
    assert pins == [None, None]
    assert (blas.threads, blas.setters) == (2, [])


def _value(kind):
    """A value of each type a task may return; the same for the same kind."""
    return {"none": None, "int": 7, "tuple": (3, "x", 0.5),
            "1-d": np.arange(5.0), "2-d": np.arange(6).reshape(2, 3)}[kind]


class TestForkMap:
    """``fork_map(fn, tasks)`` is ``[fn(task) for task in tasks]``."""

    def test_any_value_crosses_in_order(self):
        kinds = ["2-d", "none", "int", "tuple", "1-d", "2-d"]
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            got = pla._fork.fork_map(_value, kinds)
        assert fork.call_count == len(kinds) - 1
        want = [_value(kind) for kind in kinds]
        assert [type(value) for value in got] == [type(value) for value in want]
        for value, expected in zip(got, want):
            if isinstance(expected, np.ndarray):
                assert value.dtype == expected.dtype
                np.testing.assert_array_equal(value, expected)
            else:
                assert value == expected

    def test_the_first_failing_task_raises_its_own_exception(self):
        def fn(task):  # tasks 1 and 2 run in children, and fail there and here
            if task == 1:
                raise Planted(task)
            if task == 2:
                raise KeyError(task)
            return task

        with pytest.raises(Planted, match="1"):
            pla._fork.fork_map(fn, [0, 1, 2, 3])

    def test_a_task_whose_child_failed_runs_here(self):
        parent = os.getpid()

        def fn(task):
            if os.getpid() != parent:
                os._exit(3)  # a child that dies without a word
            return (task, os.getpid())

        assert pla._fork.fork_map(fn, [0, 1, 2]) == [(0, parent), (1, parent), (2, parent)]


def _refused_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


class TestRefusedFork:
    """Where the system refuses a fork, the task runs here instead."""

    def test_fork_map_runs_the_task_here(self):
        with mock.patch.object(os, "fork", side_effect=_refused_fork) as fork:
            assert pla._fork.fork_map(_value, ["int", "tuple", "none"]) == [
                7, (3, "x", 0.5), None]
        assert fork.call_count == 2

    def test_simulate_prints_the_one_cpu_bytes(self, capsys):
        args = ["simulate", "--scenario", "single-vars", "--M", "200", "--k", "1",
                "--N", "10000", "--tau", "0.6", "--S", "10", "--seed", "3"]

        def run(count):
            with cpus(count):
                assert main(args) == 0
            return capsys.readouterr()

        one_cpu = run(1)
        with mock.patch.object(os, "fork", side_effect=_refused_fork) as fork:
            refused = run(2)
        assert fork.call_count == PINNED
        assert (refused.out, refused.err) == (one_cpu.out, one_cpu.err) == (one_cpu.out, "")
