"""Helpers shared by the tests: seeded data, and process patches for usable CPUs,
BLAS pinning and forks."""

import contextlib
import os
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import pla._fork
import pla.ingest
import pla.simulate
from pla import DataMatrix

BLOCK_3X3 = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 5.0]])

with pla._fork.one_blas_thread() as PINNED:  # else the Monte Carlo runs in one process
    pass


def gaussian_sample(cov, n, seed, names=None):
    """n Gaussian rows with covariance ``cov``, drawn via Cholesky: the data-level
    reference that ``draw_covariance`` is checked against."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, cov.shape[0])) @ np.linalg.cholesky(cov).T
    return DataMatrix(values, names or ())


def mixed_scale_values(seed):
    """200 rows of 3 to 8 correlated columns on scales 0.1 to 10; for half the
    seeds the last two are replaced by a correlated pair on scales 0.01 to 3.
    Seed 0 gives a correlation-mode block scored with no covariance eigenvalue."""
    rng = np.random.default_rng(seed)
    m = rng.integers(3, 9)
    x = rng.standard_normal((200, m)) @ rng.standard_normal((m, m)) * rng.uniform(0.1, 10, size=m)
    if rng.random() < 0.5:
        pair = rng.standard_normal((200, 2)) @ [[1, 0.9], [0, 0.4]]
        x[:, -2:] = pair * rng.uniform(0.01, 3, size=2)
    return x


def random_block_diagonal(rng, sizes, spread=1.0):
    """PD block-diagonal covariance with dense random blocks."""
    m = sum(sizes)
    cov = np.zeros((m, m))
    offset = 0
    for size in sizes:
        a = rng.standard_normal((size, size + 2))
        block = a @ a.T / (size + 2) + 0.2 * np.eye(size)
        cov[offset : offset + size, offset : offset + size] = spread * block
        offset += size
    return cov


class Planted(Exception):
    """Raised by a test's stand-in, and by no code under test."""


@contextlib.contextmanager
def cpus(count):
    """``count`` usable CPUs, and no cgroup CPU quota, whatever the host sets."""
    with mock.patch.object(
        os, "sched_getaffinity", return_value=set(range(count)), create=True
    ), mock.patch.object(pla._fork, "_CGROUP_ROOT", Path(os.devnull, "cgroup")):  # no such dir
        yield


@contextlib.contextmanager
def split_work(count=3):
    """``count`` usable CPUs, and a process for every CSV body byte or Monte Carlo
    iteration they allow: a body of ``count`` or more bytes is cut into ``count`` spans."""
    assert threading.active_count() == 1, "work is split only in a lone thread"
    with cpus(count), mock.patch.object(pla.ingest, "_SPAN_FLOOR", 1), \
            mock.patch.object(pla.simulate, "_RANGE_WORK", 1):
        yield


@contextlib.contextmanager
def blas_pinned():
    """Stands in for one_blas_thread where BLAS could be pinned."""
    yield True


@contextlib.contextmanager
def blas_unpinned():
    """Stands in for one_blas_thread where no settable OpenBLAS was found."""
    yield False


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def _no_child_outlives_its_test():
    yield
    no_children_left()
