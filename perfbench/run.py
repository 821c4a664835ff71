#!/usr/bin/env python3
"""Benchmark of the ``pla`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload mc-m200 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from the repository root.  With ``--trace 0`` every command is a child
``python -m pla.cli`` process on the checkout's ``src/`` and the end-to-end
metrics are printed; with ``--trace 1`` the same commands also run in-process
with pla's module boundaries wrapped, and the per-layer metrics are printed.
The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import benchdata
import benchtrace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

SETUP_REPEATS = 7
MIN_COMMANDS = 3
STARTUP_REPEATS = 5
DETERMINISM_WORKERS = min(2, os.cpu_count() or 1)


def _mc(m, n, tau, iterations, warmup_iterations, check_iterations):
    args = ["simulate", "--scenario", "single-vars", "--M", str(m), "--k", "1",
            "--N", str(n), "--tau", str(tau), "--S"]
    return {
        "kind": "mc", "argv": [*args, str(iterations)], "iterations": iterations,
        # A short simulate warms up more than imports, and steadies setup_s.
        "warmup": [*args, str(warmup_iterations)],
        "determinism": [*args, str(check_iterations)],
        "data_mb": iterations * n * m * 8 / 1e6,
    }


# Why each workload exists: perfbench/README.md.
WORKLOADS = {
    "mc-m200": _mc(200, 10000, 0.6, 10, 4, 4),
    "cli-analyze": {"kind": "cli", "warmup": ["--version"]},
}
PLA_FLAGS = ["--mode", "correlation-rescaled", "--tau", "0.6", "--ev-cutoff", "0.05"]
END_TO_END_UNITS = {"setup_s": "s", "iter_per_s": "1/s", "input_mb_per_s": "MB/s",
                    "peak_rss_mb": "MB"}


def child_env(threads: int | None = None) -> dict:
    env = dict(os.environ)
    env.pop("PLA_THREADS", None)
    if threads is not None:
        env["PLA_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child:
    """One finished child process: wall time, peak RSS and its output."""

    def __init__(self, argv: list[str], tag: str, env: dict | None = None):
        out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=env or child_env())
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
        self.stdout = out_path.read_text(encoding="utf-8")
        self.stderr = err_path.read_text(encoding="utf-8")
        out_path.unlink()
        err_path.unlink()

    def problems(self) -> list[str]:
        bad = [] if self.code == 0 else [f"exit code {self.code}"]
        return bad + ([f"stderr: {self.stderr.strip()[:200]}"] if self.stderr else [])


def pla_child(args: list[str], tag: str, env: dict | None = None) -> Child:
    return Child([sys.executable, "-m", "pla.cli", *args], tag, env)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Run:
    """State of one benchmark run: inputs, checks and the commands it times."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.spec = WORKLOADS[name]
        self.tag = f"{name}-{seed}-{os.getpid()}"
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.lines: list[str] = []
        self.x = self.expected = None
        self.csv_path = OUT / f"{self.tag}.csv"
        self.kept_path = OUT / f"{self.tag}-kept.csv"
        self.mc_failures = self.mc_iterations = 0
        self.spans: list[list] = []  # filled by the traced run

    # ---- set-up -------------------------------------------------------
    def setup(self) -> float:
        """Make the inputs and warm up the interpreter; returns its seconds."""
        start = time.perf_counter()
        if self.spec["kind"] == "cli":
            self.x = benchdata.write_csv(self.csv_path, self.seed)
            self.expected = benchdata.expected_report(self.x)
        warm = pla_child([*self.spec["warmup"], *(["--seed", str(self.seed)]
                                                  if self.spec["kind"] == "mc" else [])],
                         self.tag)
        if warm.problems() or not warm.stdout.strip():
            raise SystemExit(f"warm-up failed: {warm.problems()}")
        return time.perf_counter() - start

    # ---- one command ----------------------------------------------------
    def argv(self, index: int) -> list[str]:
        if self.spec["kind"] == "mc":
            return [*self.spec["argv"], "--seed", str(self.seed * 1000 + index)]
        return ["analyze", "--input", str(self.csv_path), *PLA_FLAGS]

    def check(self, code: int, stdout: str, stderr: str) -> None:
        """Check one command's output and count its operations."""
        bad = [] if code == 0 else [f"exit code {code}"]
        if stderr:
            bad.append(f"stderr: {stderr.strip()[:200]}")
        if self.spec["kind"] == "mc":
            iterations = self.spec["iterations"]
            self.attempted += iterations
            try:
                result = json.loads(stdout)
                self.failed += int(result["numerical_failures"])
                self.mc_failures += int(result["failures"])
                self.mc_iterations += int(result["S"])
                if result["S"] != iterations:
                    bad.append(f"S {result['S']} != {iterations}")
            except (ValueError, KeyError, TypeError) as exc:
                bad.append(f"unreadable simulate output: {exc}")
            if bad:
                self.failed += iterations
        else:
            self.attempted += 1
            bad += self._check_cli(stdout)
            if bad:
                self.failed += 1
        self.problems += bad

    def _check_cli(self, stdout: str) -> list[str]:
        try:
            result = json.loads(stdout)
        except ValueError:
            return ["stdout is not JSON"]
        want = {"mode": "correlation-rescaled", "tau": 0.6, "ev_cutoff": 0.05}
        bad = [f"{k} echo wrong" for k, v in want.items() if result.get(k) != v]
        return bad + benchdata.report_problems(result, self.expected)

    def run_child(self, index: int) -> Child:
        child = pla_child(self.argv(index), self.tag)
        self.check(child.code, child.stdout, child.stderr)
        return child

    def timed_children(self, seconds: float, setups: list | None = None) -> list[Child]:
        """Closed loop: one command at a time until ``seconds`` have passed.

        Given ``setups``, the set-up is repeated between commands at even
        intervals until it holds SETUP_REPEATS times, so that its median
        samples the whole run, not one moment of a shared host.
        """
        children = []
        start = time.perf_counter()
        while len(children) < MIN_COMMANDS or time.perf_counter() < start + seconds:
            children.append(self.run_child(len(children)))
            elapsed = (time.perf_counter() - start) / seconds
            if setups is not None and len(setups) <= min(elapsed, 1) * (SETUP_REPEATS - 1):
                setups.append(self.setup())
        return children

    # ---- checks after the timed part ------------------------------------
    def final_checks(self) -> None:
        if self.spec["kind"] != "mc":
            self._counted_check(*self._discard_check())
            return
        self._counted_check(*self._rate_check())
        self._counted_check(*self._determinism_check())

    def _counted_check(self, ok: bool, line: str) -> None:
        self.attempted += 1
        self.lines.append(f"check {line}: {'ok' if ok else 'FAILED'}")
        if not ok:
            self.failed += 1
            self.problems.append(line)

    def _rate_check(self):
        n, rate = self.mc_iterations, self.mc_failures / max(1, self.mc_iterations)
        # The reference rate and the sampling error of both estimates.
        ref = REFERENCE[self.name]
        p, n_ref, z = ref["rate"], ref["iterations"], ref["z"]
        half = z * math.sqrt(p * (1 - p) * (1 / max(n, 1) + 1 / n_ref))
        lo, hi = p - half, p + half
        return lo <= rate <= hi, (f"pooled rate {rate:.4f} over {n} iterations "
                                  f"within [{lo:.4f}, {hi:.4f}]")

    def _determinism_check(self):
        args = [*self.spec["determinism"], "--seed", str(self.seed)]
        outs = [pla_child(args, self.tag, child_env(w)) for w in (1, DETERMINISM_WORKERS)]
        ok = all(not c.problems() for c in outs) and outs[0].stdout == outs[1].stdout
        return ok, f"simulate output identical with PLA_THREADS=1 and {DETERMINISM_WORKERS}"

    def _discard_check(self):
        """One untimed ``pla discard`` of the same input: the planted columns
        go, and the kept ones are read back equal to the input."""
        args = ["discard", "--input", str(self.csv_path), *PLA_FLAGS,
                "--out", str(self.kept_path)]
        child = pla_child(args, self.tag)
        names = benchdata.column_names()
        dropped = self.expected["recommendation"]
        want = {"kept": [n for n in names if n not in dropped], "discarded": dropped}
        bad = child.problems()
        try:
            if json.loads(child.stdout) != want:
                bad.append("summary differs from the planted structure")
        except ValueError:
            bad.append("stdout is not JSON")
        if not bad:
            bad = benchdata.kept_csv_problems(self.kept_path, self.x, self.expected)
        return not bad, "pla discard keeps the core columns exactly" + "".join(
            f"; {b}" for b in bad)

    def cleanup(self) -> None:
        for path in (self.csv_path, self.kept_path):
            path.unlink(missing_ok=True)


# ---- metrics ---------------------------------------------------------------
def metric_line(name, unit, value, values, what) -> str:
    q1, q3 = quartiles(values)
    return (f"metric {name} = {value:.6g} {unit} ({what} of {len(values)}; median "
            f"{statistics.median(values):.6g}, quartiles {q1:.6g}..{q3:.6g})")


def fast_decile(walls: list[float]) -> float:
    """The 10th percentile of command wall times.

    On a shared host, other tenants only ever add time to a command, in bursts
    of seconds to minutes; the fast decile is the command's own cost, and
    moves far less between runs than the median does (perfbench/README.md).
    """
    return statistics.quantiles(walls, n=10, method="inclusive")[0]


def end_to_end(run: Run, seconds: float) -> dict:
    setups = [run.setup()]
    children = run.timed_children(seconds, setups)
    while len(setups) < SETUP_REPEATS:
        setups.append(run.setup())
    run.final_checks()
    spec = run.spec
    per_command = spec["iterations"] if spec["kind"] == "mc" else 1
    data_mb = (spec["data_mb"] if spec["kind"] == "mc"
               else run.csv_path.stat().st_size / 1e6)
    wall = fast_decile([c.wall_s for c in children])
    series = {
        "setup_s": (statistics.median(setups), setups, "median set-up"),
        "iter_per_s": (per_command / wall, [per_command / c.wall_s for c in children],
                       "fast-decile command"),
        "input_mb_per_s": (data_mb / wall, [data_mb / c.wall_s for c in children],
                           "fast-decile command"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in children),
                        [c.rss_mb for c in children], "median command"),
    }
    for name, (value, values, what) in series.items():
        run.lines.append(metric_line(name, END_TO_END_UNITS[name], value, values, what))
    run.lines.append(f"info failed_frac = {run.failed}/{run.attempted}")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, (value, _, _) in series.items()}


def import_pla():
    sys.path.insert(0, str(SRC))
    import pla.cli

    if Path(pla.cli.__file__).resolve().parent != (SRC / "pla").resolve():
        raise SystemExit(f"imported pla from {pla.cli.__file__}, not {SRC}")
    return pla.cli


def in_process(cli, run: Run, index: int) -> float:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(run.argv(index))
    wall = time.perf_counter() - start
    run.check(code, out.getvalue(), err.getvalue())
    return wall


def startup_seconds(run: Run) -> list[float]:
    code = ("import time; t = time.perf_counter(); import pla.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(STARTUP_REPEATS):
        child = Child([sys.executable, "-c", code], run.tag)
        if child.problems():
            raise SystemExit(f"import pla.cli failed: {child.problems()}")
        times.append(float(child.stdout))
    return times


def per_layer(run: Run, seconds: float) -> dict:
    run.setup()
    startup = statistics.median(startup_seconds(run))
    children = run.timed_children(seconds / 3)
    cli = import_pla()
    tracer = benchtrace.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds * 2 / 3
    index = len(children)
    while len(traced) < 2 or time.perf_counter() < deadline:
        # Alternate which of the pair runs first, so order effects cancel.
        for traced_now in (len(traced) % 2 == 1, len(traced) % 2 == 0):
            if traced_now:
                with benchtrace.Patches(tracer):
                    traced.append(in_process(cli, run, index))
            else:
                plain.append(in_process(cli, run, index))
            index += 1
    run.final_checks()
    metrics, report = layer_metrics(tracer.spans, len(traced), startup,
                                    statistics.median(c.wall_s for c in children),
                                    statistics.median(plain), statistics.median(traced),
                                    run.csv_path.stat().st_size / 1e6
                                    if run.spec["kind"] == "cli" else None)
    run.lines += report
    run.lines.append(f"info traced commands {len(traced)}, untraced in-process "
                     f"{len(plain)}, child {len(children)}")
    run.spans = tracer.spans
    return metrics


def layer_metrics(spans, commands, startup, child_wall, plain_wall, traced_wall,
                  csv_mb=None):
    """Per-layer metrics from one run's spans; see README for definitions."""
    count = benchtrace.counts(spans)
    total = benchtrace.outermost_totals(spans)
    selfs = benchtrace.self_times(spans)
    layer_self: dict[str, float] = {}
    for index, value in enumerate(selfs):
        layer = benchtrace.layer_of(spans, index)
        layer_self[layer] = layer_self.get(layer, 0.0) + value
    analyses = max(1, count.get("core.run_pla", 0))
    run_pla_self = sum(s for s, sp in zip(selfs, spans) if sp[0] == "core.run_pla")

    def ms(name):
        return 1e3 * total.get(name, 0.0) / analyses

    def per(name):
        return count.get(name, 0) / analyses

    root_s = total.get("cli.main", 0.0) / commands
    values = {
        "cli.startup_s": (startup, "s"),
        "cli.self_s": (layer_self.get("cli", 0.0) / commands, "s"),
        "ingest.self_ms": (1e3 * layer_self.get("ingest", 0.0) / analyses, "ms"),
        "dispersion.sample_covariance.ms": (ms("dispersion.sample_covariance"), "ms"),
        "dispersion.correlation.ms": (ms("dispersion.correlation"), "ms"),
        "dispersion.eigvalsh.ms": (ms("np.eigvalsh"), "ms"),
        "dispersion.eigendecompose.ms": (ms("dispersion.eigendecompose"), "ms"),
        "dispersion.sample_covariance.calls": (per("dispersion.sample_covariance"), "count"),
        "dispersion.np_cov.calls": (per("np.cov"), "count"),
        "dispersion.eigvalsh.calls": (per("np.eigvalsh"), "count"),
        "dispersion.eigh.calls": (per("np.eigh"), "count"),
        "dispersion.eigendecompose.calls": (per("dispersion.eigendecompose"), "count"),
        "core.run_pla.ms": (ms("core.run_pla"), "ms"),
        "core.run_pla.self_ms": (1e3 * run_pla_self / analyses, "ms"),
        "core.rescale_eigenvectors.ms": (ms("core.rescale_eigenvectors"), "ms"),
        "core.detect_blocks.ms": (ms("core.detect_blocks"), "ms"),
        "core.score.ms": (ms("core.score"), "ms"),
        "trace.overhead_frac": (traced_wall / plain_wall - 1.0, "ratio"),
        "trace.unattributed_frac": (1.0 - (startup + root_s) / child_wall, "ratio"),
    }
    report = [f"layer self time per command: {layer} {value / commands:.6g} s"
              for layer, value in sorted(layer_self.items())]
    report.append(f"layer startup (fresh import pla.cli) {startup:.6g} s; untraced "
                  f"child wall {child_wall:.6g} s; in-process {plain_wall:.6g} s "
                  f"untraced, {traced_wall:.6g} s traced")
    if "ingest.load_csv" in total:
        load_s = total["ingest.load_csv"] / commands
        report.append(f"layer ingest.load_csv.s {load_s:.6g} s, "
                      f"ingest.load_csv.mb_per_s {csv_mb / load_s:.6g} MB/s")
    iterations = [sp[2] - sp[1] for sp in spans if sp[0] == "simulate.iteration"]
    if iterations:
        it_self = sum(s for s, sp in zip(selfs, spans) if sp[0] == "simulate.iteration")
        q = statistics.quantiles(iterations, n=10) if len(iterations) > 1 else iterations * 9
        report.append(
            f"layer simulate per iteration ({len(iterations)}): "
            f"ms_p50 {1e3 * statistics.median(iterations):.4g}, ms_p90 {1e3 * q[8]:.4g}, "
            f"self_ms {1e3 * it_self / len(iterations):.4g}, generate_population.ms "
            f"{1e3 * total.get('simulate.generate_population', 0) / len(iterations):.4g}, "
            f"draw_sample.ms {1e3 * total.get('simulate.draw_sample', 0) / len(iterations):.4g}, "
            f"np.cholesky calls {count.get('np.cholesky', 0) / len(iterations):.4g}")
    report.append("layer counts per analysis: " + ", ".join(
        f"{name} {count[name] / analyses:g}" for name in sorted(count)))
    for name, (value, unit) in values.items():
        report.append(f"metric {name} = {value:.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, report


# ---- machine block -------------------------------------------------------------
def _openblas_threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return getattr(lib, fn)()
    return None


def machine() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _openblas_threads(), "git_commit": commit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed)
    try:
        metrics = per_layer(run, seconds) if trace else end_to_end(run, seconds)
    finally:
        run.cleanup()
    info = machine()
    if trace:
        (OUT / f"trace-{run.tag}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "machine": info, "spans": run.spans}))
    print(f"machine {json.dumps(info, sort_keys=True)}")
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    for line in run.lines:
        print(line)
    for problem in run.problems[:20]:
        print(f"problem {problem}")
    correct = not run.problems and run.failed == 0
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "pla" / "cli.py").is_file():
        print(f"no pla sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("PLA_THREADS", None)
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
