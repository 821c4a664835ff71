"""Command-line surface: analysis, discarding, diagnostics, and simulation.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error.
Errors are printed to stderr as single-line JSON {"code", "message"}.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .core import EV_FORMULAS, MODES, PlaConfig, discard, run_pla
from .dispersion import KINDS, DispersionMatrix
from .errors import ConfigError, DataError, NumericalError, ParseError
from .ingest import NA_POLICIES, _read_rows, load_csv, write_csv
from .perturbation import eigengap_bound, variance_sensitivity
from .simulate import (SCENARIOS, TABLE_COLUMNS, TABLE_GRIDS, MonteCarloSpec, ScenarioSpec,
                       reproduce_table, type_one_error)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _report_error(code: int, message) -> int:
    # an exception without text, such as a bare MemoryError, is named instead
    print(json.dumps({"code": code, "message": str(message) or repr(message)}), file=sys.stderr)
    return code


def _warn(message: str) -> None:
    print(json.dumps({"warning": message}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors reach ``main`` as ``ConfigError`` (exit 2)."""

    def error(self, message):
        raise ConfigError(message)


def _emit(payload: dict, args) -> None:
    if args.format == "text":
        rendered = _render_text(payload)
    else:
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def _render_text(payload: dict) -> str:
    lines = []
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):  # a block: scalars and lists of scalars
                lines.append(f"{key}[{i}]:")
                lines.extend(f"  {k}: {v}" for k, v in item.items())
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _json_float(x) -> float | None:
    """``x`` as a float, or None where it is not finite: JSON has no inf or nan."""
    return float(x) if np.isfinite(x) else None


def _load_square_array(path: str) -> np.ndarray:
    _, array = _read_rows(path, ",", False)
    if array.shape[0] != array.shape[1]:
        raise ParseError(f"{path}: matrix file must be square and numeric")
    if not np.all(np.isfinite(array)):
        raise ParseError(f"{path}: non-finite matrix cell")
    return array


def _warn_numerical(cell: dict) -> None:
    if cell["numerical_failures"]:
        _warn(f"M={cell['M']} k_or_kappa={cell['k_or_kappa']} N={cell['N']} "
              f"tau={cell['tau']}: {cell['numerical_failures']} of {cell['S']} "
              "iterations failed numerically and count as detection failures")


def _pla_flags(sub) -> None:
    sub.add_argument("--mode", default=PlaConfig.mode, choices=MODES)
    sub.add_argument("--tau", type=float, default=PlaConfig.tau)
    sub.add_argument("--ev-cutoff", type=float, default=PlaConfig.ev_cutoff)
    sub.add_argument("--ev-formula", default=PlaConfig.ev_formula, choices=EV_FORMULAS)


def _input_flags(sub) -> None:
    sub.add_argument("--input", required=True, help="input CSV dataset")
    sub.add_argument("--delimiter", default=",")
    sub.add_argument("--no-header", action="store_true")
    sub.add_argument("--na-policy", default="fail", choices=NA_POLICIES)


def _report_flags(sub) -> None:
    sub.add_argument("--out", help="write report here instead of stdout")
    sub.add_argument("--format", default="json", choices=("json", "text"))


def build_parser() -> _Parser:
    parser = _Parser(prog="pla", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="run PLA on a CSV dataset")
    p.set_defaults(run=_cmd_analyze)
    _input_flags(p)
    _pla_flags(p)
    _report_flags(p)

    p = subs.add_parser("discard", help="analyze and write the reduced dataset")
    p.set_defaults(run=_cmd_discard)
    _input_flags(p)
    _pla_flags(p)
    p.add_argument("--out", required=True, help="output CSV for the kept columns")

    p = subs.add_parser("bound", help="eigengap perturbation bound diagnostic")
    p.set_defaults(run=_cmd_bound)
    p.add_argument("--matrix", required=True, help="CSV of the symmetric base matrix")
    p.add_argument("--kind", default="covariance", choices=KINDS)
    p.add_argument("--delta", required=True, help="CSV of the symmetric perturbation")
    p.add_argument("--tau", type=float, required=True)
    _report_flags(p)

    p = subs.add_parser("sensitivity", help="variance-sensitivity finite differences")
    p.set_defaults(run=_cmd_sensitivity)
    p.add_argument("--matrix", required=True, help="CSV of the symmetric covariance")
    p.add_argument("--variable", type=int, required=True, help="0-based variable index")
    p.add_argument("--increments", required=True,
                   help="comma-separated positive increasing grid")
    _report_flags(p)

    p = subs.add_parser("simulate", help="Type-I-error Monte Carlo for one scenario")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--k", "--kappa", dest="count", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--seed", type=int, default=MonteCarloSpec.master_seed)
    p.add_argument("--mode", default=ScenarioSpec.mode, choices=MODES)
    p.add_argument("--epsilon-scale", type=float, default=ScenarioSpec.epsilon_scale)
    _report_flags(p)

    p = subs.add_parser("reproduce-table", help="Type-I-error grid as CSV")
    p.set_defaults(run=_cmd_reproduce_table)
    p.add_argument("--table", required=True, choices=tuple(TABLE_GRIDS))
    p.add_argument("--M", type=int, action="append")
    p.add_argument("--k", "--kappa", dest="count", type=int, action="append")
    p.add_argument("--N", type=int, action="append")
    p.add_argument("--tau", type=float, action="append")
    p.add_argument("--S", type=int, default=2000)
    p.add_argument("--seed", type=int, default=MonteCarloSpec.master_seed)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("--manifest", help="optional JSON run-manifest path")
    return parser


def _analyze_input(args):
    """Validate the PLA settings, then load ``--input`` and analyze it."""
    config = PlaConfig(tau=args.tau, mode=args.mode,
                       ev_cutoff=args.ev_cutoff, ev_formula=args.ev_formula)
    data = load_csv(args.input, delimiter=args.delimiter,
                    has_header=not args.no_header, na_policy=args.na_policy)
    return data, run_pla(data, config)


def _cmd_analyze(args) -> int:
    _, report = _analyze_input(args)
    _emit(report.to_dict(), args)
    return EXIT_OK


def _cmd_discard(args) -> int:
    data, report = _analyze_input(args)
    reduced = discard(data, report)
    write_csv(reduced, args.out, delimiter=args.delimiter)
    print(json.dumps({"kept": list(reduced.variable_names),
                      "discarded": list(report.recommendation)}, sort_keys=True))
    return EXIT_OK


def _cmd_bound(args) -> int:
    base = DispersionMatrix(_load_square_array(args.matrix), args.kind)
    diag = eigengap_bound(base, _load_square_array(args.delta), args.tau)
    payload = {
        "tau": args.tau,
        "frobenius_norm": _json_float(diag.frobenius_norm),
        "eigengaps": [_json_float(g) for g in diag.eigengaps],
        "bounds": [_json_float(b) for b in diag.bounds],
        "implies_below_tau": diag.implies_below_tau.tolist(),
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_sensitivity(args) -> int:
    matrix = DispersionMatrix(_load_square_array(args.matrix), "covariance")
    try:
        increments = [float(x) for x in args.increments.split(",") if x.strip()]
    except ValueError:
        raise ConfigError("--increments must be comma-separated numbers") from None
    profile = variance_sensitivity(matrix, args.variable, increments)
    payload = {
        "target_variable": profile.target_variable,
        "eigen_index": profile.eigen_index,
        "increments": profile.increments.tolist(),
        "finite_differences": [
            None if d is None else [_json_float(x) for x in d] for d in profile.diffs
        ],
        "tracking_errors": list(profile.tracking_errors),
        "sign_contract_ok": list(profile.sign_contract_ok),
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = ScenarioSpec(m_total=args.M, scenario=args.scenario, count=args.count,
                        n_sample=args.N, tau=args.tau, mode=args.mode,
                        epsilon_scale=args.epsilon_scale)
    mc = MonteCarloSpec(iterations=args.S, master_seed=args.seed)
    est = type_one_error(spec, mc)
    payload = {
        "scenario": args.scenario, "M": args.M, "k_or_kappa": args.count,
        "N": args.N, "tau": args.tau, "S": args.S, "seed": args.seed,
        "failures": est.failures, "rate": est.rate,
        "ci_low": est.wilson_ci95[0], "ci_high": est.wilson_ci95[1],
        "numerical_failures": est.numerical_failures,
    }
    _warn_numerical(payload)
    _emit(payload, args)
    return EXIT_OK


def _cmd_reproduce_table(args) -> int:
    if args.out and args.manifest and os.path.realpath(args.out) == os.path.realpath(args.manifest):
        raise ConfigError("--out and --manifest name the same file")
    mc = MonteCarloSpec(iterations=args.S, master_seed=args.seed)
    # Validates every cell and runs none, so an invalid grid touches no file.
    rows = reproduce_table(args.table, mc, m_values=args.M, count_values=args.count,
                           n_values=args.N, taus=args.tau)
    with contextlib.ExitStack() as stack:
        # Open both paths before the grid runs, so a bad one fails at once.
        out, manifest = (
            stack.enter_context(open(path, "w", newline="", encoding="utf-8"))
            if path else None
            for path in (args.out, args.manifest)
        )
        start = time.time()
        sink = out or sys.stdout
        writer = csv.DictWriter(sink, fieldnames=TABLE_COLUMNS)
        writer.writeheader()
        written = 0
        for written, row in enumerate(rows, 1):
            _warn_numerical(row)
            # One row per finished cell, so a stopped grid keeps what it ran.
            writer.writerow(row)
            sink.flush()
        if manifest:
            json.dump({
                "table": args.table, "S": args.S, "master_seed": args.seed,
                "M": args.M, "k_or_kappa": args.count, "N": args.N, "tau": args.tau,
                "rows": written, "wall_time_s": time.time() - start,
            }, manifest, indent=2, sort_keys=True)
            manifest.write("\n")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.

    Without ``argv`` this is a process entry (``pla``, ``python -m pla.cli``),
    so the heap built by the imports is frozen: the collector no longer walks
    it, at exit either.  An in-process call with ``argv`` freezes nothing, so
    its caller's cyclic garbage is still collected.
    """
    if argv is None:
        gc.freeze()
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: _warn(str(message))
        try:
            args = parser.parse_args(argv)
            return args.run(args)
        except ConfigError as exc:
            return _report_error(EXIT_USAGE, exc)
        except (DataError, OSError, UnicodeDecodeError, MemoryError) as exc:
            return _report_error(EXIT_DATA, exc)
        except (NumericalError, np.linalg.LinAlgError) as exc:
            return _report_error(EXIT_NUMERICAL, exc)


if __name__ == "__main__":
    sys.exit(main())
