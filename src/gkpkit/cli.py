"""Command-line front end: atlas, groundstate, sweep, analyze, bound, measure."""

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import math
import os
import sys

import numpy as np

from . import analysis, bloch, gaussian, homodyne, io_utils, sweep
from .errors import InvalidArgumentError, NumericalFailureError
from .io_utils import load_sweep
from .wigner import wigner as wigner_fn

EXIT_OK = 0
EXIT_INVALID_ARGS = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# short name -> core-state label
_U_ALIASES = {
    "0": "0L", "1": "1L", "+": "+L", "-": "-L", "i": "iL", "-i": "-iL",
    "H": "H+x+y", "T": "T+++",
}


def parse_bloch(text):
    """Parse a Bloch vector: an alias ('0', 'H', ...), a core-state label,
    or an explicit 'ux,uy,uz' triple (any finite nonzero triple, scaled to
    unit length)."""
    wanted = _U_ALIASES.get(text, text)
    for label, vec in bloch.core_states():
        if label == wanted:
            return vec
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidArgumentError(f"cannot parse Bloch vector {text!r}")
    try:
        vec = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse Bloch vector {text!r}") from exc
    norm = np.linalg.norm(vec)
    if not 0 < norm < math.inf:  # NaN fails both comparisons
        raise InvalidArgumentError(f"Bloch vector must be finite and nonzero: {text!r}")
    return vec / norm


def parse_cutoffs(text):
    """Parse '5:150:5' range syntax or a comma-separated list."""
    ranged = ":" in text
    try:
        numbers = [int(p) for p in text.split(":" if ranged else ",")]
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse cutoffs {text!r}") from exc
    if not ranged:
        return numbers
    if len(numbers) != 3:
        raise InvalidArgumentError(f"range syntax is start:stop:step, got {text!r}")
    start, stop, step = numbers
    if step <= 0 or stop < start:
        raise InvalidArgumentError(f"bad cutoff range {text!r}")
    return list(range(start, stop + 1, step))


def parse_grid(text):
    """Parse 'min:max:count' into a linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidArgumentError(f"grid syntax is min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse grid {text!r}") from exc
    if not -math.inf < lo < hi < math.inf or count < 2:
        raise InvalidArgumentError(f"bad grid spec {text!r}")
    return np.linspace(lo, hi, count)


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def _seed(text):
    """argparse type for --seed: numpy's generators take no negative seed."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def cmd_atlas(args):
    atlas = bloch.order_greedy(bloch.sample_sphere(args.delta, args.seed))
    out = _ensure_out(args.out)
    config = {"command": "atlas", "delta": args.delta, "seed": args.seed}
    rows = [
        (i, atlas.labels[i], *atlas.points[i], i) for i in range(len(atlas))
    ]
    io_utils.write_csv(
        os.path.join(out, "atlas.csv"),
        ("index", "label", "ux", "uy", "uz", "order_position"),
        rows,
        config,
    )
    io_utils.write_json(
        os.path.join(out, "atlas.json"),
        {
            "size": len(atlas),
            "core_count": sum(1 for label in atlas.labels if label),
            "delta": args.delta,
            "seed": args.seed,
        },
        config,
    )
    print(f"atlas: {len(atlas)} points -> {out}/atlas.csv")
    return EXIT_OK


def cmd_groundstate(args):
    u = parse_bloch(args.u)
    axis = None if args.grid is None else parse_grid(args.grid)
    if axis is not None and not args.wigner:
        raise InvalidArgumentError("--grid needs --wigner")
    (energy,), (state,), _, _ = sweep.ground_states(u[None], args.cutoff)
    out = _ensure_out(args.out)
    config = {
        "command": "groundstate",
        "u": args.u,
        "cutoff": args.cutoff,
        "bloch": [float(v) for v in u],
    }
    rows = [(n, state[n].real, state[n].imag) for n in range(args.cutoff)]
    io_utils.write_csv(os.path.join(out, "state.csv"), ("n", "re", "im"), rows, config)
    summary = {
        "ground_energy": energy, "bloch": [float(v) for v in u], "cutoff": args.cutoff
    }
    if args.wigner:
        if axis is None:
            # the state's support, in steps of at most 0.1
            half_width = homodyne.support_half_width(state)
            axis = np.linspace(-half_width, half_width, math.ceil(20 * half_width) + 1)
        grid = wigner_fn(state, axis, axis)
        summary["wigner_mass"] = grid.mass()
        rows = np.column_stack(
            (np.repeat(axis, axis.size), np.tile(axis, axis.size), grid.values.ravel())
        )
        io_utils.write_csv(
            os.path.join(out, "wigner.csv"), ("x", "p", "W"), rows, config
        )
    io_utils.write_json(os.path.join(out, "groundstate.json"), summary, config)
    print(f"groundstate: energy {energy:.6e} -> {out}/groundstate.json")
    return EXIT_OK


def cmd_sweep(args):
    cutoffs = parse_cutoffs(args.cutoffs)
    config = {
        "command": "sweep", "delta": args.delta, "seed": args.seed, "cutoffs": cutoffs
    }
    atlas = bloch.order_greedy(bloch.sample_sphere(args.delta, args.seed))
    path = os.path.join(args.out, "sweep.json")
    old = None
    if args.resume and os.path.exists(path):
        old = load_sweep(path)
        if (old.atlas.delta, old.atlas.seed) != (args.delta, args.seed):
            print("resume: config mismatch, recomputing everything", file=sys.stderr)
            old = None
    record = sweep.run_sweep(atlas, cutoffs, done=old)
    _ensure_out(args.out)
    io_utils.write_sweep(path, record, config)
    print(f"sweep: {len(atlas)} states x {len(cutoffs)} cutoffs -> {path}")
    return EXIT_OK


def cmd_analyze(args):
    record = load_sweep(args.sweep)
    config = {"command": "analyze", "sweep": args.sweep}
    stats = analysis.regression_per_cutoff(record)
    out = _ensure_out(args.out)
    rows = [
        (n, s.slope, s.intercept, s.correlation_error, s.mutual_information)
        for n, s in sorted(stats.items())
    ]
    io_utils.write_csv(
        os.path.join(out, "regression.csv"),
        ("N", "slope", "intercept", "correlation_error", "mutual_information"),
        rows,
        config,
    )
    slopes = {n: s.slope for n, s in stats.items()}
    if len(slopes) >= 5:
        extrapolation = dataclasses.asdict(analysis.extrapolate_slope(slopes))
    else:
        extrapolation = {
            "skipped": f"need at least 5 cutoffs for extrapolation, got {len(slopes)}"
        }
        print("analyze: extrapolation skipped (too few cutoffs)", file=sys.stderr)
    io_utils.write_json(os.path.join(out, "extrapolation.json"), extrapolation, config)

    def dump_matrix(name, matrix):
        header = tuple(f"j{j}" for j in range(matrix.shape[1]))
        io_utils.write_csv(os.path.join(out, name), header, matrix, config)

    dump_matrix("infidelity.csv", record.infidelity)
    dump_matrix("infidelity_normalized.csv", sweep.normalize_matrix(record.infidelity))
    diagnostics = {"diagonal_violations": {}, "identity_deviation": {}}
    for n in record.cutoffs:
        dump_matrix(f"expectation_N{n}.csv", record.expectation[n])
        dump_matrix(
            f"expectation_N{n}_normalized.csv",
            sweep.normalize_matrix(record.expectation[n]),
        )
        diagnostics["diagonal_violations"][str(n)] = sweep.diagonal_violations(
            record.expectation[n]
        )
        diagnostics["identity_deviation"][str(n)] = (
            sweep.logical_subspace_identity_check(record, n)
        )
    io_utils.write_json(os.path.join(out, "diagnostics.json"), diagnostics, config)
    print(f"analyze: {len(slopes)} cutoffs -> {out}")
    return EXIT_OK


def cmd_bound(args):
    targets = []
    for spec in args.u:
        if spec == "core":
            targets.extend(bloch.core_states())
        else:
            targets.append((spec, parse_bloch(spec)))
    config = {"command": "bound", "budget": args.budget, "seed": args.seed}
    numeric, argmin = gaussian.minimize_over_gaussians(
        np.array([u for _, u in targets]), budget=args.budget, seed=args.seed
    )
    out = _ensure_out(args.out)
    rows = []
    worst = 0.0
    for i, (label, u) in enumerate(targets):
        analytic = gaussian.gaussian_bound(u)
        gap = numeric[i] - analytic
        worst = max(worst, abs(gap))
        rows.append(
            (label, *u, analytic, numeric[i], gap, argmin.x0[i], argmin.p0[i],
             argmin.r[i], argmin.theta[i])
        )
    io_utils.write_csv(
        os.path.join(out, "bound.csv"),
        ("label", "ux", "uy", "uz", "analytic_bound", "numeric_min", "gap",
         "x0", "p0", "r", "theta"),
        rows,
        config,
    )
    print(f"bound: {len(targets)} targets, max |gap| = {worst:.3e} -> {out}/bound.csv")
    return EXIT_OK


def cmd_measure(args):
    u = parse_bloch(args.u)
    _, (state,), expectation, _ = sweep.ground_states(u[None], args.cutoff)
    estimate = homodyne.estimate_witness(
        state, u, count_per_quadrature=args.counts, seed=args.seed
    )
    exact = float(expectation[0, 0])
    out = _ensure_out(args.out)
    config = {
        "command": "measure",
        "u": args.u,
        "cutoff": args.cutoff,
        "counts": args.counts,
        "seed": args.seed,
    }
    io_utils.write_json(
        os.path.join(out, "measure.json"),
        {
            "value": estimate.value,
            "std_error": estimate.std_error,
            "per_term": [list(t) for t in estimate.per_term],
            "exact_matrix_value": exact,
            "gaussian_bound": gaussian.gaussian_bound(u),
            "bloch": [float(v) for v in u],
        },
        config,
    )
    print(
        f"measure: {estimate.value:.4f} +- {estimate.std_error:.4f} "
        f"(exact {exact:.4f}) -> {out}/measure.json"
    )
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gkpkit",
        description="Target operators, approximate states and validation "
        "pipeline for logical GKP qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("atlas", help="sample and order Bloch-sphere targets")
    p.add_argument("--delta", type=float, default=0.35)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("groundstate", help="extract an approximate GKP qubit")
    p.add_argument("--u", required=True)
    p.add_argument("--cutoff", type=int, default=150)
    p.add_argument("--out", default="out")
    p.add_argument("--wigner", action="store_true")
    p.add_argument("--grid", help="Wigner axis as min:max:count")
    p.set_defaults(func=cmd_groundstate)

    p = sub.add_parser("sweep", help="expectation/infidelity sweep over cutoffs")
    p.add_argument("--delta", type=float, default=0.35)
    p.add_argument("--cutoffs", default="5:120:5")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="out")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="regression and extrapolation of a sweep")
    p.add_argument("--sweep", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bound", help="Gaussian bound verification")
    p.add_argument("--u", action="append", required=True,
                   help="Bloch vector, alias, or 'core' (repeatable)")
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("measure", help="simulated three-quadrature estimation")
    p.add_argument("--u", required=True)
    p.add_argument("--cutoff", type=int, default=150)
    p.add_argument("--counts", type=int, default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_measure)
    return parser


@contextlib.contextmanager
def _one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread, so that result files do not
    depend on the thread count; restore the old count on exit. Does nothing
    where numpy ships no such library."""
    libs = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas*")
    lib = ctypes.CDLL(libs[0]) if libs else None
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        yield
        return
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID_ARGS if exc.code not in (0, None) else EXIT_OK
    try:
        with _one_blas_thread():
            return args.func(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_ARGS
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
