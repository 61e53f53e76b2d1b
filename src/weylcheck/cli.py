"""Batch front end: parse a domain file, run one pipeline, emit CSV/JSON.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 violation of an exact invariant (chain or superadditivity).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import discretization, eigensolve, geometry, heat, oracles, spectral

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

# --problem -> the problem it names: the bilaplacian's values are the roots
PROBLEM_OPTIONS = {"dirichlet": "dirichlet", "buckling": "buckling",
                   "bilaplacian": "bilaplacian_root"}


class ConfigError(ValueError):
    pass


def finite(text: str) -> float:
    """argparse type for a finite float: NaN and infinities are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def _bounded(name: str, parse, ok):
    """argparse type: parse the text, then require ok(value)."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"not {name}: {text!r}")
        return value
    check.__name__ = name
    return check


positive = _bounded("positive", finite, lambda v: v > 0)
nonnegative = _bounded("nonnegative", finite, lambda v: v >= 0)
positive_int = _bounded("positive_int", int, lambda v: v > 0)
nonnegative_int = _bounded("nonnegative_int", int, lambda v: v >= 0)


def _parse_lambdas(text: str):
    try:
        if text.startswith("auto:"):
            return ("auto", positive_int(text.split(":", 1)[1]))
        return ("list", [finite(x) for x in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad --lambdas value {text!r}") from exc


def _parse_tgrid(text: str) -> np.ndarray:
    parts = text.split(":")
    try:
        if len(parts) == 4 and parts[0] == "log":
            lo, hi, num = positive(parts[1]), positive(parts[2]), int(parts[3])
            if hi <= lo or num < 2:
                raise ValueError
            return np.logspace(math.log10(lo), math.log10(hi), num)
        return np.array([positive(x) for x in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad --t-grid value {text!r}") from exc


def _analytic_spectrum(spec: geometry.DomainSpec, lam_max: float):
    if spec.kind == "rectangle":
        return oracles.rectangle_spectrum(spec.a, spec.b, lam_max)
    if spec.kind == "interval":
        return oracles.interval_spectrum(spec.a, lam_max)
    if spec.kind == "disk":
        # past its Bessel argument range the disk oracle is a configuration
        # error rather than a numerical failure
        try:
            return oracles.disk_spectrum(spec.r, lam_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"no analytic spectrum for domain kind {spec.kind!r}")


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row) + "\n")


# -- commands --------------------------------------------------------------
# Each cmd_<name>(args, out) writes its CSV tables to out and returns the
# results of its summary; main records the options and writes the summary.


def cmd_solve(args, out: Path) -> dict:
    if args.problem == "buckling" and args.tol != eigensolve.SOLVE_TOL:
        raise ConfigError("--tol does not apply to --problem buckling: the "
                          "pencil is solved densely and has no tolerance")
    mask = geometry.rasterize(geometry.load_domain(args.domain), args.h)
    if args.k > mask.n_nodes:
        raise ConfigError(f"--k {args.k} exceeds the {mask.n_nodes} grid nodes")
    result = spectral.MaskForms(mask).spectrum(
        PROBLEM_OPTIONS[args.problem], args.k, tol=args.tol)
    result.dump(out / "spectrum.csv", h=args.h)
    return {"nodes": mask.n_nodes, "values": [float(v) for v in result.values]}


def cmd_count(args, out: Path) -> dict:
    mask = geometry.rasterize(geometry.load_domain(args.domain), args.h)
    return {"nodes": mask.n_nodes, "count": spectral.MaskForms(mask).count(
        PROBLEM_OPTIONS[args.problem], args.lam)}


def cmd_chain(args, out: Path) -> dict:
    mask = geometry.rasterize(geometry.load_domain(args.domain), args.h)
    mode, payload = _parse_lambdas(args.lambdas)
    if args.method == "inertia":
        # K equal steps up to the grid trust limit, none rounded past it:
        # Weyl spacing in 2-D
        source = spectral.MaskForms(mask)
        limit = spectral.GRID_TRUST / args.h**2
        auto = lambda k: np.minimum(
            np.arange(1, k + 1) * spectral.GRID_TRUST / (k * args.h**2), limit)
    else:
        source = spectral.solve_all_problems(mask)
        auto = lambda k: spectral.eigenvalue_avoiding_grid(source.merged_values(), k)
    lam_grid = auto(payload) if mode == "auto" else np.array(payload)
    rows = spectral.verify_chain(source, lam_grid)
    _write_csv(out / "chain.csv", "lambda,n_buckling,n_bilaplacian,n_dirichlet,"
               "weyl_buckling,weyl_bilaplacian,weyl_dirichlet,trusted,status",
               [(*row, *ratios, "PASS")
                for row, ratios in zip(rows, spectral.weyl_ratios(rows, mask))])
    return {"nodes": mask.n_nodes, "points": len(rows), "ok": True}


def cmd_super(args, out: Path) -> dict:
    mask = geometry.rasterize(geometry.load_domain(args.domain), args.h)
    parts = spectral.split_separated(mask, seed=args.seed)
    if args.lam is None:
        # half the grid trust limit; recorded, so the summary replays
        args.lam = spectral.GRID_TRUST / (2 * args.h**2)
    counts = spectral.superadditivity_check(
        spectral.MaskForms(mask), [spectral.MaskForms(p) for p in parts], args.lam)
    _write_csv(out / "superadditivity.csv", "problem,whole,parts_sum,status",
               [(p, n, parts_sum, "PASS")
                for p, (n, parts_sum) in sorted(counts.items())])
    return {"nodes": mask.n_nodes, "part_nodes": [p.n_nodes for p in parts],
            "ok": True}


def cmd_cover(args, out: Path) -> dict:
    spec = geometry.load_domain(args.domain)
    cover = geometry.cube_cover(spec, args.eta)
    results = {
        "cubes": int(len(cover.corners)),
        "side": cover.side,
        "covered_volume": cover.covered_volume,
        "domain_volume": spec.volume,
    }
    if args.lam is not None:
        lb = spectral.cube_lower_bound(cover, args.lam)
        results["lambda"] = args.lam
        results["lower_bound"] = lb
        results["weyl_prediction"] = (
            spectral.weyl_constant(2, cover.covered_volume) * max(args.lam, 0.0)
            if len(cover.corners) else 0.0
        )
    _write_csv(out / "cubes.csv", "x,y,side",
               [(float(x), float(y), cover.side) for x, y in cover.corners])
    return results


def _heat_samples(args):
    """The domain, its analytic spectrum below --lam-max and its heat trace
    on --t-grid."""
    spec = geometry.load_domain(args.domain)
    spectrum = _analytic_spectrum(spec, args.lam_max)
    times = _parse_tgrid(args.t_grid)
    return spec, spectrum, heat.heat_trace(spectrum, times, spec.dimension,
                                           spec.volume)


def cmd_heat(args, out: Path) -> dict:
    _, spectrum, samples = _heat_samples(args)
    rows = heat.heat_upper_bound_check(samples)
    _write_csv(out / "heat.csv",
               "t,value,tail_bound,scaled,free_kernel_bound,trusted,bound_ok",
               [(float(t), float(v), float(tb), r.scaled_value, r.bound,
                 r.trusted, r.ok)
                for t, v, tb, r in zip(samples.times, samples.values,
                                       samples.tail_bounds, rows)])
    return {"eigenvalues": len(spectrum),
            "trusted": int(samples.trusted.sum()),
            "bound_ok": all(r.ok for r in rows if r.trusted)}


def cmd_karamata(args, out: Path) -> dict:
    spec, _, samples = _heat_samples(args)
    est = heat.karamata_estimate(samples)
    expected = (4.0 * math.pi) ** (-spec.dimension / 2.0) * spec.volume
    return {"coefficient": est.coefficient,
            "eq_constant": est.eq_constant,
            "expected_coefficient": expected,
            "relative_error": abs(est.coefficient - expected) / expected,
            "boundary_term": est.boundary_term,
            "constant_term": est.constant_term,
            "fit_window": list(est.fit_window),
            "residual": est.residual}


def cmd_oracle(args, out: Path) -> dict:
    # the shape options default to SUPPRESS: only the given one is parsed
    shapes = {"rectangle", "interval", "disk"} & vars(args).keys()
    if len(shapes) != 1:
        raise ConfigError("oracle needs exactly one of --rectangle, --interval, --disk")
    (shape,) = shapes
    size, build = getattr(args, shape), getattr(geometry.DomainSpec, shape)
    spectrum = _analytic_spectrum(
        build(*size) if shape == "rectangle" else build(size), args.lam_max)
    spectrum.dump(out / "spectrum.csv")
    return {"count": len(spectrum)}


# -- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylcheck",
        description="Spectra of planar domains and Weyl-law verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, domain=True):
        if domain:
            p.add_argument("--domain", required=True, help="domain JSON file")
        p.add_argument("-o", "--output-dir", default=".", help="output directory")

    p = sub.add_parser("solve", help="grid eigenvalues of one problem")
    common(p)
    p.add_argument("--h", type=finite, required=True)
    p.add_argument("--k", type=positive_int, default=10)
    p.add_argument("--problem", choices=PROBLEM_OPTIONS, default="dirichlet")
    p.add_argument("--tol", type=positive, default=eigensolve.SOLVE_TOL)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("count",
                       help="exact count below a threshold by sparse inertia")
    common(p)
    p.add_argument("--h", type=finite, required=True)
    p.add_argument("--lam", type=finite, required=True)
    p.add_argument("--problem", choices=PROBLEM_OPTIONS, default="dirichlet")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("chain", help="verify N_b <= N_bl <= N_D")
    common(p)
    p.add_argument("--h", type=finite, required=True)
    p.add_argument("--lambdas", default="auto:50",
                   help="a comma list, or 'auto:K': K thresholds chosen by --method")
    p.add_argument("--method", choices=("dense", "inertia"), default="dense")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("super", help="verify counting superadditivity on a split")
    common(p)
    p.add_argument("--h", type=finite, required=True)
    p.add_argument("--lam", type=finite, default=None,
                   help="threshold; default: lambda h^2 = 0.125")
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.set_defaults(func=cmd_super)

    p = sub.add_parser("cover", help="cube cover and its counting lower bound")
    common(p)
    p.add_argument("--eta", type=finite, required=True)
    p.add_argument("--lam", type=finite, default=None)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("heat", help="heat trace and the free-kernel bound")
    common(p)
    p.add_argument("--lam-max", type=nonnegative, required=True)
    p.add_argument("--t-grid", default="log:1e-3:1e-2:12",
                   help="'log:lo:hi:n' or a comma list")
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("karamata", help="tauberian fit of the Weyl coefficient")
    common(p)
    p.add_argument("--lam-max", type=nonnegative, required=True)
    p.add_argument("--t-grid", default="log:1e-3:1e-2:12")
    p.set_defaults(func=cmd_karamata)

    p = sub.add_parser("oracle", help="closed-form spectrum to CSV")
    common(p, domain=False)
    p.add_argument("--rectangle", type=positive, nargs=2, metavar=("A", "B"),
                   default=argparse.SUPPRESS)
    p.add_argument("--interval", type=positive, default=argparse.SUPPRESS)
    p.add_argument("--disk", type=positive, default=argparse.SUPPRESS)
    p.add_argument("--lam-max", type=nonnegative, required=True)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    """Run one command; on success write its summary.json, whose config is
    the parsed options, and append a line to run.log."""
    args = build_parser().parse_args(argv)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        results = args.func(args, out)
    except (ConfigError, geometry.GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except spectral.InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (eigensolve.SolverError, heat.HeatTraceError,
            discretization.AssemblyError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "output_dir")}
    summary = {"command": args.command, "config": config, "results": results}
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    (out / "summary.json").write_text(text)
    with open(out / "run.log", "a") as fh:
        fh.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {args.command} done\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
