"""The benchmark's workloads: inputs from a seed, the fixed sequence of
operations one pass runs, and the independent references their outputs are
checked against.

Grid sizes, the superadditivity split and every work-setting parameter are
fixed, so every seed does the same work; a seed moves only thresholds whose
value does not change the amount of work.  An operation is one
``weylcheck.cli.main(argv)`` call or one library call; it fails on a nonzero
exit, an exception, or a failed output check.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from weylcheck import cli, geometry

SQUARE = {"kind": "rectangle", "a": 1.0, "b": 1.0}
RECT_2X1 = {"kind": "rectangle", "a": 2.0, "b": 1.0}
DISK = {"kind": "disk", "r": 1.0}


def _write_domain(work: Path, name: str, domain: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(domain))
    return str(path)


def _cli(argv):
    """An operation running one CLI command; its value is the output dir."""
    out = argv[argv.index("-o") + 1]
    return lambda: (cli.main(argv), Path(out))


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())["results"]


def _csv_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def grid_mask(domain: dict, h: float) -> geometry.GridMask:
    """Node mask of a rectangle or disk, built with numpy from the domain's
    closed-form membership at the nodes ``bbox_min + h * i``, the lattice
    ``geometry.rasterize`` uses."""
    if domain["kind"] == "rectangle":
        lo, hi = (0.0, 0.0), (domain["a"], domain["b"])
    else:
        lo, hi = (-domain["r"],) * 2, (domain["r"],) * 2
    nx = int(math.floor((hi[0] - lo[0]) / h + 1e-9)) + 1
    ny = int(math.floor((hi[1] - lo[1]) / h + 1e-9)) + 1
    x = (lo[0] + h * np.arange(nx))[:, None]
    y = (lo[1] + h * np.arange(ny))[None, :]
    if domain["kind"] == "rectangle":
        inside = (0.0 < x) & (x < hi[0]) & (0.0 < y) & (y < hi[1])
    else:
        inside = x * x + y * y < domain["r"] ** 2
    return geometry.GridMask(h, lo, (nx, ny), inside)


def grid_rectangle_counts(a: float, b: float, h: float, lams) -> np.ndarray:
    """Strict counts of the 5-point Dirichlet Laplacian on the (0,a)x(0,b)
    grid, from its closed-form spectrum
    (4/h^2)(sin^2(m pi h / 2a) + sin^2(n pi h / 2b))."""
    m = np.arange(1, round(a / h))
    n = np.arange(1, round(b / h))
    values = (4.0 / h**2) * (np.sin(m * math.pi * h / (2 * a))[:, None] ** 2
                             + np.sin(n * math.pi * h / (2 * b))[None, :] ** 2)
    return np.searchsorted(np.sort(values.ravel()), lams, side="left")


def _problems(*checks) -> list[str]:
    """The messages of the (ok, message) pairs that are not ok."""
    return [message for ok, message in checks if not ok]


class Workload:
    name = ""

    def make_inputs(self, seed: int, work: Path) -> dict:
        raise NotImplementedError

    def ops(self, inputs: dict, out: Path) -> list:
        """[(label, thunk)], thunk() -> (exit code, value)."""
        raise NotImplementedError

    def reference(self, inputs: dict) -> dict:
        return {}

    def check(self, label: str, value, inputs: dict, ref: dict) -> list[str]:
        """Problems found in one operation's output; empty when correct."""
        return getattr(self, "check_" + label.replace("-", "_"))(value, inputs, ref)


class DenseVerify(Workload):
    """The default dense path: ``chain --lambdas auto:50`` on the unit square
    at h = 1/40 (1,521 nodes), then ``super`` on the unit disk at h = 1/20
    (1,256 nodes).  Dense spectra take nearly all of the time; no inertia,
    oracle or fine-grid work."""

    name = "dense-verify"
    H_SQUARE = 0.025
    H_DISK = 0.05

    def make_inputs(self, seed, work):
        # chain picks its thresholds itself (auto:50) and super uses its
        # median midpoint, so this workload's inputs do not vary with seed
        return {"square": _write_domain(work, "square", SQUARE),
                "disk": _write_domain(work, "disk", DISK)}

    def ops(self, inputs, out):
        return [
            ("chain", _cli(["chain", "--domain", inputs["square"],
                            "--h", repr(self.H_SQUARE), "--lambdas", "auto:50",
                            "-o", str(out / "chain")])),
            ("super", _cli(["super", "--domain", inputs["disk"],
                            "--h", repr(self.H_DISK), "-o", str(out / "super")])),
        ]

    def check_chain(self, out, inputs, ref):
        rows = _csv_rows(out / "chain.csv")
        lams = np.array([float(r["lambda"]) for r in rows])
        n_d = np.array([int(r["n_dirichlet"]) for r in rows])
        want = grid_rectangle_counts(1.0, 1.0, self.H_SQUARE, lams)
        return _problems(
            (len(rows) > 0, "chain.csv has no rows"),
            (all(r["status"] == "PASS" for r in rows), "chain row not PASS"),
            (np.array_equal(n_d, want),
             f"N_D {n_d.tolist()} != closed form {want.tolist()}"),
            (_summary(out)["ok"] is True, "chain summary not ok"))

    def check_super(self, out, inputs, ref):
        rows = _csv_rows(out / "superadditivity.csv")
        return _problems(
            (len(rows) == 3, f"superadditivity.csv has {len(rows)} rows"),
            (all(r["status"] == "PASS" for r in rows),
             "superadditivity row not PASS"),
            (_summary(out)["ok"] is True, "super summary not ok"))


class InertiaCount(Workload):
    """Exact counts by inertia: ``count`` for each problem, then ``chain
    --method inertia`` at 3 thresholds, on the 2x1 rectangle at h = 1/40
    (3,081 nodes; the 2:1 aspect exercises slab orientation).  Same chain
    counts as dense-verify by another route; no dense spectrum."""

    name = "inertia-count"
    H = 0.025
    PROBLEMS = ("dirichlet", "bilaplacian", "buckling")

    def make_inputs(self, seed, work):
        rng = np.random.default_rng(seed)
        lams = [round(float(x), 4) for x in rng.uniform(100.0, 1000.0, 6)]
        return {"rect": _write_domain(work, "rect", RECT_2X1),
                "count_lams": lams[:3], "chain_lams": lams[3:]}

    def ops(self, inputs, out):
        ops = [(f"count-{prob}",
                _cli(["count", "--domain", inputs["rect"], "--h", repr(self.H),
                      "--problem", prob, "--lam", repr(lam),
                      "-o", str(out / f"count-{prob}")]))
               for prob, lam in zip(self.PROBLEMS, inputs["count_lams"])]
        ops.append(("chain", _cli(
            ["chain", "--domain", inputs["rect"], "--h", repr(self.H),
             "--method", "inertia",
             "--lambdas", ",".join(repr(x) for x in inputs["chain_lams"]),
             "-o", str(out / "chain")])))
        return ops

    def reference(self, inputs):
        import scipy.linalg as la

        from weylcheck import discretization

        mask = grid_mask(RECT_2X1, self.H)
        a = discretization.assemble_dirichlet_laplacian(mask).dense()
        b = discretization.assemble_clamped_bilaplacian(mask).dense()
        return {"nodes": mask.n_nodes,
                "b": la.eigh(b, eigvals_only=True),
                "pencil": la.eigh(b, a, eigvals_only=True)}

    def counts(self, lams, ref):
        lams = np.asarray(lams, dtype=float)
        return {"dirichlet": grid_rectangle_counts(2.0, 1.0, self.H, lams),
                "bilaplacian": np.searchsorted(ref["b"], lams**2, side="left"),
                "buckling": np.searchsorted(ref["pencil"], lams, side="left")}

    def check(self, label, value, inputs, ref):
        if not label.startswith("count-"):
            return super().check(label, value, inputs, ref)
        prob = label.removeprefix("count-")
        lam = inputs["count_lams"][self.PROBLEMS.index(prob)]
        got = _summary(value)
        want = int(self.counts([lam], ref)[prob][0])
        return _problems(
            (got["count"] == want,
             f"{prob} count {got['count']} != reference {want} at {lam}"),
            (got["nodes"] == ref["nodes"], f"nodes {got['nodes']}"))

    def check_chain(self, out, inputs, ref):
        rows = _csv_rows(out / "chain.csv")
        lams = [float(r["lambda"]) for r in rows]
        want = self.counts(lams, ref)
        got = {prob: [int(r[f"n_{prob}"]) for r in rows] for prob in want}
        return _problems(
            (lams == inputs["chain_lams"], f"chain thresholds {lams}"),
            (all(r["status"] == "PASS" for r in rows), "chain row not PASS"),
            *((got[prob] == want[prob].tolist(),
               f"n_{prob} {got[prob]} != reference {want[prob].tolist()}")
              for prob in want))


class FineDisk(Workload):
    """Everything past the dense limit or without a grid solve: ``solve
    --k 20`` and ``cover`` on the unit disk at h = 1/128 (51,429 nodes), the
    Bessel ``oracle``, ``heat`` and ``karamata`` on the square, and the
    library call ``inner_domain`` on the h = 1/128 disk mask.  No dense
    solve and no inertia count."""

    name = "fine-disk"
    H = 0.0078125
    K = 20
    ETA = 0.07
    ORACLE_LAM = 900.0
    HEAT_LAM = 1e6
    INNER_ETA = 0.1

    def make_inputs(self, seed, work):
        rng = np.random.default_rng(seed)
        return {"disk": _write_domain(work, "disk", DISK),
                "square": _write_domain(work, "square", SQUARE),
                "cover_lam": float(round(rng.uniform(5e5, 1.5e6))),
                "mask": grid_mask(DISK, self.H)}

    def ops(self, inputs, out):
        disk, square = inputs["disk"], inputs["square"]
        mask = inputs["mask"]
        return [
            ("solve", _cli(["solve", "--domain", disk, "--h", repr(self.H),
                            "--k", str(self.K), "-o", str(out / "solve")])),
            ("cover", _cli(["cover", "--domain", disk, "--eta", repr(self.ETA),
                            "--lam", repr(inputs["cover_lam"]),
                            "-o", str(out / "cover")])),
            ("oracle", _cli(["oracle", "--disk", "1",
                             "--lam-max", repr(self.ORACLE_LAM),
                             "-o", str(out / "oracle")])),
            ("heat", _cli(["heat", "--domain", square,
                           "--lam-max", repr(self.HEAT_LAM),
                           "-o", str(out / "heat")])),
            ("karamata", _cli(["karamata", "--domain", square,
                               "--lam-max", repr(self.HEAT_LAM),
                               "-o", str(out / "karamata")])),
            ("inner-domain",
             lambda: (0, geometry.inner_domain(mask, self.INNER_ETA))),
        ]

    def reference(self, inputs):
        import scipy.sparse.linalg as spla
        from scipy import ndimage, special

        from weylcheck import discretization

        mask = inputs["mask"]
        a = discretization.assemble_dirichlet_laplacian(mask).matrix
        lowest = np.sort(spla.eigsh(a.tocsc(), k=self.K, sigma=0,
                                    which="LM", return_eigenvectors=False))
        x_max = math.sqrt(self.ORACLE_LAM)
        bessel = []
        for order in range(int(x_max) + 1):
            zeros = special.jn_zeros(order, int(x_max))
            zeros = zeros[zeros < x_max]
            bessel.extend(np.repeat(zeros**2, 1 if order == 0 else 2))
        padded = np.pad(mask.interior, 1)
        dist = ndimage.distance_transform_edt(padded)[1:-1, 1:-1] * mask.h
        return {"nodes": mask.n_nodes, "lowest": lowest,
                "bessel": np.sort(bessel), "inner": dist > self.INNER_ETA}

    def check_solve(self, out, inputs, ref):
        got = _summary(out)
        values = np.array(got["values"])
        return _problems(
            (got["nodes"] == ref["nodes"], f"nodes {got['nodes']}"),
            (values.shape == ref["lowest"].shape
             and np.all(np.abs(values - ref["lowest"]) <= 1e-8 * ref["lowest"]),
             "lowest_k values differ from eigsh beyond 1e-8 relative"))

    def check_cover(self, out, inputs, ref):
        got = _summary(out)
        rows = _csv_rows(out / "cubes.csv")
        side = self.ETA / math.sqrt(2.0)
        x = np.array([float(r["x"]) for r in rows])
        y = np.array([float(r["y"]) for r in rows])
        far_x = np.maximum(np.abs(x), np.abs(x + side))
        far_y = np.maximum(np.abs(y), np.abs(y + side))
        lam = inputs["cover_lam"]
        k = np.arange(1, int(side * math.sqrt(lam) / math.pi) + 2)
        per_cube = int(np.count_nonzero(
            math.pi**2 * (k[:, None] ** 2 + k[None, :] ** 2) / side**2 < lam))
        return _problems(
            (len(rows) > 0 and got["cubes"] == len(rows),
             f"cubes {got['cubes']}, cubes.csv rows {len(rows)}"),
            (np.all(far_x**2 + far_y**2 < 1.0),
             "a cube's far corner is not strictly inside the disk"),
            (got["lower_bound"] == len(rows) * per_cube,
             f"lower_bound {got['lower_bound']} != {len(rows)} * {per_cube}"))

    def check_oracle(self, out, inputs, ref):
        values = np.array([float(r["value"]) for r in _csv_rows(out / "spectrum.csv")])
        want = ref["bessel"]
        return _problems(
            (values.shape == want.shape
             and np.all(np.abs(values - want) <= 1e-9 * want),
             f"{values.size} disk eigenvalues differ from the {want.size} "
             "jn_zeros^2 values beyond 1e-9 relative"))

    def check_heat(self, out, inputs, ref):
        got = _summary(out)
        return _problems((got["bound_ok"] is True and got["trusted"] > 0,
                          "heat bound not ok on trusted samples"))

    def check_karamata(self, out, inputs, ref):
        err = _summary(out)["relative_error"]
        return _problems((err < 1e-9, f"karamata relative error {err}"))

    def check_inner_domain(self, inner, inputs, ref):
        mask = inputs["mask"]
        return _problems(
            (inner.dims == mask.dims and inner.h == mask.h
             and inner.origin == mask.origin
             and np.array_equal(inner.interior, ref["inner"]),
             "inner_domain differs from distance_transform_edt * h > eta"))


WORKLOADS = {w.name: w for w in (DenseVerify(), InertiaCount(), FineDisk())}
