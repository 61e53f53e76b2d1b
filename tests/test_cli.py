import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from weylcheck import eigensolve, spectral
from weylcheck.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def square_json(tmp_path):
    f = tmp_path / "square.json"
    f.write_text('{"kind": "rectangle", "a": 1.0, "b": 1.0}')
    return str(f)


def read_summary(out):
    return json.loads((Path(out) / "summary.json").read_text())


def exit_code(argv):
    """Exit status of one CLI run, argparse errors (SystemExit) included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_oracle_rectangle(tmp_path):
    out = tmp_path / "out"
    assert main(["oracle", "--rectangle", "1", "1", "--lam-max", "1000",
                 "-o", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[1] == "index,value"
    first = float(lines[2].split(",")[1])
    assert first == pytest.approx(2 * math.pi**2)


def test_oracle_needs_a_shape(tmp_path):
    assert main(["oracle", "--lam-max", "100", "-o", str(tmp_path)]) == 2


def test_solve_dirichlet(square_json, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--domain", square_json, "--h", "0.1", "--k", "3",
                 "-o", str(out)]) == 0
    values = read_summary(out)["results"]["values"]
    assert values[0] == pytest.approx(2 * math.pi**2, rel=0.05)


def test_solve_cutoff_is_largest_value(square_json, tmp_path):
    # a truncated spectrum is complete only up to its largest value; the
    # bilaplacian roots carry the root of the operator's cutoff
    for problem in ("dirichlet", "bilaplacian"):
        out = tmp_path / problem
        assert main(["solve", "--domain", square_json, "--h", "0.1", "--k", "3",
                     "--problem", problem, "-o", str(out)]) == 0
        header = (out / "spectrum.csv").read_text().splitlines()[0]
        values = read_summary(out)["results"]["values"]
        assert header.endswith(f" cutoff={values[-1]!r}")


def test_solve_buckling_takes_only_the_default_tol(square_json, tmp_path):
    # the pencil is solved densely; --tol 1e-300 is refused in
    # test_out_of_range_option_is_config_error
    runs = [[], ["--tol", "1e-8"]]
    for i, extra in enumerate(runs):
        assert main(["solve", "--domain", square_json, "--h", "0.1", "--k", "3",
                     "--problem", "buckling", *extra,
                     "-o", str(tmp_path / str(i))]) == 0
    first, second = ((tmp_path / str(i) / "summary.json").read_bytes()
                     for i in range(len(runs)))
    assert first == second


def test_count_matches_solve(square_json, tmp_path):
    # a threshold between the 3rd and 4th values solved has 3 values below
    # it: count and solve take the same form, squared or not
    for problem in ("dirichlet", "buckling", "bilaplacian"):
        base = ["--domain", square_json, "--h", "0.1", "--problem", problem]
        solved, counted = tmp_path / f"solve_{problem}", tmp_path / problem
        assert main(["solve", *base, "--k", "4", "-o", str(solved)]) == 0
        values = read_summary(solved)["results"]["values"]
        assert values[2] < values[3], problem
        assert main(["count", *base, f"--lam={(values[2] + values[3]) / 2!r}",
                     "-o", str(counted)]) == 0
        assert read_summary(counted)["results"]["count"] == 3, problem


def test_bilaplacian_count_where_lambda_squared_overflows(square_json, tmp_path):
    # every root^2 is at most |B| < inf, so all 81 roots lie below a
    # threshold whose square overflows, as in the dense spectrum
    base = ["--domain", square_json, "--h", "0.1"]
    assert main(["count", *base, "--lam", "1e200", "--problem", "bilaplacian",
                 "-o", str(tmp_path / "count")]) == 0
    assert read_summary(tmp_path / "count")["results"]["count"] == 81
    for method in ("dense", "inertia"):
        assert main(["chain", *base, "--lambdas", "1e200", "--method", method,
                     "-o", str(tmp_path / method)]) == 0
    assert ((tmp_path / "inertia" / "chain.csv").read_bytes()
            == (tmp_path / "dense" / "chain.csv").read_bytes())


def test_bilaplacian_count_below_zero(square_json, tmp_path):
    # omega > 0: nothing lies below a negative threshold, although its
    # square lies above the lowest omega^2
    out = tmp_path / "out"
    assert main(["count", "--domain", square_json, "--h", "0.1",
                 "--lam", "-40", "--problem", "bilaplacian", "-o", str(out)]) == 0
    assert read_summary(out)["results"]["count"] == 0


def test_inertia_chain_below_zero(square_json, tmp_path):
    out = tmp_path / "out"
    assert main(["chain", "--domain", square_json, "--h", "0.1",
                 "--lambdas=-40,-50", "--method", "inertia", "-o", str(out)]) == 0
    assert (out / "chain.csv").read_text().splitlines()[1:] == [
        "-40.0,0,0,0,PASS", "-50.0,0,0,0,PASS"]


def test_chain_pass(square_json, tmp_path):
    out = tmp_path / "out"
    assert main(["chain", "--domain", square_json, "--h", "0.05",
                 "--lambdas", "auto:50", "-o", str(out)]) == 0
    summary = read_summary(out)
    assert summary["results"]["ok"] is True
    body = (out / "chain.csv").read_text()
    assert "FAIL" not in body


def test_super_pass(square_json, tmp_path):
    out = tmp_path / "out"
    assert main(["super", "--domain", square_json, "--h", "0.1",
                 "--seed", "3", "-o", str(out)]) == 0
    assert read_summary(out)["results"]["ok"] is True


def test_cover(square_json, tmp_path):
    out = tmp_path / "out"
    eta = math.sqrt(2) / 4
    assert main(["cover", "--domain", square_json, "--eta", str(eta),
                 "--lam", "1e5", "-o", str(out)]) == 0
    results = read_summary(out)["results"]
    assert results["cubes"] == 16
    assert results["covered_volume"] == pytest.approx(1.0)
    assert results["lower_bound"] <= results["weyl_prediction"]


def test_heat_and_karamata(square_json, tmp_path):
    out = tmp_path / "heat"
    assert main(["heat", "--domain", square_json, "--lam-max", "1e5",
                 "--t-grid", "log:1e-2:1:12", "-o", str(out)]) == 0
    assert read_summary(out)["results"]["bound_ok"] is True
    out2 = tmp_path / "kar"
    assert main(["karamata", "--domain", square_json, "--lam-max", "1e6",
                 "--t-grid", "log:1e-3:1e-2:12", "-o", str(out2)]) == 0
    results = read_summary(out2)["results"]
    assert results["relative_error"] < 0.02


def test_karamata_interval(tmp_path):
    # in one dimension the boundary term t^0 is the constant: the two
    # endpoints contribute -1/2
    domain = tmp_path / "interval.json"
    domain.write_text('{"kind": "interval", "a": 1.0}')
    out = tmp_path / "kar"
    assert main(["karamata", "--domain", str(domain), "--lam-max", "1e6",
                 "-o", str(out)]) == 0
    results = read_summary(out)["results"]
    assert results["relative_error"] < 1e-9
    assert abs(results["boundary_term"] + 0.5) < 1e-9
    assert results["constant_term"] == 0.0


def test_karamata_disk_t_grid(tmp_path):
    # the disk oracle stops at lam = 3600, so the tail is untrusted below
    # t = 1.3e-3: the default t-grid keeps less than a decade, the one the
    # README gives for the disk fits
    disk = tmp_path / "disk.json"
    disk.write_text('{"kind": "disk", "r": 1.0}')
    argv = ["karamata", "--domain", str(disk), "--lam-max", "3600"]
    assert main([*argv, "-o", str(tmp_path / "o1")]) == 3
    out = tmp_path / "o2"
    assert main([*argv, "--t-grid", "log:1e-2:1e-1:12", "-o", str(out)]) == 0
    assert read_summary(out)["results"]["relative_error"] < 1e-3


def test_cover_lam_without_cubes(tmp_path):
    (tmp_path / "ring.txt").write_text(
        "..........\n.########.\n.########.\n..........\n")
    domain = tmp_path / "ring.json"
    domain.write_text('{"kind": "raster", "path": "ring.txt", "h": 0.1}')
    out = tmp_path / "cover"
    assert main(["cover", "--domain", str(domain), "--eta", "0.3",
                 "--lam", "1000", "-o", str(out)]) == 0
    results = read_summary(out)["results"]
    assert results["cubes"] == 0
    assert results["lower_bound"] == 0
    assert results["weyl_prediction"] == 0.0


def test_cover_large_lam(square_json, tmp_path):
    # 22,508 terms a side: each row is counted, no table is built
    out = tmp_path / "cover"
    assert main(["cover", "--domain", square_json, "--eta", "0.1",
                 "--lam", "1e12", "-o", str(out)]) == 0
    results = read_summary(out)["results"]
    side, lam = results["side"], 1e12
    per_cube, rest = divmod(results["lower_bound"], results["cubes"])
    assert rest == 0
    # two-term Weyl law of the square: s^2 lam / 4 pi - s sqrt(lam) / pi
    boundary = side * math.sqrt(lam) / math.pi
    assert abs(per_cube - (side**2 * lam / (4 * math.pi) - boundary)) \
        < 0.01 * boundary
    assert exit_code(["cover", "--domain", square_json, "--eta", "0.1",
                      "--lam", "1e300", "-o", str(tmp_path / "huge")]) == 3


def test_cover_negative_lam(square_json, tmp_path):
    # no count is positive below zero: the bound and the prediction are 0
    out = tmp_path / "cover"
    assert main(["cover", "--domain", square_json, "--eta", "0.1",
                 "--lam=-5", "-o", str(out)]) == 0
    results = read_summary(out)["results"]
    assert results["cubes"] == 196
    assert results["lower_bound"] == 0
    assert results["weyl_prediction"] == 0.0


def test_count_not_bounded_by_dense_limit(square_json, tmp_path):
    # 9,801 nodes at h = 0.01, past the default dense limit of 8,192
    out = tmp_path / "count"
    assert main(["count", "--domain", square_json, "--h", "0.01",
                 "--lam", "500.0", "-o", str(out)]) == 0
    results = read_summary(out)["results"]
    assert results["nodes"] == 9801
    # closed-form eigenvalues of the five-point grid Laplacian
    s = 4e4 * np.sin(np.arange(1, 100) * math.pi / 200) ** 2
    assert results["count"] == int((s[:, None] + s[None, :] < 500.0).sum())
    # the dense limit is fixed: no subcommand accepts --dense-limit
    with pytest.raises(SystemExit) as exc:
        main(["count", "--domain", square_json, "--h", "0.05",
              "--lam", "500.0", "--dense-limit", "10", "-o", str(out)])
    assert exc.value.code == 2


def _raster(mask_bytes, h="0.1", name="mask.pgm"):
    return (f'{{"kind": "raster", "path": "{name}", "h": {h}}}', mask_bytes)


COUNT = ["count", "--h", "0.1", "--lam", "10"]


@pytest.mark.parametrize("domain, mask_bytes, args", [
    pytest.param('{"kind": "rectangle", "a": 1.0', None,
                 ["chain", "--h", "0.2"], id="truncated-json"),
    *(pytest.param(f'{{"kind": "disk", "r": {r}}}', None, COUNT,
                   id="disk-r-" + r.strip('"'))
      for r in ('"abc"', "null", "NaN", "Infinity")),
    pytest.param('{"kind": "rectangle", "a": 1.0, "b": [2]}', None, COUNT,
                 id="rectangle-b-list"),
    pytest.param('{"kind": "cusp", "p": 2.0, "x_max": "x"}', None, COUNT,
                 id="cusp-x_max-string"),
    pytest.param('{"kind": "union", "parts": 5}', None, COUNT,
                 id="union-parts-number"),
    pytest.param('{"kind": "union", "parts": [{"kind": "disk", "r": 0.5, '
                 '"offset": [0]}]}', None, COUNT, id="union-offset-single"),
    pytest.param(*_raster(None, name="nope.txt"), COUNT, id="raster-missing"),
    pytest.param(*_raster(b"###\n###\n", h='"x"', name="mask.txt"), COUNT,
                 id="raster-h-string"),
    pytest.param(*_raster(b"P5 3 x 255\n" + bytes(6)), COUNT,
                 id="pgm-bad-header"),
    pytest.param(*_raster(b"P5 3 2 255\n" + bytes([255] * 5)), COUNT,
                 id="pgm-truncated"),
    pytest.param(*_raster(b"#\xff#\n###\n", name="mask.txt"), COUNT,
                 id="ascii-not-utf8"),
    pytest.param('{"kind": "interval", "a": NaN}', None,
                 ["heat", "--lam-max", "100"], id="interval-a-nan"),
    # nested past the recursion limit of the JSON decoder or of the loader
    pytest.param("[" * 100_000, None, COUNT, id="json-too-deep"),
    pytest.param('{"kind": "union", "parts": [' * 1000 + '{"kind": "disk", "r": 1}'
                 + "]}" * 1000, None, COUNT, id="union-too-deep"),
])
def test_malformed_domain_is_config_error(tmp_path, capsys, domain,
                                          mask_bytes, args):
    # one boundary checks domain input: each malformed file is a
    # configuration error with one message, never a traceback or exit 3
    bad = tmp_path / "bad.json"
    bad.write_text(domain)
    if mask_bytes is not None:
        (tmp_path / json.loads(domain)["path"]).write_bytes(mask_bytes)
    out = tmp_path / "o"
    command, *rest = args
    assert exit_code([command, "--domain", str(bad), *rest,
                      "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_missing_domain_is_config_error(tmp_path):
    assert main(["solve", "--domain", str(tmp_path / "nope.json"),
                 "--h", "0.2", "-o", str(tmp_path / "o")]) == 2


def test_numerical_failure_exit(square_json, tmp_path):
    # 9,801 nodes at h = 0.01, past the dense limit of 8,192
    assert main(["chain", "--domain", square_json, "--h", "0.01",
                 "-o", str(tmp_path / "o")]) == 3


def test_rerun_byte_identical(square_json, tmp_path):
    disk = tmp_path / "disk.json"
    disk.write_text('{"kind": "disk", "r": 1.0}')
    runs = [(["chain", "--domain", square_json, "--h", "0.1",
              "--lambdas", "auto:20"], "chain.csv"),
            (["solve", "--domain", str(disk), "--h", "0.025", "--k", "10"],
             "spectrum.csv")]
    for k, (args, table) in enumerate(runs):
        out1, out2 = tmp_path / f"a{k}", tmp_path / f"b{k}"
        for out in (out1, out2):
            assert main([*args, "-o", str(out)]) == 0
        assert (out1 / table).read_bytes() == (out2 / table).read_bytes()
        assert ((out1 / "summary.json").read_bytes()
                == (out2 / "summary.json").read_bytes())


def test_each_mask_solved_once(square_json, tmp_path, monkeypatch):
    # chain --method dense counts in the one triple of dense spectra (A, B
    # and the pencil) its thresholds came from; chain --method inertia and
    # super, with or without --lam, count by inertia and solve no triple
    calls = []
    for name in ("dense_spectrum", "generalized_spectrum"):
        original = getattr(spectral, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral, name, counted)

    def triples():
        n = calls.count("generalized_spectrum")
        assert calls.count("dense_spectrum") == 2 * n
        calls.clear()
        return n

    assert main(["chain", "--domain", square_json, "--h", "0.1",
                 "--lambdas", "auto:5", "-o", str(tmp_path / "chain")]) == 0
    assert triples() == 1
    assert main(["chain", "--domain", square_json, "--h", "0.1", "--method",
                 "inertia", "--lambdas", "auto:5",
                 "-o", str(tmp_path / "inertia")]) == 0
    assert triples() == 0
    # seed 0 splits the mask into two parts, seed 3 leaves one part empty
    for seed, nonempty in ((0, 2), (3, 1)):
        for lam in ([], ["--lam", "300.5"]):
            out = tmp_path / f"super{seed}{len(lam)}"
            assert main(["super", "--domain", square_json, "--h", "0.1",
                         "--seed", str(seed), *lam, "-o", str(out)]) == 0
            part_nodes = read_summary(out)["results"]["part_nodes"]
            assert sum(n > 0 for n in part_nodes) == nonempty
            assert triples() == 0


def test_super_lam_not_bounded_by_dense_limit(square_json, tmp_path,
                                             monkeypatch):
    # super counts the whole and its parts by inertia, so a dense limit
    # below the 81 nodes of the h = 0.1 square refuses nothing; the default
    # threshold needs no spectrum either
    args = ["super", "--domain", square_json, "--h", "0.1", "--lam", "300.5"]
    assert main([*args, "-o", str(tmp_path / "dense")]) == 0
    monkeypatch.setattr(eigensolve, "DENSE_LIMIT", 80)
    assert main([*args, "-o", str(tmp_path / "limited")]) == 0
    assert read_summary(tmp_path / "limited")["results"]["nodes"] == 81
    for name in ("superadditivity.csv", "summary.json"):
        assert ((tmp_path / "limited" / name).read_bytes()
                == (tmp_path / "dense" / name).read_bytes())
    assert main(["super", "--domain", square_json, "--h", "0.1",
                 "-o", str(tmp_path / "default")]) == 0
    assert (read_summary(tmp_path / "default")["config"]["lam"]
            == spectral.GRID_TRUST / (2 * 0.1**2))


def test_inertia_chain_auto_not_bounded_by_dense_limit(square_json, tmp_path,
                                                       monkeypatch):
    # auto:K with --method inertia takes K equal steps up to the grid trust
    # limit, j GRID_TRUST / (K h^2): no spectrum is solved, so a dense limit
    # below the 361 nodes of the h = 0.05 square refuses nothing
    monkeypatch.setattr(eigensolve, "DENSE_LIMIT", 360)
    h, k = 0.05, 8
    args = ["chain", "--domain", square_json, "--h", repr(h), "--method", "inertia"]
    auto = tmp_path / "auto"
    assert main([*args, "--lambdas", f"auto:{k}", "-o", str(auto)]) == 0
    assert read_summary(auto)["results"]["nodes"] == 361
    rows = [line.split(",") for line in
            (auto / "chain.csv").read_text().splitlines()[1:]]
    lams = [float(r[0]) for r in rows]
    assert lams == [j * spectral.GRID_TRUST / (k * h**2) for j in range(1, k + 1)]
    # closed-form eigenvalues of the five-point grid Laplacian
    s = 4 / h**2 * np.sin(np.arange(1, 20) * math.pi * h / 2) ** 2
    assert [int(r[3]) for r in rows] == [
        int((s[:, None] + s[None, :] < lam).sum()) for lam in lams]
    # the thresholds passed as a list count the same
    listed = tmp_path / "listed"
    assert main([*args, "--lambdas", ",".join(map(repr, lams)),
                 "-o", str(listed)]) == 0
    assert (listed / "chain.csv").read_bytes() == (auto / "chain.csv").read_bytes()


@pytest.mark.parametrize("args", [
    ["chain", "--lambdas", "nan,50"],
    ["chain", "--lambdas", "auto:0"],
    ["chain", "--lambdas", "auto:-3"],
    ["super", "--lam", "nan"],
    ["count", "--lam", "nan"],
    ["count", "--lam", "inf"],
])
def test_bad_threshold_is_config_error(square_json, tmp_path, args):
    command, *rest = args
    out = tmp_path / "o"
    assert exit_code([command, "--domain", square_json, "--h", "0.1", *rest,
                      "-o", str(out)]) == 2
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("args", [
    ["heat", "--domain", "SQUARE", "--lam-max", "1e4", "--t-grid", "nan,0.1"],
    ["heat", "--domain", "SQUARE", "--lam-max", "1e4", "--t-grid", "inf,0.1"],
    ["karamata", "--domain", "SQUARE", "--lam-max", "1e4",
     "--t-grid", "log:1e-3:nan:12"],
    ["oracle", "--disk", "nan", "--lam-max", "100"],
    ["oracle", "--rectangle", "nan", "1", "--lam-max", "100"],
    ["oracle", "--interval", "inf", "--lam-max", "100"],
    ["solve", "--domain", "SQUARE", "--h", "0.1", "--tol", "nan"],
])
def test_non_finite_option_is_config_error(square_json, tmp_path, args):
    out = tmp_path / "o"
    argv = [square_json if a == "SQUARE" else a for a in args]
    assert exit_code([*argv, "-o", str(out)]) == 2
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("args", [
    ["oracle", "--disk", "-1", "--lam-max", "100"],
    ["oracle", "--rectangle", "0", "1", "--lam-max", "100"],
    ["oracle", "--interval", "-2", "--lam-max", "100"],
    ["oracle", "--disk", "1", "--lam-max", "-1"],
    ["solve", "--domain", "SQUARE", "--h", "0.1", "--k", "0"],
    ["solve", "--domain", "SQUARE", "--h", "0.1", "--tol", "-1"],
    ["heat", "--domain", "SQUARE", "--lam-max", "1e4", "--t-grid=0,0.1"],
    ["heat", "--domain", "SQUARE", "--lam-max", "-1"],
    ["karamata", "--domain", "SQUARE", "--lam-max", "-1"],
    ["oracle", "--rectangle", "1", "1", "--disk", "1", "--lam-max", "100"],
    ["super", "--domain", "SQUARE", "--h", "0.1", "--seed", "-1"],
    ["solve", "--domain", "SQUARE", "--h", "0.1", "--problem", "buckling",
     "--tol", "1e-300"],
    # --k past the 9 nodes at h = 0.25, for each problem
    *(["solve", "--domain", "SQUARE", "--h", "0.25", "--k", "10", "--problem",
       p] for p in ("dirichlet", "bilaplacian", "buckling")),
])
def test_out_of_range_option_is_config_error(square_json, tmp_path, args):
    out = tmp_path / "o"
    argv = [square_json if a == "SQUARE" else a for a in args]
    assert exit_code([*argv, "-o", str(out)]) == 2
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("args", [
    ["oracle", "--disk", "1", "--lam-max", "1e5"],
    ["heat", "--domain", "DISK", "--lam-max", "1e5"],
    ["karamata", "--domain", "DISK", "--lam-max", "1e5"],
])
def test_disk_oracle_past_its_range_is_config_error(tmp_path, args):
    # R * sqrt(lam_max) = 316 lies past the disk oracle's Bessel range of 60
    disk = tmp_path / "disk.json"
    disk.write_text('{"kind": "disk", "r": 1.0}')
    out = tmp_path / "o"
    argv = [str(disk) if a == "DISK" else a for a in args]
    assert exit_code([*argv, "-o", str(out)]) == 2
    assert not (out / "summary.json").exists()


def test_bad_eta_is_config_error(square_json, tmp_path):
    assert exit_code(["cover", "--domain", square_json, "--eta", "nan",
                      "-o", str(tmp_path / "o")]) == 2


def readme_runs(tmp_path):
    """argv of each example in README's "Command line" block, with its
    domain files written to tmp_path and its -o directory there."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [ln for ln in block.split("```", 1)[0].splitlines()
             if ln.startswith("weylcheck ")]
    assert lines
    domains = {"square.json": '{"kind": "rectangle", "a": 1.0, "b": 1.0}',
               "disk.json": '{"kind": "disk", "r": 1.0}'}
    for name, text in domains.items():
        (tmp_path / name).write_text(text)
    return [(line, [str(tmp_path / a) if a in domains
                    else str(tmp_path / f"out{k}") if a == "out/" else a
                    for a in shlex.split(line)[1:]])
            for k, line in enumerate(lines)]


def test_readme_command_lines(tmp_path):
    # every example of README's "Command line" block runs and exits 0
    for line, argv in readme_runs(tmp_path):
        assert main(argv) == 0, line


def replay_argv(summary):
    """The argv that reruns a summary's command with its recorded options."""
    argv = [summary["command"]]
    for key, value in summary["config"].items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            argv += [flag, *map(str, value)]
        elif value is not None:
            argv.append(f"{flag}={value}")
    return argv


def test_readme_runs_replay_from_their_record(tmp_path):
    # the recorded config is every option a run used, super's resolved
    # threshold included: rerunning it gives a byte-identical summary
    for k, (line, argv) in enumerate(readme_runs(tmp_path)):
        assert main(argv) == 0, line
        first = Path(argv[argv.index("-o") + 1]) / "summary.json"
        again = tmp_path / f"again{k}"
        replay = replay_argv(json.loads(first.read_text()))
        assert main([*replay, "-o", str(again)]) == 0, replay
        assert (again / "summary.json").read_bytes() == first.read_bytes(), line
