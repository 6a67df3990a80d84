import argparse
import json
import math

import numpy as np
import pytest

from smallball import asymptotics, cli, criteria, durbin, kernels, quadform
from smallball.cli import run
from smallball.grids import gauss_legendre_grid


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    rep = tmp_path / "rep.json"
    code = run(
        ["spectrum", "--kernel", "bridge", "--n", "400", "--k", "5",
         "--out", str(out), "--report", str(rep)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,mu_k"
    mu1 = float(lines[1].split(",")[1])
    assert mu1 == pytest.approx(1.0 / math.pi**2, rel=1e-4)
    report = read_json(rep)
    assert report["task"] == "spectrum"
    assert len(report["results"]["eigenvalues"]) == 5
    assert "weighted_trace" in report["diagnostics"]


def test_spectrum_eigvec_export(tmp_path):
    out = tmp_path / "vec.csv"
    code = run(
        ["spectrum", "--kernel", "wiener", "--n", "50", "--k", "2",
         "--eigvecs-out", str(out), "--report", str(tmp_path / "r.json")]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "node,u_1,u_2"
    assert len(lines) == 51


def test_exact_gilpelaez(tmp_path):
    wfile = tmp_path / "w.csv"
    wfile.write_text("1.0\n")
    rep = tmp_path / "rep.json"
    code = run(["exact", "--weights", str(wfile), "--r", "1.0", "--report", str(rep)])
    assert code == 0
    report = read_json(rep)
    assert report["results"]["value"] == pytest.approx(0.6826895, abs=1e-5)
    assert "error_bound" in report["diagnostics"]


def test_exact_tail_header(tmp_path):
    wfile = tmp_path / "w.csv"
    wfile.write_text("# tail_sum_bound=0.25\n1.0\n0.5\n")
    rep = tmp_path / "rep.json"
    assert run(["exact", "--weights", str(wfile), "--r", "1.0", "--report", str(rep)]) == 0
    assert read_json(rep)["inputs"]["tail_sum_bound"] == 0.25


def test_exact_mc_determinism(tmp_path):
    wfile = tmp_path / "w.csv"
    wfile.write_text("0.5\n0.25\n")
    reps = []
    for name in ("a.json", "b.json"):
        rep = tmp_path / name
        code = run(
            ["exact", "--weights", str(wfile), "--r", "0.5", "--method", "mc",
             "--samples", "20000", "--seed", "3", "--report", str(rep)]
        )
        assert code == 0
        reps.append(read_json(rep)["results"]["value"])
    assert reps[0] == reps[1]


def test_exact_saddle(tmp_path):
    wfile = tmp_path / "w.csv"
    wfile.write_text("# tail_sum_bound=0.0005\n" + "".join(f"{1 / (math.pi * k) ** 2!r}\n" for k in range(1, 201)))
    rep = tmp_path / "rep.json"
    code = run(["exact", "--weights", str(wfile), "--r", "0.0025", "--method", "saddle", "--report", str(rep)])
    assert code == 0
    report = read_json(rep)
    est = quadform.cdf_saddlepoint(quadform.read_weights(wfile), 0.0025)
    assert report["inputs"]["method"] == "saddle"
    assert report["results"] == {"value": est.value, "log_value": est.log_value}
    assert report["diagnostics"] == {"error_bound": est.error_bound}


def test_asymptotic_naznik(tmp_path):
    rep = tmp_path / "rep.json"
    code = run(
        ["asymptotic", "--law", "naznik", "--theta", "3.14159265", "--delta", "-0.5",
         "--d", "2", "--eps", "0.05", "--report", str(rep)]
    )
    assert code == 0
    report = read_json(rep)
    # the near-pi literal is snapped to the exact constant
    assert report["inputs"]["theta"] == math.pi
    expected = math.log(4.0 / math.sqrt(math.pi)) + math.log(0.05) - 50.0
    assert report["results"]["log_probability"] == pytest.approx(expected, abs=1e-9)
    assert report["results"]["amplitude"] == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-12)


def test_asymptotic_dll(tmp_path):
    rep = tmp_path / "rep.json"
    code = run(
        ["asymptotic", "--law", "dll", "--theta", "3.14159265", "--delta", "0", "--d", "2",
         "--eps", "0.1", "--report", str(rep)]
    )
    assert code == 0
    report = read_json(rep)
    assert report["results"]["log_probability"] < -10
    assert report["results"]["tilt"] > 0


def test_asymptotic_dll_solves_root_once(tmp_path, monkeypatch):
    spec = asymptotics.PowerLawPhi(theta=math.pi, delta=0.0, d=2.0)
    tilt, log_p = asymptotics.dll_root(spec, 1e-4), asymptotics.dll_asymptotic(spec, 1e-4)
    roots = []
    solve = asymptotics._solve_tilt

    def counting(*args):
        roots.append(args)
        return solve(*args)

    monkeypatch.setattr(asymptotics, "_solve_tilt", counting)
    rep = tmp_path / "rep.json"
    assert run(["asymptotic", "--law", "dll", "--eps", "0.01", "--report", str(rep)]) == 0
    assert len(roots) == 1
    results = read_json(rep)["results"]
    assert results["tilt"] == tilt
    assert results["log_probability"] == log_p


_MEMBER_ARGV = ["--theta", "1", "--delta", "0", "--d", "3", "--eps", "0.01"]


def test_asymptotic_dll_reads_member_and_eps(tmp_path):
    # the dll law reads the same member options as naznik, at r = eps^2
    rep = tmp_path / "rep.json"
    assert run(["asymptotic", "--law", "dll", *_MEMBER_ARGV, "--report", str(rep)]) == 0
    report = read_json(rep)
    spec = asymptotics.PowerLawPhi(1.0, 0.0, 3.0)
    assert report["results"]["log_probability"] == asymptotics.dll_asymptotic(spec, 1e-4)
    assert report["results"]["tilt"] == asymptotics.dll_root(spec, 1e-4)
    assert report["inputs"] == {"law": "dll", "theta": 1.0, "delta": 0.0, "d": 3.0, "eps": 0.01}
    assert report["diagnostics"] == {"r": 1e-4}


def test_asymptotic_naznik_reads_member_and_eps(tmp_path):
    rep = tmp_path / "rep.json"
    assert run(["asymptotic", "--law", "naznik", *_MEMBER_ARGV, "--report", str(rep)]) == 0
    report = read_json(rep)
    assert report["results"]["log_probability"] == asymptotics.naznik_asymptotic(1.0, 0.0, 3.0, 0.01)
    assert report["inputs"] == {"law": "naznik", "theta": 1.0, "delta": 0.0, "d": 3.0, "eps": 0.01}


@pytest.mark.parametrize("law", ["naznik", "dll"])
def test_asymptotic_negative_eps_rejected(tmp_path, capsys, law):
    # r = eps^2 would hide the sign from the dll law
    rep = tmp_path / "rep.json"
    assert run(["asymptotic", "--law", law, "--eps", "-0.01", "--report", str(rep)]) == 2
    assert "eps must be positive and finite" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("kernel", ["bridge", "wiener", "ornstein_uhlenbeck"])
def test_spectrum_trace_without_kernel_matrix(tmp_path, monkeypatch, kernel):
    # the weighted trace reads the kernel diagonal in O(n) and equals, bit
    # for bit, the same sum over the diagonal of the full matrix
    spec = {"bridge": kernels.bridge(), "wiener": kernels.wiener(),
            "ornstein_uhlenbeck": kernels.ornstein_uhlenbeck(1.7)}[kernel]
    alpha = ["--alpha", "1.7"] if kernel == "ornstein_uhlenbeck" else []
    grid = gauss_legendre_grid(200)
    expected = float(np.sum(grid.weights * np.diag(kernels.kernel_matrix(spec, grid))))

    def no_matrix(*args):
        raise AssertionError("kernel_matrix called for the trace")

    monkeypatch.setattr(kernels, "kernel_matrix", no_matrix)
    rep = tmp_path / "rep.json"
    assert run(["spectrum", "--kernel", kernel, *alpha, "--n", "200", "--k", "3", "--report", str(rep)]) == 0
    report = read_json(rep)
    assert report["diagnostics"]["weighted_trace"] == expected
    assert report["inputs"]["kernel"] == kernel
    assert report["inputs"]["alpha"] == (1.7 if alpha else None)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["spectrum", "--kernel", "bridge", "--alpha", "7", "--n", "20"], "'alpha'"),
        (["spectrum", "--kernel", "wiener", "--alpha", "1", "--n", "20"], "'alpha'"),
        (["spectrum", "--kernel", "ou", "--alpha", "1", "--n", "20"], "--kernel"),
        (["spectrum", "--kernel", "ornstein_uhlenbeck", "--n", "20"], "missing key 'alpha'"),
        (["exact", "--weights", "w.csv", "--r", "0.5", "--method", "saddle", "--samples", "5"], "--samples"),
        (["exact", "--weights", "w.csv", "--r", "0.5", "--method", "gilpelaez", "--seed", "1"], "--seed"),
        (["exact", "--weights", "w.csv", "--r", "0.5", "--samples", "5", "--seed", "9"], "--samples, --seed"),
        (["durbin", "--family", "normal-location", "--out", "s.csv"], "--out"),
        (["durbin", "--family", "normal-location", "--reps", "10"], "--reps"),
        (["durbin", "--family", "normal-location", "--n", "10"], "--n"),
        (["durbin", "--family", "normal-location", "--seed", "1"], "--seed"),
    ],
    ids=["bridge_alpha", "wiener_alpha", "ou_spelled_short", "ou_without_alpha", "saddle_samples",
         "gilpelaez_seed", "default_method_samples_seed", "durbin_out", "durbin_reps", "durbin_n", "durbin_seed"],
)
def test_flag_outside_its_mode_rejected(tmp_path, monkeypatch, capsys, argv, flag):
    # each of these once exited 0 and ignored the flag; --alpha went into a
    # bridge's report, and --out wrote no CSV
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.csv").write_text("0.5\n0.25\n")
    assert run(argv + ["--report", "rep.json"]) == 2
    assert flag in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.csv"]


def test_mode_applies_flag_defaults(tmp_path, monkeypatch):
    # --method mc and --simulate read their flags' defaults when not given
    calls = []
    saddle = quadform.cdf_saddlepoint

    def monte_carlo(w, r, n, seed):
        calls.append((n, seed))
        return saddle(w, r)

    def simulate(fam, n, reps, seed):
        calls.append((n, reps, seed))
        return np.linspace(0.1, 1.0, 10)

    monkeypatch.setattr(quadform, "cdf_monte_carlo", monte_carlo)
    monkeypatch.setattr(durbin, "simulate_omega2", simulate)
    wfile = tmp_path / "w.csv"
    wfile.write_text("0.5\n0.25\n")
    rep = tmp_path / "rep.json"
    assert run(["exact", "--weights", str(wfile), "--r", "0.5", "--method", "mc", "--report", str(rep)]) == 0
    assert read_json(rep)["inputs"]["samples"] == 100000 and read_json(rep)["inputs"]["seed"] == 0
    assert run(["durbin", "--family", "normal-location", "--simulate", "--report", str(rep)]) == 0
    assert {k: read_json(rep)["inputs"][k] for k in ("n", "reps", "seed")} == {"n": 500, "reps": 10000, "seed": 0}
    assert calls == [(100000, 0), (500, 10000, 0)]
    assert run(["exact", "--weights", str(wfile), "--r", "0.5", "--report", str(rep)]) == 0
    assert read_json(rep)["inputs"]["samples"] is None and read_json(rep)["inputs"]["seed"] is None


def test_perturb_classify_and_factors(tmp_path):
    cfg = {
        "kernel": {"type": "bridge"},
        "grid_size": 500,
        "phi": [{"poly": [1.0]}],
        "A": [[6.0]],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rep = tmp_path / "rep.json"
    code = run(["perturb", "--config", str(cfg_path), "--report", str(rep)])
    assert code == 0
    report = read_json(rep)
    assert report["results"]["classification"] == "non_critical"
    assert report["results"]["Q"][0][0] == pytest.approx(1.0 / 12.0, abs=1e-9)
    assert report["results"]["theorem1_factor"] == pytest.approx(2.0, rel=1e-8)


def test_perturb_critical_theorem3(tmp_path):
    cfg = {
        "kernel": {"type": "bridge"},
        "grid_size": 500,
        "phi": [{"poly": [1.0]}],
        "A": [[12.0]],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rep = tmp_path / "rep.json"
    code = run(
        ["perturb", "--config", str(cfg_path), "--eps", "0.1", "--report", str(rep)]
    )
    assert code == 0
    report = read_json(rep)
    assert report["results"]["classification"] == "critical"
    assert report["results"]["critical_prefactor"] == pytest.approx(1.0 / (2 * math.sqrt(3)), rel=1e-8)
    assert report["results"]["theorem3_factor"] == pytest.approx(14.43375673, rel=1e-6)


def test_perturb_critical_factor_overflow_exits_3(tmp_path, capsys):
    # at eps = 1e-200 the theorem 3 factor is beyond the double range: a
    # numeric failure that names eps and writes no report (eps^2 once
    # underflowed to 0 and ended in a ZeroDivisionError traceback)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kernel": {"type": "bridge"}, "grid_size": 200, "phi": [{"poly": [1.0]}], "A": [[12.0]]}))
    rep = tmp_path / "rep.json"
    assert run(["perturb", "--config", str(cfg_path), "--eps", "1e-200", "--report", str(rep)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "eps = 1e-200" in err
    assert not rep.exists()


def _identity_kernel_problem(tmp_path, a):
    """Sampled identity-like kernel (no green_order) with two orthonormal
    functions: Q = E, so A = E is critical and diag(1, 0) partially so."""
    n = 64
    nodes = (np.arange(1, n + 1) - 0.5) / n
    weights = np.full(n, 1.0 / n)
    cfg = {
        "kernel": {
            "type": "sampled",
            "grid": nodes.tolist(),
            "weights": weights.tolist(),
            "matrix": (np.eye(n) * n).tolist(),
        },
        "phi": [
            {"samples": (np.sqrt(2) * np.sin(np.pi * nodes)).tolist()},
            {"samples": (np.sqrt(2) * np.sin(2 * np.pi * nodes)).tolist()},
        ],
        "A": a,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


def test_perturb_partially_critical_reports_no_factor(tmp_path):
    # one critical direction: classification plus a pointer, never a factor
    cfg_path = _identity_kernel_problem(tmp_path, [[1.0, 0.0], [0.0, 0.0]])
    rep = tmp_path / "rep.json"
    assert run(["perturb", "--config", str(cfg_path), "--report", str(rep)]) == 0
    report = read_json(rep)
    assert report["results"]["classification"] == "partially_critical"
    assert report["results"]["rank_defect"] == 1
    assert "note" in report["results"]
    assert "theorem3_factor" not in report["results"]
    assert not {"theorem1_factor", "critical_prefactor"} & set(report["results"])


def test_perturb_critical_without_green_order(tmp_path, capsys):
    # the prefactor needs no green_order; the eps factor does
    cfg_path = _identity_kernel_problem(tmp_path, [[1.0, 0.0], [0.0, 1.0]])
    rep = tmp_path / "rep.json"
    assert run(["perturb", "--config", str(cfg_path), "--report", str(rep)]) == 0
    results = read_json(rep)["results"]
    assert results["classification"] == "critical"
    assert results["critical_prefactor"] == pytest.approx(1.0, rel=1e-12)
    assert run(["perturb", "--config", str(cfg_path), "--eps", "0.05"]) == 2
    assert "green_order" in capsys.readouterr().err


def _bridge_problem(tmp_path, a):
    path = tmp_path / f"bridge_a{a:g}.json"
    cfg = {"kernel": {"type": "bridge"}, "grid_size": 500, "phi": [{"poly": [1.0]}], "A": [[a]]}
    path.write_text(json.dumps(cfg))
    return str(path)


def test_perturb_factor_follows_classification(tmp_path):
    # no flag picks the transfer: A = 6 is non-critical, A = 12 = 1/Q critical
    rep = tmp_path / "rep.json"
    assert run(["perturb", "--config", _bridge_problem(tmp_path, 6.0), "--report", str(rep)]) == 0
    results = read_json(rep)["results"]
    assert results["classification"] == "non_critical"
    assert results["theorem1_factor"] == pytest.approx(2.0, rel=1e-8)
    assert not {"critical_prefactor", "theorem3_factor"} & set(results)
    assert run(["perturb", "--config", _bridge_problem(tmp_path, 12.0), "--report", str(rep)]) == 0
    results = read_json(rep)["results"]
    assert results["classification"] == "critical"
    assert results["critical_prefactor"] == pytest.approx(1.0 / (2 * math.sqrt(3)), rel=1e-8)
    assert not {"theorem1_factor", "theorem3_factor"} & set(results)
    assert "eps" not in read_json(rep)["diagnostics"]


def test_perturb_eps_on_non_critical_is_argument_error(tmp_path, capsys):
    assert run(["perturb", "--config", _bridge_problem(tmp_path, 6.0), "--eps", "0.05"]) == 2
    assert "non_critical" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["perturb", "--theorem1"],
        ["perturb", "--theorem3", "--eps", "0.05"],
        ["validate", "--suite", "core"],
        ["asymptotic", "--law", "dll", "--phi", "power:1,0,3"],
        ["asymptotic", "--law", "naznik", "--r", "0.0001"],
        ["durbin", "--family", "normal-location", "--sim"],
    ],
    ids=["theorem1", "theorem3", "suite", "phi", "r", "abbreviation"],
)
def test_removed_options_rejected(tmp_path, monkeypatch, argv):
    # the classification picks the transfer, the core suite is the only one,
    # both asymptotic laws read --theta --delta --d --eps, and no option is
    # read as an abbreviation of another (--r once meant --report)
    monkeypatch.chdir(tmp_path)
    if argv[0] == "perturb":
        argv = argv[:1] + ["--config", _bridge_problem(tmp_path, 12.0)] + argv[1:]
    assert run(argv + ["--report", str(tmp_path / "rep.json")]) == 2
    assert not (tmp_path / "rep.json").exists()
    assert not (tmp_path / "0.0001").exists()


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"kernel": {"type": "bridge"}, "grid_sise": 50, "phi": [{"poly": [1.0]}], "A": [[6.0]]},
         "'grid_sise'"),
        ({"kernel": {"type": "bridge"}, "grid_size": 50,
          "phi": [{"poly": [1.0], "samples": [1.0] * 50}], "A": [[6.0]]},
         "'samples'"),
        ({"kernel": {"type": "bridge"}, "grid_size": 50, "phi": ["poly"], "A": [[6.0]]},
         "'poly'"),
        ({"kernel": {"type": "sampled", "grid": [0.25, 0.75], "matrix": [[1.0, 0.5], [0.5, 1.0]]},
          "grid_size": 4000, "phi": [{"poly": [1.0]}], "A": [[1.0]]},
         "'grid_size'"),
        ({"kernel": "bridge", "grid_size": 50, "phi": [{"poly": [1.0]}], "A": [[6.0]]}, "'kernel'"),
        ({"kernel": {"type": "bridge"}, "grid_size": 50, "phi": 5, "A": [[6.0]]}, "'phi'"),
        ({"kernel": {"type": "bridge"}, "grid_size": 50, "phi": [5], "A": [[6.0]]}, "'phi'"),
        ({"kernel": {"type": "bridge"}, "grid_size": 50, "phi": [{"poly": 5}], "A": [[6.0]]}, "'poly'"),
        ({"kernel": {"type": "sampled", "grid": [0.25, 0.75], "matrix": [[1.0, 0.5], [0.5, 1.0]],
                     "green_order": "x"}, "phi": [{"poly": [1.0]}], "A": [[1.0]]},
         "green_order"),
        ({"kernel": {"type": "sampled", "grid": [0.25, 0.75], "matrix": [[1.0, 0.5], [0.5, 1.0]],
                     "green_order": True}, "phi": [{"poly": [1.0]}], "A": [[1.0]]},
         "green_order must be an integer, got bool"),
        ({"kernel": {"type": "bridge"}, "grid_size": 50, "phi": [{"poly": []}], "A": [[6.0]]}, "'poly'"),
        ({"kernel": {"type": "bridge"}, "grid_size": 50, "phi": [], "A": [[6.0]]}, "'phi'"),
        ({"kernel": {"type": "sampled", "grid": {"a": 1}, "matrix": [[1.0, 0.5], [0.5, 1.0]]},
          "phi": [{"poly": [1.0]}], "A": [[1.0]]},
         "'grid'"),
        ({"kernel": {"type": "bridge"}, "grid_size": 50.7, "phi": [{"poly": [1.0]}], "A": [[6.0]]}, "'grid_size'"),
        ({"kernel": {"type": "bridge"}, "grid_size": True, "phi": [{"poly": [1.0]}], "A": [[6.0]]}, "'grid_size'"),
        ({"kernel": {"type": "ou", "alpha": 1.0}, "grid_size": 50, "phi": [{"poly": [1.0]}], "A": [[6.0]]},
         "unknown kernel type 'ou'"),
        ({"kernel": {"type": "ornstein_uhlenbeck", "alpha": 1.0, "foo": 1}, "grid_size": 50,
          "phi": [{"poly": [1.0]}], "A": [[6.0]]},
         "kernel key 'foo'"),
        ({"kernel": {"type": "sampled", "grid": [0.25, 0.75], "matrix": [[1.0, 0.5], [0.5, 1.0]],
                     "diag_jmp": [1.0, 1.0]}, "phi": [{"poly": [1.0]}], "A": [[1.0]]},
         "kernel key 'diag_jmp'"),
        ({"kernel": {"type": "bridge"}, "grid_size": 50, "phi": [{"poly": [1.0], "extra": 1}], "A": [[6.0]]},
         "phi entry key 'extra'"),
        ({"kernel": {"type": "ornstein_uhlenbeck"}, "grid_size": 50, "phi": [{"poly": [1.0]}], "A": [[6.0]]},
         "ornstein_uhlenbeck kernel is missing key 'alpha'"),
        ({"kernel": {"type": "ornstein_uhlenbeck", "alpha": "fast"}, "grid_size": 50,
          "phi": [{"poly": [1.0]}], "A": [[6.0]]},
         "kernel key 'alpha' must be a number"),
        # a JSON integer beyond the double range once ended in an OverflowError traceback
        ({"kernel": {"type": "bridge"}, "grid_size": 50, "phi": [{"poly": [10**400]}], "A": [[6.0]]}, "'poly'"),
        ({"kernel": {"type": "bridge"}, "grid_size": 50, "phi": [{"poly": [1.0]}], "A": [[10**400]]}, "'A'"),
        ({"kernel": {"type": "ornstein_uhlenbeck", "alpha": 10**400}, "grid_size": 50,
          "phi": [{"poly": [1.0]}], "A": [[6.0]]},
         "kernel key 'alpha' must be positive and finite"),
        ({"kernel": {"type": "bridge"}, "grid_size": 10**400, "phi": [{"poly": [1.0]}], "A": [[6.0]]}, "'grid_size'"),
        # JSON NaN in a grid once read as a node the kernel's own grid lacked
        ({"kernel": {"type": "sampled", "grid": [math.nan], "matrix": [[1.0]]}, "phi": [{"poly": [1.0]}],
          "A": [[1.0]]}, "key 'grid' must be finite"),
        ({"kernel": {"type": "bridge"}, "grid_size": 50, "phi": [{"poly": ["1.0"]}], "A": [[6.0]]},
         "key 'poly' must be an array of numbers"),
        # a missing key once read "argument error: 'phi'", naming no object
        ({"kernel": {"type": "bridge"}, "grid_size": 50, "A": [[6.0]]}, "problem is missing key 'phi'"),
        ({"grid_size": 50, "phi": [{"poly": [1.0]}], "A": [[6.0]]}, "problem is missing key 'kernel'"),
        ({"kernel": {"type": "bridge"}, "grid_size": 50, "phi": [{"poly": [1.0]}]}, "problem is missing key 'A'"),
        ({"kernel": {"type": "sampled", "grid": [0.25, 0.75]}, "phi": [{"poly": [1.0]}], "A": [[1.0]]},
         "sampled kernel is missing key 'matrix'"),
        ({"kernel": {"type": "sampled", "matrix": [[1.0]]}, "phi": [{"poly": [1.0]}], "A": [[1.0]]},
         "sampled kernel is missing key 'grid'"),
        # nested past the JSON parser's recursion limit: once a RecursionError traceback
        ('{"kernel": {"type": "bridge"}, "grid_size": 50, "phi": ' + "[" * 100_000 + "]" * 100_000
         + ', "A": [[6.0]]}', "nests deeper"),
        # nested past numpy's 32 iterator dimensions: once a RuntimeError traceback
        ('{"kernel": {"type": "bridge"}, "grid_size": 50, "phi": [{"poly": [1.0]}], "A": '
         + "[" * 900 + "6.0" + "]" * 900 + "}", "key 'A' must be"),
    ],
    ids=["unknown_key", "poly_and_samples", "descriptor_not_an_object", "grid_size_with_sampled_kernel",
         "kernel_not_an_object", "phi_not_a_list", "phi_entry_not_an_object", "poly_not_a_list",
         "green_order_not_an_integer", "green_order_bool", "poly_empty", "phi_empty", "grid_not_a_list",
         "grid_size_not_an_integer", "grid_size_bool", "ou_spelled_short", "ou_unknown_key",
         "sampled_diag_jump_misspelt", "phi_entry_unknown_key", "ou_alpha_missing", "ou_alpha_not_a_number",
         "poly_beyond_double", "a_beyond_double", "ou_alpha_beyond_double", "grid_size_beyond_double",
         "grid_nan", "poly_string", "phi_missing", "kernel_missing", "a_missing", "sampled_matrix_missing",
         "sampled_grid_missing", "nested_past_json_limit", "nested_past_numpy_dims"],
)
def test_perturb_problem_keys_checked(tmp_path, capsys, cfg, key):
    # a key the problem, its kernel or a phi entry does not read, one another
    # key already fixes, or a value of the wrong JSON type is an argument
    # error that names it, not a silent default (a misspelt "diag_jump" once
    # dropped the kink correction); the OU kernel type has one spelling,
    # "ornstein_uhlenbeck"
    path = tmp_path / "problem.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    rep = tmp_path / "rep.json"
    assert run(["perturb", "--config", str(path), "--report", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("argument error:") and key in err
    assert not rep.exists()


def test_durbin_fisher(tmp_path):
    rep = tmp_path / "rep.json"
    code = run(["durbin", "--family", "normal-location-scale", "--report", str(rep)])
    assert code == 0
    report = read_json(rep)
    s = np.asarray(report["results"]["fisher"])
    np.testing.assert_allclose(s, np.diag([1.0, 2.0]), atol=1e-6)
    assert report["results"]["classification"] == "critical"


def test_durbin_simulate_csv_determinism(tmp_path):
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        code = run(
            ["durbin", "--family", "exponential-rate", "--simulate", "--n", "50",
             "--reps", "200", "--seed", "5", "--out", str(out),
             "--report", str(tmp_path / (name + ".json"))]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report = read_json(tmp_path / "s1.csv.json")
    assert "mean" in report["results"]
    assert "q10" in report["results"]["quantiles"]


def test_validate_core(tmp_path):
    # validate formats the criteria table's rows at n = 500, in table order
    rep = tmp_path / "rep.json"
    assert run(["validate", "--report", str(rep)]) == 0
    results = read_json(rep)["results"]
    assert results["passed"] is True
    inputs = criteria.Inputs(500)
    want = [(row.id, c.name) for row in criteria.CRITERIA for c in row.checks(inputs)]
    assert [(c["criterion"], c["check"]) for c in results["checks"]] == want


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert run(["nonsense"]) == 2
    assert run([]) == 2
    # argument error inside a subcommand
    wfile = tmp_path / "w.csv"
    wfile.write_text("1.0\n")
    assert run(["exact", "--weights", str(wfile), "--r", "-1.0"]) == 2
    # non-finite inputs are rejected at the boundary
    assert run(["exact", "--weights", str(wfile), "--r", "nan", "--method", "mc"]) == 2
    # ornstein_uhlenbeck alone reads --alpha, which must be positive and
    # finite; the other kernels refuse any --alpha, finite or not
    for kernel, message in (("bridge", "bridge kernel key 'alpha' is not one of"),
                            ("wiener", "wiener kernel key 'alpha' is not one of"),
                            ("ornstein_uhlenbeck", "kernel key 'alpha' must be positive and finite")):
        for bad in ("nan", "inf", "-inf", "0", "-1.5"):
            capsys.readouterr()
            rep = tmp_path / "alpha.json"
            assert run(["spectrum", "--kernel", kernel, f"--alpha={bad}", "--n", "20", "--k", "2",
                        "--report", str(rep)]) == 2
            assert message in capsys.readouterr().err
            assert not rep.exists()
    capsys.readouterr()
    assert run(["asymptotic", "--law", "dll", "--theta", "nan"]) == 2
    assert "theta must be positive and finite" in capsys.readouterr().err
    # dll reads r = eps^2, which must be finite too
    assert run(["asymptotic", "--law", "dll", "--eps", "1e300"]) == 2
    assert "eps^2 must be finite" in capsys.readouterr().err
    nan_a = tmp_path / "nan_a.json"
    nan_a.write_text('{"kernel": {"type": "bridge"}, "grid_size": 50, "phi": [{"poly": [1.0]}], "A": [[NaN]]}')
    assert run(["perturb", "--config", str(nan_a)]) == 2
    assert "must be finite" in capsys.readouterr().err
    # missing file
    assert run(["exact", "--weights", str(tmp_path / "absent.csv"), "--r", "1.0"]) == 2
    # a bad worker count is an argument error, not a traceback or a silent serial run
    for bad in ("abc", "0"):
        monkeypatch.setenv("SMALLBALL_THREADS", bad)
        capsys.readouterr()
        argv = ["durbin", "--family", "exponential-rate", "--simulate", "--n", "10", "--reps", "5"]
        assert run(argv + ["--report", str(tmp_path / "bad.json")]) == 2
        assert f"SMALLBALL_THREADS must be a positive integer, got '{bad}'" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    '"matrix": [[1.0, Infinity], [Infinity, 1.0]]',
    '"matrix": [[1.0, 0.5], [0.5, 1.0]], "diag_jump": [1.0, Infinity]',
], ids=["matrix", "diag_jump"])
def test_exit_code_non_finite_sampled_kernel(tmp_path, capsys, data):
    # JSON Infinity in a sampled kernel is an argument error, not the later
    # "Q is not positive definite" numeric failure
    path = tmp_path / "problem.json"
    path.write_text('{"kernel": {"type": "sampled", "grid": [0.25, 0.75], ' + data
                    + '}, "phi": [{"poly": [1.0]}], "A": [[1.0]]}')
    assert run(["perturb", "--config", str(path), "--report", str(tmp_path / "rep.json")]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, values",
    [
        (["spectrum", "--kernel", "bridge", "--n", "20", "--k", "1"], {"k": 3}),
        (["exact", "--weights", "w.csv", "--r", "0.1"], {"r": 0.2}),
        (["asymptotic", "--law", "naznik"], {"eps": 0.1}),
        (["durbin", "--family", "normal-location"], {"family": "exponential-rate"}),
    ],
    ids=["spectrum", "exact", "asymptotic", "durbin"],
)
def test_config_only_on_perturb(tmp_path, monkeypatch, argv, values):
    # --config is the perturb problem file; every other value has one
    # spelling, its flag, so a JSON object of flag values is an argument error
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.csv").write_text("1.0\n")
    (tmp_path / "f.json").write_text(json.dumps(values))
    rep = tmp_path / "rep.json"
    assert run(argv + ["--config", "f.json", "--report", str(rep)]) == 2
    assert not rep.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["exact", "--weights", "w2000.csv", "--method", "saddle", "--r", "1e-160"], ""),
        (["asymptotic", "--law", "naznik", "--d", "1.0000001", "--eps", "1e-3"], ""),
        (["asymptotic", "--law", "naznik", "--theta", "1e300", "--eps", "1e-300"], ""),
        (["asymptotic", "--law", "dll", "--theta", "1e-300"], ""),
        (["asymptotic", "--law", "dll", "--theta", "1e-300", "--d", "1.001"], "overflows double precision"),
        (["asymptotic", "--law", "naznik", "--delta", "1e300"], ""),
        (["asymptotic", "--law", "naznik", "--theta", "1e300", "--d", "50"], ""),
        (["asymptotic", "--law", "dll", "--d", "1.001"], "overflows double precision"),
        (["exact", "--weights", "w2000.csv", "--method", "saddle", "--r", "1e15"], "pole"),
        # log Gamma(1 + delta) overflows past delta ~ 2.5e305
        (["asymptotic", "--law", "naznik", "--theta", "1", "--delta", "1e306", "--d", "2", "--eps", "0.05"], "underflows"),
        # log C sums +inf and -inf: this once exited 0 with a NaN amplitude
        (["asymptotic", "--law", "naznik", "--theta", "1e-200", "--delta", "1e305", "--d", "50", "--eps", "0.05"],
         "undefined"),
        # A Q A^T overflows: this once warned and reported D = Infinity
        (["perturb", "--config", "a1e200.json"], "D = -A - A^T + A Q A^T overflows"),
    ],
    ids=["saddle_k2_underflow", "naznik_coefficient", "naznik_exponent", "dll_mass", "dll_tilt",
         "naznik_amplitude_delta", "naznik_amplitude_theta", "dll_tilt_d", "saddle_pole",
         "naznik_log_gamma_overflow", "naznik_amplitude_nan", "perturb_d_overflow"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_and_underflow_exit_3(tmp_path, monkeypatch, capsys, argv, message):
    # values past double precision are numeric failures, not tracebacks,
    # and numpy warns of none of them on the way; a tilt that overflows
    # says so (it used to read "tilted integral did not converge")
    monkeypatch.chdir(tmp_path)
    quadform.write_weights("w2000.csv", quadform.WeightSeq(head=1.0 / (np.pi * np.arange(1, 2001)) ** 2))
    (tmp_path / "a1e200.json").write_text(json.dumps(
        {"kernel": {"type": "bridge"}, "grid_size": 200, "phi": [{"poly": [1.0]}], "A": [[1e200]]}))
    rep = tmp_path / "rep.json"
    assert run(argv + ["--report", str(rep)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not rep.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--kernel", "bridge", "--n", "10000000", "--k", "5"],
        ["perturb", "--config", "grid1e7.json"],
    ],
    ids=["spectrum", "perturb"],
)
def test_memory_a_run_cannot_get_exits_3(tmp_path, monkeypatch, capsys, argv):
    # the 1e7-node grid asks for a 728 TiB n x n array, past any address
    # space, so the request is refused before it touches memory; this once
    # ended in a numpy _ArrayMemoryError traceback with exit 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid1e7.json").write_text(json.dumps(
        {"kernel": {"type": "bridge"}, "grid_size": 10_000_000, "phi": [{"poly": [1.0]}], "A": [[6.0]]}))
    rep = tmp_path / "rep.json"
    assert run(argv + ["--report", str(rep)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert not rep.exists()


def test_ou_rate_with_overflowing_jump_is_argument_error(tmp_path, capsys):
    # 2 alpha, the kink diagonal, overflows: an argument error naming alpha,
    # not "Eigenvalues did not converge"
    rep = tmp_path / "rep.json"
    assert run(["spectrum", "--kernel", "ornstein_uhlenbeck", "--alpha", "1e308", "--n", "10", "--k", "2",
                "--report", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("argument error:") and "alpha" in err
    assert not rep.exists()


def test_under_resolved_ou_spectrum_exits_3(tmp_path, capsys):
    # at alpha * h >> 1 the kink diagonal swamps the kernel; this run once
    # exited 0 with an empty eigenvalue list
    rep = tmp_path / "rep.json"
    assert run(["spectrum", "--kernel", "ornstein_uhlenbeck", "--alpha", "1e6", "--n", "100", "--k", "5",
                "--report", str(rep)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha=1e+06" in err and "n=100" in err
    assert not rep.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["exact", "--weights", "w.csv", "--r", "0.5", "--method", "mc", "--samples", "100"], id="exact_mc"),
        pytest.param(["durbin", "--family", "normal-location", "--simulate", "--n", "20", "--reps", "10"], id="durbin"),
    ],
)
def test_negative_seed_is_argument_error_naming_seed(tmp_path, monkeypatch, capsys, argv):
    # a negative seed used to reach SeedSequence, whose message names no argument
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.csv").write_text("0.5\n0.25\n")
    assert run(argv + ["--seed", "-1", "--report", "rep.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("argument error:") and "seed" in err
    assert not (tmp_path / "rep.json").exists()


def test_report_deterministic_modulo_timestamp(tmp_path):
    reps = []
    for name in ("r1.json", "r2.json"):
        rep = tmp_path / name
        assert run(
            ["asymptotic", "--law", "naznik", "--theta", "3.14159265", "--delta", "0",
             "--d", "2", "--eps", "0.05", "--report", str(rep)]
        ) == 0
        data = read_json(rep)
        data.pop("timestamp")
        reps.append(json.dumps(data, sort_keys=True))
    assert reps[0] == reps[1]


def _envelope_argv(tmp_path):
    wfile = tmp_path / "w.csv"
    wfile.write_text("1.0\n0.5\n")
    problem = tmp_path / "problem.json"
    problem.write_text('{"kernel": {"type": "bridge"}, "grid_size": 50, "phi": [{"poly": [1.0]}], "A": [[6.0]]}')
    return [
        ["spectrum", "--kernel", "bridge", "--n", "30", "--k", "2"],
        ["exact", "--weights", str(wfile), "--r", "1.0"],
        ["asymptotic", "--law", "naznik"],
        ["perturb", "--config", str(problem)],
        ["durbin", "--family", "normal-location"],
        ["validate"],
    ]


def test_report_envelope(tmp_path):
    # one report path: every subcommand's report has the same top-level keys
    # and names its subcommand as the task
    argvs = _envelope_argv(tmp_path)
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(a[0] for a in argvs) == sorted(commands.choices)
    for argv in argvs:
        rep = tmp_path / f"{argv[0]}.json"
        assert run(argv + ["--report", str(rep)]) == 0
        report = read_json(rep)
        assert set(report) == {"task", "inputs", "results", "diagnostics", "version", "timestamp"}
        assert report["task"] == argv[0]


def test_validate_row_that_raises_fails_the_suite(tmp_path, capsys, monkeypatch):
    # the Durbin rows build their model, which raises ConsistencyError here;
    # the suite records that as a failed check and stops
    monkeypatch.setattr(durbin, "Q_VS_S_TOL", 0.0)
    rep = tmp_path / "rep.json"
    assert run(["validate", "--report", str(rep)]) == 3
    assert capsys.readouterr().err == "error: validation suite failed; see report\n"
    report = read_json(rep)
    assert report["results"]["passed"] is False
    checks = report["results"]["checks"]
    assert all(c["passed"] for c in checks[:-1])
    assert checks[-1]["check"] == "raised" and checks[-1]["passed"] is False
    assert checks[-1]["error"].startswith("Gram matrix disagrees with Fisher information")
    assert report["diagnostics"] == {"n_checks": len(checks), "n_failed": 1}


def test_failing_validate_writes_report_and_exits_3(tmp_path, capsys, monkeypatch):
    broken = criteria.Criterion("c01", "broken", ("one", "other"), lambda inputs: [criteria.Check("broken", 1.0, 0.0, 0.5)])
    monkeypatch.setattr(criteria, "CRITERIA", [broken])
    rep = tmp_path / "rep.json"
    assert run(["validate", "--report", str(rep)]) == 3
    assert capsys.readouterr().err == "error: validation suite failed; see report\n"
    report = read_json(rep)
    assert report["task"] == "validate"
    assert report["results"]["passed"] is False
    assert report["results"]["checks"][0]["check"] == "broken"
    assert report["diagnostics"] == {"n_checks": 1, "n_failed": 1}
