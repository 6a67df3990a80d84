"""Command-line entry point.

Subcommands: spectrum, exact, asymptotic, perturb, durbin, validate.
Every subcommand is a thin dispatcher into the library that returns its
report sections (inputs, results, diagnostics); ``run`` alone wraps them in
the JSON report {task, inputs, results, diagnostics, version, timestamp},
with ``task`` the subcommand name, and writes it to stdout or ``--report``.
Some subcommands also write CSV tables; ``perturb`` reports the factor its
classification calls for, and both ``asymptotic`` laws read the member
(theta, delta, d) and the radius eps from the same options.  Every value
has one spelling, its flag, and no option may be abbreviated; ``--config``
is the ``perturb`` problem file, and no other subcommand takes it.  Exit
codes: 0 success, 2 argument errors (ValueError, TypeError, an unreadable
file), 3 numeric or consistency failures; a failing ``validate`` suite,
also one whose row raised, writes its report first, with
``results.passed`` false.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, asymptotics, durbin, kernels, perturbation, quadform
from .errors import SmallBallError, _check_array, _check_integer, _check_positive
from .grids import Grid, gauss_legendre_grid
from .spectral import nystrom_spectrum

# wide enough to accept pi literals quoted to 9+ significant digits
PI_LITERAL_TOL = 1e-8


def _pi_aware(value: float) -> float:
    """Replace a near-pi literal by the exact constant."""
    if abs(value - math.pi) <= PI_LITERAL_TOL:
        return math.pi
    return value


def _report(task: str, inputs: dict, results: dict, diagnostics: dict) -> dict:
    return {
        "task": task,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")


def _floats(cfg: dict, key: str, ndim: int) -> np.ndarray:
    """``cfg[key]`` checked by ``_check_array`` as a list of ``ndim``
    dimensions, in errors that name the key."""
    return _check_array(f"key {key!r}", cfg[key], (None,) * ndim)


def _check_keys(what: str, cfg: dict, keys) -> None:
    """Reject any key of ``cfg`` outside ``keys`` as an argument error that
    names it, so a misspelt key is not read as an absent one."""
    for key in cfg:
        if key not in keys:
            raise ValueError(f"{what} key {key!r} is not one of {list(keys)}")


def _kernel_from_config(cfg: dict) -> kernels.KernelSpec:
    kind = cfg.get("type")
    keys = {
        "wiener": ("type",),
        "bridge": ("type",),
        "ornstein_uhlenbeck": ("type", "alpha"),
        "sampled": ("type", "grid", "weights", "diag_jump", "matrix", "green_order"),
    }
    if not (isinstance(kind, str) and kind in keys):
        raise ValueError(f"unknown kernel type {kind!r}")
    _check_keys("kernel", cfg, keys[kind])
    if kind == "wiener":
        return kernels.wiener()
    if kind == "bridge":
        return kernels.bridge()
    if kind == "ornstein_uhlenbeck":
        return kernels.ornstein_uhlenbeck(_check_positive("kernel key 'alpha'", cfg.get("alpha")))
    nodes = _floats(cfg, "grid", 1)
    weights = _floats(cfg, "weights", 1) if "weights" in cfg else np.full(nodes.size, 1.0 / nodes.size)
    jump = None if cfg.get("diag_jump") is None else _floats(cfg, "diag_jump", 1)
    return kernels.sampled(
        Grid(nodes=nodes, weights=weights),
        _floats(cfg, "matrix", 2),
        diag_jump=jump,
        green_order=cfg.get("green_order"),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_spectrum(args) -> tuple[dict, dict, dict]:
    if not math.isfinite(args.alpha):
        raise ValueError(f"alpha must be finite, got {args.alpha}")
    if args.kernel == "ou":
        spec = kernels.ornstein_uhlenbeck(args.alpha)
    else:
        spec = kernels.bridge() if args.kernel == "bridge" else kernels.wiener()
    grid = gauss_legendre_grid(args.n)
    spectrum = nystrom_spectrum(spec, grid, args.k)
    mu = spectrum.eigenvalues
    if args.out:
        _write_csv(args.out, "k,mu_k", [(i + 1, float(v)) for i, v in enumerate(mu)])
    if args.eigvecs_out:
        header = "node," + ",".join(f"u_{i+1}" for i in range(mu.size))
        rows = [
            (float(grid.nodes[i]), *[float(v) for v in spectrum.eigvecs[i]])
            for i in range(grid.size)
        ]
        _write_csv(args.eigvecs_out, header, rows)
    trace = float(np.sum(grid.weights * kernels._kernel_diagonal(spec, grid)))
    return (
        {"kernel": args.kernel, "alpha": args.alpha, "n": args.n, "k": args.k},
        {"eigenvalues": [float(v) for v in mu]},
        {"weighted_trace": trace, "eigenvalue_sum": float(mu.sum())},
    )


def _cmd_exact(args) -> tuple[dict, dict, dict]:
    w = quadform.read_weights(args.weights)
    if args.method == "gilpelaez":
        est = quadform.cdf_gil_pelaez(w, args.r)
    elif args.method == "saddle":
        est = quadform.cdf_saddlepoint(w, args.r)
    else:
        est = quadform.cdf_monte_carlo(w, args.r, args.samples, args.seed)
    return (
        {
            "weights": str(args.weights),
            "n_weights": int(w.head.size),
            "tail_sum_bound": w.tail_sum_bound,
            "r": args.r,
            "method": args.method,
            "samples": args.samples if args.method == "mc" else None,
            "seed": args.seed if args.method == "mc" else None,
        },
        {"value": est.value, "log_value": est.log_value},
        {"error_bound": est.error_bound},
    )


def _cmd_asymptotic(args) -> tuple[dict, dict, dict]:
    theta = _pi_aware(args.theta)
    inputs = {"law": args.law, "theta": theta, "delta": args.delta, "d": args.d, "eps": args.eps}
    _check_positive("eps", args.eps)
    if args.law == "naznik":
        params = asymptotics.naznik_params(theta, args.delta, args.d)
        log_p = asymptotics.naznik_asymptotic(theta, args.delta, args.d, args.eps)
        results = {
            "log_probability": log_p,
            "gamma": params.gamma,
            "amplitude": params.amplitude,
            "exponent_coefficient": params.exponent_coefficient,
        }
        return inputs, results, {"eps": args.eps}
    try:
        r = args.eps**2
    except OverflowError:
        raise ValueError("eps^2 must be finite") from None
    log_p, u = asymptotics._dll_log_and_tilt(asymptotics.PowerLawPhi(theta, args.delta, args.d), r)
    results = {"log_probability": log_p, "tilt": u, "prefactor": asymptotics.dll_prefactor()}
    return inputs, results, {"r": r}


_PROBLEM_KEYS = ("kernel", "grid_size", "phi", "A")


def _cmd_perturb(args) -> tuple[dict, dict, dict]:
    with open(args.problem, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("problem must be a JSON object")
    _check_keys("problem", cfg, _PROBLEM_KEYS)
    if not isinstance(cfg["kernel"], dict):
        raise ValueError("problem key 'kernel' must be an object")
    kernel = _kernel_from_config(cfg["kernel"])
    if kernel.variant == "sampled":
        if "grid_size" in cfg:
            raise ValueError("problem key 'grid_size' is fixed by the sampled kernel's grid")
        grid = kernel.grid
    else:
        size = cfg.get("grid_size", 1000)
        _check_integer("problem key 'grid_size'", size, 1)
        grid = gauss_legendre_grid(size)
    if not isinstance(cfg["phi"], list) or not cfg["phi"] or not all(
        isinstance(descr, dict) and ("poly" in descr) != ("samples" in descr) for descr in cfg["phi"]
    ):
        raise ValueError(
            "problem key 'phi' must be a non-empty list of objects, each with exactly one of 'poly' or 'samples'"
        )
    for descr in cfg["phi"]:
        _check_keys("phi entry", descr, ("poly", "samples"))
    phi = np.column_stack([
        np.polynomial.polynomial.polyval(grid.nodes, _floats(descr, "poly", 1))
        if "poly" in descr
        else _floats(descr, "samples", 1)
        for descr in cfg["phi"]
    ])
    a = _floats(cfg, "A", 2)
    spec = perturbation.PerturbationSpec(phi=phi, a_matrix=a, grid=grid)
    gram = perturbation.build_gram(kernel, spec)
    cls = perturbation.classify(a, gram.q_matrix)
    results: dict = {
        "Q": gram.q_matrix.tolist(),
        "D": gram.d_matrix.tolist(),
        "classification": cls.label,
        "rank_defect": cls.rank_defect,
    }
    diagnostics: dict = {
        "singular_values": [float(v) for v in cls.singular_values],
        "classification_tol": perturbation.CLASSIFY_TOL,
    }
    if args.eps is not None:
        if cls.label != perturbation.CRITICAL:
            raise ValueError(f"--eps needs a critical perturbation, this one is {cls.label}")
        if kernel.green_order is None:
            raise ValueError("--eps needs a kernel with declared green_order")
    if cls.label == perturbation.NON_CRITICAL:
        results["theorem1_factor"] = perturbation.theorem1_factor(a, gram.q_matrix)
    elif cls.label == perturbation.PARTIALLY_CRITICAL:
        results["note"] = (
            "partially critical: no combined asymptotic factor is produced; "
            "decompose via the non-critical and critical transfer results"
        )
    else:
        pref = perturbation.critical_prefactor(gram.q_matrix, phi, grid)
        results["critical_prefactor"] = pref
        if args.eps is not None:
            results["theorem3_factor"] = perturbation.theorem3_asymptotic(
                kernel.green_order, spec.m, pref, args.eps
            )
            diagnostics["eps"] = args.eps
    return {"config": str(args.problem), "grid_size": grid.size, "m": spec.m}, results, diagnostics


_FAMILY_SLUGS = {
    "normal-location": durbin.normal_location,
    "normal-location-scale": durbin.normal_location_scale,
    "exponential-rate": durbin.exponential_rate,
}


def _cmd_durbin(args) -> tuple[dict, dict, dict]:
    fam = _FAMILY_SLUGS[args.family]()
    model = durbin.durbin_model(fam)
    results: dict = {
        "fisher": model.fisher.tolist(),
        "classification": model.classification.label,
        "limit_trace": model.trace,
    }
    diagnostics: dict = {
        "q_vs_fisher_gap": float(np.abs(model.q_matrix - model.fisher).max()),
    }
    inputs: dict = {"family": args.family}
    if args.simulate:
        stats = durbin.simulate_omega2(fam, args.n, args.reps, args.seed)
        if args.out:
            _write_csv(args.out, "omega2", [(float(v),) for v in stats])
        qs = {f"q{int(100 * p)}": float(np.quantile(stats, p)) for p in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)}
        mean = float(stats.mean())
        results.update(
            {
                "mean": mean,
                "std": float(stats.std(ddof=1)),
                "quantiles": qs,
                "mean_minus_limit_trace": mean - model.trace,
            }
        )
        inputs.update({"n": args.n, "reps": args.reps, "seed": args.seed})
    return inputs, results, diagnostics


def _cmd_validate(args) -> tuple[dict, dict, dict]:
    checks = []
    try:
        for name, value, target, tol in _core_suite():
            passed = value == target if isinstance(target, str) else abs(value - target) <= tol
            checks.append(
                {"check": name, "value": value, "target": target, "tolerance": tol, "passed": bool(passed)}
            )
    except SmallBallError as exc:
        # a row that cannot be computed fails the suite, which stops there
        checks.append({"check": "raised", "error": str(exc), "passed": False})
    n_failed = sum(not c["passed"] for c in checks)
    return (
        {},
        {"passed": n_failed == 0, "checks": checks},
        {"n_checks": len(checks), "n_failed": n_failed},
    )


def _core_suite():
    """Determinant, criticality and consistency checks at desk scale, as
    (name, value, target, tolerance) rows; a string target must match
    exactly."""
    grid = gauss_legendre_grid(500)
    spec0 = nystrom_spectrum(kernels.bridge(), grid, 300)
    yield "bridge_mu1", float(spec0.eigenvalues[0]), 1.0 / math.pi**2, 1e-6

    phi = np.ones(grid.size)
    pspec = perturbation.PerturbationSpec(phi=phi, a_matrix=np.array([[6.0]]), grid=grid)
    gram = perturbation.build_gram(kernels.bridge(), pspec)
    yield "bridge_gram_q", float(gram.q_matrix[0, 0]), 1.0 / 12.0, 1e-8
    yield "theorem1_factor", perturbation.theorem1_factor(pspec.a_matrix, gram.q_matrix), 2.0, 1e-6

    g_a = perturbation.perturbed_kernel(
        kernels.kernel_matrix(kernels.bridge(), grid), gram.psi, gram.d_matrix
    )
    jump = kernels.diagonal_jump(kernels.bridge(), grid.nodes)
    spec_a = nystrom_spectrum(kernels.sampled(grid, g_a, diag_jump=jump), grid, 300)
    yield "theorem1_product", perturbation.spectral_product_check(spec0, spec_a, 100).value, 0.25, 0.01

    # critical configuration: A = Q^{-1} = 12
    crit = perturbation.PerturbationSpec(phi=phi, a_matrix=np.array([[12.0]]), grid=grid)
    gram_c = perturbation.build_gram(kernels.bridge(), crit)
    cls = perturbation.classify(crit.a_matrix, gram_c.q_matrix)
    yield "critical_classification", cls.label, perturbation.CRITICAL, 0.0
    g_c = perturbation.perturbed_kernel(
        kernels.kernel_matrix(kernels.bridge(), grid), gram_c.psi, gram_c.d_matrix
    )
    resid = perturbation.annihilation_residual(kernels.bridge(), g_c, phi, grid)
    yield "critical_annihilation", resid, 0.0, 1e-9

    for slug, ctor in _FAMILY_SLUGS.items():
        model = durbin.durbin_model(ctor())
        gap = float(np.abs(model.q_matrix - model.fisher).max())
        yield f"durbin_q_vs_s_{slug.replace('-', '_')}", gap, 0.0, durbin.Q_VS_S_TOL

    params = asymptotics.naznik_params(math.pi, -0.5, 2.0)
    yield "naznik_wiener_amplitude", params.amplitude, 4.0 / math.sqrt(math.pi), 1e-12
    yield "naznik_wiener_coefficient", params.exponent_coefficient, 0.125, 1e-12

    for order in (1, 2):
        for m in (1, 2):
            base = asymptotics.green_base_form(order, amplitude=1.0, power=0.0)
            closed = perturbation.theorem2_closed(base, m, 1.0)
            eps = 0.1
            lhs = math.exp(closed.log_evaluate(eps**2) - base.log_evaluate(eps**2))
            rhs = perturbation.theorem3_asymptotic(order, m, 1.0, eps)
            yield f"theorem2_vs_theorem3_l{order}_m{m}", lhs / rhs, 1.0, 1e-10


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # no parser accepts an abbreviated option, so each option has one spelling
    parser = argparse.ArgumentParser(
        prog="smallball",
        description="Small-ball probabilities for Gaussian processes and their perturbations",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"smallball {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", help="JSON report path (default stdout)")

    p = add_parser("spectrum", parents=[report], help="Nystrom spectrum of a catalog kernel")
    p.add_argument("--kernel", choices=("bridge", "wiener", "ou"), required=True)
    p.add_argument("--alpha", type=float, default=1.0, help="OU rate")
    p.add_argument("--n", type=int, default=1000, help="Gauss-Legendre grid size")
    p.add_argument("--k", type=int, default=10, help="number of eigenvalues")
    p.add_argument("--out", help="CSV output path (k, mu_k)")
    p.add_argument("--eigvecs-out", dest="eigvecs_out", help="CSV of eigenfunction samples")
    p.set_defaults(func=_cmd_spectrum)

    p = add_parser("exact", parents=[report], help="CDF of a weighted chi-square form")
    p.add_argument("--weights", required=True, help="CSV weight file, one mu per line")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--method", choices=("gilpelaez", "saddle", "mc"), default="gilpelaez")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_exact)

    p = add_parser("asymptotic", parents=[report], help="closed-form small-ball asymptotics")
    p.add_argument("--law", choices=("naznik", "dll"), required=True)
    p.add_argument("--theta", type=float, default=math.pi)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--d", type=float, default=2.0)
    p.add_argument("--eps", type=float, default=0.05, help="ball radius; dll reads r = eps^2")
    p.set_defaults(func=_cmd_asymptotic)

    p = add_parser("perturb", parents=[report], help="perturbation classification and transfer factors")
    p.add_argument("--config", dest="problem", required=True, help="JSON problem description")
    p.add_argument("--eps", type=float, default=None, help="ball radius of the critical theorem3_factor")
    p.set_defaults(func=_cmd_perturb)

    p = add_parser("durbin", parents=[report], help="Durbin limiting processes and the omega^2 simulator")
    p.add_argument("--family", choices=tuple(_FAMILY_SLUGS), required=True)
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV of simulated statistics")
    p.set_defaults(func=_cmd_durbin)

    p = add_parser("validate", parents=[report], help="run the core validation suite")
    p.set_defaults(func=_cmd_validate)
    return parser


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = _report(args.command, *args.func(args))
        _emit(report, args.report)
        if report["results"].get("passed") is False:
            raise SmallBallError("validation suite failed; see report")
        return 0
    except SystemExit as exc:  # argparse usage errors and --version
        return int(exc.code or 0)
    except SmallBallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
