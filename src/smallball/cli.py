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
is the ``perturb`` problem file, and no other subcommand takes it.  Each
value is accepted only where it is read: ``spectrum`` builds its kernel
from the problem file's kernel table, so ``--kernel`` takes its catalog
types and ``--alpha`` goes with ``ornstein_uhlenbeck`` alone, and a flag
that one mode reads (``_MODE_FLAGS``) is an argument error outside it;
``validate`` formats the checks of the rows of ``criteria.CRITERIA`` at
n = VALIDATE_SIZE and has none of its own.  Exit codes: 0 success, 2
argument errors (ValueError, TypeError, an unreadable file), 3 numeric or
consistency failures; a failing ``validate`` suite, also one whose row
raised, writes its report first, with ``results.passed`` false.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, asymptotics, criteria, durbin, kernels, perturbation, quadform
from .errors import SmallBallError, _check_array, _check_integer, _check_positive
from .grids import Grid, gauss_legendre_grid
from .spectral import nystrom_spectrum

# wide enough to accept pi literals quoted to 9+ significant digits
PI_LITERAL_TOL = 1e-8
VALIDATE_SIZE = 500  # the grid size at which validate runs the criteria table


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


def _check_keys(what: str, cfg: dict, keys: tuple) -> None:
    """Check ``cfg`` against ``keys`` = (required, optional): a key outside
    both, so a misspelt key is not read as an absent one, and a missing
    required key are argument errors that name the key."""
    required, optional = keys
    for key in cfg:
        if key not in required and key not in optional:
            raise ValueError(f"{what} key {key!r} is not one of {[*required, *optional]}")
    for key in required:
        if key not in cfg:
            raise ValueError(f"{what} is missing key {key!r}")


# (required, optional) keys of each kernel type, of a problem and of a phi entry
_KERNEL_KEYS = {
    "wiener": (("type",), ()),
    "bridge": (("type",), ()),
    "ornstein_uhlenbeck": (("type", "alpha"), ()),
    "sampled": (("type", "grid", "matrix"), ("weights", "diag_jump", "green_order")),
}
_PROBLEM_KEYS = (("kernel", "phi", "A"), ("grid_size",))
_PHI_KEYS = ((), ("poly", "samples"))


def _kernel_from_config(cfg: dict) -> kernels.KernelSpec:
    """The kernel of a problem file's kernel object, and of ``spectrum``'s
    ``--kernel`` and ``--alpha``."""
    kind = cfg.get("type")
    if not (isinstance(kind, str) and kind in _KERNEL_KEYS):
        raise ValueError(f"unknown kernel type {kind!r}")
    _check_keys(f"{kind} kernel", cfg, _KERNEL_KEYS[kind])
    if kind == "wiener":
        return kernels.wiener()
    if kind == "bridge":
        return kernels.bridge()
    if kind == "ornstein_uhlenbeck":
        return kernels.ornstein_uhlenbeck(_check_positive("kernel key 'alpha'", cfg["alpha"]))
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


# flags that one mode of a subcommand reads: subcommand -> (mode, {flag: default})
_MODE_FLAGS = {
    "exact": ("--method mc", {"samples": 100_000, "seed": 0}),
    "durbin": ("--simulate", {"n": 500, "reps": 10_000, "seed": 0, "out": None}),
}


def _mode_flags(args, active: bool) -> dict:
    """The values of the flags that only the subcommand's mode reads, each
    as given or else its default, if the mode is ``active``, and {} if not;
    a flag given outside its mode is an argument error that names it."""
    mode, defaults = _MODE_FLAGS[args.command]
    if not active:
        given = [f"--{name}" for name in defaults if getattr(args, name) is not None]
        if given:
            raise ValueError(f"only {mode} reads {', '.join(given)}")
        return {}
    return {name: default if getattr(args, name) is None else getattr(args, name) for name, default in defaults.items()}


def _cmd_spectrum(args) -> tuple[dict, dict, dict]:
    cfg = {"type": args.kernel}
    if args.alpha is not None:
        cfg["alpha"] = args.alpha
    spec = _kernel_from_config(cfg)
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
    mc = _mode_flags(args, args.method == "mc")
    w = quadform.read_weights(args.weights)
    if args.method == "gilpelaez":
        est = quadform.cdf_gil_pelaez(w, args.r)
    elif args.method == "saddle":
        est = quadform.cdf_saddlepoint(w, args.r)
    else:
        est = quadform.cdf_monte_carlo(w, args.r, mc["samples"], mc["seed"])
    return (
        {
            "weights": str(args.weights),
            "n_weights": int(w.head.size),
            "tail_sum_bound": w.tail_sum_bound,
            "r": args.r,
            "method": args.method,
            "samples": mc.get("samples"),
            "seed": mc.get("seed"),
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


def _cmd_perturb(args) -> tuple[dict, dict, dict]:
    with open(args.problem, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except RecursionError:
            raise ValueError("problem nests deeper than the JSON parser reads") from None
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
        _check_keys("phi entry", descr, _PHI_KEYS)
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
    sim = _mode_flags(args, args.simulate)
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
        stats = durbin.simulate_omega2(fam, sim["n"], sim["reps"], sim["seed"])
        if sim["out"]:
            _write_csv(sim["out"], "omega2", [(float(v),) for v in stats])
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
        inputs.update({"n": sim["n"], "reps": sim["reps"], "seed": sim["seed"]})
    return inputs, results, diagnostics


def _cmd_validate(args) -> tuple[dict, dict, dict]:
    checks, inputs = [], criteria.Inputs(VALIDATE_SIZE)
    try:
        for row in criteria.CRITERIA:
            checks += [{"criterion": row.id, "check": c.name, "value": c.value, "target": c.target,
                        "tolerance": c.tolerance, "passed": c.passed} for c in row.checks(inputs)]
    except SmallBallError as exc:
        # a row that cannot be computed fails the suite, which stops there
        checks.append({"criterion": row.id, "check": "raised", "error": str(exc), "passed": False})
    n_failed = sum(not c["passed"] for c in checks)
    return (
        {"n": VALIDATE_SIZE},
        {"passed": n_failed == 0, "checks": checks},
        {"n_checks": len(checks), "n_failed": n_failed},
    )


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
    p.add_argument("--kernel", choices=("bridge", "wiener", "ornstein_uhlenbeck"), required=True)
    p.add_argument("--alpha", type=float, help="ornstein_uhlenbeck rate, required there and refused elsewhere")
    p.add_argument("--n", type=int, default=1000, help="Gauss-Legendre grid size")
    p.add_argument("--k", type=int, default=10, help="number of eigenvalues")
    p.add_argument("--out", help="CSV output path (k, mu_k)")
    p.add_argument("--eigvecs-out", dest="eigvecs_out", help="CSV of eigenfunction samples")
    p.set_defaults(func=_cmd_spectrum)

    p = add_parser("exact", parents=[report], help="CDF of a weighted chi-square form")
    p.add_argument("--weights", required=True, help="CSV weight file, one mu per line")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--method", choices=("gilpelaez", "saddle", "mc"), default="gilpelaez")
    mode, defaults = _MODE_FLAGS["exact"]
    p.add_argument("--samples", type=int, help=f"Monte Carlo draws ({mode} only, default {defaults['samples']})")
    p.add_argument("--seed", type=int, help=f"Monte Carlo seed ({mode} only, default {defaults['seed']})")
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
    mode, defaults = _MODE_FLAGS["durbin"]
    p.add_argument("--n", type=int, help=f"sample size ({mode} only, default {defaults['n']})")
    p.add_argument("--reps", type=int, help=f"replications ({mode} only, default {defaults['reps']})")
    p.add_argument("--seed", type=int, help=f"simulator seed ({mode} only, default {defaults['seed']})")
    p.add_argument("--out", help=f"CSV of simulated statistics ({mode} only)")
    p.set_defaults(func=_cmd_durbin)

    p = add_parser("validate", parents=[report], help="run the criteria table c01-c11 at n = 500")
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
