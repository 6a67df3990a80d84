"""The three benchmark workloads.

Each workload has a one-time ``setup``, a ``plan`` that draws one pass of op
inputs from a seeded generator, a ``run`` that executes one op through
smallball's public functions, and a ``check`` that verifies the ops of a
pass that returned, against routes independent of the op.  Library functions are always looked
up as module attributes at call time, so the traced run sees every call.

A check is (name, passed, detail, layer, known); ``layer`` names the
per-layer failure counter the check feeds ("perturbation", "gil_pelaez") or
is None.  ``known`` is the key of a ``KNOWN_DEFECTS`` entry when a missed
check shows exactly that defect's signature, and None otherwise.  An op
that misses only such checks still counts in ``fail_ratio``; any other miss
makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from smallball import asymptotics, cli, durbin, grids, kernels, perturbation, quadform, spectral

# the lru_cache'd original, so set-up can clear it even while it is wrapped
_DLL_PREFACTOR = asymptotics.dll_prefactor

# Program defects the workloads keep in view.  An op in a defect's reach
# misses its check; the miss counts as that defect only if the output has
# the defect's exact signature, so any other change in those ops (or a miss
# anywhere else) still fails the run.
KNOWN_DEFECTS = {
    "theorem1_sign": "theorem1_factor returns 1/det(E - QA) with its sign, so the factor is negative "
                     "where det(E - QA) < 0 (m = 1: A > Q^-1 = 12); ROADMAP item 1",
    "dll_delta": "dll_asymptotic's prefactor is calibrated at delta = 0 only; for the Wiener member "
                 "(delta = -0.5) it stays 7.5 % above naznik_asymptotic as r -> 0",
}
# signature of dll_delta: the dll/naznik probability ratio of the Wiener member
DLL_DELTA_RATIO = (1.07, 1.08)


def _finite(values: dict) -> tuple:
    bad = [k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v)]
    return ("finite", not bad, f"non-finite {', '.join(bad)}" if bad else "all finite", None, None)


class PerturbSweep:
    """Transfer factors of the bridge across the critical boundary A = Q^-1."""

    name = "perturb_sweep"
    nominal_pass_s = 2.6
    n_grid, k_eig, n_product = 1000, 400, 300
    # m = 1 (phi = 1): Q = 1/12, Q^-1 = 12.  A in (12, 24] and A > 24 hit the
    # sign defect of theorem1_factor; they stay in the sweep so it shows.
    m1_values = (-6.0, 3.0, 6.0, 9.0, 13.0, 18.0, 24.0, 40.0)
    m1_jitter = 0.4
    # m = 2 (phi = 1, x): A = c Q^-1 on both sides of c = 1
    m2_scales = (0.25, 0.5, 1.5, 2.5)
    m2_jitter = 0.05
    # closed-form Q^-1 for the bridge, and the critical shifted-product limit
    # det(int phi phi^T) / (det Q prod_{l<=m} (pi l)^2)
    q_inv = {1: np.array([[12.0]]), 2: np.array([[192.0, -360.0], [-360.0, 720.0]])}
    critical_limit = {1: 12.0 / math.pi**2, 2: 180.0 / math.pi**4}

    def setup(self, out_dir):
        self.grid = grids.gauss_legendre_grid(self.n_grid)
        self.base = spectral.nystrom_spectrum(kernels.bridge(), self.grid, self.k_eig)
        ones = np.ones(self.grid.size)
        self.phi = {1: ones, 2: np.column_stack([ones, self.grid.nodes])}

    def plan(self, rng):
        ops = []
        for a0 in self.m1_values:
            a = a0 + rng.uniform(-self.m1_jitter, self.m1_jitter)
            ops.append({"m": 1, "A": np.array([[a]]), "critical": False, "label": f"m=1 A={a:.4f}"})
        ops.append({"m": 1, "A": self.q_inv[1], "critical": True, "label": "m=1 A=Q^-1=12"})
        for c0 in self.m2_scales:
            c = c0 + rng.uniform(-self.m2_jitter, self.m2_jitter)
            ops.append({"m": 2, "A": c * self.q_inv[2], "critical": False, "label": f"m=2 A={c:.4f}*Q^-1"})
        ops.append({"m": 2, "A": self.q_inv[2], "critical": True, "label": "m=2 A=Q^-1"})
        return ops

    def run(self, op):
        m, a, grid, phi = op["m"], op["A"], self.grid, self.phi[op["m"]]
        bridge = kernels.bridge()
        gram = perturbation.build_gram(bridge, perturbation.PerturbationSpec(phi=phi, a_matrix=a, grid=grid))
        cls = perturbation.classify(a, gram.q_matrix)
        g_a = perturbation.perturbed_kernel(kernels.kernel_matrix(bridge, grid), gram.psi, gram.d_matrix)
        ker = kernels.sampled(grid, g_a, diag_jump=np.ones(grid.size), green_order=1)
        spec_a = spectral.nystrom_spectrum(ker, grid, self.k_eig)
        if cls.label == perturbation.CRITICAL:
            prod = perturbation.spectral_product_check(self.base, spec_a, self.n_product, shift=m)
            resid = perturbation.annihilation_residual(bridge, g_a, phi, grid)
            return {"label": cls.label, "product": prod.value, "residual": resid}
        prod = perturbation.spectral_product_check(self.base, spec_a, self.n_product)
        factor = perturbation.theorem1_factor(a, gram.q_matrix)
        return {"label": cls.label, "product": prod.value, "factor": factor}

    def check(self, ops, outs):
        checks = []
        for op, out in zip(ops, outs):
            expected = perturbation.CRITICAL if op["critical"] else perturbation.NON_CRITICAL
            cs = [_finite(out), ("classification", out["label"] == expected, f"{out['label']} (expected {expected})", "perturbation", None)]
            if out["label"] == perturbation.CRITICAL:
                target = self.critical_limit[op["m"]]
                gap = abs(out["product"] / target - 1.0)
                cs.append(("annihilation", out["residual"] < 1e-9, f"residual {out['residual']:.2e} (c06 tol 1e-9)", "perturbation", None))
                cs.append(("shifted_product", gap < 0.01, f"shifted product {out['product']:.5f} vs {target:.5f} (c06 tol 1%)", "perturbation", None))
            else:
                f, p = out["factor"], out["product"]
                magnitude = abs(p * f * f - 1.0) < 0.01
                ok = f > 0 and magnitude
                # det(E - QA) from the closed-form Q, not from the op's Gram data
                det = float(np.linalg.det(np.eye(op["m"]) - np.linalg.inv(self.q_inv[op["m"]]) @ op["A"]))
                known = "theorem1_sign" if not ok and magnitude and f < 0 and det < 0 else None
                cs.append(("factor_vs_product", ok, f"factor {f:+.5f} vs sqrt(1/product) {+math.sqrt(1.0 / p):.5f}, det(E - QA) {det:+.4f} (c05: positive, product tol 1%)", "perturbation", known))
            checks.append(cs)
        return checks


class CdfCurve:
    """Distribution of ||X0||^2 for the bridge and the Wiener process from the
    closed-form weights mu_k = (pi (k + delta))^-2."""

    name = "cdf_curve"
    nominal_pass_s = 1.7
    delta = {"bridge": 0.0, "wiener": -0.5}
    n_head_gp, n_head_sp = 300, 100_000
    # Gil-Pelaez radii across the central region; the first ``overlap`` of
    # each list have P in about [1e-4, 0.5], where the saddlepoint runs too
    gp_r = {
        "bridge": (0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5, 0.8),
        "wiener": (0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5, 0.8, 1.2),
    }
    overlap = {"bridge": 4, "wiener": 5}
    # left-tail eps; under the 5 % jitter none crosses eps = 0.01 (the c03
    # point r = 1e-4), 0.05 (the c04 point) or 0.1 (r = 1e-2)
    tail_eps = (0.005, 0.007, 0.009, 0.013, 0.02, 0.03, 0.045, 0.065, 0.095)
    jitter = 0.05

    def setup(self, out_dir):
        self.w_gp, self.w_sp, self.phi = {}, {}, {}
        for proc, d in self.delta.items():
            for store, n in ((self.w_gp, self.n_head_gp), (self.w_sp, self.n_head_sp)):
                k = np.arange(1, n + 1)
                # sum_{k>N} (pi (k + delta))^-2 <= 1 / (pi^2 (N + delta))
                store[proc] = quadform.WeightSeq(head=1.0 / (np.pi * (k + d)) ** 2, tail_sum_bound=1.0 / (np.pi**2 * (n + d)))
            self.phi[proc] = asymptotics.PowerLawPhi(theta=math.pi, delta=d, d=2.0)
        _DLL_PREFACTOR.cache_clear()
        asymptotics.dll_prefactor()

    def plan(self, rng):
        ops = []
        for proc in self.delta:
            for i, r0 in enumerate(self.gp_r[proc]):
                r = r0 * (1.0 + rng.uniform(-self.jitter, self.jitter))
                ops.append({"kind": "gil_pelaez", "proc": proc, "r": r, "label": f"{proc} gil_pelaez r={r:.5f}"})
                if i < self.overlap[proc]:
                    ops.append({"kind": "saddlepoint", "proc": proc, "r": r, "paired": True, "label": f"{proc} saddlepoint r={r:.5f}"})
            for e0 in self.tail_eps:
                eps = e0 * (1.0 + rng.uniform(-self.jitter, self.jitter))
                ops.append({"kind": "saddlepoint", "proc": proc, "r": eps * eps, "paired": False, "label": f"{proc} saddlepoint eps={eps:.5f}"})
        return ops

    def run(self, op):
        proc, r = op["proc"], op["r"]
        if op["kind"] == "gil_pelaez":
            est = quadform.cdf_gil_pelaez(self.w_gp[proc], r)
            return {"value": est.value, "error_bound": est.error_bound}
        est = quadform.cdf_saddlepoint(self.w_sp[proc], r)
        out = {"value": est.value, "log_value": est.log_value, "error_bound": est.error_bound}
        if not op["paired"]:
            # the asymptotics are small-ball laws: evaluated in the left tail only
            out["naznik"] = asymptotics.naznik_asymptotic(math.pi, self.delta[proc], 2.0, math.sqrt(r))
            out["dll"] = asymptotics.dll_asymptotic(self.phi[proc], r)
        return out

    def check(self, ops, outs):
        checks = [[_finite(out)] for out in outs]
        for proc in self.delta:
            idx = [i for i, op in enumerate(ops) if op["proc"] == proc]
            gp = sorted((i for i in idx if ops[i]["kind"] == "gil_pelaez"), key=lambda i: ops[i]["r"])
            for lo, hi in zip(gp, gp[1:]):
                slack = outs[lo]["error_bound"] + outs[hi]["error_bound"]
                ok = outs[hi]["value"] >= outs[lo]["value"] - slack
                checks[hi].append(("monotone", ok, f"F({ops[hi]['r']:.5f}) = {outs[hi]['value']:.6g} after F({ops[lo]['r']:.5f}) = {outs[lo]['value']:.6g}", "gil_pelaez", None))
            gp_at = {ops[i]["r"]: outs[i] for i in gp}  # a failed op is absent
            sp = [i for i in idx if ops[i]["kind"] == "saddlepoint"]
            for i in sp:
                g = gp_at.get(ops[i]["r"])
                if ops[i]["paired"] and g is not None:
                    diff = abs(g["value"] - outs[i]["value"])
                    bound = g["error_bound"] + outs[i]["error_bound"]
                    checks[i].append(("gp_vs_saddlepoint", diff <= bound, f"|{g['value']:.6g} - {outs[i]['value']:.6g}| = {diff:.2e} vs bounds {bound:.2e}", "gil_pelaez", None))
            tail = sorted((i for i in sp if not ops[i]["paired"]), key=lambda i: ops[i]["r"])
            for i in tail:
                op, out = ops[i], outs[i]
                eps = math.sqrt(op["r"])
                if eps <= 0.05:
                    gap = abs(out["log_value"] - out["naznik"])
                    checks[i].append(("saddlepoint_vs_naznik", gap < 1.0, f"log {out['log_value']:.3f} vs naznik {out['naznik']:.3f} (c04 tol 1 nat)", None, None))
                if op["r"] <= 1e-4:
                    ratio = math.exp(out["dll"] - out["naznik"])
                    ok = abs(ratio - 1.0) < 0.05
                    lo_sig, hi_sig = DLL_DELTA_RATIO
                    known = "dll_delta" if not ok and proc == "wiener" and lo_sig < ratio < hi_sig else None
                    checks[i].append(("dll_vs_naznik", ok, f"probability ratio dll/naznik {ratio:.4f} at r={op['r']:.2e} (c03 tol 5% at r <= 1e-4)", None, known))
            tail = [i for i in tail if ops[i]["r"] <= 1e-2]
            for lo, hi in zip(tail, tail[1:]):
                g_lo = abs(math.expm1(outs[lo]["dll"] - outs[lo]["naznik"]))
                g_hi = abs(math.expm1(outs[hi]["dll"] - outs[hi]["naznik"]))
                checks[lo].append(("dll_gap_shrinks", g_lo <= g_hi, f"dll/naznik gap {g_lo:.4f} at r={ops[lo]['r']:.2e} vs {g_hi:.4f} at r={ops[hi]['r']:.2e} (c03: monotone)", None, None))
        return checks


class DurbinGof:
    """Goodness-of-fit with estimated parameters for the three catalog
    families: the CLI simulator, the limit law from the Durbin kernel, and
    Monte Carlo on the limit weights."""

    name = "durbin_gof"
    nominal_pass_s = 3.4
    families = (
        ("normal-location", "normal_location"),
        ("normal-location-scale", "normal_location_scale"),
        ("exponential-rate", "exponential_rate"),
    )
    n_sample, reps = 500, 15_000
    n_grid, k_eig = 1000, 300
    mc_samples = 40_000
    mc_z = 5.0

    def setup(self, out_dir):
        self.out_dir = out_dir
        self.state = {}

    def plan(self, rng):
        ops = []
        for slug, _ in self.families:
            sim_seed, mc_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
            ops.append({"kind": "sim", "family": slug, "seed": sim_seed, "label": f"{slug} sim --seed {sim_seed}"})
            ops.append({"kind": "limit", "family": slug, "label": f"{slug} limit"})
            ops.append({"kind": "mc", "family": slug, "seed": mc_seed, "label": f"{slug} mc seed {mc_seed}"})
        return ops

    def run(self, op):
        slug = op["family"]
        st = self.state.setdefault(slug, {})
        if op["kind"] == "sim":
            st.clear()
            path = os.path.join(self.out_dir, f"durbin-{slug}.json")
            argv = ["durbin", "--family", slug, "--simulate", "--n", str(self.n_sample),
                    "--reps", str(self.reps), "--seed", str(op["seed"]), "--report", path]
            code = cli.run(argv)
            if code != 0:
                raise RuntimeError(f"smallball durbin exited {code}")
            with open(path, encoding="utf-8") as fh:
                res = json.load(fh)["results"]
            st["q10"] = res["quantiles"]["q10"]
            return {"q10": st["q10"], "mean_minus_limit_trace": res["mean_minus_limit_trace"], "std": res["std"]}
        if op["kind"] == "limit":
            fam = getattr(durbin, dict(self.families)[slug])()
            grid = grids.gauss_legendre_grid(self.n_grid)
            spec = spectral.nystrom_spectrum(durbin.durbin_kernel_spec(fam, grid), grid, self.k_eig)
            st["weights"] = quadform.WeightSeq(head=spec.eigenvalues[: self.k_eig])
            est = quadform.cdf_gil_pelaez(st["weights"], st["q10"])
            st["limit"] = est
            return {"cdf": est.value, "error_bound": est.error_bound}
        est = quadform.cdf_monte_carlo(st["weights"], st["q10"], self.mc_samples, op["seed"])
        return {"value": est.value, "error_bound": est.error_bound,
                "limit": st["limit"].value, "limit_error_bound": st["limit"].error_bound}

    def check(self, ops, outs):
        checks = []
        for op, out in zip(ops, outs):
            cs = [_finite(out)]
            if op["kind"] == "sim":
                tol = 3.0 * out["std"] / math.sqrt(self.reps) + 2.0 / self.n_sample
                mm = out["mean_minus_limit_trace"]
                cs.append(("mean_vs_trace", abs(mm) < tol, f"mean - limit trace {mm:+.5f} (c11 tol 3se + 2/n = {tol:.5f})", None, None))
            elif op["kind"] == "limit":
                cs.append(("cdf_at_q10", abs(out["cdf"] - 0.10) < 0.02, f"limit cdf at q10 {out['cdf']:.4f} (c11: 0.10 +- 0.02)", "gil_pelaez", None))
            else:
                # cdf_monte_carlo reports 3 SE.  A 3-SE bound is missed by
                # chance 0.27 % of the time, which over the hundreds of mc ops
                # of a set of runs fails a correct program; 5 SE is missed by
                # chance 6e-7 of the time.
                se = out["error_bound"] / 3.0
                diff = abs(out["value"] - out["limit"])
                bound = self.mc_z * se + out["limit_error_bound"]
                cs.append(("mc_vs_gil_pelaez", diff <= bound, f"mc {out['value']:.4f} vs gil_pelaez {out['limit']:.4f}, |diff| {diff:.4f} vs {self.mc_z:g}se + bound {bound:.4f}", None, None))
            checks.append(cs)
        return checks


WORKLOADS = {w.name: w for w in (PerturbSweep, CdfCurve, DurbinGof)}
