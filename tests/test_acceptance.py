"""Acceptance suite: the rows c01-c11 of ``smallball.criteria.CRITERIA``,
which ``smallball validate`` runs at n = 500, at n = 2000.  Each test prints
one PASS/FAIL line with its checks (``pytest tests/test_acceptance.py -v -s``).
Every tolerance and time cap is pinned here as a literal: a test fails if its
row names other checks than its pins or has a tolerance looser than its pin,
so a tolerance change in the table is also a change here.  c12 checks the
CLI, not a paper quantity, and is a plain test.
"""

import math
import time

from smallball import criteria
from smallball.cli import run


# criterion -> {check: pin}, in the row's order: a number bounds the
# tolerance, and a string is the exact target of a label check
PINS = {
    "c01": {"bridge_rel": 1e-4, "wiener_rel": 1e-4},
    "c02": dict.fromkeys(("wiener_gamma", "naznik_wiener_amplitude", "naznik_wiener_coefficient", "bridge_gamma",
                          "naznik_bridge_amplitude", "naznik_bridge_coefficient"), 1e-12),
    # a gap shrinkage below 1: the probability ratio approaches 1 monotonically
    "c03": {"gap_r0.0001": 0.05, "gap_shrink_r0.001": 1.0, "gap_shrink_r0.0001": 1.0},
    "c04": {"log_probability": 1.0},
    # 5 % of the factor, which its own check holds within 1e-6 of 2
    "c05": {"bridge_gram_q": 1e-8, "theorem1_factor": 1e-6, "theorem1_product": 0.0025, "distortion": 0.02,
            "transfer_ratio": 0.05 * (2.0 + 1e-6)},
    "c06": {"critical_classification": "critical", "critical_annihilation": 1e-9,
            "shifted_product": 0.01 * (12.0 / math.pi**2)},
    "c07": {f"theorem2_vs_theorem3_l{l}_m{m}": 1e-10 for l in (1, 2) for m in (1, 2)},  # noqa: E741
    "c08": {"rel_error_r0.02": 0.10, "error_shrink_r0.02": 1.0, "error_shrink_r0.01": 1.0},
    "c09": {"rel_gap": 2e-3},
    "c10": dict.fromkeys(("durbin_q_vs_s_normal_location", "durbin_q_vs_s_normal_location_scale",
                          "durbin_q_vs_s_exponential_rate", "fisher_values"), 1e-6),
    # 3 se + 2/500, se = 1.465e-4 the standard error of the seeded mean
    "c11": {"mean_vs_trace": 0.00444, "cdf_at_q10": 0.02},
}
CAPS = {"c01": 30.0, "c03": 10.0, "c04": 5.0, "c11": 120.0}


def report(num, passed, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def _describe(c):
    if isinstance(c.target, str):
        return f"{c.name} {c.value} (target {c.target})"
    return f"{c.name} {c.value:.6g} vs {c.target:.6g} (|diff| {abs(c.value - c.target):.2e}, tol {c.tolerance:.3g})"


def check_row(inputs, cid):
    (row,) = [r for r in criteria.CRITERIA if r.id == cid]
    t0 = time.monotonic()
    checks = row.checks(inputs)
    elapsed = time.monotonic() - t0
    pins = PINS[cid]
    assert inputs.n == 2000 and [r.id for r in criteria.CRITERIA] == list(PINS)
    assert [c.name for c in checks] == list(pins), f"{cid} checks are not its pinned ones"
    for c in checks:
        pin = pins[c.name]
        if isinstance(pin, str):
            assert c.target == pin, f"{cid} {c.name} targets {c.target!r}, pinned {pin!r}"
        else:
            assert c.tolerance <= pin, f"{cid} {c.name} tolerance {c.tolerance} is looser than its pin {pin}"
    cap = CAPS.get(cid, math.inf)
    detail = "; ".join(map(_describe, checks)) + (f"; {elapsed:.1f}s (cap {cap:.0f}s)" if cid in CAPS else "")
    report(int(cid[1:]), all(c.passed for c in checks) and elapsed < cap, detail)


def _row_test(cid):
    def test(full_inputs):
        check_row(full_inputs, cid)

    return test


test_c01_spectral_fidelity = _row_test("c01")
test_c02_naznik_constants = _row_test("c02")
test_c03_dll_vs_naznik = _row_test("c03")
test_c04_saddlepoint_vs_naznik_tail = _row_test("c04")
test_c05_theorem1_identity = _row_test("c05")
test_c06_criticality_suite = _row_test("c06")
test_c07_theorem2_equals_theorem3 = _row_test("c07")
test_c08_abel_quadrature = _row_test("c08")
test_c09_derivative_exactness_anchor = _row_test("c09")
test_c10_durbin_criticality = _row_test("c10")
test_c11_durbin_simulation_end_to_end = _row_test("c11")


def test_c12_determinism(tmp_path):
    outputs = []
    for tag in ("one", "two"):
        stats_csv = tmp_path / f"stats_{tag}.csv"
        spec_csv = tmp_path / f"spec_{tag}.csv"
        assert run(
            ["durbin", "--family", "normal-location", "--simulate", "--n", "100",
             "--reps", "500", "--seed", "77", "--out", str(stats_csv),
             "--report", str(tmp_path / f"d_{tag}.json")]
        ) == 0
        assert run(
            ["spectrum", "--kernel", "bridge", "--n", "200", "--k", "5",
             "--out", str(spec_csv), "--report", str(tmp_path / f"s_{tag}.json")]
        ) == 0
        outputs.append((stats_csv.read_bytes(), spec_csv.read_bytes()))
    report(
        12,
        outputs[0] == outputs[1],
        "repeated seeded runs produce byte-identical CSV outputs "
        f"({len(outputs[0][0])} + {len(outputs[0][1])} bytes compared)",
    )
