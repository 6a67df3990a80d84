"""Span recorder for the traced benchmark run.

The recorder wraps smallball's public functions at the module attributes
their callers look up: ``spectral.kernel_matrix`` is what
``nystrom_spectrum`` calls, ``durbin.simulate_omega2`` is what the CLI calls,
and ``quadform.quad`` is the scipy routine Gil-Pelaez calls.  The library
itself is not edited.  Spans are kept in memory as
(name, start, end, parent, op id) and written out when the run ends.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from smallball import asymptotics, cli, durbin, grids, kernels, perturbation, quadform, spectral


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_nodes(counts, args, kwargs, out):
    counts["grids.nodes"] += out.size


def _count_matrix(counts, args, kwargs, out):
    counts["kernels.entries"] += out.size


def _count_sampled(counts, args, kwargs, out):
    counts["kernels.entries"] += out.matrix.size


def _count_spectrum(counts, args, kwargs, out):
    n = _arg(args, kwargs, 1, "grid").size
    asked = min(_arg(args, kwargs, 2, "k_max"), n)
    counts["spectral.eigs_kept"] += out.truncation_count
    counts["spectral.eigs_floor_dropped"] += asked - out.truncation_count
    # computed, not measured: a dense symmetric eigensolve with vectors costs
    # about 9 n^3 flops (Golub & Van Loan, symmetric QR)
    counts["spectral.nystrom.flops"] += 9 * n**3


def _count_draws(counts, args, kwargs, out):
    w = _arg(args, kwargs, 0, "w")
    counts["quadform.monte_carlo.draws"] += _arg(args, kwargs, 2, "n_samples") * w.head.size


def _count_reps(counts, args, kwargs, out):
    counts["durbin.simulate.reps"] += _arg(args, kwargs, 2, "reps")


def _count_report(counts, args, kwargs, out):
    argv = _arg(args, kwargs, 0, "argv")
    if "--report" in argv:
        counts["cli.report_bytes"] += os.path.getsize(argv[argv.index("--report") + 1])


# (span name, home module, attribute, other modules that import the name, counter hook)
SPANS = (
    ("grids.gauss_legendre", grids, "gauss_legendre_grid", (cli,), _count_nodes),
    ("grids.graded", grids, "graded_endpoint_grid", (durbin,), _count_nodes),
    ("kernels.kernel_matrix", kernels, "kernel_matrix", (spectral, perturbation), _count_matrix),
    ("kernels.sampled", kernels, "sampled", (), _count_sampled),
    ("spectral.nystrom", spectral, "nystrom_spectrum", (cli,), _count_spectrum),
    ("spectral.kink", spectral, "kink_correction", (perturbation,), None),
    ("perturbation.build_gram", perturbation, "build_gram", (), None),
    ("perturbation.gram_q", perturbation, "gram_q", (durbin,), None),
    ("perturbation.perturbed_kernel", perturbation, "perturbed_kernel", (), None),
    ("perturbation.classify", perturbation, "classify", (durbin,), None),
    ("perturbation.product_check", perturbation, "spectral_product_check", (), None),
    ("perturbation.annihilation", perturbation, "annihilation_residual", (), None),
    ("perturbation.theorem1", perturbation, "theorem1_factor", (), None),
    ("quadform.gil_pelaez", quadform, "cdf_gil_pelaez", (), None),
    ("quadform.saddlepoint", quadform, "cdf_saddlepoint", (), None),
    ("quadform.monte_carlo", quadform, "cdf_monte_carlo", (), _count_draws),
    ("quadform.ndtri", quadform, "ndtri", (), None),
    ("asymptotics.naznik", asymptotics, "naznik_asymptotic", (), None),
    ("asymptotics.dll", asymptotics, "dll_asymptotic", (), None),
    ("asymptotics.dll_prefactor", asymptotics, "dll_prefactor", (), None),
    ("durbin.model", durbin, "durbin_model", (), None),
    ("durbin.simulate", durbin, "simulate_omega2", (), _count_reps),
    ("durbin.kernel_spec", durbin, "durbin_kernel_spec", (), None),
    ("durbin.ndtr", durbin, "ndtr", (), None),
    ("durbin.ndtri", durbin, "ndtri", (), None),
    ("cli.run", cli, "run", (), _count_report),
)

# scipy routines that are called too often to time: (counter, module, attribute)
COUNTED = (
    ("quadform.gil_pelaez.quad_calls", quadform, "quad"),
    ("quadform.saddlepoint.brentq_calls", quadform, "brentq"),
    ("asymptotics.quad_calls", asymptotics, "quad"),
)


class Tracer:
    """In-memory spans and counters.  ``op_id`` tags every span opened
    until it is reassigned; the benchmark sets it before each op."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id, raised]
        self.counts: Counter = Counter()
        self.op_id = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, False]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                with self._lock:
                    hook(self.counts, args, kwargs, out)
            return out

        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def recording(self):
        """Install the wrappers for the duration of the block.

        A site is patched only while it still holds the function its home
        module exports, so a later import change loses coverage instead of
        breaking the run.
        """
        patched = []
        try:
            for name, home, attr, others, hook in SPANS:
                fn = getattr(home, attr)
                wrapper = self.span(name, fn, hook)
                for mod in (home, *others):
                    if getattr(mod, attr, None) is fn:
                        patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
            for name, mod, attr in COUNTED:
                fn = getattr(mod, attr)
                patched.append((mod, attr, fn))
                setattr(mod, attr, self.counter(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)

    def raised_ops(self, prefix: str) -> set:
        """Op ids in which a span whose name starts with ``prefix`` raised."""
        return {op for name, _, _, _, op, raised in self.spans if raised and name.startswith(prefix)}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([rec[:5] for rec in self.spans], fh)

    def layer_metrics(self, failed_ops: dict, overhead_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        Self time is span time minus the time of its direct children.
        ``failed_ops`` maps a failure counter to the set of op ids that
        failed a check on that layer's output; ops in which a span of the
        layer raised are added here.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        own, total, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, t0, t1, _, _, _) in enumerate(self.spans):
            own[name] += (t1 - t0) - child[i]
            total[name] += t1 - t0
            calls[name] += 1
        cnt = self.counts

        def s(*names):
            return sum(own[n] for n in names)

        def c(*names):
            return sum(calls[n] for n in names)

        def failed(key, prefix):
            return len(set(failed_ops.get(key, ())) | self.raised_ops(prefix))

        def rate(num, den):
            return num / den if den > 0 else 0.0

        grid_spans = ("grids.gauss_legendre", "grids.graded")
        kernel_spans = ("kernels.kernel_matrix", "kernels.sampled")
        return {
            "grids.calls": (c(*grid_spans), "count"),
            "grids.self_s": (s(*grid_spans), "s"),
            "grids.nodes": (cnt["grids.nodes"], "count"),
            "kernels.calls": (c(*kernel_spans), "count"),
            "kernels.self_s": (s(*kernel_spans), "s"),
            "kernels.entries": (cnt["kernels.entries"], "count"),
            "spectral.nystrom.calls": (c("spectral.nystrom"), "count"),
            "spectral.nystrom.self_s": (s("spectral.nystrom"), "s"),
            "spectral.nystrom.flops": (cnt["spectral.nystrom.flops"], "flop"),
            "spectral.kink.calls": (c("spectral.kink"), "count"),
            "spectral.kink.self_s": (s("spectral.kink"), "s"),
            "spectral.eigs_kept": (cnt["spectral.eigs_kept"], "count"),
            "spectral.eigs_floor_dropped": (cnt["spectral.eigs_floor_dropped"], "count"),
            "perturbation.gram.self_s": (s("perturbation.build_gram", "perturbation.gram_q"), "s"),
            "perturbation.perturbed_kernel.self_s": (s("perturbation.perturbed_kernel"), "s"),
            "perturbation.classify.calls": (c("perturbation.classify"), "count"),
            "perturbation.product_check.self_s": (s("perturbation.product_check"), "s"),
            "perturbation.annihilation.self_s": (s("perturbation.annihilation"), "s"),
            "perturbation.failed": (failed("perturbation", "perturbation."), "count"),
            "quadform.gil_pelaez.calls": (c("quadform.gil_pelaez"), "count"),
            "quadform.gil_pelaez.self_s": (s("quadform.gil_pelaez"), "s"),
            "quadform.gil_pelaez.quad_calls": (cnt["quadform.gil_pelaez.quad_calls"], "count"),
            "quadform.gil_pelaez.failed": (failed("gil_pelaez", "quadform.gil_pelaez"), "count"),
            "quadform.saddlepoint.calls": (c("quadform.saddlepoint"), "count"),
            "quadform.saddlepoint.self_s": (s("quadform.saddlepoint"), "s"),
            "quadform.saddlepoint.brentq_calls": (cnt["quadform.saddlepoint.brentq_calls"], "count"),
            "quadform.saddlepoint.brentq_per_call": (
                rate(cnt["quadform.saddlepoint.brentq_calls"], c("quadform.saddlepoint")),
                "1",
            ),
            "quadform.monte_carlo.calls": (c("quadform.monte_carlo"), "count"),
            "quadform.monte_carlo.self_s": (s("quadform.monte_carlo"), "s"),
            "quadform.monte_carlo.draws": (cnt["quadform.monte_carlo.draws"], "count"),
            "quadform.monte_carlo.draws_per_s": (
                rate(cnt["quadform.monte_carlo.draws"], total["quadform.monte_carlo"]),
                "1/s",
            ),
            "quadform.monte_carlo.ndtri_s": (total["quadform.ndtri"], "s"),
            "asymptotics.naznik.calls": (c("asymptotics.naznik"), "count"),
            "asymptotics.dll.calls": (c("asymptotics.dll"), "count"),
            "asymptotics.dll.self_s": (s("asymptotics.dll", "asymptotics.dll_prefactor"), "s"),
            "asymptotics.quad_calls": (cnt["asymptotics.quad_calls"], "count"),
            "durbin.model.self_s": (s("durbin.model"), "s"),
            "durbin.simulate.calls": (c("durbin.simulate"), "count"),
            "durbin.simulate.self_s": (s("durbin.simulate"), "s"),
            "durbin.simulate.reps": (cnt["durbin.simulate.reps"], "count"),
            "durbin.simulate.reps_per_s": (
                rate(cnt["durbin.simulate.reps"], total["durbin.simulate"]),
                "1/s",
            ),
            "durbin.kernel_spec.self_s": (s("durbin.kernel_spec"), "s"),
            "durbin.ndtr_ndtri_s": (total["durbin.ndtr"] + total["durbin.ndtri"], "s"),
            "cli.run.calls": (c("cli.run"), "count"),
            "cli.self_s": (s("cli.run"), "s"),
            "cli.report_bytes": (cnt["cli.report_bytes"], "B"),
            "trace.spans": (len(self.spans), "count"),
            "trace.overhead_s": (overhead_s, "s"),
        }
