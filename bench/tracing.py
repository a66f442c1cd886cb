"""Spans around the package's public entry points, recorded from outside.

``install`` replaces each entry point where callers look it up: module
functions in every package module that binds them (so name imports such
as ``solver.write_checkpoint`` and ``cli.read_checkpoint`` are covered),
methods on their classes, and the ``scipy.fft`` / ``numpy.fft`` transforms
the solver and the spectral layer call. Spans are kept in memory as
``[name, start, end, parent, info]`` and handed back at the end of the
repetition. ``layer_metrics`` turns one repetition's spans into the
per-layer metrics; it needs only the standard library.
"""

from __future__ import annotations

import functools
import math
import os
import time

TRANSFORM = "spectral.transform"

EVALUATORS = (
    "phi", "v", "v_derivs", "phi_R", "dphi_R", "d2phi_R", "dphi_R_over_r",
    "phicond_expr", "bilaplacian_phi_R", "phi1", "phi2",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced


def _size(args, _kwargs, _result):
    return getattr(args[0], "size", 1)


def _arg_size(args, _kwargs, _result):
    return getattr(args[1], "size", 1)


def _file_bytes(position):
    return lambda args, _kwargs, _result: os.path.getsize(str(args[position]))


def install(tracer: Tracer) -> None:
    import numpy.fft
    import scipy.fft

    import inlslab
    from inlslab import cli, core, cutoff, inequalities, observables, solver, spectral, svgplot

    modules = (inlslab, cli, core, cutoff, inequalities, observables, solver, spectral, svgplot)

    def function(module, attr, info=None):
        orig = getattr(module, attr)
        traced = tracer.wrap(orig, f"{module.__name__.split('.')[-1]}.{attr}", info)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)

    def method(cls, attr, layer, info=None):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), f"{layer}.{cls.__name__}.{attr}", info))

    for fft_module in (scipy.fft, numpy.fft):
        for attr in ("fftn", "ifftn"):
            setattr(fft_module, attr, tracer.wrap(getattr(fft_module, attr), TRANSFORM, _size))

    method(spectral.SpectralPlan, "__init__", "spectral")
    for attr in (
        "gradient_arrays", "laplacian_array", "free_propagate_array", "grad_norm",
        "radial_derivative_arrays", "gradient", "laplacian", "free_propagate",
    ):
        method(spectral.SpectralPlan, attr, "spectral")

    function(observables, "conservation")
    function(observables, "virial_z_second")
    method(observables.GridWeights, "__init__", "observables")
    method(observables.ProfileOnGrid, "__init__", "observables")

    function(core, "realize")
    function(core, "write_checkpoint", _file_bytes(0))
    function(core, "read_checkpoint")

    function(solver, "run", lambda a, k, rep: {"steps": rep.steps, "samples": len(rep.series)})

    function(cli, "main")
    function(cli, "parse_config")
    function(cli, "simulate")
    function(cli, "write_series_csv", _file_bytes(0))
    function(cli, "virial_audit", lambda a, k, rep: rep["checked"])
    function(cli, "plot")

    function(cutoff, "build_cutoff")
    function(cutoff, "verify_phicond")
    function(cutoff, "grad_weight_bound")
    function(cutoff, "find_epsilon")
    for attr in EVALUATORS:
        method(cutoff.CutoffProfile, attr, "cutoff", _arg_size)

    function(inequalities, "estimate_constant")
    function(inequalities, "lhs_rhs")

    function(svgplot, "line_plot")


# --- aggregation -------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank q-th percentile; 0.0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def layer_metrics(spans) -> dict:
    """Per-layer metrics (see BENCHMARK.json) from one repetition's spans."""
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child_time)]

    def by(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(dur[i] for i in by(name))

    def self_of(prefix):
        return sum(self_time[i] for i, s in enumerate(spans) if s[0].startswith(prefix))

    def has_ancestor(i, prefix):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0].startswith(prefix):
                return True
            p = spans[p][3]
        return False

    transforms = by(TRANSFORM)
    runs = by("solver.run")
    steps = sum(spans[i][4]["steps"] for i in runs)
    samples = sum(spans[i][4]["samples"] for i in runs)
    step_transforms = sum(1 for i in transforms if spans[i][3] in runs)
    conservation = by("observables.conservation")
    diag_transforms = sum(1 for i in transforms if has_ancestor(i, "observables."))

    # a diagnostics sample is one conservation report plus the virial
    # reports that follow it under the same caller
    sample_ms = []
    for i, s in enumerate(spans):
        if s[0] == "observables.conservation":
            sample_ms.append(dur[i])
        elif s[0] == "observables.virial_z_second" and sample_ms:
            sample_ms[-1] += dur[i]
    sample_ms = [1e3 * d for d in sample_ms]

    evals = [
        i for i, s in enumerate(spans)
        if s[0].startswith("cutoff.CutoffProfile.")
        and not (s[3] >= 0 and spans[s[3]][0].startswith("cutoff.CutoffProfile."))
    ]
    ckpt_writes = by("core.write_checkpoint")
    lhs_rhs = by("inequalities.lhs_rhs")
    solver_self = sum(self_time[i] for i in runs)
    transform_ms = [1e3 * dur[i] for i in transforms]

    return {
        "spectral.transforms": len(transforms),
        "spectral.transform_s": sum(dur[i] for i in transforms),
        "spectral.transform_ms_p50": percentile(transform_ms, 50),
        "spectral.transform_ms_p99": percentile(transform_ms, 99),
        "spectral.transforms_per_step": step_transforms / steps if steps else 0.0,
        "spectral.transforms_per_sample": diag_transforms / len(conservation) if conservation else 0.0,
        "spectral.bytes_computed": sum(32 * spans[i][4] for i in transforms),
        "spectral.plan_ms": 1e3 * total("spectral.SpectralPlan.__init__"),
        "solver.steps": steps,
        "solver.samples": samples,
        "solver.self_s": solver_self,
        "solver.self_ms_per_step": 1e3 * solver_self / steps if steps else 0.0,
        "observables.sample_ms_p50": percentile(sample_ms, 50),
        "observables.sample_ms_p99": percentile(sample_ms, 99),
        "observables.conservation_ms": 1e3 * total("observables.conservation"),
        "observables.virial_ms": 1e3 * total("observables.virial_z_second"),
        "observables.setup_ms": 1e3 * (
            total("observables.GridWeights.__init__") + total("observables.ProfileOnGrid.__init__")
        ),
        "observables.self_s": self_of("observables."),
        "core.realize_ms": 1e3 * total("core.realize"),
        "core.checkpoint_writes": len(ckpt_writes),
        "core.checkpoint_write_ms": 1e3 * total("core.write_checkpoint"),
        "core.checkpoint_read_ms": 1e3 * total("core.read_checkpoint"),
        "core.checkpoint_bytes": sum(spans[i][4] for i in ckpt_writes),
        "cli.parse_ms": 1e3 * total("cli.parse_config"),
        "cli.csv_write_ms": 1e3 * total("cli.write_series_csv"),
        "cli.csv_bytes": sum(spans[i][4] for i in by("cli.write_series_csv")),
        "cli.audit_s": total("cli.virial_audit"),
        "cli.audit_checked": sum(spans[i][4] for i in by("cli.virial_audit")),
        "cli.self_s": self_of("cli."),
        "cutoff.build_ms": 1e3 * total("cutoff.build_cutoff"),
        "cutoff.verify_phicond_s": total("cutoff.verify_phicond"),
        "cutoff.grad_weight_bound_s": total("cutoff.grad_weight_bound"),
        "cutoff.find_epsilon_s": total("cutoff.find_epsilon"),
        "cutoff.profile_eval_s": sum(dur[i] for i in evals),
        "cutoff.points_evaluated": sum(spans[i][4] for i in evals),
        "inequalities.lhs_rhs_calls": len(lhs_rhs),
        "inequalities.lhs_rhs_ms": 1e3 * sum(dur[i] for i in lhs_rhs),
        "inequalities.estimate_s": total("inequalities.estimate_constant"),
        "inequalities.self_s": self_of("inequalities."),
        "svgplot.plot_ms": 1e3 * total("svgplot.line_plot"),
    }


def transforms_by_caller(spans) -> dict:
    """Transform counts keyed by the enclosing span's name."""
    out = {}
    for s in spans:
        if s[0] == TRANSFORM:
            caller = spans[s[3]][0] if s[3] >= 0 else "(untraced caller)"
            out[caller] = out.get(caller, 0) + 1
    return out
