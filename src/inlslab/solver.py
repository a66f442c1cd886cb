"""Strang-splitting time integration with adaptive steps and finite-time
blow-up detection.

Both subflows are exact: the linear half-step is a Fourier multiplier and
the nonlinear step is a pure phase rotation (|u| is pointwise conserved by
the potential-only flow), so mass is preserved to roundoff per step.

Blow-up is detected, never proved: the certificate is the triple
(grad-norm ceiling hit, dt floor hit, z_R concavity on the samples),
reported together. Crossing the dt floor clamps the step and latches the
flag; the run stops once the gradient ceiling is crossed at a sample.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import observables as obs
from .core import Field, Grid, InitialData, InvariantError, ProblemParams, realize, write_checkpoint
from .spectral import SpectralPlan

OUTCOME_REACHED_T_MAX = "reached_t_max"
OUTCOME_BLOWUP = "blowup_detected"
OUTCOME_INSTABILITY = "instability_detected"

MASS_DRIFT_LIMIT = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    dt0: float = 1e-4
    dt_floor: float = 1e-9
    t_max: float = 1.0
    safety: float = 1.0
    c_cfl: float = 0.1  # radians of nonlinear phase per step
    gradnorm_ceiling: float = 1e6
    supnorm_ceiling: float = 1e6
    sample_stride: int = 10
    checkpoint_stride: int = 0  # 0 disables checkpoints

    def __post_init__(self):
        if not (0.0 < self.safety <= 1.0):
            raise InvariantError("safety must lie in (0, 1]")
        if not (0.0 < self.dt_floor < self.dt0):
            raise InvariantError("need 0 < dt_floor < dt0")
        if self.t_max <= 0 or self.gradnorm_ceiling <= 0 or self.supnorm_ceiling <= 0:
            raise InvariantError("t_max and ceilings must be positive")
        if self.sample_stride < 1:
            raise InvariantError("sample_stride must be >= 1")


@dataclass
class RunReport:
    outcome: str
    t_end: float
    steps: int
    series: list
    energy0: float
    mass0: float
    blowup_time_bracket: tuple | None = None
    gradnorm_ceiling_hit: bool = False
    dt_floor_hit: bool = False
    checkpoints: list = dc_field(default_factory=list)

    def zR_second_fd(self, R: float) -> np.ndarray:
        """Second derivative of z_R by three-point nonuniform differences
        over the sample times; NaN at the endpoints."""
        t = np.array([s.t for s in self.series])
        z = np.array([s.virials[R].zR for s in self.series])
        out = np.full_like(z, np.nan)
        if len(t) >= 3:
            h1 = t[1:-1] - t[:-2]
            h2 = t[2:] - t[1:-1]
            out[1:-1] = 2.0 * (h1 * z[2:] - (h1 + h2) * z[1:-1] + h2 * z[:-2]) / (
                h1 * h2 * (h1 + h2)
            )
        return out

    def concavity_fraction(self, R: float, t_cut: float | None = None) -> float:
        """Fraction of samples with negative second finite difference of
        z_R. t_cut restricts to samples at or before that time; the
        certificate uses the first detector event (the dt-floor crossing),
        past which the clamped step no longer honors the phase CFL bound
        and samples stop being trustworthy."""
        fd = self.zR_second_fd(R)
        if t_cut is not None:
            t = np.array([s.t for s in self.series])
            fd = fd[t <= t_cut]
        fd = fd[np.isfinite(fd)]
        if fd.size == 0:
            return float("nan")
        return float(np.mean(fd < 0.0))

    def tracked_concavity(self, R: float) -> float:
        """Concavity fraction over the tracked window: up to the start of
        the blow-up bracket when a detector fired, else the whole run."""
        t_cut = self.blowup_time_bracket[0] if self.blowup_time_bracket else None
        return self.concavity_fraction(R, t_cut=t_cut)

    def alpha_summary(self) -> dict:
        """Mean and spread of alpha_check over all samples and profiles."""
        vals = [
            v.alpha_check
            for s in self.series
            for v in s.virials.values()
            if np.isfinite(v.alpha_check)
        ]
        if not vals:
            return {"mean": float("nan"), "spread": float("nan"), "count": 0}
        vals = np.array(vals)
        return {
            "mean": float(vals.mean()),
            "spread": float(vals.max() - vals.min()),
            "count": int(vals.size),
        }


def _abs_pow(absu: np.ndarray, sigma: float) -> np.ndarray:
    # |u|^sigma dominates the step cost for non-integer exponents; the
    # L2-critical sigma = (4-2b)/N is a small integer for many (N, b)
    n = int(sigma)
    if n == sigma and 1 <= n <= 4:
        out = absu
        for _ in range(n - 1):
            out = out * absu
        return out
    return absu**sigma


def _unit_phasor(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) as one fresh complex array, cos and sin written into
    its real and imaginary parts."""
    e = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=e.real)
    np.sin(theta, out=e.imag)
    return e


def _phase_step(u: np.ndarray, dt: float, potential: np.ndarray, sigma: float):
    """Exact potential-only subflow u -> u exp(i dt V |u|^sigma), V the
    potential (|x|^-b, or zero to turn the nonlinearity off).

    Returns the rotated field and the largest rate V |u|^sigma, which
    drives the step control. For a finite, positive V (|x|^-b on cell
    centres) the rate is NaN or infinite whenever u is not finite, since
    np.max propagates NaN; run relies on this as its finiteness check.
    """
    rate = potential * _abs_pow(np.abs(u), sigma)
    # The phasor is a temporary on purpose: numpy then evaluates the product
    # with the operands in the order it used for u * (cos + 1j sin), which
    # depends on the array size, so the rounding stays that of this formula.
    return u * _unit_phasor(dt * rate), float(np.max(rate))


def strang_step(
    plan: SpectralPlan, f: Field, dt: float, potential: np.ndarray | None = None
) -> Field:
    """free(dt/2) o phase(dt) o free(dt/2)."""
    if dt <= 0:
        raise InvariantError("dt must be positive")
    if potential is None:
        potential = obs.GridWeights(f.grid, f.params).w_b
    u = plan.free_propagate_array(f.values, 0.5 * dt)
    u, _ = _phase_step(u, dt, potential, f.params.sigma)
    u = plan.free_propagate_array(u, 0.5 * dt)
    return Field(f.params, f.grid, u)


def run(
    init: InitialData,
    params: ProblemParams,
    grid: Grid,
    cfg: SolverConfig,
    profiles: list,
    checkpoint_dir: str | None = None,
    run_id: str = "",
) -> RunReport:
    f = realize(init, params, grid)
    plan = SpectralPlan(grid)
    gw = obs.GridWeights(grid, params)
    pgs = {p.R: obs.ProfileOnGrid(p, gw) for p in profiles}
    sigma = params.sigma

    u = f.values.copy()
    series = [obs.sample(plan, f, gw, pgs, 0.0, cfg.dt0)]
    mass0 = series[0].conservation.mass
    gn_floor_time = None
    report = RunReport(
        outcome=OUTCOME_REACHED_T_MAX,
        t_end=0.0,
        steps=0,
        series=series,
        energy0=series[0].conservation.energy,
        mass0=mass0,
    )

    def checkpoint(t, tag):
        if checkpoint_dir is None:
            return
        os.makedirs(checkpoint_dir, exist_ok=True)
        path = os.path.join(checkpoint_dir, f"ckpt_{tag}.bin")
        write_checkpoint(path, Field(params, grid, u), t=t, run_id=run_id)
        report.checkpoints.append(path)

    def observe(t, dt):
        """Flush the pending linear tail and take a sample at t; True when
        the sample stops the run (mass drift or a ceiling)."""
        nonlocal u, pending, last_sample_t
        u = plan.free_propagate_array(u, pending)
        pending = 0.0
        s = obs.sample(plan, Field(params, grid, u), gw, pgs, t, dt)
        series.append(s)
        report.t_end = t
        report.steps = step
        drift = abs(s.conservation.mass / mass0 - 1.0) if mass0 > 0 else 0.0
        if drift > MASS_DRIFT_LIMIT:
            report.outcome = OUTCOME_INSTABILITY
            return True
        if cfg.checkpoint_stride and step % (cfg.sample_stride * cfg.checkpoint_stride) == 0:
            checkpoint(t, f"{step:09d}")
        if s.grad_norm > cfg.gradnorm_ceiling or s.sup_norm > cfg.supnorm_ceiling:
            report.gradnorm_ceiling_hit = s.grad_norm > cfg.gradnorm_ceiling
            report.outcome = OUTCOME_BLOWUP
            lo = gn_floor_time if gn_floor_time is not None else last_sample_t
            report.blowup_time_bracket = (lo, t)
            checkpoint(t, "final")
            return True
        last_sample_t = t
        return False

    if cfg.checkpoint_stride:
        checkpoint(0.0, "000000000")

    # Adjacent linear half-steps are merged between samples:
    # free(a) o free(b) = free(a+b), so a "pending" linear tail is carried
    # and flushed before each sample. Exactly Strang, half the transforms.
    t = 0.0
    step = 0
    step_dt = cfg.dt0  # size of the last step taken
    pending = 0.0  # linear propagation owed to reach physical time t
    last_sample_t = 0.0
    # phase-rotation rate |x|^-b |u|^sigma driving the step control; after
    # the first step it is reused from the phase stage (one step stale,
    # which the c_cfl margin absorbs)
    rate = float(np.max(gw.w_b * _abs_pow(np.abs(u), sigma)))
    while t < cfg.t_max:
        dt = cfg.safety * min(cfg.dt0, cfg.c_cfl / rate if rate > 0 else cfg.dt0)
        if dt < cfg.dt_floor:
            dt = cfg.dt_floor
            if not report.dt_floor_hit:
                report.dt_floor_hit = True
                gn_floor_time = t
        # avoid a roundoff-sized final step: it would poison the sample
        # spacing used by the finite-difference diagnostics. The summed
        # steps fell short of t_max by roundoff, so this is the end of the
        # run: sample the last step if the stride skipped it.
        if cfg.t_max - t <= 1e-5 * dt:
            if series[-1].t != t and observe(t, step_dt):
                return report
            break
        dt = min(dt, cfg.t_max - t)

        unew = plan.free_propagate_array(u, pending + 0.5 * dt)
        unew, rate = _phase_step(unew, dt, gw.w_b, sigma)
        pending = 0.5 * dt

        if not np.isfinite(rate):
            report.outcome = OUTCOME_INSTABILITY
            report.t_end = t
            report.steps = step
            return report
        u = unew
        t += dt
        step += 1
        step_dt = dt

        if (step % cfg.sample_stride == 0 or t >= cfg.t_max) and observe(t, dt):
            return report

    u = plan.free_propagate_array(u, pending)
    report.t_end = t
    report.steps = step
    if report.dt_floor_hit:
        # floor crossed but ceiling never hit before t_max: still a
        # blow-up signal, bracketed from the floor crossing
        report.outcome = OUTCOME_BLOWUP
        report.blowup_time_bracket = (gn_floor_time, t)
    checkpoint(t, "final")
    return report
