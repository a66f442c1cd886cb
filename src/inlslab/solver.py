"""Strang-splitting time integration with adaptive steps and finite-time
blow-up detection.

Both subflows are exact: the linear half-step is a Fourier multiplier and
the nonlinear step is a pure phase rotation (|u| is pointwise conserved by
the potential-only flow), so mass is preserved to roundoff per step.

Blow-up is detected, never proved: the only route to a blow-up verdict
is a sample over the gradient-norm or sup-norm ceiling, reported beside
the z_R concavity on the samples. The dt floor only bounds the step:
crossing it clamps the step and latches a flag, and decides no outcome.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import observables as obs
from .core import (
    Field,
    Grid,
    InitialData,
    InvariantError,
    ProblemParams,
    boundary_decay,
    realize,
    write_checkpoint,
)
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
    c_cfl: float = 0.1  # radians of nonlinear phase per step
    gradnorm_ceiling: float = 1e6
    supnorm_ceiling: float = 1e6
    sample_stride: int = 10
    checkpoint_stride: int = 1  # samples per checkpoint, when run writes them

    def __post_init__(self):
        for name in ("dt0", "dt_floor", "t_max", "c_cfl", "gradnorm_ceiling", "supnorm_ceiling"):
            if not math.isfinite(getattr(self, name)):
                raise InvariantError(f"{name} must be finite")
        if not (0.0 < self.dt_floor < self.dt0):
            raise InvariantError("need 0 < dt_floor < dt0")
        # c_cfl <= 0 would clamp every step to dt_floor, whatever the data
        if min(self.t_max, self.c_cfl, self.gradnorm_ceiling, self.supnorm_ceiling) <= 0:
            raise InvariantError("t_max, c_cfl and ceilings must be positive")
        if self.sample_stride < 1:
            raise InvariantError("sample_stride must be >= 1")
        if self.checkpoint_stride < 1:
            raise InvariantError("checkpoint_stride must be >= 1")


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
    supnorm_ceiling_hit: bool = False
    dt_floor_hit: bool = False
    # |u| on the box faces over its peak at t = 0, the ratio realize warns
    # about; None for data read from a checkpoint, which realize takes as is
    boundary_decay: float | None = None
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
        z_R. t_cut restricts to samples at or before that time."""
        fd = self.zR_second_fd(R)
        if t_cut is not None:
            t = np.array([s.t for s in self.series])
            fd = fd[t <= t_cut]
        fd = fd[np.isfinite(fd)]
        if fd.size == 0:
            return float("nan")
        return float(np.mean(fd < 0.0))

    def tracked_concavity(self, R: float) -> float:
        """Concavity fraction up to the start of the blow-up bracket on a
        ceiling stop: the dt-floor crossing, past which the clamped step no
        longer honors the phase CFL bound, or else the last sample under the
        ceiling. With no bracket, a run that crossed the floor and reached
        t_max included, it covers the whole run."""
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


def strang_step(plan: SpectralPlan, f: Field, dt: float, potential: np.ndarray) -> Field:
    """free(dt/2) o phase(dt) o free(dt/2), potential as in _phase_step.
    run merges adjacent half-steps instead; this is its reference."""
    if dt <= 0:
        raise InvariantError("dt must be positive")
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
) -> RunReport:
    f = realize(init, params, grid)
    plan = SpectralPlan(grid)
    gw = obs.GridWeights(grid, params)
    pgs = {p.R: obs.ProfileOnGrid(p, gw) for p in profiles}
    sigma = params.sigma

    u = f.values.copy()
    series = [obs.sample(plan, f, gw, pgs, 0.0, cfg.dt0)]
    mass0 = series[0].conservation.mass
    checkpoints = []

    def checkpoint(t, tag):
        if checkpoint_dir is None:
            return
        os.makedirs(checkpoint_dir, exist_ok=True)
        path = os.path.join(checkpoint_dir, f"ckpt_{tag}.bin")
        write_checkpoint(path, Field(params, grid, u), t=t)
        checkpoints.append(path)

    def observe(t, dt):
        """Flush the pending linear tail and take a sample at t; returns
        the outcome that stops the run (mass drift or a ceiling), or None."""
        nonlocal u, pending
        u = plan.free_propagate_array(u, pending)
        pending = 0.0
        s = obs.sample(plan, Field(params, grid, u), gw, pgs, t, dt)
        series.append(s)
        if obs.mass_drift(s.conservation.mass, mass0) > MASS_DRIFT_LIMIT:
            return OUTCOME_INSTABILITY
        if step % (cfg.sample_stride * cfg.checkpoint_stride) == 0:
            checkpoint(t, f"{step:09d}")
        if s.grad_norm > cfg.gradnorm_ceiling or s.sup_norm > cfg.supnorm_ceiling:
            return OUTCOME_BLOWUP
        return None

    checkpoint(0.0, "000000000")

    # Adjacent linear half-steps are merged between samples:
    # free(a) o free(b) = free(a+b), so a "pending" linear tail is carried
    # and flushed before each sample. Exactly Strang, half the transforms.
    # The loop ends only right after a sample at t, or on a non-finite
    # step, with t and step those of the last good step.
    t = 0.0
    step = 0
    step_dt = cfg.dt0  # size of the last step taken
    pending = 0.0  # linear propagation owed to reach physical time t
    floor_time = None  # t at the first dt-floor crossing
    stop = None  # the outcome that ended the loop early
    # phase-rotation rate |x|^-b |u|^sigma driving the step control; after
    # the first step it is reused from the phase stage (one step stale,
    # which the c_cfl margin absorbs)
    rate = float(np.max(gw.w_b * _abs_pow(np.abs(u), sigma)))
    while stop is None and t < cfg.t_max:
        dt = min(cfg.dt0, cfg.c_cfl / rate if rate > 0 else cfg.dt0)
        if dt < cfg.dt_floor:
            dt = cfg.dt_floor
            if floor_time is None:
                floor_time = t
        # avoid a roundoff-sized final step: it would poison the sample
        # spacing used by the finite-difference diagnostics. The summed
        # steps fell short of t_max by roundoff, so this is the end of the
        # run: sample the last step if the stride skipped it.
        if cfg.t_max - t <= 1e-5 * dt:
            if series[-1].t != t:
                stop = observe(t, step_dt)
            break
        dt = min(dt, cfg.t_max - t)

        unew = plan.free_propagate_array(u, pending + 0.5 * dt)
        unew, rate = _phase_step(unew, dt, gw.w_b, sigma)
        pending = 0.5 * dt

        if not np.isfinite(rate):
            stop = OUTCOME_INSTABILITY
            break
        u = unew
        t += dt
        step += 1
        step_dt = dt

        if step % cfg.sample_stride == 0 or t >= cfg.t_max:
            stop = observe(t, dt)

    # only a ceiling stops with a blow-up; the floor just clamped the step
    outcome = stop or OUTCOME_REACHED_T_MAX
    if outcome != OUTCOME_INSTABILITY:
        checkpoint(t, "final")
    bracket = None
    if outcome == OUTCOME_BLOWUP:
        # from the floor crossing, else from the last sample under the ceiling
        bracket = (floor_time if floor_time is not None else series[-2].t, t)
    return RunReport(
        outcome=outcome,
        t_end=t,
        steps=step,
        series=series,
        energy0=series[0].conservation.energy,
        mass0=mass0,
        blowup_time_bracket=bracket,
        gradnorm_ceiling_hit=bracket is not None and series[-1].grad_norm > cfg.gradnorm_ceiling,
        supnorm_ceiling_hit=bracket is not None and series[-1].sup_norm > cfg.supnorm_ceiling,
        dt_floor_hit=floor_time is not None,
        boundary_decay=None if init.kind == "from_checkpoint" else boundary_decay(f.values),
        checkpoints=checkpoints,
    )
