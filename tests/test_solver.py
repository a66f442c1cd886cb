"""Splitting integrator: exact subflows, order of accuracy, detectors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inlslab import spectral
from inlslab.core import (
    Field,
    Grid,
    InitialData,
    InvariantError,
    ProblemParams,
    read_checkpoint,
    realize,
)
from inlslab.cutoff import build_cutoff, default_k
from inlslab.observables import GridWeights
from inlslab.solver import (
    OUTCOME_BLOWUP,
    OUTCOME_INSTABILITY,
    OUTCOME_REACHED_T_MAX,
    RunReport,
    SolverConfig,
    _phase_step,
    run,
)
from inlslab.spectral import SpectralPlan, abs_pow

PARAMS = ProblemParams(1, 0.5)
GRID = Grid(1, 10.0, 256)
PLAN = SpectralPlan(GRID)
PROFILES = [build_cutoff(default_k(PARAMS), R, PARAMS) for R in (2.0, 4.0)]

# few, reproducible examples: these run in the default suite
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def gaussian_field(amplitude=0.5, width=1.0, grid=GRID, params=PARAMS):
    return realize(InitialData(kind="gaussian", amplitude=amplitude, width=width), params, grid)


def strang_step(plan: SpectralPlan, f: Field, dt: float, potential: np.ndarray) -> Field:
    """free(dt/2) o phase(dt) o free(dt/2), potential as in _phase_step.
    run merges adjacent half-steps instead; this is its reference."""
    if dt <= 0:
        raise InvariantError("dt must be positive")
    u = plan.free_propagate_array(f.values, 0.5 * dt)
    u, _ = _phase_step(u, dt, potential, f.params.sigma)
    u = plan.free_propagate_array(u, 0.5 * dt)
    return Field(f.params, f.grid, u)


class TestSolverConfig:
    def test_valid_defaults(self):
        SolverConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt_floor": 1e-3, "dt0": 1e-4},
            {"dt_floor": 0.0},
            {"supnorm_ceiling": 0.0},
            {"t_max": 0.0},
            {"t_max": -1.0},
            {"gradnorm_ceiling": 0.0},
            {"sample_stride": 0},
            {"checkpoint_stride": 0},
            {"c_cfl": 0.0},
            {"c_cfl": -1.0},
            {"c_cfl": float("inf")},
            {"t_max": float("nan")},
            {"gradnorm_ceiling": float("nan")},
            {"supnorm_ceiling": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvariantError):
            SolverConfig(**kwargs)


class TestNonlinearPhase:
    W_B = GridWeights(GRID, PARAMS).w_b

    def test_dt_zero_is_identity(self):
        u = gaussian_field().values
        out, _ = _phase_step(u, 0.0, self.W_B, PARAMS.sigma)
        assert np.array_equal(out, u)

    def test_modulus_preserved_pointwise(self):
        u = gaussian_field(amplitude=1.3).values
        out, _ = _phase_step(u, 0.37, self.W_B, PARAMS.sigma)
        assert np.max(np.abs(np.abs(out) - np.abs(u))) < 1e-14

    def test_single_point_phase_increment(self):
        # N=1, b=1: |x|=2, |u|=3, dt=0.1 -> phase 0.1 * (1/2) * 9 = 0.45.
        # The dynamics take b < 1 for N = 1, so |x|^-b is built directly
        params = ProblemParams(1, 1.0)
        grid = Grid(1, 8.0, 64)
        u = np.full(64, 3.0, dtype=complex)
        w_b = grid.radii() ** -params.b
        out, rate = _phase_step(u, 0.1, w_b, params.sigma)
        idx = int(np.argmin(np.abs(grid.axis_coords() - 2.0)))
        r = abs(grid.axis_coords()[idx])
        phase = np.angle(out[idx] / u[idx])
        assert phase == pytest.approx(0.1 * (1.0 / r) * 9.0, rel=1e-12)
        assert rate == np.max(w_b) * 9.0

    @pytest.mark.parametrize("M", [2048, 65536])
    def test_bits_of_the_cos_plus_i_sin_product(self, M):
        # numpy elides the phasor temporary only from 256 KiB up, which
        # swaps the product's operands; the two sizes cover both orders
        rng = np.random.default_rng(M)
        u = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        w_b = GridWeights(Grid(1, 20.0, M), PARAMS).w_b
        theta = 0.01 * (w_b * abs_pow(np.abs(u), PARAMS.sigma))
        ref = u * (np.cos(theta) + 1j * np.sin(theta))
        out, _ = _phase_step(u, 0.01, w_b, PARAMS.sigma)
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.0, 3.0),
        dt=st.floats(0.0, 1.0),
        b=st.sampled_from([0.3, 0.5, 1.0, 1.5]),
    )
    def test_modulus_preserved_property(self, seed, scale, dt, b):
        # the phase arithmetic alone, so b >= 1 too, with |x|^-b built directly
        params = ProblemParams(1, b)
        w_b = GRID.radii() ** -b
        rng = np.random.default_rng(seed)
        u = scale * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        out, rate = _phase_step(u, dt, w_b, params.sigma)
        assert np.all(np.abs(np.abs(out) - np.abs(u)) <= 1e-15 * (1.0 + np.abs(u)))
        assert rate == pytest.approx(np.max(w_b * np.abs(u) ** params.sigma), rel=1e-14)


class TestStrangStep:
    def test_zero_potential_reduces_to_free_flow(self):
        f = gaussian_field()
        zero_pot = np.zeros(GRID.shape)
        stepped = strang_step(PLAN, f, 0.05, potential=zero_pot)
        free = PLAN.free_propagate(f, 0.05)
        assert np.max(np.abs(stepped.values - free.values)) < 1e-14

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(InvariantError):
            strang_step(PLAN, gaussian_field(), 0.0, potential=GridWeights(GRID, PARAMS).w_b)

    def test_mass_drift_over_many_steps(self):
        f = gaussian_field(amplitude=0.6)
        mass0 = GRID.cell_volume * np.sum(np.abs(f.values) ** 2)
        pot = GridWeights(GRID, PARAMS).w_b
        for _ in range(10**4):
            f = strang_step(PLAN, f, 1e-3, potential=pot)
        mass = GRID.cell_volume * np.sum(np.abs(f.values) ** 2)
        assert abs(mass / mass0 - 1.0) < 1e-12

    def test_energy_drift_is_second_order(self):
        from inlslab.observables import conservation

        gw = GridWeights(GRID, PARAMS)

        def drift(dt, steps):
            f = gaussian_field(amplitude=0.6)
            e0 = conservation(f.values, gw).energy
            for _ in range(steps):
                f = strang_step(PLAN, f, dt, potential=gw.w_b)
            return abs(conservation(f.values, gw).energy - e0)

        d1 = drift(2e-3, 250)
        d2 = drift(1e-3, 500)
        assert 3.5 < d1 / d2 < 4.5

    def test_time_reversal_is_exact(self):
        # conjugation inverts both exact subflows, so forward step,
        # conjugate, forward step, conjugate returns the field to roundoff
        # (stronger than the O(dt^3) local bound the order would give)
        pot = GridWeights(GRID, PARAMS).w_b

        def defect(dt):
            f = gaussian_field(amplitude=0.6)
            g = strang_step(PLAN, f, dt, potential=pot)
            g = Field(PARAMS, GRID, np.conj(g.values))
            g = strang_step(PLAN, g, dt, potential=pot)
            return np.max(np.abs(np.conj(g.values) - f.values))

        for dt in (2e-2, 1e-2):
            assert defect(dt) < 1e-13

    @PROPERTY
    @given(
        amplitude=st.floats(0.05, 1.0),
        width=st.floats(0.5, 2.0),
        shift=st.floats(-2.0, 2.0),
        dt=st.floats(1e-4, 2e-2),
    )
    def test_time_reversal_property(self, amplitude, width, shift, dt):
        pot = GridWeights(GRID, PARAMS).w_b
        x = GRID.axis_coords()
        u = amplitude * np.exp(-((x - shift) ** 2) / (2.0 * width**2)) * np.exp(1j * shift * x)
        f = Field(PARAMS, GRID, u)
        g = strang_step(PLAN, f, dt, potential=pot)
        g = strang_step(PLAN, Field(PARAMS, GRID, np.conj(g.values)), dt, potential=pot)
        assert np.max(np.abs(np.conj(g.values) - u)) < 1e-13

    def test_global_self_convergence_order_two(self):
        pot = GridWeights(GRID, PARAMS).w_b

        def advance(dt, steps):
            f = gaussian_field(amplitude=0.6)
            for _ in range(steps):
                f = strang_step(PLAN, f, dt, potential=pot)
            return f.values

        ref = advance(2.5e-4, 2000)
        e1 = np.max(np.abs(advance(1e-3, 500) - ref))
        e2 = np.max(np.abs(advance(5e-4, 1000) - ref))
        # against a dt/4 reference the observed ratio for order 2 is
        # (1 - 1/16)/(1/4 - 1/16) = 5 at leading order; accept [3.5, 6.5]
        assert 3.5 < e1 / e2 < 6.5


class TestRun:
    def cfg(self, **kw):
        base = dict(dt0=1e-3, dt_floor=1e-7, t_max=0.05, sample_stride=5)
        base.update(kw)
        return SolverConfig(**base)

    def test_small_amplitude_reaches_t_max(self):
        init = InitialData(kind="gaussian", amplitude=1e-3, width=1.0)
        rep = run(init, PARAMS, GRID, self.cfg(), PROFILES)
        assert rep.outcome == OUTCOME_REACHED_T_MAX
        assert rep.t_end == pytest.approx(0.05, rel=1e-9)
        e = [s.conservation.energy for s in rep.series]
        assert abs(e[-1] - e[0]) < 1e-8

    def test_series_timestamps_strictly_increasing(self):
        init = InitialData(kind="gaussian", amplitude=0.4, width=1.0)
        rep = run(init, PARAMS, GRID, self.cfg(), PROFILES)
        t = np.array([s.t for s in rep.series])
        assert np.all(np.diff(t) > 0)

    def test_gradnorm_ceiling_stops_within_one_stride(self):
        init = InitialData(kind="gaussian", amplitude=0.4, width=1.0)
        rep = run(
            init, PARAMS, GRID, self.cfg(gradnorm_ceiling=1e-12), PROFILES
        )
        assert rep.outcome == OUTCOME_BLOWUP
        assert rep.gradnorm_ceiling_hit
        assert rep.steps <= 5
        assert rep.blowup_time_bracket is not None

    def test_dt_floor_hit_is_latched_and_reported(self):
        # CFL-binding data with the floor just under dt0 forces a clamp; the
        # floor only bounds the step, so with no ceiling hit the run
        # reaches t_max and has no blow-up bracket
        init = InitialData(kind="gaussian", amplitude=4.0, width=0.5)
        rep = run(
            init,
            PARAMS,
            GRID,
            self.cfg(dt0=1e-3, dt_floor=9.9e-4, t_max=0.01, sample_stride=2),
            PROFILES,
        )
        assert rep.dt_floor_hit
        assert rep.outcome == OUTCOME_REACHED_T_MAX
        assert rep.blowup_time_bracket is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_marks_instability(self):
        # amplitude large enough that |u|^sigma overflows on the first step
        init = InitialData(kind="gaussian", amplitude=1e140, width=1.0)
        rep = run(
            init,
            PARAMS,
            GRID,
            self.cfg(gradnorm_ceiling=1e300, supnorm_ceiling=1e300),
            PROFILES,
        )
        assert rep.outcome == OUTCOME_INSTABILITY

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_mid_run_marks_instability(self, bad, monkeypatch):
        # each step propagates once (no samples here); corrupt one point of
        # the field the fourth step hands to the phase stage
        propagate = SpectralPlan.free_propagate_array
        calls = []

        def corrupting(plan, values, dt):
            out = propagate(plan, values, dt)
            calls.append(dt)
            if len(calls) == 4:
                out = out.copy()
                out[GRID.points_per_axis // 3] = bad
            return out

        monkeypatch.setattr(SpectralPlan, "free_propagate_array", corrupting)
        init = InitialData(kind="gaussian", amplitude=0.4, width=1.0)
        rep = run(init, PARAMS, GRID, self.cfg(sample_stride=1000), PROFILES)
        assert rep.outcome == OUTCOME_INSTABILITY
        assert rep.steps == 3
        assert rep.t_end == pytest.approx(3 * 1e-3, rel=1e-12)
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "amplitude, overrides, outcome, ceiling_hit, floor_hit, steps",
        [
            (1e-3, {}, OUTCOME_REACHED_T_MAX, False, False, 50),
            (2.0, {"dt_floor": 9e-4}, OUTCOME_REACHED_T_MAX, False, True, 53),
            (2.0, {"gradnorm_ceiling": 4.5}, OUTCOME_BLOWUP, True, False, 20),
            # the floor is crossed near t = 0.028, the ceiling first at t = 0.034
            (2.0, {"dt_floor": 9e-4, "gradnorm_ceiling": 9.0}, OUTCOME_BLOWUP, True, True, 35),
            (0.4, {}, OUTCOME_INSTABILITY, False, False, 3),
        ],
        ids=["reached_t_max", "floor_then_t_max", "ceiling_blowup", "floor_then_ceiling", "non_finite"],
    )
    def test_end_state_of_each_stop_reason(
        self, amplitude, overrides, outcome, ceiling_hit, floor_hit, steps, tmp_path, monkeypatch
    ):
        if outcome == OUTCOME_INSTABILITY:
            # a NaN in the field the fourth step hands to the phase stage,
            # before the first sample at step 5
            propagate = SpectralPlan.free_propagate_array
            calls = []

            def corrupting(plan, values, dt):
                calls.append(dt)
                out = propagate(plan, values, dt)
                return np.where(np.arange(out.size) == 7, np.nan, out) if len(calls) == 4 else out

            monkeypatch.setattr(SpectralPlan, "free_propagate_array", corrupting)
        init = InitialData(kind="gaussian", amplitude=amplitude, width=0.5)
        rep = run(init, PARAMS, GRID, self.cfg(**overrides), PROFILES, checkpoint_dir=str(tmp_path))
        assert (rep.outcome, rep.gradnorm_ceiling_hit, rep.dt_floor_hit, rep.steps) == (
            outcome, ceiling_hit, floor_hit, steps
        )
        final = tmp_path / "ckpt_final.bin"
        if outcome == OUTCOME_INSTABILITY:
            # the last good step, past the last sample; no final checkpoint
            assert rep.t_end == pytest.approx(3e-3, rel=1e-12) and rep.series[-1].t == 0.0
            assert rep.blowup_time_bracket is None and not final.exists()
            return
        assert rep.t_end == rep.series[-1].t
        assert read_checkpoint(final)[1] == rep.t_end
        if outcome == OUTCOME_REACHED_T_MAX:
            # a floor crossing alone opens no bracket
            assert rep.t_end == pytest.approx(0.05, rel=1e-12)
            assert rep.blowup_time_bracket is None
        elif floor_hit:
            # from the floor crossing, between samples and before the last
            # sample under the ceiling, to the sample over it
            lo, hi = rep.blowup_time_bracket
            assert 0.0 < lo < rep.series[-2].t < hi == rep.t_end
            assert lo not in [s.t for s in rep.series]
            assert rep.series[-2].grad_norm <= 9.0 < rep.series[-1].grad_norm
        else:
            # from the last sample under the ceiling to the one over it
            assert rep.blowup_time_bracket == (rep.series[-2].t, rep.t_end)
            assert rep.series[-2].grad_norm <= 4.5 < rep.series[-1].grad_norm
            assert rep.t_end == pytest.approx(0.02, rel=1e-12)

    def test_checkpoints_written(self, tmp_path):
        init = InitialData(kind="gaussian", amplitude=0.4, width=1.0)
        rep = run(
            init,
            PARAMS,
            GRID,
            self.cfg(checkpoint_stride=2),
            PROFILES,
            checkpoint_dir=str(tmp_path),
        )
        assert len(rep.checkpoints) >= 2
        f, t = read_checkpoint(rep.checkpoints[0])
        assert t == 0.0

    def test_matches_reference_strang_steps(self, tmp_path):
        # the production loop merges adjacent half-steps; at a fixed dt its
        # checkpoint after k steps must be k reference Strang steps
        k, dt0 = 5, 1e-3
        init = InitialData(kind="gaussian", amplitude=0.5, width=1.0, center=(0.7,))
        rep = run(
            init,
            PARAMS,
            GRID,
            self.cfg(dt0=dt0, t_max=1.5 * k * dt0, sample_stride=k, checkpoint_stride=1),
            PROFILES,
            checkpoint_dir=str(tmp_path),
        )
        assert rep.series[1].dt == dt0  # the CFL bound never bound
        stepped, _ = read_checkpoint(tmp_path / f"ckpt_{k:09d}.bin")
        f = realize(init, PARAMS, GRID)
        pot = GridWeights(GRID, PARAMS).w_b
        for _ in range(k):
            f = strang_step(PLAN, f, dt0, potential=pot)
        assert np.max(np.abs(stepped.values - f.values)) <= 1e-13

    def test_final_checkpoint_matches_reference_strang_steps(self, tmp_path):
        # twenty steps of dt0 = 2^-10, so the times sum exactly; a sample
        # every third step flushes the merged half-steps six times on the way
        steps, dt0 = 20, 2.0**-10
        init = InitialData(kind="gaussian", amplitude=0.5, width=1.0, center=(0.7,))
        cfg = self.cfg(dt0=dt0, t_max=steps * dt0, c_cfl=1e3, sample_stride=3)
        rep = run(init, PARAMS, GRID, cfg, PROFILES, checkpoint_dir=str(tmp_path))
        assert rep.steps == steps and rep.t_end == steps * dt0
        assert all(s.dt == dt0 for s in rep.series)  # the CFL bound never bound
        stepped, _ = read_checkpoint(tmp_path / "ckpt_final.bin")
        f = realize(init, PARAMS, GRID)
        pot = GridWeights(GRID, PARAMS).w_b
        for _ in range(steps):
            f = strang_step(PLAN, f, dt0, potential=pot)
        assert np.max(np.abs(stepped.values - f.values)) <= 1e-13

    def test_dimension_mismatch_is_rejected(self):
        # N=2 exponents on a 1D grid once ran to t_max
        init = InitialData(kind="gaussian", amplitude=0.4, width=1.0)
        with pytest.raises(InvariantError, match="on an N=1 grid"):
            run(init, ProblemParams(2, 1.0), GRID, self.cfg(), PROFILES)

    @pytest.mark.parametrize("other", [ProblemParams(2, 0.5), ProblemParams(1, 0.25)])
    def test_profile_for_another_problem_is_rejected(self, tmp_path, other):
        # its Phi_1, Phi_2 and bilaplacian would not close this run's z_R''
        init = InitialData(kind="gaussian", amplitude=0.4, width=1.0)
        ckpt_dir = tmp_path / "checkpoints"
        profile = build_cutoff(9, 2.0, other)
        with pytest.raises(InvariantError, match=f"built for N={other.ndim}, b={other.b}, not N=1, b=0.5"):
            run(init, PARAMS, GRID, self.cfg(), [PROFILES[0], profile], checkpoint_dir=str(ckpt_dir))
        assert not ckpt_dir.exists()

    def test_roundoff_short_end_is_sampled(self, tmp_path):
        # ten steps of 0.1 sum to 0.9999999999999999, so the run ends on the
        # guard against a roundoff-sized step rather than at t_max; step 10
        # is off the stride of 3 and must still be sampled, at the time of
        # the final checkpoint
        init = InitialData(kind="gaussian", amplitude=0.1, width=1.0)
        cfg = self.cfg(dt0=0.1, dt_floor=1e-3, t_max=1.0, sample_stride=3, checkpoint_stride=1)
        rep = run(init, PARAMS, GRID, cfg, PROFILES, checkpoint_dir=str(tmp_path))
        assert rep.steps == 10 and rep.t_end < 1.0
        # t = 0 and steps 3, 6, 9 and 10
        assert len(rep.series) == 5
        assert rep.series[-1].t == rep.t_end and rep.series[-1].dt == 0.1
        _, t = read_checkpoint(tmp_path / "ckpt_final.bin")
        assert t == rep.t_end

    def test_fields_are_built_for_checkpoints_alone(self, tmp_path, monkeypatch):
        # a sample reads the run's array; a validated Field is built by
        # realize and for each checkpoint written, never for a sample
        built = []
        post_init = Field.__post_init__
        monkeypatch.setattr(Field, "__post_init__", lambda f: built.append(1) or post_init(f))
        init = InitialData(kind="gaussian", amplitude=0.4, width=1.0)
        rep = run(init, PARAMS, GRID, self.cfg(checkpoint_stride=2), PROFILES,
                  checkpoint_dir=str(tmp_path))
        assert len(rep.series) > len(rep.checkpoints) >= 2
        assert len(built) == 1 + len(rep.checkpoints)
        built.clear()
        rep = run(init, PARAMS, GRID, self.cfg(), PROFILES)
        assert len(rep.series) > 1 and len(built) == 1

    def test_determinism(self):
        init = InitialData(kind="gaussian", amplitude=0.4, width=1.0)
        r1 = run(init, PARAMS, GRID, self.cfg(), PROFILES)
        r2 = run(init, PARAMS, GRID, self.cfg(), PROFILES)
        z1 = [s.virials[2.0].zR for s in r1.series]
        z2 = [s.virials[2.0].zR for s in r2.series]
        assert z1 == z2


class TestRunMemory:
    @staticmethod
    def traced_fields(traced_peak, monkeypatch, params, grid, radii):
        """(report, multipliers built, traced peak in fields of 16 B a point)
        of a run whose every step is rate-limited to a new size, so that
        every step and every flush builds a multiplier."""
        profiles = [build_cutoff(default_k(params), R, params) for R in radii]
        init = InitialData(kind="gaussian", amplitude=3.0, width=1.0)
        cfg = SolverConfig(dt0=1e-3, c_cfl=1e-3, t_max=5e-5)
        builds = []
        build = spectral.unit_phasor
        monkeypatch.setattr(spectral, "unit_phasor", lambda theta: builds.append(1) or build(theta))
        with traced_peak() as traced:
            rep = run(init, params, grid, cfg, profiles)
        return rep, len(builds), traced.peak / (16 * grid.size)

    def test_rate_limited_run_keeps_few_fields(self, traced_peak, monkeypatch):
        # Between steps a run holds the field, |x|^-b, the plan's two
        # multipliers and each radius's weights on its box; a step adds the
        # propagated field, the rate and the phasor, and a sample its
        # densities, one derivative component and scratch. The peak is 8.3
        # fields here. With the weights' arrays, phi_R over the whole grid,
        # |xi|^2 kept by the plan, every gradient component alive at once
        # and the pre-step field kept through the step, it was 13.6; a plan
        # that kept eight multipliers peaked at about 20.
        rep, builds, fields = self.traced_fields(
            traced_peak, monkeypatch, PARAMS, Grid(1, 20.0, 16384), (0.5, 1.0, 2.0)
        )
        assert rep.outcome == OUTCOME_REACHED_T_MAX
        assert rep.steps == 40 and builds == 44  # 40 steps and 4 flushes
        assert fields < 10

    def test_rate_limited_2d_run_keeps_few_fields(self, traced_peak, monkeypatch):
        # the 2D weights fill more of the grid (R = 2 on L = 8 is a quarter
        # of it); the peak is 8.2 fields, against 13.7 with the weights over
        # the whole grid and the full gradient
        rep, builds, fields = self.traced_fields(
            traced_peak, monkeypatch, ProblemParams(2, 1.0), Grid(2, 8.0, 128), (0.5, 1.0, 2.0)
        )
        assert rep.outcome == OUTCOME_REACHED_T_MAX
        assert rep.steps == 2 and builds == 3  # 2 steps and 1 flush
        assert fields < 10


class TestRunReport:
    def make_report(self, t, z):
        from inlslab.observables import ConservationReport, VirialReport

        series = []
        for ti, zi in zip(t, z):
            v = VirialReport(
                zR=zi, zR_prime=0.0, zR_second_formula=0.0, K1=0.0, K2=0.0, K3=0.0,
                alpha_check=float("nan"),
            )
            series.append(
                type("S", (), {"t": ti, "virials": {1.0: v}, "grad_norm": 1.0})()
            )
        return RunReport(
            outcome=OUTCOME_REACHED_T_MAX, t_end=t[-1], steps=len(t), series=series,
            E0=0.0, M0=1.0,
        )

    def test_second_fd_recovers_parabola(self):
        t = np.linspace(0.0, 1.0, 21)
        rep = self.make_report(t, 3.0 * t**2 - t + 2.0)
        fd = rep.zR_second_fd(1.0)
        assert np.isnan(fd[0]) and np.isnan(fd[-1])
        assert np.allclose(fd[1:-1], 6.0, atol=1e-9)

    def test_second_fd_nonuniform_spacing(self):
        t = np.array([0.0, 0.1, 0.25, 0.3, 0.55, 0.6])
        rep = self.make_report(t, t**2)
        fd = rep.zR_second_fd(1.0)
        assert np.allclose(fd[1:-1], 2.0, atol=1e-9)

    def test_concavity_fraction_and_cut(self):
        t = np.linspace(0.0, 1.0, 11)
        z = np.where(t <= 0.6, -(t**2), (t - 0.6) ** 2 - 0.36)
        rep = self.make_report(t, z)
        full = rep.concavity_fraction(1.0)
        early = rep.concavity_fraction(1.0, t_cut=0.5)
        assert early == 1.0
        assert full < 1.0
