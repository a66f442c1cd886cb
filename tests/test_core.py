"""Grid geometry, parameter invariants, initial data and checkpoint I/O."""

import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from inlslab.core import (
    CHECKPOINT_MAGIC,
    BoundaryDecayWarning,
    Field,
    Grid,
    InitialData,
    InvariantError,
    ProblemParams,
    read_checkpoint,
    realize,
    write_checkpoint,
)
from inlslab.observables import GridWeights, conservation, sample

# few, reproducible examples: these run in the default suite
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def version_1_bytes(f):
    """f in the version-1 checkpoint layout, whose header had no time (it was
    kept in a JSON file beside the checkpoint)."""
    header = struct.pack("<2q2d", 1, f.grid.points_per_axis, f.grid.half_width, f.params.b)
    return b"INLSLAB\x00CKPT\x00\x00\x01\x00" + header + f.values.astype("<c16").tobytes()


class TestProblemParams:
    def test_exponents_match_closed_forms(self):
        p = ProblemParams(2, 0.5)
        assert p.sigma == pytest.approx((4 - 2 * 0.5) / 2)
        assert p.p == pytest.approx(p.sigma + 2)
        assert p.energy_coefficient == pytest.approx(2 / (4 - 1 + 4))

    def test_mass_critical_scaling_exponent(self):
        # sigma = (4-2b)/N is exactly the power that makes the scaling
        # u -> lam^((2-b)/sigma) u(lam x) leave the L2 norm invariant
        for N in (1, 2, 3):
            for b in (0.3, 1.0, 1.7):
                sigma = ProblemParams(N, b).sigma
                assert 2.0 * (2.0 - b) / sigma - N == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("ndim,b", [(0, 0.5), (4, 0.5), (1, 0.0), (1, 2.0), (2, -1.0)])
    def test_rejects_bad_parameters(self, ndim, b):
        with pytest.raises(InvariantError):
            ProblemParams(ndim, b)


class TestGrid:
    def test_cell_centers_avoid_origin(self):
        g = Grid(1, 5.0, 64)
        x = g.axis_coords()
        assert np.min(np.abs(x)) == pytest.approx(g.h / 2)
        assert np.min(Grid(2, 5.0, 64).radii()) > 0

    @PROPERTY
    @given(
        ndim=st.integers(1, 3),
        box=st.integers(1, 12).flatmap(
            lambda half: st.tuples(st.just(2 * half), st.integers(0, 2 * half), st.integers(0, 2 * half))
        ),
    )
    @example(ndim=2, box=(8, 0, 0))  # the empty box
    @example(ndim=3, box=(8, 0, 8))  # the whole grid
    def test_box_coords_are_the_full_grid_sliced(self, ndim, box):
        M, lo, hi = box[0], *sorted(box[1:])
        grid = Grid(ndim, 3.0, M)
        on_box = (slice(lo, hi),) * ndim
        full = np.broadcast_arrays(*grid.coords())
        for xj_box, xj in zip(np.broadcast_arrays(*grid.coords(lo, hi)), full):
            assert xj_box.shape == xj[on_box].shape
            assert xj_box.tobytes() == xj[on_box].tobytes()
        r = grid.radii(lo, hi)
        assert r.shape == (hi - lo,) * ndim
        assert r.tobytes() == grid.radii()[on_box].tobytes()

    def test_coords_cover_box_uniformly(self):
        g = Grid(1, 3.0, 10)
        x = g.axis_coords()
        assert x[0] == pytest.approx(-3.0 + g.h / 2)
        assert x[-1] == pytest.approx(3.0 - g.h / 2)
        assert np.allclose(np.diff(x), g.h)

    def test_volume_element(self):
        g = Grid(3, 2.0, 8)
        assert g.cell_volume * g.size == pytest.approx((2 * 2.0) ** 3)

    @pytest.mark.parametrize("M", [0, -4, 7])
    def test_rejects_bad_point_counts(self, M):
        with pytest.raises(InvariantError):
            Grid(1, 1.0, M)

    @pytest.mark.parametrize(
        "ndim, half_width, message",
        [
            (0, 1.0, "grid dimension"),
            (4, 1.0, "grid dimension"),
            (1, 0.0, "half_width"),
            (2, -1.0, "half_width"),
            (1, float("nan"), "half_width must be positive and finite"),
            (1, float("inf"), "half_width must be positive and finite"),
        ],
    )
    def test_rejects_bad_dimension_or_half_width(self, ndim, half_width, message):
        with pytest.raises(InvariantError, match=message):
            Grid(ndim, half_width, 8)


class TestField:
    def test_shape_mismatch_rejected(self):
        p = ProblemParams(1, 0.5)
        with pytest.raises(InvariantError):
            Field(p, Grid(1, 1.0, 8), np.zeros(4, dtype=complex))

    def test_non_finite_samples_rejected(self):
        p = ProblemParams(1, 0.5)
        vals = np.zeros(8, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(InvariantError, match="NaN or Inf"):
            Field(p, Grid(1, 1.0, 8), vals)

    @pytest.mark.parametrize("params_ndim, grid_ndim", [(2, 1), (1, 3)])
    def test_dimension_mismatch_rejected(self, params_ndim, grid_ndim):
        # the N=2 exponents on a 1D grid would run without complaint
        grid = Grid(grid_ndim, 4.0, 8)
        with pytest.raises(InvariantError, match=f"on an N={grid_ndim} grid"):
            Field(ProblemParams(params_ndim, 1.0), grid, np.ones(grid.shape, dtype=complex))


class TestInitialData:
    def test_gaussian_l2_norm_against_quadrature(self):
        params = ProblemParams(1, 0.5)
        grid = Grid(1, 10.0, 512)
        init = InitialData(kind="gaussian", amplitude=0.7, width=0.9)
        f = realize(init, params, grid)
        exact = np.sqrt(quad(lambda x: 0.49 * np.exp(-x**2 / 0.81), -np.inf, np.inf)[0])
        mass = conservation(f.values, GridWeights(grid, params)).mass
        assert np.sqrt(mass) == pytest.approx(exact, rel=1e-12)

    def test_shifted_gaussian_peaks_at_center(self):
        params = ProblemParams(1, 0.5)
        grid = Grid(1, 10.0, 256)
        f = realize(
            InitialData(kind="shifted_gaussian", amplitude=1.0, width=0.5, center=(1.5,)),
            params,
            grid,
        )
        peak_x = grid.axis_coords()[int(np.argmax(np.abs(f.values)))]
        assert abs(peak_x - 1.5) <= grid.h

    def test_short_center_is_padded_with_zeros(self):
        params = ProblemParams(2, 1.0)
        grid = Grid(2, 8.0, 64)
        f = realize(InitialData(kind="shifted_gaussian", width=0.5, center=(1.5,)), params, grid)
        x = grid.axis_coords()
        i, j = np.unravel_index(np.argmax(np.abs(f.values)), grid.shape)
        assert abs(x[i] - 1.5) <= grid.h and abs(x[j]) <= grid.h

    @pytest.mark.parametrize("key", ["center", "center2"])
    def test_center_longer_than_the_dimension_is_rejected(self, key):
        init = InitialData(kind="sum_of_gaussians", amplitude2=0.3, **{key: (0.5, 7.0)})
        with pytest.raises(InvariantError, match=f"^{key} has 2 coordinates, more than N = 1"):
            realize(init, ProblemParams(1, 0.5), Grid(1, 10.0, 256))

    def test_sum_of_gaussians_superposes(self):
        params = ProblemParams(1, 0.5)
        grid = Grid(1, 10.0, 256)
        both = realize(
            InitialData(
                kind="sum_of_gaussians",
                amplitude=0.4,
                width=0.7,
                center=(-2.0,),
                amplitude2=0.3,
                width2=1.1,
                center2=(2.0,),
            ),
            params,
            grid,
        )
        one = realize(
            InitialData(kind="gaussian", amplitude=0.4, width=0.7, center=(-2.0,)), params, grid
        )
        two = realize(
            InitialData(kind="gaussian", amplitude=0.3, width=1.1, center=(2.0,)), params, grid
        )
        assert np.allclose(both.values, one.values + two.values)

    def test_warns_when_box_too_small(self):
        params = ProblemParams(1, 0.5)
        grid = Grid(1, 2.0, 64)
        with pytest.warns(BoundaryDecayWarning):
            realize(InitialData(kind="gaussian", amplitude=1.0, width=1.0), params, grid)

    def test_adequate_box_is_silent(self):
        params = ProblemParams(1, 0.5)
        grid = Grid(1, 12.0, 64)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            realize(InitialData(kind="gaussian", amplitude=1.0, width=1.0), params, grid)

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvariantError):
            InitialData(kind="ring")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"amplitude": float("nan")}, "amplitude must be finite"),
            ({"amplitude": float("inf")}, "amplitude must be finite"),
            ({"width": 0.0}, "widths must be positive"),
            ({"width2": -1.0}, "widths must be positive"),
            ({"width": float("nan")}, "widths must be positive and finite"),
            ({"width2": float("inf")}, "widths must be positive and finite"),
            ({"amplitude2": float("nan")}, "amplitude2 must be finite"),
            ({"center": (0.0, float("nan"))}, "center must be finite"),
            ({"center2": (float("-inf"),)}, "center2 must be finite"),
            ({"kind": "from_checkpoint"}, "requires checkpoint_path"),
        ],
        ids=["nan-amplitude", "inf-amplitude", "zero-width", "negative-width2", "nan-width",
             "inf-width2", "nan-amplitude2", "nan-center", "inf-center2",
             "checkpoint-without-path"],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(InvariantError, match=message):
            InitialData(**kwargs)


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        params = ProblemParams(2, 1.25)
        grid = Grid(2, 3.0, 16)
        vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        f = Field(params, grid, vals)
        path = tmp_path / "state.bin"
        write_checkpoint(path, f, t=0.375)
        g, t = read_checkpoint(path)
        assert np.array_equal(g.values, f.values)
        assert g.params == params
        assert g.grid == grid
        assert t == 0.375
        # the checkpoint is one file
        assert os.listdir(tmp_path) == ["state.bin"]

    def test_small_checkpoint_bytes_are_pinned(self, tmp_path):
        # magic, N = 1, M = 2, L = 1, b = 0.5, t = 0.125, then (re, im)
        # little-endian float64 pairs, a negative zero among them
        f = Field(ProblemParams(1, 0.5), Grid(1, 1.0, 2), np.array([1.5 - 2.0j, complex(-0.0, 0.25)]))
        path = tmp_path / "small.bin"
        write_checkpoint(path, f, t=0.125)
        assert path.read_bytes().hex() == (
            "494e4c534c414200434b505400000200"  # INLSLAB\0CKPT\0\0, version 2
            "0100000000000000" "0200000000000000"
            "000000000000f03f" "000000000000e03f" "000000000000c03f"
            "000000000000f83f" "00000000000000c0" "0000000000000080" "000000000000d03f"
        )
        g, t = read_checkpoint(path)
        assert g.values.tobytes() == f.values.tobytes() and t == 0.125

    def test_write_and_read_make_no_copy_of_the_field(self, tmp_path, traced_peak):
        # the write hands the field's own buffer to the file and the read
        # fills the returned array straight from it; each once made two
        # field-sized copies
        grid = Grid(1, 20.0, 65536)
        f = Field(ProblemParams(1, 0.5), grid, np.exp(-grid.axis_coords() ** 2) * (1.0 + 0.5j))
        path = tmp_path / "big.bin"
        with traced_peak() as write:
            write_checkpoint(path, f, t=0.5)
        with traced_peak() as read:
            g, _t = read_checkpoint(path)
        assert np.array_equal(g.values, f.values)
        nbytes = f.values.nbytes
        assert write.peak < 0.1 * nbytes
        # the field and Field's finiteness mask, one byte a float (1.125)
        assert read.peak < 1.25 * nbytes

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(InvariantError):
            read_checkpoint(str(path))

    def test_version_1_file_rejected(self, tmp_path):
        f = Field(ProblemParams(1, 0.5), Grid(1, 1.0, 16), np.ones(16, dtype=complex))
        path = tmp_path / "v1.bin"
        path.write_bytes(version_1_bytes(f))
        with pytest.raises(InvariantError, match="magic"):
            read_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        params = ProblemParams(1, 0.5)
        grid = Grid(1, 1.0, 16)
        f = Field(params, grid, np.ones(16, dtype=complex))
        path = tmp_path / "cut.bin"
        write_checkpoint(path, f)
        data = path.read_bytes()
        path.write_bytes(data[:-24])
        with pytest.raises(InvariantError):
            read_checkpoint(str(path))

    @PROPERTY
    @given(
        shape=st.sampled_from([(1, 8), (2, 4), (3, 2)]),
        b=st.floats(0.01, 1.99),
        parts=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=128, max_size=128),
    )
    @example(shape=(1, 8), b=0.5, parts=[-0.0, 5e-324, 0.0, -1.5] * 32)
    def test_round_trip_property(self, tmp_path_factory, shape, b, parts):
        # any finite values, signed zeros and subnormals included, come back
        # bit for bit
        ndim, M = shape
        vals = np.array(parts[: 2 * M**ndim]).view(complex).reshape((M,) * ndim)
        f = Field(ProblemParams(ndim, b), Grid(ndim, 2.5, M), vals)
        path = tmp_path_factory.mktemp("ckpt") / "state.bin"
        write_checkpoint(path, f)
        g, _t = read_checkpoint(path)
        assert g.values.tobytes() == f.values.tobytes()
        assert (g.params, g.grid) == (f.params, f.grid)

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        grid, params = Grid(1, 1.0, 8), ProblemParams(1, 0.5)
        old = Field(params, grid, np.ones(8, dtype=complex))
        write_checkpoint(tmp_path / "a.bin", old)

        def interrupted(src, dst):
            raise OSError("interrupted before the rename")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError):
            write_checkpoint(tmp_path / "a.bin", Field(params, grid, 2.0 * old.values))
        monkeypatch.undo()
        g, _t = read_checkpoint(tmp_path / "a.bin")
        assert np.array_equal(g.values, old.values)

    def test_failed_rename_keeps_the_old_field_with_its_time(self, tmp_path, monkeypatch):
        # field and time are renamed into place together or not at all
        grid, params = Grid(1, 1.0, 8), ProblemParams(1, 0.5)
        old = Field(params, grid, np.ones(8, dtype=complex))
        path = tmp_path / "a.bin"
        write_checkpoint(path, old, t=0.25)
        rename = os.replace

        def bin_rename_fails(src, dst):
            if str(dst).endswith(".bin"):
                raise OSError("interrupted before the rename")
            rename(src, dst)

        monkeypatch.setattr(os, "replace", bin_rename_fails)
        with pytest.raises(OSError):
            write_checkpoint(path, Field(params, grid, 2.0 * old.values), t=0.5)
        monkeypatch.undo()
        g, t = read_checkpoint(path)
        assert np.array_equal(g.values, old.values)
        assert t == 0.25

    @pytest.mark.parametrize(
        "cut",
        [
            lambda data: data[:20],  # inside the dimension field
            lambda data: data[:30],  # inside the point counts
            lambda data: data[:-3],  # payload three bytes short
            lambda data: data + b"junk",  # trailing bytes
        ],
        ids=["header-20-bytes", "header-30-bytes", "payload-short-3", "trailing-junk"],
    )
    def test_any_size_mismatch_rejected(self, tmp_path, cut):
        f = Field(ProblemParams(1, 0.5), Grid(1, 1.0, 16), np.ones(16, dtype=complex))
        path = tmp_path / "bad.bin"
        write_checkpoint(path, f)
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(InvariantError):
            read_checkpoint(str(path))

    def test_disagreeing_point_counts_rejected(self, tmp_path):
        # a 2D header with 8 and 2 points per axis, where a grid has one count
        header = struct.pack("<3q3d", 2, 8, 2, 1.0, 0.5, 0.0)
        path = tmp_path / "skew.bin"
        path.write_bytes(CHECKPOINT_MAGIC + header + np.ones(16, dtype="<c16").tobytes())
        with pytest.raises(InvariantError, match="must be positive and agree"):
            read_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        f = Field(ProblemParams(1, 0.5), Grid(1, 1.0, 16), np.ones(16, dtype=complex))
        path = tmp_path / "nan.bin"
        write_checkpoint(path, f)
        data = bytearray(path.read_bytes())
        data[-8:] = struct.pack("<d", bad)  # the imaginary part of the last sample
        path.write_bytes(bytes(data))
        with pytest.raises(InvariantError, match=r"nan\.bin: field contains NaN or Inf"):
            read_checkpoint(path)

    def test_from_checkpoint_initial_data(self, tmp_path):
        params = ProblemParams(1, 0.5)
        grid = Grid(1, 8.0, 32)
        f = realize(InitialData(kind="gaussian", amplitude=0.5, width=1.0), params, grid)
        path = tmp_path / "seed.bin"
        write_checkpoint(path, f, t=0.0)
        g = realize(
            InitialData(kind="from_checkpoint", checkpoint_path=str(path)), params, grid
        )
        assert np.array_equal(g.values, f.values)

    def test_from_checkpoint_rejects_mismatched_grid(self, tmp_path):
        params = ProblemParams(1, 0.5)
        grid = Grid(1, 8.0, 32)
        f = realize(InitialData(kind="gaussian", amplitude=0.5, width=1.0), params, grid)
        path = tmp_path / "seed.bin"
        write_checkpoint(path, f)
        with pytest.raises(InvariantError):
            realize(
                InitialData(kind="from_checkpoint", checkpoint_path=str(path)),
                params,
                Grid(1, 8.0, 64),
            )


def test_sup_norm_matches_numpy():
    params = ProblemParams(1, 0.5)
    grid = Grid(1, 1.0, 8)
    vals = np.arange(8) * (0.3 + 0.4j)
    s = sample(vals, GridWeights(grid, params), {}, 0.0, 1e-3)
    assert s.sup_norm == pytest.approx(np.max(np.abs(vals)))
