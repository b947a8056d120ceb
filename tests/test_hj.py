"""Grid solver checks: interpolation, fixed-point properties, the brute-force
oracle crosscheck, Lipschitz scans, and field serialization."""

import tracemalloc

import numpy as np
import pytest

from cbfforge import hj
from cbfforge.dubins import equispaced_actions, signed_distance_margin
from cbfforge.hj import (
    GridField,
    GridSpec,
    LipschitzReport,
    empirical_lipschitz,
    interpolate,
    load_field,
    margin_field,
    q_from_value,
    save_field,
    value_iteration,
    verify_margin_value_bound,
)
from oracles import (
    brute_force_avoid_oracle,
    decimal_load_field,
    decimal_save_field,
    gather_value_iteration,
    loop_interp_coeffs,
    recursive_avoid_value,
)


def small_spec():
    return GridSpec(nx=21, ny=21, ntheta=12)


def constant_field(spec, c, kind="margin"):
    return GridField(spec, np.full((spec.nx, spec.ny, spec.ntheta), float(c)), kind=kind)


class TestGridSpec:
    def test_node_layout(self):
        spec = GridSpec(nx=4, ny=3, ntheta=4)
        np.testing.assert_allclose(spec.xs, [-1.5, -0.5, 0.5, 1.5])
        np.testing.assert_allclose(spec.thetas, [-np.pi, -np.pi / 2, 0.0, np.pi / 2])
        nodes = spec.nodes()
        assert nodes.shape == (48, 3)
        # x-major: theta varies fastest, then y, then x.
        np.testing.assert_allclose(nodes[0], [-1.5, -1.5, -np.pi])
        np.testing.assert_allclose(nodes[1], [-1.5, -1.5, -np.pi / 2])
        np.testing.assert_allclose(nodes[spec.ntheta], [-1.5, 0.0, -np.pi])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(nx=2, ny=21, ntheta=12)
        with pytest.raises(ValueError):
            GridSpec(nx=21, ny=21, ntheta=3)

    def test_non_finite_field_rejected(self):
        spec = GridSpec(nx=3, ny=3, ntheta=4)
        values = np.zeros((3, 3, 4))
        values[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            GridField(spec, values)

    def test_field_from_a_view_is_c_contiguous(self):
        spec = GridSpec(nx=5, ny=4, ntheta=6)
        theta_major = np.random.default_rng(3).normal(size=(6, 5, 4))
        field = GridField(spec, np.moveaxis(theta_major, 0, 2))
        assert field.values.flags.c_contiguous
        assert np.shares_memory(field.values.ravel(), field.values)
        np.testing.assert_array_equal(field.values, np.moveaxis(theta_major, 0, 2))


class TestInterpolate:
    def test_node_queries_exact(self):
        spec = small_spec()
        rng = np.random.default_rng(0)
        field = GridField(spec, rng.normal(size=(spec.nx, spec.ny, spec.ntheta)))
        nodes = spec.nodes()
        picks = rng.integers(0, nodes.shape[0], size=50)
        got = interpolate(field, nodes[picks])
        np.testing.assert_allclose(got, field.values.ravel()[picks], atol=1e-12)

    def test_constant_field_anywhere(self):
        field = constant_field(small_spec(), 0.7)
        rng = np.random.default_rng(1)
        pts = np.stack(
            [rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.5, 1.5, 40), rng.uniform(-np.pi, np.pi, 40)],
            axis=1,
        )
        np.testing.assert_allclose(interpolate(field, pts), 0.7, atol=1e-12)

    def test_linear_in_x_exact(self):
        spec = small_spec()
        gx = spec.nodes()[:, 0].reshape(spec.nx, spec.ny, spec.ntheta)
        field = GridField(spec, 2.0 * gx)
        rng = np.random.default_rng(2)
        pts = np.stack(
            [rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.5, 1.5, 40), rng.uniform(-np.pi, np.pi, 40)],
            axis=1,
        )
        np.testing.assert_allclose(interpolate(field, pts), 2.0 * pts[:, 0], atol=1e-12)

    def test_theta_periodicity(self):
        spec = small_spec()
        rng = np.random.default_rng(3)
        field = GridField(spec, rng.normal(size=(spec.nx, spec.ny, spec.ntheta)))
        pts = np.array([[0.3, -0.4, np.pi - 1e-4], [0.3, -0.4, -np.pi + 1e-4]])
        vals = interpolate(field, pts)
        # Both queries straddle the wrap-around plane and must nearly agree.
        assert abs(vals[0] - vals[1]) < 1e-2
        shifted = interpolate(field, np.array([0.3, -0.4, 0.5 + 2.0 * np.pi]))
        assert shifted == pytest.approx(interpolate(field, np.array([0.3, -0.4, 0.5])), abs=1e-12)


    @pytest.mark.parametrize("n", [1, 26, 10_000])
    def test_coeffs_match_loop_oracle(self, n):
        # Inside and outside the box, |theta| beyond pi, box edges and the
        # wrap-around plane: indices and weights are bit-identical.
        spec = GridSpec(nx=41, ny=41, ntheta=21)
        rng = np.random.default_rng(n)
        states = rng.uniform([-2.5, -2.5, -4.0 * np.pi], [2.5, 2.5, 4.0 * np.pi], (n, 3))
        edges = np.array([[1.5, -1.5, np.pi], [-1.5, 1.5, -np.pi], [0.0, 0.0, 3.0 * np.pi], [1.4999, 2.0, -7.0]])
        states[: len(edges)] = edges[:n]
        idx, w = hj._interp_coeffs(spec, states)
        ref_idx, ref_w = loop_interp_coeffs(spec, states)
        assert idx.shape == w.shape == (8, n)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(w, ref_w)


class TestValueIteration:
    def test_constant_margin_fixed_point(self):
        spec = GridSpec(nx=9, ny=9, ntheta=6)
        for gamma in (0.9, 0.995, 1.0):
            sol = value_iteration(constant_field(spec, 0.4), equispaced_actions(5), gamma, max_iters=50, dt=0.1, tol=1e-6)
            np.testing.assert_allclose(sol.field.values, 0.4, atol=1e-9)
            assert sol.converged

    def test_inescapable_failure(self):
        spec = GridSpec(nx=9, ny=9, ntheta=6)
        sol = value_iteration(constant_field(spec, -0.3), equispaced_actions(5), 0.995, max_iters=50, dt=0.1, tol=1e-6)
        np.testing.assert_allclose(sol.field.values, -0.3, atol=1e-9)

    def test_gamma_zero_returns_margin(self):
        spec = GridSpec(nx=9, ny=9, ntheta=6)
        margin = margin_field(spec, signed_distance_margin)
        sol = value_iteration(margin, equispaced_actions(5), 0.0, max_iters=5, dt=0.1, tol=1e-6)
        np.testing.assert_allclose(sol.field.values, margin.values, atol=1e-12)

    def test_value_below_margin_and_contraction(self):
        spec = small_spec()
        margin = margin_field(spec, signed_distance_margin)
        sol = value_iteration(margin, equispaced_actions(9), 0.9, tol=1e-8, max_iters=500, dt=0.1)
        assert sol.converged
        assert np.all(sol.field.values <= margin.values + 1e-12)
        resid = sol.residuals
        assert all(resid[k + 1] <= resid[k] + 1e-12 for k in range(1, len(resid) - 1))

    def test_bellman_consistency_at_nodes(self):
        spec = small_spec()
        margin = margin_field(spec, signed_distance_margin)
        actions = equispaced_actions(9)
        sol = value_iteration(margin, actions, 0.9, tol=1e-9, max_iters=800, dt=0.1)
        assert sol.converged
        nodes = spec.nodes()
        rng = np.random.default_rng(4)
        picks = rng.integers(0, nodes.shape[0], size=300)
        best = np.full(picks.shape, -np.inf)
        for a in actions:
            best = np.maximum(best, q_from_value(sol.field, margin, nodes[picks], a, 0.9, 0.1))
        np.testing.assert_allclose(best, sol.field.values.ravel()[picks], atol=2e-9)

    def test_gamma_one_flagged_when_cut_short(self):
        spec = small_spec()
        margin = margin_field(spec, signed_distance_margin)
        sol = value_iteration(margin, equispaced_actions(5), 1.0, tol=1e-10, max_iters=3, dt=0.1)
        assert not sol.converged
        assert sol.sweeps == 3

    def test_bad_inputs_rejected(self):
        spec = GridSpec(nx=5, ny=5, ntheta=4)
        margin = constant_field(spec, 0.1)
        with pytest.raises(ValueError):
            value_iteration(margin, np.array([]), 0.9, dt=0.1, tol=1e-6)
        with pytest.raises(ValueError):
            value_iteration(margin, equispaced_actions(3), 1.5, dt=0.1, tol=1e-6)
        with pytest.raises(ValueError):
            value_iteration(margin, equispaced_actions(3), 0.9, tol=0.0, dt=0.1)

    def test_zero_sweep_cap_rejected(self):
        # A solve with no sweep has no residual for require_converged to
        # report; one sweep is the smallest solve.
        margin = constant_field(GridSpec(nx=5, ny=5, ntheta=4), 0.1)
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            value_iteration(margin, equispaced_actions(3), 0.9, max_iters=0, dt=0.1, tol=1e-6)
        sol = value_iteration(margin, equispaced_actions(3), 0.9, tol=1e-12, max_iters=1, dt=0.1)
        assert sol.sweeps == 1 and len(sol.residuals) == 1

    @pytest.mark.parametrize("shape", [(41, 41, 21), (17, 23, 9), (9, 9, 6)])
    @pytest.mark.parametrize("dt", [0.1, 0.35, 2.0])
    @pytest.mark.parametrize(
        "actions",
        [equispaced_actions(5), equispaced_actions(25), np.array([1.3, -2.0, 0.4])],
        ids=["a5", "a25", "unsorted3"],
    )
    def test_one_sweep_matches_gather_oracle(self, shape, dt, actions):
        # dt = 2.0 moves the car farther than the half-width of the box, so
        # successors clamp on both sides of it.
        spec = GridSpec(*shape)
        margin = GridField(spec, np.random.default_rng(8).normal(size=shape), kind="margin")
        sol = value_iteration(margin, actions, 1.0, dt, max_iters=1, tol=1e-6)
        ref = gather_value_iteration(margin, actions, 1.0, dt, tol=1e-6, max_iters=1)
        assert np.max(np.abs(sol.field.values - ref.field.values)) <= 1e-13
        assert sol.residuals == pytest.approx(ref.residuals, abs=1e-13)

    def test_solve_matches_gather_oracle(self):
        spec = GridSpec(nx=41, ny=41, ntheta=21)
        margin = margin_field(spec, signed_distance_margin)
        actions = equispaced_actions(25)
        sol = value_iteration(margin, actions, 0.995, tol=1e-5, dt=0.1)
        ref = gather_value_iteration(margin, actions, 0.995, 0.1, tol=1e-5, max_iters=2000)
        assert (sol.sweeps, sol.converged) == (ref.sweeps, ref.converged)
        assert np.max(np.abs(sol.field.values - ref.field.values)) <= 1e-12
        assert sol.field.values.flags.c_contiguous

    def test_peak_memory_is_a_few_fields(self):
        # The solve may hold a few copies of the field, never per-node tables
        # over actions and interpolation corners (25 * 8 * N here).
        spec = GridSpec(nx=41, ny=41, ntheta=21)
        margin = margin_field(spec, signed_distance_margin)
        tracemalloc.start()
        try:
            value_iteration(margin, equispaced_actions(25), 0.995, max_iters=2, dt=0.1, tol=1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * margin.values.nbytes

    def test_sign_agreement_with_oracle_sample(self):
        # Desk-scale echo of the solver-vs-oracle agreement check: solved
        # discounted field against the 3-action horizon-6 enumeration, on a
        # random cell sample away from the zero level set.
        spec = GridSpec(nx=31, ny=31, ntheta=15)
        margin = margin_field(spec, signed_distance_margin)
        sol = value_iteration(margin, equispaced_actions(9), 0.9, tol=1e-6, max_iters=300, dt=0.1)
        assert sol.converged
        rng = np.random.default_rng(5)
        nodes = spec.nodes()
        picks = rng.permutation(nodes.shape[0])[:400]
        actions3 = np.array([-2.0, 0.0, 2.0])
        agree = total = 0
        for i in picks:
            oracle = brute_force_avoid_oracle(nodes[i], signed_distance_margin, actions3, horizon=6)
            if abs(oracle) <= 0.15:  # one-cell boundary band
                continue
            total += 1
            agree += int(np.sign(oracle) == np.sign(sol.field.values.ravel()[i]))
        assert total > 100
        assert agree / total >= 0.98


class TestQFromValue:
    def test_constant_fields(self):
        spec = GridSpec(nx=5, ny=5, ntheta=4)
        one = constant_field(spec, 1.0)
        q = q_from_value(GridField(spec, one.values, "value"), one, np.zeros(3), 0.5, 0.995, 0.1)
        assert q == pytest.approx(1.0, abs=1e-12)

    def test_margin_pins_min(self):
        spec = GridSpec(nx=5, ny=5, ntheta=4)
        margin = constant_field(spec, -1.0)
        value = constant_field(spec, 0.8, kind="value")
        q = q_from_value(value, margin, np.zeros(3), 0.0, 0.995, 0.1)
        assert q == pytest.approx(-1.0, abs=1e-12)

    def test_blend_arithmetic(self):
        spec = GridSpec(nx=5, ny=5, ntheta=4)
        margin = constant_field(spec, 0.5)
        value = constant_field(spec, 0.2, kind="value")
        q = q_from_value(value, margin, np.zeros(3), 0.0, 0.995, 0.1)
        assert q == pytest.approx(0.0025 + 0.995 * 0.2, abs=1e-12)

    def test_peak_memory_at_most_loop_coeffs(self, monkeypatch):
        # The broadcast coefficient pass may not hold more than the
        # per-corner loop did, over every node of the acceptance grid.
        spec = GridSpec(nx=41, ny=41, ntheta=21)
        margin = margin_field(spec, signed_distance_margin)
        nodes = spec.nodes()
        actions = np.resize(equispaced_actions(25), nodes.shape[0])

        def peak():
            tracemalloc.start()
            try:
                q_from_value(margin, margin, nodes, actions, 0.995, 0.1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        broadcast = peak()
        monkeypatch.setattr(hj, "_interp_coeffs", loop_interp_coeffs)
        assert broadcast <= peak()

    def test_mismatched_specs_rejected(self):
        margin = constant_field(GridSpec(5, 5, 4), 0.5)
        value = constant_field(GridSpec(7, 5, 4), 0.5, kind="value")
        with pytest.raises(ValueError):
            q_from_value(value, margin, np.zeros(3), 0.0, 0.995, 0.1)


class TestBruteForceOracle:
    def test_horizon_zero(self):
        s = np.array([-1.0, 0.2, 0.0])
        got = brute_force_avoid_oracle(s, signed_distance_margin, np.array([-2.0, 0.0, 2.0]), 0)
        assert got == pytest.approx(signed_distance_margin(s))

    def test_deep_failure_stays_negative(self):
        s = np.array([0.25, 0.65, 0.0])
        got = brute_force_avoid_oracle(s, signed_distance_margin, np.array([-2.0, 0.0, 2.0]), 3)
        assert got < 0.0

    def test_matches_recursive_reference(self):
        from cbfforge.dubins import dynamics_step

        actions = np.array([-2.0, 0.0, 2.0])
        rng = np.random.default_rng(6)
        for _ in range(5):
            s = np.array([rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2), rng.uniform(-np.pi, np.pi)])
            fast = brute_force_avoid_oracle(s, signed_distance_margin, actions, 4)
            slow = recursive_avoid_value(
                s,
                lambda st: float(signed_distance_margin(st)),
                lambda st, a: dynamics_step(st, a, 0.1),
                actions,
                4,
            )
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_budget_rejected(self):
        with pytest.raises(ValueError):
            brute_force_avoid_oracle(np.zeros(3), signed_distance_margin, equispaced_actions(25), 5)


class TestLipschitzScan:
    def test_constant_field_zero(self):
        assert empirical_lipschitz(constant_field(small_spec(), 3.0)) == 0.0

    def test_linear_slope_recovered(self):
        spec = small_spec()
        gx = spec.nodes()[:, 0].reshape(spec.nx, spec.ny, spec.ntheta)
        assert empirical_lipschitz(GridField(spec, 2.0 * gx)) == pytest.approx(2.0, rel=1e-9)

    def test_bound_on_constant_margin(self):
        spec = GridSpec(nx=9, ny=9, ntheta=6)
        report = verify_margin_value_bound(constant_field(spec, 0.5), 0.9, 0.1, equispaced_actions(5), L_f=1.05, vi_tol=1e-6, max_iters=2000)
        assert isinstance(report, LipschitzReport)
        assert report.L_ell == 0.0
        assert report.L_V == pytest.approx(0.0, abs=1e-9)
        assert report.bound == 0.0
        assert report.holds

    def test_unconverged_solve_rejected(self):
        spec = GridSpec(nx=9, ny=9, ntheta=6)
        margin = margin_field(spec, signed_distance_margin)
        with pytest.raises(RuntimeError, match="did not converge.*after 2 sweeps.*vi_max_sweeps \\(now 2\\)"):
            verify_margin_value_bound(margin, 0.9, 0.1, equispaced_actions(5), L_f=1.05, max_iters=2, vi_tol=1e-6)

    def test_hypothesis_violation_rejected(self):
        spec = GridSpec(nx=9, ny=9, ntheta=6)
        with pytest.raises(ValueError):
            verify_margin_value_bound(constant_field(spec, 0.5), 0.995, 0.1, equispaced_actions(5), L_f=1.05, vi_tol=1e-6, max_iters=2000)


class TestFieldIo:
    def test_round_trip(self, tmp_path):
        spec = GridSpec(nx=5, ny=4, ntheta=4)
        rng = np.random.default_rng(7)
        field = GridField(spec, rng.normal(size=(5, 4, 4)))
        path = tmp_path / "field.txt"
        save_field(field, str(path))
        loaded = load_field(str(path), kind="value")
        assert loaded.spec == spec
        np.testing.assert_array_equal(loaded.values, field.values)

    def test_bad_counts_rejected(self, tmp_path):
        path = tmp_path / "field.txt"
        path.write_text("grid 2 2 4\n1.0\n2.0\n")
        with pytest.raises(ValueError):
            load_field(str(path), kind="value")



class TestFieldFiles:
    def _solved(self):
        spec = GridSpec(nx=9, ny=9, ntheta=6)
        margin = margin_field(spec, signed_distance_margin)
        return margin, value_iteration(margin, equispaced_actions(5), 0.9, tol=1e-6, max_iters=300, dt=0.1).field

    def test_round_trip_matches_original_and_decimal_oracle(self, tmp_path):
        margin, value = self._solved()
        special = GridField(
            GridSpec(nx=3, ny=3, ntheta=4),
            np.resize([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1], 36),
        )
        for field in (margin, value, special):
            save_field(field, str(tmp_path / "hex.txt"))
            decimal_save_field(field, str(tmp_path / "dec.txt"))
            loaded = load_field(str(tmp_path / "hex.txt"), kind=field.kind)
            oracle = decimal_load_field(str(tmp_path / "dec.txt"), kind=field.kind)
            assert loaded.spec == field.spec and loaded.kind == field.kind
            assert loaded.values.tobytes() == field.values.tobytes() == oracle.values.tobytes()

    def test_header_records_kind_and_one_value_per_line(self, tmp_path):
        margin, _ = self._solved()
        path = tmp_path / "margin_grid.txt"
        save_field(margin, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "grid-hex64 margin 9 9 6"
        assert len(lines) == 1 + 9 * 9 * 6
        assert all(len(line) == 16 for line in lines[1:])

    def test_kind_mismatch_refused(self, tmp_path):
        margin, value = self._solved()
        margin_path, value_path = tmp_path / "margin_grid.txt", tmp_path / "value_grid.txt"
        save_field(margin, str(margin_path))
        save_field(value, str(value_path))
        with pytest.raises(ValueError, match="margin_grid.txt: holds a margin grid, expected a value grid"):
            load_field(str(margin_path), kind="value")
        with pytest.raises(ValueError, match="value_grid.txt: holds a value grid, expected a margin grid"):
            load_field(str(value_path), kind="margin")
        assert load_field(str(margin_path), kind="margin").kind == "margin"

    def test_decimal_file_refused(self, tmp_path):
        path = tmp_path / "value_grid.txt"
        decimal_save_field(self._solved()[1], str(path))
        with pytest.raises(ValueError, match="value_grid.txt: grid file uses the old decimal format; regenerate it"):
            load_field(str(path), kind="value")

    @pytest.mark.parametrize("header", ["", "grid-hex64 value 3 x 4", "grid-hex64 3 3 4", "mlp-hex64 value 3 3 4"])
    def test_bad_header_refused(self, tmp_path, header):
        path = tmp_path / "field.txt"
        path.write_text(header + "\n" + "0000000000000000\n" * 36)
        with pytest.raises(ValueError, match="field.txt: bad grid header"):
            load_field(str(path), kind="value")

    def test_bad_count_and_corrupt_value_refused(self, tmp_path):
        path = tmp_path / "field.txt"
        save_field(constant_field(GridSpec(nx=3, ny=3, ntheta=4), 0.5, kind="value"), str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="expected 36 values, found 35"):
            load_field(str(path), kind="value")
        lines[5] = "0.50000000000000"  # 16 characters, but not a bit pattern
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="field.txt: not hex-float64"):
            load_field(str(path), kind="value")


class TestDiscretizationStability:
    def test_zero_level_volume_stable_under_refinement(self):
        # Doubling the resolution must move the safe-volume fraction by < 5%.
        actions = equispaced_actions(9)
        fractions = []
        for spec in (GridSpec(31, 31, 15), GridSpec(61, 61, 30)):
            margin = margin_field(spec, signed_distance_margin)
            sol = value_iteration(margin, actions, 0.9, tol=1e-6, max_iters=300, dt=0.1)
            assert sol.converged
            fractions.append(float(np.mean(sol.field.values >= 0.0)))
        assert abs(fractions[1] - fractions[0]) / fractions[0] < 0.05
