import itertools
import json
import math

import numpy as np
import pytest

from cauchykit import acoustics, tensor_eigen
from cauchykit.acoustics import (
    ChristoffelBundle,
    christoffel,
    critical_directions,
    fibonacci_sphere,
    find_pure_longitudinal,
    longitudinal_velocity,
    pure_longitudinal_residual,
    shear_condition_residual,
    shear_polarization,
    shear_sum,
    shear_velocity,
    sum_squared_velocities,
    wave_solve,
)
from cauchykit.decomp import (
    a_from_delta,
    decompose,
    generator_tensors,
    harmonic_split,
    sa_split,
)
from cauchykit.materials import bundled_material, list_bundled, material_from_dict
from cauchykit.report import acoustics_report, scan_rows, write_scan_csv
from cauchykit.tensor_eigen import real_eigenvectors
from cauchykit.tensor_core import (
    cubic_stiffness,
    frobenius_norm2,
    frobenius_norm4,
    full_to_voigt,
    isotropic_stiffness,
    voigt_to_full,
)

from conftest import (
    canonical_direction_oracle,
    chart_tables_oracle,
    contract_nn_oracle,
    hexagonal_voigt,
    merge_oracle,
    newton_search_oracle,
    purity_oracle,
    random_spd_voigt,
    random_stiffness,
    random_symmetric3,
    random_unit,
)

W = cubic_stiffness(5.224, 2.044, 1.608)
ISO = isotropic_stiffness(2.0, 1.0)
EZ = np.array([0.0, 0.0, 1.0])


class TestChristoffel:
    def test_isotropic_along_z_matches_contraction_oracle(self):
        c = isotropic_stiffness(1.0, 1.0)
        bundle = christoffel(c, EZ, 1.0)
        oracle = contract_nn_oracle(c, EZ, 1.0)
        assert np.allclose(bundle.gamma, oracle, atol=1e-14)
        assert np.allclose(bundle.gamma, np.diag([1.0, 1.0, 3.0]), atol=1e-14)

    def test_split_reconstructs_exactly(self, rng):
        bundle = christoffel(random_stiffness(rng), random_unit(rng), 1.7)
        assert np.array_equal(bundle.gamma, bundle.cauchy + bundle.non_cauchy)

    def test_non_cauchy_annihilates_direction_and_is_singular(self, rng):
        for _ in range(200):
            c = random_stiffness(rng)
            n = random_unit(rng)
            bundle = christoffel(c, n, 1.0)
            scale = max(frobenius_norm2(bundle.non_cauchy), 1e-300)
            assert np.linalg.norm(bundle.non_cauchy @ n) <= 1e-12 * scale
            assert abs(np.linalg.det(bundle.non_cauchy)) <= 1e-10 * scale ** 3

    def test_full_cauchy_material_has_zero_split(self, rng):
        s = sa_split(random_stiffness(rng)).s
        bundle = christoffel(s, random_unit(rng), 1.0)
        assert np.abs(bundle.non_cauchy).max() <= 1e-14
        assert np.allclose(bundle.gamma, bundle.cauchy)

    def test_nonpositive_density_rejected(self, rng):
        with pytest.raises(ValueError):
            christoffel(ISO, EZ, 0.0)
        with pytest.raises(ValueError):
            christoffel(ISO, EZ, -1.0)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            christoffel(ISO, [0.0, 0.0, 2.0], 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_tensor_beyond_the_float_range_rejected(self):
        # a positive subnormal density passes the density check
        with pytest.raises(ValueError, match="float range"):
            christoffel(ISO, EZ, 1e-320)

    @pytest.mark.parametrize("n", [EZ, fibonacci_sphere(5)], ids=["one", "batch"])
    def test_direction_is_copied(self, n):
        n = np.array(n, dtype=float)
        bundle = christoffel(W, n, 1.0)
        direction, wave = bundle.direction.copy(), wave_solve(bundle)
        n[...] = [1.0, 0.0, 0.0]
        assert np.array_equal(bundle.direction, direction)
        assert all(np.array_equal(a, b) for a, b in zip(wave_solve(bundle), wave))


class TestBatchedDirections:
    @pytest.mark.parametrize("kind", ["W", "triclinic", "indefinite"])
    def test_rows_match_single_direction_calls(self, rng, kind):
        c = {
            "W": W,
            "triclinic": voigt_to_full(random_spd_voigt(rng)),
            "indefinite": random_stiffness(rng),
        }[kind]
        axes = [EZ, np.ones(3) / math.sqrt(3.0), [0.6, 0.0, 0.8]]
        dirs = np.concatenate([fibonacci_sphere(200), axes,
                               [random_unit(rng) for _ in range(20)]])
        bundle = christoffel(c, dirs, 2.5)
        wave = wave_solve(bundle)
        assert wave.eigenvalues.shape == (len(dirs), 3)
        assert wave.degenerate_pairs.shape == (len(dirs), 3)
        sums = sum_squared_velocities(decompose(c), dirs, 2.5)
        residuals = pure_longitudinal_residual(bundle)
        for i, n in enumerate(dirs):
            one = christoffel(c, n, 2.5)
            single = wave_solve(one)
            scale = frobenius_norm2(one.gamma)
            assert np.abs(bundle.gamma[i] - one.gamma).max() <= 1e-12 * scale
            assert np.abs(wave.eigenvalues[i] - single.eigenvalues).max() <= 1e-12 * scale
            assert np.array_equal(np.isnan(wave.velocities[i]), np.isnan(single.velocities))
            assert np.allclose(wave.velocities[i] ** 2, single.velocities ** 2, rtol=0,
                               atol=1e-12 * scale, equal_nan=True)
            assert np.allclose(wave.longitudinal_purity[i], single.longitudinal_purity,
                               rtol=0, atol=1e-12)
            assert isinstance(single.causal, bool)
            assert bool(wave.causal[i]) == single.causal
            assert isinstance(single.degenerate_pairs, tuple)
            flagged = tuple(p for p, hit in zip(((0, 1), (0, 2), (1, 2)),
                                                wave.degenerate_pairs[i]) if hit)
            assert flagged == single.degenerate_pairs
            assert sums[i] == pytest.approx(sum_squared_velocities(decompose(c), n, 2.5),
                                            rel=1e-12, abs=1e-12 * scale)
            assert residuals[i] == pytest.approx(pure_longitudinal_residual(one),
                                                 rel=1e-9, abs=1e-12)
        if kind == "W":
            assert wave.degenerate_pairs[len(dirs) - 23].tolist() == [False, False, True]
        if kind == "indefinite":
            assert not wave.causal.all()

    def test_non_unit_row_rejected(self):
        dirs = fibonacci_sphere(10)
        dirs[7] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="row 7"):
            christoffel(W, dirs, 1.0)

    @pytest.mark.parametrize("shape", [(3, 1), (2, 2), (2, 3, 3)])
    def test_bad_direction_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            christoffel(W, np.ones(shape) / math.sqrt(3.0), 1.0)


class TestDensityGuard:
    @pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), float("inf")])
    def test_every_entry_point_rejects(self, rho):
        parts = decompose(W)
        with pytest.raises(ValueError, match="finite and positive"):
            christoffel(W, EZ, rho)
        with pytest.raises(ValueError, match="finite and positive"):
            sum_squared_velocities(parts, EZ, rho)
        with pytest.raises(ValueError, match="finite and positive"):
            shear_sum(parts, EZ, rho)
        with pytest.raises(ValueError, match="finite and positive"):
            find_pure_longitudinal(W, rho, grid_n=100)


def indefinite_triclinic_voigt(rng):
    b = rng.uniform(-1, 1, (6, 6))
    return (0.5 * (b + b.T) + np.diag([0.3] * 3 + [0.5] * 3)) * 100


class TestScanCsv:
    @pytest.mark.parametrize("build", [
        lambda rng: scan_rows(voigt_to_full(indefinite_triclinic_voigt(rng)), 3.0, 300),
        lambda rng: scan_rows(ISO, 1.0, 500),  # every flag reads 1, not 1.0
        lambda rng: scan_rows(ISO, 1.0, 1)[:0],  # the header alone
        lambda rng: scan_rows(W, 1.0, 20000),
    ], ids=["indefinite", "isotropic", "empty", "W-20000"])
    def test_bytes_equal_reference_formatter(self, rng, tmp_path, build):
        rows = build(rng)

        def fmt(x):
            return "nan" if math.isnan(x) else f"{x:.17g}"

        expected = "nx,ny,nz,v1,v2,v3,purity_L,degenerate_flag\n" + "".join(
            ",".join([fmt(x) for x in (*r["n"], *r["velocities"], r["purity_l"])]
                     + [str(int(r["degenerate"]))]) + "\n"
            for r in rows
        )
        path = tmp_path / "scan.csv"
        write_scan_csv(rows, path)
        assert path.read_bytes() == expected.encode("utf-8")
        assert (b",nan," in path.read_bytes()) == (not rows["causal"].all())

    def test_columns_are_one_batched_solve(self, rng):
        voigt = indefinite_triclinic_voigt(rng)
        c = voigt_to_full(voigt)
        rows = scan_rows(c, 3.0, 300)
        assert any(not r["causal"] for r in rows) and any(r["causal"] for r in rows)
        # the table's columns are the one batched solve, in lattice order
        wave = wave_solve(christoffel(c, fibonacci_sphere(300), 3.0))
        assert len(rows) == 300
        assert np.array_equal(rows["n"], fibonacci_sphere(300))
        assert np.array_equal(rows["velocities"], wave.velocities, equal_nan=True)
        assert np.array_equal(rows["purity_l"], wave.longitudinal_purity[:, 0])
        assert np.array_equal(rows["degenerate"], wave.degenerate_pairs.any(axis=1))
        assert np.array_equal(rows["causal"], wave.causal)
        # the report counts the same rows, as an int that json accepts
        record = material_from_dict({"schema_version": "1", "name": "indefinite",
                                     "stiffness": {"unit": "GPa", "voigt": voigt.tolist()}})
        report, table = acoustics_report(record, 3.0, scan=300)
        count = report["acoustics"]["scan"]["non_causal_count"]
        assert type(count) is int and count == np.count_nonzero(~rows["causal"])
        assert table.tobytes() == rows.tobytes()
        _, none = acoustics_report(record, 3.0)
        assert len(none) == 0 and none.dtype == rows.dtype
        # a row is a view: an edit through it shows in the column
        rows[7]["velocities"] = [1.0, 2.0, 3.0]
        assert rows["velocities"][7].tolist() == [1.0, 2.0, 3.0]

    def test_count_must_be_an_integer(self):
        for count in (2.5, 150.0, "150"):
            with pytest.raises(TypeError):
                scan_rows(W, 1.0, count)
        with pytest.raises(ValueError, match="at least one point"):
            fibonacci_sphere(0)
        assert np.array_equal(fibonacci_sphere(np.int64(7)), fibonacci_sphere(7))
        record = material_from_dict({"schema_version": "1", "name": "iso", "stiffness": {
            "unit": "GPa", "voigt": (100 * full_to_voigt(ISO)).tolist()}})
        with pytest.raises(TypeError):
            acoustics_report(record, 1.0, scan=150.5)
        report, rows = acoustics_report(record, 1.0, scan=np.int64(150))
        assert type(report["acoustics"]["scan"]["count"]) is int and len(rows) == 150
        json.dumps(report, allow_nan=False)


class TestWaveSolve:
    def test_isotropic_any_direction(self, rng):
        for _ in range(10):
            n = random_unit(rng)
            wave = wave_solve(christoffel(ISO, n, 1.0))
            assert np.allclose(wave.eigenvalues, [4.0, 1.0, 1.0], atol=1e-12)
            assert np.allclose(wave.velocities, [2.0, 1.0, 1.0], atol=1e-12)
            # fastest mode is longitudinal
            assert abs(wave.polarizations[:, 0] @ n) == pytest.approx(1.0, abs=1e-10)
            assert wave.longitudinal_purity[0] == pytest.approx(1.0, abs=1e-10)
            assert (1, 2) in wave.degenerate_pairs
            assert wave.causal

    def test_tungsten_along_cube_axis(self):
        wave = wave_solve(christoffel(W, EZ, 1.0))
        assert np.allclose(wave.eigenvalues, [5.224, 1.608, 1.608], atol=1e-12)

    def test_synthetic_negative_eigenvalue_flags_non_causal(self):
        bundle = ChristoffelBundle(
            gamma=np.diag([2.0, 1.0, -0.5]),
            cauchy=np.diag([2.0, 1.0, -0.5]),
            non_cauchy=np.zeros((3, 3)),
            direction=EZ,
            density=1.0,
        )
        wave = wave_solve(bundle)
        assert not wave.causal
        assert math.isnan(wave.velocities[2])
        assert wave.eigenvalues[2] == -0.5

    def test_polarizations_orthonormal(self, rng):
        wave = wave_solve(christoffel(random_stiffness(rng), random_unit(rng), 1.0))
        p = wave.polarizations
        assert np.abs(p.T @ p - np.eye(3)).max() <= 1e-11


class TestVelocitySums:
    def test_isotropic_value(self):
        parts = decompose(ISO)
        assert sum_squared_velocities(parts, EZ, 1.0) == pytest.approx(6.0, abs=1e-12)

    def test_matches_trace_and_eigensum(self, rng):
        for _ in range(200):
            c = random_stiffness(rng)
            n = random_unit(rng)
            rho = float(rng.uniform(0.5, 5.0))
            parts = decompose(c)
            bundle = christoffel(c, n, rho)
            wave = wave_solve(bundle)
            formula = sum_squared_velocities(parts, n, rho)
            scale = max(abs(formula), 1e-300)
            assert abs(np.trace(bundle.gamma) - formula) <= 1e-11 * scale
            assert abs(float(np.sum(wave.eigenvalues)) - formula) <= 1e-11 * scale

    def test_direction_independent_when_2p_plus_q_vanishes(self, rng):
        parts = decompose(W)
        assert frobenius_norm2(2 * parts.dev_p + parts.dev_q) <= 1e-13
        values = [
            sum_squared_velocities(parts, random_unit(rng), 1.0) for _ in range(100)
        ]
        assert np.ptp(values) <= 1e-12 * abs(values[0])

    def test_orthonormal_triple_invariant(self, rng):
        for _ in range(100):
            c = random_stiffness(rng)
            parts = decompose(c)
            rho = 1.3
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            total = sum(
                sum_squared_velocities(parts, q[:, k], rho) for k in range(3)
            )
            expect = (2 * parts.scalar_s - parts.scalar_a) / (2 * rho)
            assert total == pytest.approx(expect, rel=1e-10, abs=1e-10)


class TestCriticalDirections:
    def test_hexagonal_eigenstructure(self):
        m = hexagonal_voigt(c11=4.0, c12=1.4, c13=1.2, c33=3.5, c44=1.0)
        parts = decompose(voigt_to_full(m))
        crit = critical_directions(parts)
        ell = (2 * parts.dev_p + parts.dev_q)[0, 0]
        assert not crit.fully_degenerate
        # spectrum (ell, ell, -2 ell) with the symmetry axis for -2 ell
        assert sorted(crit.eigenvalues) == pytest.approx(
            sorted([ell, ell, -2 * ell]), rel=1e-10)
        axis_col = int(np.argmax(np.abs(crit.eigenvalues + 2 * ell) < 1e-12))
        # eigenvector for the non-degenerate eigenvalue is the z axis
        idx = [k for k in range(3)
               if abs(crit.eigenvalues[k] + 2 * ell) <= 1e-10 * abs(ell)]
        assert len(idx) == 1
        assert np.allclose(np.abs(crit.directions[:, idx[0]]), EZ, atol=1e-10)
        del axis_col

    def test_cubic_fully_degenerate(self):
        # every bundled crystal and an isotropic solid at 25 unit scales; the
        # eigenvalues of L = 0 are rounding noise, so the pair list cannot be
        # read off them (it was, and 22 of these 275 inputs listed fewer pairs)
        rng = np.random.default_rng(1)
        mu = rng.uniform(20.0, 150.0)
        lam = mu * (rng.uniform(0.3, 0.8) if rng.random() < 0.5 else rng.uniform(1.3, 3.0))
        tensors = [bundled_material(key).stiffness_gpa() for key in list_bundled()]
        assert np.abs(critical_directions(decompose(W)).eigenvalues).max() <= 1e-12
        for c in [W] + tensors + [isotropic_stiffness(lam, mu)]:
            for k in range(-12, 13):
                parts = decompose(c * 10.0 ** k)
                crit = critical_directions(parts)
                assert crit.fully_degenerate
                assert crit.degenerate_pairs == ((0, 1), (0, 2), (1, 2))
                assert np.abs(crit.eigenvalues).max() <= 1e-12 * abs(parts.scalar_s)

    def test_extrema_match_sphere_scan(self, rng):
        c = random_stiffness(rng)
        parts = decompose(c)
        crit = critical_directions(parts)
        rho = 1.0
        values = [
            sum_squared_velocities(parts, n, rho) for n in fibonacci_sphere(4000)
        ]
        base = (2 * parts.scalar_s - parts.scalar_a) / (6 * rho)
        lam_max, lam_min = crit.eigenvalues[0], crit.eigenvalues[2]
        # grid resolution limits agreement; 4000 points give ~2 degrees
        assert max(values) == pytest.approx(base + lam_max / 2, abs=2e-3 * max(
            1.0, abs(lam_max)))
        assert min(values) == pytest.approx(base + lam_min / 2, abs=2e-3 * max(
            1.0, abs(lam_min)))


class TestLongitudinalVelocity:
    def test_isotropic_closed_form(self):
        parts = decompose(ISO)
        bundle = christoffel(ISO, EZ, 1.0)
        v = longitudinal_velocity(bundle)
        assert v ** 2 == pytest.approx(4.0, abs=1e-12)           # lam + 2 mu
        assert v ** 2 == pytest.approx(parts.scalar_s / 5.0, abs=1e-12)

    def test_coefficient_is_s_over_five_not_fifteen(self, rng):
        # brute-force loop oracle for n.S.n against both closed-form readings
        c = random_stiffness(rng)
        n = random_unit(rng)
        parts = decompose(c)
        s_part = sa_split(c).s
        quotient = 0.0
        for i, j, k, l in itertools.product(range(3), repeat=4):
            quotient += s_part[i, j, k, l] * n[j] * n[k] * n[i] * n[l]
        p_nn = float(n @ parts.dev_p @ n)
        r_nnnn = float(np.einsum("ijkl,i,j,k,l->", parts.harm_r, n, n, n, n))
        good = parts.scalar_s / 5.0 + 6.0 / 7.0 * p_nn + r_nnnn
        bad = parts.scalar_s / 15.0 + 6.0 / 7.0 * p_nn + r_nnnn
        assert quotient == pytest.approx(good, rel=1e-11)
        assert abs(quotient - bad) > 1e-3 * abs(parts.scalar_s)

    def test_invariant_under_non_cauchy_replacement(self, rng):
        # positive-definite base keeps the Rayleigh quotient positive
        s = sa_split(voigt_to_full(random_spd_voigt(rng))).s
        n = random_unit(rng)
        reference = longitudinal_velocity(christoffel(s, n, 1.0))
        for _ in range(20):
            c = s + a_from_delta(random_symmetric3(rng))
            assert longitudinal_velocity(christoffel(c, n, 1.0)) == pytest.approx(
                reference, abs=1e-12)


class TestPureLongitudinal:
    def test_isotropic_all_directions_pure(self):
        scan = find_pure_longitudinal(ISO, 1.0, grid_n=500)
        assert scan.all_directions_pure
        assert scan.hits == ()
        for _ in range(5):
            bundle = christoffel(ISO, random_unit(np.random.default_rng(3)), 1.0)
            assert pure_longitudinal_residual(bundle) <= 1e-14

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("closed_form", [False, True], ids=["newton", "closed-form"])
    def test_velocity_beyond_the_float_range_rejected(self, closed_form):
        # a positive subnormal density passes the density check; before, every
        # hit read v_L = inf
        c = jittered_hexagonal(0) if closed_form else W
        assert (find_pure_longitudinal(c, 1.0).axis is not None) is closed_form
        with pytest.raises(ValueError, match="float range"):
            find_pure_longitudinal(c, 1e-320)

    def test_cubic_tungsten_hit_set(self):
        scan = find_pure_longitudinal(W, 1.0, grid_n=2000)
        assert not scan.all_directions_pure
        assert len(scan.hits) == 13  # 3 axes + 6 face diagonals + 4 body diagonals
        directions = np.array([h.direction for h in scan.hits])

        def contains(target):
            target = np.asarray(target) / np.linalg.norm(target)
            return any(
                min(np.linalg.norm(d - target), np.linalg.norm(d + target)) < 1e-6
                for d in directions
            )

        assert contains([1, 0, 0]) and contains([0, 1, 0]) and contains([0, 0, 1])
        assert contains([1, 1, 1])
        assert contains([1, 1, 0])
        # velocities: sqrt(C11), face and body diagonal closed forms
        axis_v = math.sqrt(5.224)
        body_v = math.sqrt((5.224 + 2 * 2.044 + 4 * 1.608) / 3.0)
        velocities = sorted(h.velocity for h in scan.hits)
        assert velocities[0] == pytest.approx(axis_v, abs=1e-9)
        assert velocities[-1] == pytest.approx(body_v, abs=1e-9)

    def test_hit_set_invariant_under_non_cauchy_replacement(self, rng):
        # cubic Cauchy part: discrete 13-direction hit set
        base = sa_split(W).s
        reference = find_pure_longitudinal(base, 1.0, grid_n=600)
        ref_dirs = np.array([h.direction for h in reference.hits])
        assert len(ref_dirs) == 13
        for _ in range(3):
            c = base + a_from_delta(random_symmetric3(rng))
            scan = find_pure_longitudinal(c, 1.0, grid_n=600)
            dirs = np.array([h.direction for h in scan.hits])
            assert dirs.shape == ref_dirs.shape
            for d in dirs:
                gap = min(
                    min(np.linalg.norm(d - r), np.linalg.norm(d + r))
                    for r in ref_dirs
                )
                assert gap <= 1e-8

    def test_continuous_pure_families_are_sampled(self):
        # a transversely isotropic Cauchy part supports whole rings of pure
        # directions; the scan reports one point of each, on the basal ring too
        base = sa_split(
            voigt_to_full(hexagonal_voigt(4.0, 1.4, 1.2, 3.5, 1.0))
        ).s
        scan = find_pure_longitudinal(base, 1.0, grid_n=600)
        assert not scan.all_directions_pure
        assert any(abs(h.direction[2]) < 1e-8 for h in scan.hits)  # basal ring
        assert any(abs(h.direction[2] - 1) < 1e-8 for h in scan.hits)  # axis

    def test_non_causal_hit_velocity_is_nan(self):
        b = np.random.default_rng(0).uniform(-1, 1, (6, 6))
        c = voigt_to_full((0.5 * (b + b.T) + np.diag([0.3] * 3 + [0.5] * 3)) * 100)
        s_part = sa_split(c).s
        scan = find_pure_longitudinal(c, 3.0, grid_n=1000)
        non_causal = 0
        for hit in scan.hits:
            n = hit.direction
            v2 = float(np.einsum("ijkl,i,j,k,l->", s_part, n, n, n, n)) / 3.0
            if v2 > 0:
                assert hit.velocity == pytest.approx(math.sqrt(v2), rel=1e-12)
            else:
                non_causal += 1
                assert math.isnan(hit.velocity)
        assert non_causal >= 1

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            find_pure_longitudinal(W, 1.0, grid_n=50)

    @pytest.mark.parametrize("grid_n", [150.5, math.nan, math.inf])
    def test_grid_must_be_an_integer(self, monkeypatch, grid_n):
        def no_search(c):
            raise AssertionError("the search started")

        monkeypatch.setattr(acoustics, "sa_split", no_search)
        with pytest.raises(TypeError):
            find_pure_longitudinal(W, 1.0, grid_n=grid_n)

    def test_numpy_integer_grid(self):
        assert len(find_pure_longitudinal(W, 1.0, grid_n=np.int64(2000)).hits) == 13


def orthorhombic_voigt(c11, c22, c33, c12, c13, c23, c44, c55, c66):
    m = np.diag([c11, c22, c33, c44, c55, c66])
    m[0, 1] = m[1, 0] = c12
    m[0, 2] = m[2, 0] = c13
    m[1, 2] = m[2, 1] = c23
    return m


class TestPureModeCertificate:
    """The Morse labels of the hits and the Euler-characteristic certificate
    ``#max + #min - #saddle = 1`` of the projective plane."""

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e9])
    def test_cubic_morse_counts(self, scale):
        scan = find_pure_longitudinal(W * scale, 1.0)
        assert scan.morse == {"max": 4, "min": 3, "saddle": 6, "family": 0}
        assert scan.certified is True
        assert scan.seeds == len(scan.hits) == 13  # one Newton start per real root
        kinds = {}
        for hit in scan.hits:
            zeros = int(np.count_nonzero(hit.direction == 0.0))
            kinds.setdefault(zeros, set()).add(hit.kind)
        # axes, face diagonals and body diagonals of tungsten
        assert kinds == {2: {"min"}, 1: {"saddle"}, 0: {"max"}}

    def test_near_hexagonal_finds_all_seven(self):
        # a transversely isotropic tensor with a 4e-6 triclinic perturbation
        # has seven isolated pure directions: the axis, two basal points and
        # four points on a cone at 31.5 degrees
        h = voigt_to_full(hexagonal_voigt(400.0, 140.0, 120.0, 350.0, 100.0))
        rng = np.random.default_rng(1)
        t = voigt_to_full(random_spd_voigt(rng) * rng.uniform(80.0, 200.0))
        scan = find_pure_longitudinal(h + 1e-4 * 4 / 100 * t, 4.0)
        assert len(scan.hits) == 7
        assert scan.morse == {"max": 2, "min": 2, "saddle": 3, "family": 0}
        assert scan.certified is True
        s_part = sa_split(h + 1e-4 * 4 / 100 * t).s
        for hit in scan.hits:
            bundle = christoffel(s_part, hit.direction, 4.0)
            assert pure_longitudinal_residual(bundle) <= 1e-12

    def test_family_is_flagged_and_not_certified(self):
        # the Newton solve samples a family and cannot certify it; the search
        # answers the exactly transversely isotropic s in closed form instead
        base = voigt_to_full(hexagonal_voigt(4.0, 1.4, 1.2, 3.5, 1.0))
        scan = acoustics._newton_search(sa_split(base), 1.0, fibonacci_sphere(100))
        ring = [h for h in scan.hits if abs(h.direction[2]) < 1e-8]
        assert ring and all(h.kind == "family" for h in ring)
        assert scan.morse["family"] >= len(ring)
        assert scan.certified is None
        closed = find_pure_longitudinal(base, 1.0)
        assert closed.seeds == 0 and closed.certified is True
        assert closed.axis.tolist() == [0.0, 0.0, 1.0]
        assert [h.kind for h in closed.hits][1:] == ["family"] * (len(closed.hits) - 1)
        assert closed.hits[1].direction[2] == 0.0  # the basal ring

    @pytest.mark.parametrize("c44", [59.99, 59.999, 59.9999])
    def test_close_critical_points_are_kept_apart(self, c44):
        # just past a pitchfork at the z axis two minima lie 1.1, 0.36 and
        # 0.11 degrees either side of the axis saddle; a 0.5-degree merge
        # would fold them into it and break the certificate
        c = voigt_to_full(orthorhombic_voigt(
            300.0, 250.0, 200.0, 100.0, 90.0, 80.0, c44, 70.0, 80.0))
        scan = find_pure_longitudinal(c, 1.0)
        assert scan.morse == {"max": 1, "min": 2, "saddle": 2, "family": 0}
        assert scan.certified is True
        assert scan.seeds == len(scan.hits)  # the algebraic path
        axis = [h for h in scan.hits if abs(h.direction[2] - 1.0) < 1e-12]
        assert [h.kind for h in axis] == ["saddle"]

    def test_failed_certificate_is_reported_at_the_seed_cap(self, monkeypatch):
        # no residual meets a tolerance of 1e-20, so every seed count fails
        # the certificate and the seeds double 100 -> 200 -> 300
        c = voigt_to_full(random_spd_voigt(np.random.default_rng(3)))
        assert find_pure_longitudinal(c, 1.0).certified is True
        monkeypatch.setattr(acoustics, "PURITY_TOL", 1e-20)
        scan = find_pure_longitudinal(c, 1.0, grid_n=300)
        assert scan.hits == ()
        assert scan.certified is False
        assert scan.seeds == 300

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_stiffness_rejected(self, bad):
        c = W.copy()
        c[0, 1, 2, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            find_pure_longitudinal(c, 1.0)

    def test_random_tensors_certify_at_100_seeds(self):
        # each takes the algebraic path, one Newton start per real root, but
        # seed 5, whose 14th chart root is not clear of the 13th, and so
        # falls back to the 100 golden-angle seeds
        for seed in range(40):
            c = voigt_to_full(random_spd_voigt(np.random.default_rng(seed)))
            scan = find_pure_longitudinal(c, 1.0)
            count = len(scan.hits)
            assert scan.certified is True and scan.seeds == (100 if seed == 5 else count), seed
            assert count % 2 == 1 and 3 <= count <= 13, (seed, count)


class TestNewtonSolve:
    """The internals of the pure-mode Newton solve: its stop rule, its 2x2
    eigen solver and its tangent frame."""

    def test_solve_stops_once_no_new_seed_converges(self, monkeypatch):
        # 4 of the 100 golden-angle seeds never converge here; running them
        # to the 50-iteration cap costs 51 local models (one after the loop).
        # The search itself takes the algebraic path on this tensor, so the
        # golden-angle solve is called directly.
        calls = []
        model = acoustics._local_model
        monkeypatch.setattr(acoustics, "_local_model",
                            lambda s, n: calls.append(len(n)) or model(s, n))
        c = voigt_to_full(random_spd_voigt(np.random.default_rng(0)))
        scan = acoustics._newton_search(sa_split(c), 1.0, fibonacci_sphere(100))
        assert len(calls) < 39
        assert scan.morse == {"max": 2, "min": 2, "saddle": 3, "family": 0}
        assert scan.certified is True and scan.seeds == 100

    @pytest.mark.parametrize("kind", ["random", "diagonal", "equal", "zero"])
    def test_eig2_matches_eigh(self, rng, kind):
        h = rng.normal(size=(200, 2, 2))
        h = h + np.swapaxes(h, 1, 2)
        if kind == "diagonal":
            h[:, 0, 1] = h[:, 1, 0] = 0.0
        elif kind == "equal":
            h = h[:, :1, :1] * np.eye(2)
        elif kind == "zero":
            h = np.zeros((3, 2, 2))
        values, vectors = acoustics._eig2(h)
        tol = 1e-14 * max(float(np.abs(h).max()), 1.0)
        np.testing.assert_allclose(values, np.linalg.eigh(h)[0][:, ::-1], rtol=0, atol=tol)
        np.testing.assert_allclose(vectors @ np.swapaxes(vectors, 1, 2),
                                   np.broadcast_to(np.eye(2), h.shape), rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.einsum("nij,nkj->nki", h, vectors),
                                   values[:, :, None] * vectors, rtol=0, atol=tol)

    def test_frame_is_the_cross_product_frame(self, rng):
        # axes and the diagonals tie in |n|.argmin; signed zeros included
        r2, r3 = math.sqrt(0.5), math.sqrt(1.0 / 3.0)
        special = np.array([
            [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-0.0, 0.0, -1.0],
            [0.6, -0.8, 0.0], [0.0, 0.6, 0.8], [-0.8, -0.0, 0.6], [-0.0, 0.6, -0.8],
            [r2, r2, 0.0], [0.0, -r2, r2], [r3, r3, r3], [-r3, r3, -r3],
        ])
        n = np.vstack([special, np.array([random_unit(rng) for _ in range(50)]),
                       fibonacci_sphere(100)])
        frame = acoustics._local_model(sa_split(W).s, n)[2]
        e1 = np.cross(n, np.eye(3)[np.abs(n).argmin(axis=1)])
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        assert frame.tobytes() == np.stack([e1, np.cross(n, e1)], axis=2).tobytes()
        np.testing.assert_allclose(np.swapaxes(frame, 1, 2) @ frame,
                                   np.broadcast_to(np.eye(2), (len(n), 2, 2)),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.einsum("ni,nia->na", n, frame), 0.0, rtol=0, atol=1e-15)


def golden_angle_scan(c, rho):
    """The search with the algebraic seeds switched off."""
    original = acoustics.real_eigenvectors
    acoustics.real_eigenvectors = lambda s: None
    try:
        return find_pure_longitudinal(c, rho)
    finally:
        acoustics.real_eigenvectors = original


def hit_record(hit):
    """Every field of a hit, the direction by its bytes and NaN comparable."""
    velocity = "nan" if math.isnan(hit.velocity) else hit.velocity
    return hit.direction.tobytes(), hit.residual, velocity, hit.seed_index, hit.kind


def near_hexagonal(eps):
    h = voigt_to_full(hexagonal_voigt(400.0, 140.0, 120.0, 350.0, 100.0))
    rng = np.random.default_rng(1)
    return h + eps * 4 / 100 * voigt_to_full(random_spd_voigt(rng) * rng.uniform(80.0, 200.0))


class TestAlgebraicSeeds:
    """The search seeds Newton with the real eigenvectors of ``s`` and keeps
    that result only when it accounts for every root; otherwise it runs the
    golden-angle search."""

    @staticmethod
    def assert_same_hit_set(scan, golden):
        assert scan.morse == golden.morse and scan.certified == golden.certified
        a = np.array([h.direction for h in scan.hits])
        b = np.array([h.direction for h in golden.hits])
        assert a.shape == b.shape
        chord = np.minimum(np.linalg.norm(a[:, None] - b[None], axis=2),
                           np.linalg.norm(a[:, None] + b[None], axis=2))
        match = chord.argmin(axis=1)
        assert chord.min(axis=1).max() <= 1e-9 and chord.min(axis=0).max() <= 1e-9
        assert sorted(match.tolist()) == list(range(len(b)))
        assert [h.kind for h in scan.hits] == [golden.hits[j].kind for j in match]

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e9])
    def test_cubic_paths_agree(self, scale):
        scan = find_pure_longitudinal(W * scale, 1.0)
        assert scan.seeds == len(scan.hits) == 13
        self.assert_same_hit_set(scan, golden_angle_scan(W * scale, 1.0))

    @pytest.mark.parametrize("c44", [59.99, 59.999, 59.9999])
    def test_pitchfork_paths_agree(self, c44):
        c = voigt_to_full(orthorhombic_voigt(
            300.0, 250.0, 200.0, 100.0, 90.0, 80.0, c44, 70.0, 80.0))
        scan = find_pure_longitudinal(c, 1.0)
        assert scan.seeds == len(scan.hits) == 5
        self.assert_same_hit_set(scan, golden_angle_scan(c, 1.0))

    def test_random_paths_agree(self):
        algebraic = 0
        for seed in range(40):
            c = voigt_to_full(random_spd_voigt(np.random.default_rng(seed)))
            scan = find_pure_longitudinal(c, 2.5)
            algebraic += scan.seeds == len(scan.hits)
            self.assert_same_hit_set(scan, golden_angle_scan(c, 2.5))
        assert algebraic == 39  # all but seed 5

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_near_hexagonal_paths_agree(self, eps):
        # 1e-3 lies close to the root-gap limit, so either path may run
        c = near_hexagonal(eps)
        scan = find_pure_longitudinal(c, 4.0)
        assert len(scan.hits) == 7 and scan.certified is True
        self.assert_same_hit_set(scan, golden_angle_scan(c, 4.0))

    @pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-5, 1e-4])
    def test_hexagonal_falls_back_bitwise(self, monkeypatch, eps):
        # an exact family makes P(sigma) singular, which ends the attempt
        # before the eigen solve; close to a family the 13 chart roots do
        # not stand clear of the roots at infinity.  The exact family is
        # answered in closed form before the resultant, by either search.
        c = near_hexagonal(eps)
        with monkeypatch.context() as m:
            if eps == 0.0:
                m.setattr(np.linalg, "eig", lambda a: pytest.fail("eig called"))
            assert real_eigenvectors(sa_split(c).s) is None
        scan, golden = find_pure_longitudinal(c, 4.0), golden_angle_scan(c, 4.0)
        assert scan.seeds == golden.seeds == (0 if eps == 0.0 else 100)
        assert (scan.axis is None) is (golden.axis is None) is (eps != 0.0)
        assert scan.all_directions_pure is golden.all_directions_pure is False
        assert [hit_record(h) for h in scan.hits] == [hit_record(h) for h in golden.hits]

    @pytest.mark.parametrize("change", ["duplicate", "drop"])
    def test_roots_that_miss_a_hit_fall_back(self, monkeypatch, change):
        # a root polished onto another's hit, or a missing maximum (which
        # breaks the Euler check), sends the search to the golden-angle seeds
        roots = real_eigenvectors(sa_split(W).s)
        bad = np.vstack([roots, roots[:1]]) if change == "duplicate" else roots[1:]
        monkeypatch.setattr(acoustics, "real_eigenvectors", lambda s: bad)
        scan = find_pure_longitudinal(W, 1.0)
        assert scan.seeds == 100 and len(scan.hits) == 13 and scan.certified is True

    def test_tolerance_nothing_meets_falls_back(self, monkeypatch):
        # no polished root meets a tolerance of 1e-20, so the algebraic result
        # is dropped and the golden-angle search doubles its seeds to the cap
        c = voigt_to_full(random_spd_voigt(np.random.default_rng(3)))
        assert real_eigenvectors(sa_split(c).s) is not None
        monkeypatch.setattr(acoustics, "PURITY_TOL", 1e-20)
        scan = find_pure_longitudinal(c, 1.0, grid_n=400)
        assert scan.hits == () and scan.seeds == 400 and scan.certified is False

    def test_hits_are_listed_by_decreasing_velocity(self):
        scan = find_pure_longitudinal(W, 19.25)
        velocities = [h.velocity for h in scan.hits]
        assert velocities == sorted(velocities, key=lambda v: -round(v, 12))
        assert [h.kind for h in scan.hits] == ["max"] * 4 + ["saddle"] * 6 + ["min"] * 3
        assert [h.seed_index for h in scan.hits] == list(range(13))

    def test_seeds_are_the_real_eigenvectors(self, rng):
        for _ in range(5):
            s = sa_split(voigt_to_full(random_spd_voigt(rng))).s
            seeds = real_eigenvectors(s)
            np.testing.assert_allclose(np.linalg.norm(seeds, axis=1), 1.0, rtol=0, atol=1e-15)
            g = np.einsum("ijkl,nj,nk,nl->ni", s, seeds, seeds, seeds)
            along = np.einsum("ni,ni->n", g, seeds)[:, None] * seeds
            # seeds, to be polished: a root far out in the chart is the least accurate
            assert np.abs(g - along).max() <= 1e-6 * frobenius_norm4(s)
            f = np.einsum("ni,ni->n", g, seeds)
            assert (np.diff(f) <= 0).all()

    def test_tables_equal_loop_oracle(self):
        r, r15, q = tensor_eigen._tables()
        np.testing.assert_allclose(r @ r.T, np.eye(3), rtol=0, atol=1e-15)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-15)
        oracle_r15, oracle_q = chart_tables_oracle(r, tensor_eigen._SHIFT)
        assert r15.tobytes() == oracle_r15.tobytes() and q.tobytes() == oracle_q.tobytes()
        assert not (r.flags.writeable or r15.flags.writeable or q.flags.writeable)


def jittered_hexagonal(k):
    """The benchmark's ``hexagonal_voigt(default_rng(k), jitter=0.3)`` as a
    stiffness tensor: transversely isotropic about z."""
    c11, c12, c13, c33, c44 = np.array([400.0, 140.0, 120.0, 350.0, 100.0]) * (
        1.0 + np.random.default_rng(k).uniform(-0.3, 0.3, 5))
    return voigt_to_full(hexagonal_voigt(c11, c12, c13, c33, c44))


def ti_quartic(alpha, beta, gamma, axis):
    """The totally symmetric ``s`` with ``s:nnnn = alpha + beta c^2 + gamma
    c^4`` on unit ``n``, where ``c = n.e`` and ``e`` is the unit ``axis``."""
    e = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    terms = (np.einsum("ij,kl->ijkl", np.eye(3), np.eye(3)),
             np.einsum("i,j,kl->ijkl", e, e, np.eye(3)),
             np.einsum("i,j,k,l->ijkl", e, e, e, e))
    return sum(weight * sum(np.transpose(term, p) for p in itertools.permutations(range(4)))
               for weight, term in zip((alpha, beta, gamma), terms)) / 24.0


class TestTransverselyIsotropic:
    """An exactly transversely isotropic ``s`` is answered in closed form:
    the axis, one point of the basal ring and one of the cone, if any, with
    ``seeds`` 0, the axis reported and the result certified."""

    @pytest.mark.parametrize("k", range(20))
    def test_families_cover_the_newton_hits(self, k):
        # the resultant fails on every one of these inputs, and the golden-angle
        # Newton solve, which answered them before, samples each family; every
        # sample lies on a reported set, with that set's kind and velocity
        c = jittered_hexagonal(k)
        scan = find_pure_longitudinal(c, 4.0)
        assert real_eigenvectors(sa_split(c).s) is None
        newton = acoustics._newton_search(sa_split(c), 4.0, fibonacci_sphere(100))
        assert scan.seeds == 0 and scan.certified is True
        assert scan.axis.tolist() == [0.0, 0.0, 1.0]
        assert scan.hits[0].direction.tobytes() == scan.axis.tobytes()
        assert [h.kind for h in scan.hits[1:]] == ["family"] * (len(scan.hits) - 1)
        assert len(scan.hits) in (2, 3) and scan.hits[1].direction[2] == 0.0
        heights = np.array([h.direction[2] for h in scan.hits])
        for hit in newton.hits:
            j = int(np.abs(heights - abs(hit.direction[2])).argmin())
            assert abs(heights[j] - abs(hit.direction[2])) <= 1e-9
            assert hit.kind == scan.hits[j].kind
            assert hit.velocity == pytest.approx(scan.hits[j].velocity, rel=1e-12, abs=0)
        # the solve misses the axis on the two inputs whose cone lies 12
        # degrees from it
        assert any(abs(h.direction[2]) == 1.0 for h in newton.hits) is (k not in (12, 13))

    @pytest.mark.parametrize("alpha, beta, gamma, axis, kinds", [
        (300.0, -40.0, 60.0, [0.0, 0.0, 1.0], ["max", "family", "family"]),
        (300.0, 40.0, 60.0, [1.0, 2.0, 3.0], ["max", "family"]),
        (300.0, 70.0, -60.0, [-1.0, 2.0, 0.5], ["min", "family", "family"]),
        (300.0, -20.0, -30.0, [0.0, 1.0, 0.0], ["min", "family"]),
        # gamma = -7 beta / 6 makes P = 0, so the axis comes from s_ijkl s_mjkl
        (300.0, -60.0, 70.0, [2.0, -1.0, 0.0], ["max", "family", "family"]),
    ])
    def test_closed_form_of_a_built_quartic(self, alpha, beta, gamma, axis, kinds):
        s, rho = ti_quartic(alpha, beta, gamma, axis), 2.0
        e = np.asarray(axis) / np.linalg.norm(axis)
        scan = find_pure_longitudinal(s, rho)
        assert scan.seeds == 0 and scan.certified is True and not scan.all_directions_pure
        assert min(np.linalg.norm(scan.axis - e), np.linalg.norm(scan.axis + e)) <= 1e-12
        assert [h.kind for h in scan.hits] == kinds
        heights = [float(h.direction @ e) ** 2 for h in scan.hits]
        want = [1.0, 0.0] + [-beta / (2.0 * gamma)] * (len(kinds) - 2)
        np.testing.assert_allclose(heights, want, rtol=0, atol=1e-12)
        f = [alpha + beta * c2 + gamma * c2 * c2 for c2 in want]
        np.testing.assert_allclose([h.velocity for h in scan.hits], np.sqrt(np.divide(f, rho)),
                                   rtol=1e-12, atol=0)
        assert all(h.residual <= acoustics.PURITY_TOL for h in scan.hits)

    @pytest.mark.parametrize("rotate, scale", [(True, 1.0), (False, 1e-9), (False, 1e9)])
    def test_rotation_and_unit_scale(self, rotate, scale):
        q, r = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))
        q = q * np.sign(np.diag(r)) if rotate else np.eye(3)
        c = jittered_hexagonal(12)
        reference = find_pure_longitudinal(c, 4.0)
        scan = find_pure_longitudinal(
            np.einsum("ia,jb,kc,ld,abcd->ijkl", q, q, q, q, c) * scale, 4.0)
        assert scan.seeds == 0 and scan.certified is True
        axis = q[:, 2]
        assert min(np.linalg.norm(scan.axis - axis), np.linalg.norm(scan.axis + axis)) <= 1e-12
        assert [h.kind for h in scan.hits] == [h.kind for h in reference.hits]
        np.testing.assert_allclose([abs(h.direction @ axis) for h in scan.hits],
                                   [h.direction[2] for h in reference.hits], rtol=0, atol=1e-12)
        np.testing.assert_allclose([h.velocity for h in scan.hits],
                                   [h.velocity * math.sqrt(scale) for h in reference.hits],
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", [
        "flat-ring", "flat-axis", "cone-at-axis", "cone-at-ring", "cubic", "triclinic",
        "near-1e-6", "near-1e-4", "near-1e-2"])
    def test_other_inputs_are_left_to_the_search(self, case):
        # a flat ring (beta = 0), axis (beta + 2 gamma = 0) or cone, a cubic
        # or triclinic s, and a 4e-8 to 4e-4 perturbation of an exact form
        s = {
            "flat-ring": lambda: ti_quartic(300.0, 0.0, 60.0, EZ),
            "flat-axis": lambda: ti_quartic(300.0, -120.0, 60.0, EZ),
            "cone-at-axis": lambda: ti_quartic(300.0, -120.0 * (1.0 - 1e-12), 60.0, EZ),
            "cone-at-ring": lambda: ti_quartic(300.0, -1e-6, 60.0, EZ),
            "cubic": lambda: sa_split(W).s,
            "triclinic": lambda: sa_split(voigt_to_full(
                random_spd_voigt(np.random.default_rng(3)))).s,
        }.get(case, lambda: sa_split(near_hexagonal(float(case[5:]))).s)()
        split = sa_split(s)
        assert acoustics._transversely_isotropic(split, 1.0, *harmonic_split(split.s)) is None


def zonal_oracle(e):
    """``Z_e = eeee - (6/7) sym(ee g) + (3/35) sym(g g)``, ``sym`` the average
    over the 24 index permutations, term by term."""
    g = np.eye(3)

    def sym(t):
        return sum(np.transpose(t, p) for p in itertools.permutations(range(4))) / 24.0

    return (np.einsum("i,j,k,l->ijkl", e, e, e, e)
            - 6.0 / 7.0 * sym(np.einsum("i,j,kl->ijkl", e, e, g))
            + 3.0 / 35.0 * sym(np.einsum("ij,kl->ijkl", g, g)))


def three_point_fit_oracle(s, axis):
    """``alpha, beta, gamma`` of ``s:nnnn = alpha + beta c^2 + gamma c^4``
    read from ``s:nnnn`` at the polar angles 0, 90 and 45 degrees about the
    unit ``axis``: the fit the transversely isotropic closed form used before
    it read the coefficients off ``S``, ``P`` and ``R``."""
    ring = np.cross(axis, np.eye(3)[np.abs(axis).argmin()])
    ring /= np.linalg.norm(ring)
    f_axis, alpha, f_half = (float(np.einsum("ijkl,i,j,k,l->", s, n, n, n, n))
                             for n in (axis, ring, (axis + ring) * math.sqrt(0.5)))
    beta_gamma, two_beta_gamma = f_axis - alpha, 4.0 * (f_half - alpha)
    return alpha, two_beta_gamma - beta_gamma, 2.0 * beta_gamma - two_beta_gamma


def all_pure_oracle(s):
    """The all-pure rule the search used before it read ``P`` and ``R``: the
    purity residual of ``s.nn`` is at most ``PURITY_TOL`` on 100 golden-angle
    directions."""
    n = fibonacci_sphere(100)
    sc = np.einsum("ijkl,nj,nk->nil", s, n, n)
    sn = np.einsum("nil,nl->ni", sc, n)
    residual = sn - np.einsum("ni,ni->n", n, sn)[:, None] * n
    scale = np.linalg.norm(sc, axis=(1, 2))
    return bool((np.linalg.norm(residual, axis=1) / scale).max() <= acoustics.PURITY_TOL)


class TestClosedFormShortCuts:
    """Both short cuts of the search are read off ``S``, ``P`` and ``R``:
    every direction is pure exactly when ``P = R = 0``, and ``s`` is
    transversely isotropic exactly when ``P = p (ee - g/3)`` and ``R = r Z_e``."""

    def test_zonal_harmonic(self, rng):
        for _ in range(20):
            e, n = random_unit(rng), random_unit(rng)
            zonal = harmonic_split(np.einsum("i,j,k,l->ijkl", e, e, e, e))[2]
            assert np.abs(zonal - zonal_oracle(e)).max() <= 1e-15
            c2 = float(n @ e) ** 2
            assert float(np.einsum("ijkl,i,j,k,l->", zonal, n, n, n, n)) == pytest.approx(
                c2 * c2 - 6.0 / 7.0 * c2 + 3.0 / 35.0, rel=0, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    @pytest.mark.parametrize("k", range(20))
    def test_quartic_equals_the_three_point_fit(self, k, scale):
        q, r = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        c = np.einsum("ia,jb,kc,ld,abcd->ijkl", q, q, q, q, jittered_hexagonal(k)) * scale
        s = sa_split(c).s
        axis, *coefficients = acoustics._ti_quartic(*harmonic_split(s), frobenius_norm4(s))
        assert min(np.linalg.norm(axis - q[:, 2]), np.linalg.norm(axis + q[:, 2])) <= 1e-12
        np.testing.assert_allclose(coefficients, three_point_fit_oracle(s, axis), rtol=0,
                                   atol=1e-14 * frobenius_norm4(s))

    @pytest.mark.parametrize("scale", [1e-150, 1e150, 1e-160, 1e155, 1e-200, 1e200, 1e-300,
                                       1e300])
    def test_closed_form_at_extreme_unit_scales(self, scale):
        # the form is read off S, P and R in the binary unit of ||s||: in the
        # stiffness unit the cube of the deviator leaves the double range near
        # 1e+-103, the axis norm and R R^T near 1e+-155, and the cone test near
        # 1e-200 (this material has a cone)
        c = voigt_to_full(hexagonal_voigt(400.0, 140.0, 120.0, 350.0, 100.0))
        scan, unit = find_pure_longitudinal(c * scale, 3.0), find_pure_longitudinal(c, 3.0)
        assert scan.axis is not None and scan.seeds == 0 and scan.certified is True
        assert len(scan.hits) == len(unit.hits)
        for hit, want in zip(scan.hits, unit.hits):
            assert np.abs(hit.direction - want.direction).max() <= 1e-12

    @pytest.mark.parametrize("part", ["P", "R"])
    def test_each_residual_is_checked(self, part):
        # a 1e-10 relative departure of P alone (one that keeps the axis read
        # off P) or of R alone: under the purity tolerance of the hits, over
        # the transversely isotropic one
        s = ti_quartic(300.0, -40.0, 60.0, EZ)
        if part == "P":
            extra = generator_tensors(0.0, np.diag([1.0, -1.0, 0.0]), 0.0, np.zeros((3, 3)))[1]
        else:
            extra = harmonic_split(sa_split(random_stiffness(np.random.default_rng(2))).s)[2]
        s = s + 1e-10 * frobenius_norm4(s) / frobenius_norm4(extra) * extra
        assert acoustics._ti_quartic(*harmonic_split(s), frobenius_norm4(s)) is None
        split = sa_split(s)
        assert acoustics._transversely_isotropic(split, 1.0, *harmonic_split(split.s)) is None

    @pytest.mark.parametrize("case, pure", [
        ("iso-1", True), ("iso-1e-9", True), ("iso-1e9", True), ("iso+1e-14", True),
        ("iso+1e-6", False), ("W", False), ("P-only", False)])
    def test_all_pure_agrees_with_the_seed_rule(self, case, pure):
        tri = voigt_to_full(random_spd_voigt(np.random.default_rng(3)))
        tri *= frobenius_norm4(ISO) / frobenius_norm4(tri)
        deviator = random_symmetric3(np.random.default_rng(5))
        deviator -= np.trace(deviator) / 3.0 * np.eye(3)
        if case == "W":
            c = W
        elif case == "P-only":
            c = sum(generator_tensors(30.0, deviator, 0.0, np.zeros((3, 3)))[:2])
        elif case.startswith("iso-"):
            c = ISO * float(case[4:])
        else:
            c = ISO + float(case[4:]) * tri
        s = sa_split(c).s
        _scalar, dev_p, harm_r = harmonic_split(s)
        if case == "W":  # P = 0, R != 0
            assert frobenius_norm2(dev_p) <= 1e-15 * frobenius_norm4(s) < frobenius_norm4(harm_r)
        if case == "P-only":  # P != 0, R = 0
            assert frobenius_norm4(harm_r) <= 1e-15 * frobenius_norm4(s) < frobenius_norm2(dev_p)
        scan = find_pure_longitudinal(c, 1.0)
        assert scan.all_directions_pure is all_pure_oracle(s) is pure
        assert (scan.seeds == 0 and scan.hits == ()) if pure else scan.hits

    def test_seeds_are_built_only_on_a_fallback(self, monkeypatch):
        def no_seeds(count):
            raise AssertionError(f"{count} golden-angle seeds built")

        monkeypatch.setattr(acoustics, "fibonacci_sphere", no_seeds)
        triclinic = voigt_to_full(random_spd_voigt(np.random.default_rng(3)))
        assert len(find_pure_longitudinal(W, 1.0).hits) == 13
        scan = find_pure_longitudinal(triclinic, 1.0)
        assert scan.seeds == len(scan.hits) > 0
        assert find_pure_longitudinal(ISO, 1.0).all_directions_pure
        assert find_pure_longitudinal(jittered_hexagonal(0), 4.0).axis is not None


class TestBatchedMerge:
    """The merge and the canonical directions are computed for all hits at
    once, bitwise equal to the loop over winners they replace."""

    @pytest.mark.parametrize("case", [
        "hexagonal", "near-hexagonal-1e-6", "near-hexagonal-1e-5", "cubic", "cubic-2000",
        "non-causal", "random", "tight-tol"])
    def test_equals_the_winner_loop(self, monkeypatch, case):
        count, rho = 100, 1.0
        if case == "hexagonal":
            c = voigt_to_full(hexagonal_voigt(4.0, 1.4, 1.2, 3.5, 1.0))
        elif case.startswith("near-hexagonal"):
            c, rho = near_hexagonal(float(case.split("-")[-1])), 4.0
        elif case.startswith("cubic"):
            c = W
            count = 2000 if case.endswith("2000") else 100  # 2000 points: merged in blocks
        elif case == "non-causal":
            b = np.random.default_rng(0).uniform(-1, 1, (6, 6))
            c, rho = voigt_to_full((0.5 * (b + b.T) + np.diag([0.3] * 3 + [0.5] * 3)) * 100), 3.0
        else:
            c = voigt_to_full(random_spd_voigt(np.random.default_rng(7)))
            if case == "tight-tol":
                monkeypatch.setattr(acoustics, "PURITY_TOL", 1e-20)
        split = sa_split(c)
        scan = acoustics._newton_search(split, rho, fibonacci_sphere(count))
        oracle = newton_search_oracle(split.s, rho, count, acoustics.PURITY_TOL)
        assert scan.seeds == oracle.seeds == count
        assert [hit_record(h) for h in scan.hits] == [hit_record(h) for h in oracle.hits]
        if case == "hexagonal":
            assert scan.morse["family"] > 50

    @pytest.mark.parametrize("case", ["W", "near-hexagonal"]
                             + [f"triclinic-{k}" for k in range(20)])
    def test_small_set_polish_equals_the_oracle(self, case):
        # Newton from the real eigenvectors of s: at most 13 points, so the
        # merge may answer from the Gram matrix alone
        rho = 1.0
        if case == "W":
            c = W
        elif case == "near-hexagonal":
            c, rho = near_hexagonal(1e-3), 4.0
        else:
            rng = np.random.default_rng(26)
            for _ in range(int(case.split("-")[1]) + 1):
                c = voigt_to_full(random_spd_voigt(rng))
        split = sa_split(c)
        roots = real_eigenvectors(split.s)
        scan = acoustics._newton_search(split, rho, roots)
        oracle = newton_search_oracle(split.s, rho, roots, acoustics.PURITY_TOL)
        assert scan.seeds == oracle.seeds == len(roots)
        assert [hit_record(h) for h in scan.hits] == [hit_record(h) for h in oracle.hits]
        assert [list(map(type, h)) for h in scan.hits] == [list(map(type, h)) for h in oracle.hits]

    def test_merge_at_its_radii(self, rng):
        # pairs planted just inside and outside each merge radius, at the
        # Gram bound sqrt(2) _FAMILY_MERGE and as antipodes, in sets up to the
        # 64 points one block compares at once and one set past that
        point, family_merge = acoustics._POINT_MERGE, acoustics._FAMILY_MERGE
        radii = [0.0, 0.5 * point, 2.0 * point, 0.5 * family_merge, 0.9 * family_merge,
                 2.0 * family_merge] + [
            math.sqrt(2.0) * family_merge * (1.0 + d) for d in (-1e-6, 0.0, 1e-6)]
        far = []
        for count in list(range(2, 65)) * 2 + [65]:
            points = rng.normal(size=(count, 3))
            points /= np.linalg.norm(points, axis=1)[:, None]
            family = rng.random(count) < 0.5
            for i in range(1, count):
                if rng.random() < 0.7:
                    continue
                j = int(rng.integers(i))
                tangent = np.cross(points[j], random_unit(rng))
                tangent /= np.linalg.norm(tangent)
                angle = 2.0 * math.asin(0.5 * radii[rng.integers(len(radii))])
                points[i] = math.cos(angle) * points[j] + math.sin(angle) * tangent
                points[i] *= rng.choice([-1.0, 1.0])
                family[i] = family[j] = family[i] or rng.random() < 0.5
            gram = np.abs(points @ points.T) - np.eye(count)
            far.append(bool(gram.max() < 1.0 - family_merge ** 2))
            winners = acoustics._merge(points, family)
            assert winners.dtype == np.arange(1).dtype
            assert winners.tolist() == merge_oracle(points, family)
        assert 0 < sum(far) < len(far)

    @pytest.mark.parametrize("shape", [(), (13,), (2000,)])
    def test_purity_equals_the_norm_form(self, rng, shape):
        m = rng.normal(size=shape + (3, 3))
        m = m + np.swapaxes(m, -1, -2)
        n = rng.normal(size=shape + (3,))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        for matrices in (m, np.zeros_like(m), np.where(rng.random(shape + (1, 1)) < 0.3, 0.0, m)):
            got, want = acoustics._purity(matrices, n), purity_oracle(matrices, n)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_canonical_direction_rows(self, rng):
        r2, r3 = math.sqrt(0.5), math.sqrt(1.0 / 3.0)
        rows = np.vstack([
            [[-0.0, 0.0, -1.0], [1e-17, -1.0, 0.0], [-r2, r2, 0.0], [r2, -r2, 0.0],
             [-r3, -r3, -r3], [0.6, -0.8, -1e-13], [-0.0, -0.6, 0.8 + 1e-16]],
            rng.normal(size=(200, 3)),
        ])
        rows[7:] /= np.linalg.norm(rows[7:], axis=1)[:, None]
        batch = acoustics._canonical_direction(rows)
        assert [row.tobytes() for row in batch] == [
            canonical_direction_oracle(row).tobytes() for row in rows]


class TestShearPolarization:
    def test_along_z_characterized_by_double_orthogonality(self, rng):
        # the defining system says U is orthogonal to both n and the Cauchy
        # column S n; for n = e3 that pins U to (-S23, S13, 0) up to scale
        c = random_stiffness(rng)
        bundle = christoffel(c, EZ, 1.0)
        u = shear_polarization(bundle)
        sc = bundle.cauchy
        assert np.isfinite(u).all()
        assert abs(u @ EZ) <= 1e-13
        assert abs(u @ (sc @ EZ)) <= 1e-12 * np.linalg.norm(sc @ EZ)
        expect = np.array([-sc[1, 2], sc[0, 2], 0.0])
        expect /= np.linalg.norm(expect)
        assert min(np.abs(u - expect).max(), np.abs(u + expect).max()) <= 1e-12

    def test_explicit_cross_product_components(self, rng):
        c = random_stiffness(rng)
        bundle = christoffel(c, EZ, 1.0)
        sc = bundle.cauchy
        u = shear_polarization(bundle)
        raw = np.cross(EZ, sc @ EZ)
        assert np.allclose(u, raw / np.linalg.norm(raw), atol=1e-13)

    def test_isotropic_degenerates_everywhere(self, rng):
        for _ in range(10):
            bundle = christoffel(ISO, random_unit(rng), 1.0)
            assert np.isnan(shear_polarization(bundle)).all()

    def test_invariant_under_non_cauchy_replacement(self, rng):
        s = sa_split(random_stiffness(rng)).s
        n = random_unit(rng)
        reference = shear_polarization(christoffel(s, n, 1.0))
        assert np.isfinite(reference).all()
        for _ in range(20):
            c = s + a_from_delta(random_symmetric3(rng))
            u = shear_polarization(christoffel(c, n, 1.0))
            assert np.allclose(u, reference, atol=1e-12)


class TestShearVelocity:
    def test_explicit_quotient_along_z(self, rng):
        # Rayleigh quotient in Gamma, S13, S23 for any in-plane vector; the
        # pure-shear polarization (-S23, S13, 0) swaps the squared weights
        c = random_stiffness(rng)
        bundle = christoffel(c, EZ, 1.0)
        g, sc = bundle.gamma, bundle.cauchy
        s13, s23 = sc[0, 2], sc[1, 2]
        denominator = s13 ** 2 + s23 ** 2
        quotient = (
            g[0, 0] * s13 ** 2 + 2 * g[0, 1] * s13 * s23 + g[1, 1] * s23 ** 2
        ) / denominator
        if quotient > 0:
            assert shear_velocity(bundle, [s13, s23, 0.0]) ** 2 == pytest.approx(
                quotient, rel=1e-12)
        pol = shear_polarization(bundle)
        expect_pol = (
            g[0, 0] * s23 ** 2 - 2 * g[0, 1] * s13 * s23 + g[1, 1] * s13 ** 2
        ) / denominator
        if expect_pol > 0:
            assert shear_velocity(bundle, pol) ** 2 == pytest.approx(
                expect_pol, rel=1e-12)

    def test_isotropic_transverse(self, rng):
        n = random_unit(rng)
        bundle = christoffel(ISO, n, 1.0)
        u = np.cross(n, random_unit(rng))
        assert shear_velocity(bundle, u) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_zero_polarization_rejected(self):
        with pytest.raises(ValueError):
            shear_velocity(christoffel(ISO, EZ, 1.0), np.zeros(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size", [1e-200, 1e200])
    def test_extreme_polarization_scale(self, size):
        # u . u would underflow to 0 or overflow to inf, and the quotient read NaN
        bundle = christoffel(ISO, EZ, 1.0)
        assert shear_velocity(bundle, [size, 0.0, 0.0]) == 1.0
        batch = christoffel(ISO, [EZ, EZ], 1.0)
        assert shear_velocity(batch, [[size, 0.0, 0.0], [0.0, 1.0, 0.0]]).tolist() == [1.0, 1.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0]])
    def test_non_finite_polarization_rejected(self, u):
        # a NaN polarization must not pass for a non-causal mode
        with pytest.raises(ValueError, match="finite"):
            shear_velocity(christoffel(ISO, EZ, 1.0), u)
        with pytest.raises(ValueError, match="finite"):
            shear_velocity(christoffel(ISO, [EZ, EZ], 1.0), [[1.0, 0.0, 0.0], u])


class TestNonCausalIsNaN:
    """A non-causal mode (v^2 <= 0) reads NaN from every velocity, never 0
    and never an exception."""

    @pytest.mark.parametrize("lam", [-2.0, -3.0])  # v_L^2 = lam + 2 mu = 0 and -1
    def test_longitudinal(self, lam):
        c = isotropic_stiffness(lam, 1.0)
        bundle = christoffel(c, EZ, 1.0)
        assert math.isnan(longitudinal_velocity(bundle))
        assert np.isnan(longitudinal_velocity(christoffel(c, [EZ, [1.0, 0.0, 0.0]], 1.0))).all()
        wave = wave_solve(bundle)
        assert math.isnan(wave.velocities[2]) and not wave.causal
        # every direction of an isotropic tensor is pure, so the search
        # reports no hits; a solve seeded on z gives the hit there
        hit, = acoustics._newton_search(sa_split(c), 1.0, EZ[None]).hits
        assert math.isnan(hit.velocity)

    @pytest.mark.parametrize("mu", [0.0, -1.0])  # both shear v^2 = mu along z
    def test_shear(self, mu):
        bundle = christoffel(isotropic_stiffness(4.0, mu), EZ, 1.0)
        assert math.isnan(shear_velocity(bundle, [1.0, 0.0, 0.0]))
        assert math.isnan(shear_velocity(bundle, [0.0, 3.0, 0.0]))
        wave = wave_solve(bundle)
        assert np.isnan(wave.velocities[1:]).all() and not wave.causal


class TestBatchedWrappers:
    """On a direction array ``(N, 3)``, ``longitudinal_velocity``,
    ``shear_velocity``, ``shear_sum``, ``shear_polarization`` and
    ``shear_condition_residual`` give row by row the single call."""

    @pytest.mark.parametrize("kind", ["W", "triclinic", "non-SPD"])
    def test_rows_equal_single_calls(self, rng, kind):
        b = np.random.default_rng(0).uniform(-1, 1, (6, 6))
        c, rho = {
            "W": (W, 19.25),
            "triclinic": (voigt_to_full(random_spd_voigt(rng)), 2.5),
            "non-SPD": (voigt_to_full((0.5 * (b + b.T) + np.diag([0.3] * 3 + [0.5] * 3)) * 100),
                        3.0),
        }[kind]
        parts = decompose(c)
        dirs = np.concatenate([fibonacci_sphere(200), [EZ]])
        bundle = christoffel(c, dirs, rho)
        u = wave_solve(bundle).polarizations[:, :, 2]
        v_l, v_s = longitudinal_velocity(bundle), shear_velocity(bundle, u)
        sums = shear_sum(parts, dirs, rho)
        pol, pol_residual = shear_polarization(bundle), shear_condition_residual(bundle)
        assert v_l.shape == v_s.shape == sums.shape == pol_residual.shape == (len(dirs),)
        assert pol.shape == (len(dirs), 3)
        for i, n in enumerate(dirs):
            row = ChristoffelBundle(bundle.gamma[i], bundle.cauchy[i], bundle.non_cauchy[i],
                                    n, rho)
            assert np.array_equal(v_l[i], longitudinal_velocity(row), equal_nan=True)
            assert np.array_equal(v_s[i], shear_velocity(row, u[i]), equal_nan=True)
            assert sums[i] == shear_sum(parts, n, rho)
            assert np.array_equal(pol[i], shear_polarization(row), equal_nan=True)
            assert pol_residual[i] == shear_condition_residual(row)
        # of these rows only EZ on the cubic W is longitudinal-pure: NaN, residual 0
        pure = np.isnan(pol).all(axis=1)
        assert pure.tolist() == [False] * (len(dirs) - 1) + [kind == "W"]
        assert (pol_residual[pure] == 0.0).all() and not np.isnan(pol[~pure]).any()
        if kind == "non-SPD":
            for v in (v_l, v_s):
                assert 0 < np.isnan(v).sum() < len(dirs)
        else:
            assert not (np.isnan(v_l).any() or np.isnan(v_s).any())


class TestShearCondition:
    def test_explicit_system_along_z(self, rng):
        # for n = e3 the residual vector reproduces, component by component,
        # the explicit three-equation system in Gamma, S13, S23 (the third
        # equation collapses to A13 S23 - A23 S13, identically zero)
        c = random_stiffness(rng)
        bundle = christoffel(c, EZ, 1.0)
        g, sc, a = bundle.gamma, bundle.cauchy, bundle.non_cauchy
        s13, s23 = sc[0, 2], sc[1, 2]
        u = np.cross(EZ, sc @ EZ)
        assert np.allclose(u, [-s23, s13, 0.0], atol=1e-14)
        v2 = (u @ g @ u) / (u @ u)
        w = g @ u - v2 * u
        eq1 = g[0, 0] * s23 - g[0, 1] * s13 - v2 * s23
        eq2 = g[1, 1] * s13 - g[0, 1] * s23 - v2 * s13
        eq3 = a[0, 2] * s23 - a[1, 2] * s13
        assert w[0] == pytest.approx(-eq1, abs=1e-13)
        assert w[1] == pytest.approx(eq2, abs=1e-13)
        assert w[2] == pytest.approx(-eq3, abs=1e-13)
        assert abs(eq3) <= 1e-14

    def test_zero_for_symmetry_directions_of_cubic(self):
        for n in ([0, 0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]):
            n = np.asarray(n) / np.linalg.norm(n)
            assert shear_condition_residual(christoffel(W, n, 1.0)) <= 1e-12

    def test_positive_off_symmetry(self, rng):
        n = np.array([0.3, 0.5, 0.9])
        n /= np.linalg.norm(n)
        assert shear_condition_residual(christoffel(W, n, 1.0)) > 1e-6

    def test_matches_eigen_residual(self, rng):
        c = random_stiffness(rng)
        n = random_unit(rng)
        bundle = christoffel(c, n, 1.0)
        u = np.cross(n, bundle.cauchy @ n)
        v2 = (u @ bundle.gamma @ u) / (u @ u)
        expect = np.linalg.norm(bundle.gamma @ u - v2 * u) / (
            frobenius_norm2(bundle.gamma) * np.linalg.norm(u)
        )
        assert shear_condition_residual(bundle) == pytest.approx(expect, rel=1e-12)


def w_at(scale):
    """A material of bundled W's Voigt numbers times ``scale``, in GPa."""
    return material_from_dict({
        "schema_version": "1", "name": "W",
        "stiffness": {"unit": "GPa", "voigt": (bundled_material("W").voigt * scale).tolist()}})


# W's Voigt numbers times a decimal or a binary scale, and a density
UNIT_SCALES = [(1e155, 19.25), (1e-160, 19.25), (1.0, 1e-300), (2.0 ** 515, 19.25),
               (2.0 ** -532, 19.25), (1e200, 19.25), (1e-200, 19.25), (1e300, 19.25),
               (1e-300, 19.25)]
UNIT_SCALE_IDS = ["1e155", "1e-160", "rho-1e-300", "2^515", "2^-532", "1e200", "1e-200",
                  "1e300", "1e-300"]


class TestAcousticsUnitScale:
    """The acoustics report, the shear polarization and the eigen residuals
    hold at every unit scale: each norm behind them is taken of rows divided
    by a power of two from their largest entry."""

    DIRS = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("scale,rho", UNIT_SCALES, ids=UNIT_SCALE_IDS)
    def test_report_at_extreme_unit_scales(self, scale, rho):
        # before, 1e155 and density 1e-300 flagged all three pairs degenerate
        # on every row and read the residual at (0.6, 0.8, 0) as 0.0, and
        # 1e-160 read it as 7.39e-4 for 8.35e-4
        (want, want_rows), (got, got_rows) = (
            acoustics_report(w_at(k), r, directions=self.DIRS, scan=100)
            for k, r in ((1.0, 19.25), (scale, rho)))
        json.dumps(got, allow_nan=False)
        ratio = math.sqrt(scale) * math.sqrt(19.25 / rho)
        for a, b in zip(want["acoustics"]["directions"], got["acoustics"]["directions"]):
            assert (b["degenerate_pairs"], b["causal"]) == (a["degenerate_pairs"], a["causal"])
            np.testing.assert_allclose(b["velocities_km_s"],
                                       np.array(a["velocities_km_s"]) * ratio, rtol=1e-14)
            # the scaled Voigt numbers round apart from the unscaled ones, and
            # the residual is a difference of terms 1e3 times larger
            assert b["pure_longitudinal_residual"] == pytest.approx(
                a["pure_longitudinal_residual"], rel=1e-12, abs=0.0)
        assert np.array_equal(got_rows["degenerate"], want_rows["degenerate"])
        np.testing.assert_allclose(got_rows["velocities"], want_rows["velocities"] * ratio,
                                   rtol=1e-14)

    @pytest.mark.parametrize("scale,rho", UNIT_SCALES, ids=UNIT_SCALE_IDS)
    def test_shear_polarization_at_extreme_unit_scales(self, scale, rho):
        # before, 1e155 read NaN rows, and 1e-160 rows of length 1.13 whose
        # shear condition residual read 0.089 for 0
        n = np.vstack([self.DIRS, fibonacci_sphere(50)])
        want, got = (christoffel(w_at(k).stiffness_gpa(), n, r)
                     for k, r in ((1.0, 19.25), (scale, rho)))
        u_want, u_got = shear_polarization(want), shear_polarization(got)
        assert np.isnan(u_got).tolist() == np.isnan(u_want).tolist()
        shear = ~np.isnan(u_got[:, 0])
        assert np.abs(np.linalg.norm(u_got[shear], axis=1) - 1.0).max() <= 4 * np.spacing(1.0)
        # a decimal scale rounds the Voigt numbers apart, and n x (cauchy . n)
        # cancels near the pure directions
        assert np.abs(u_got[shear] - u_want[shear]).max() <= 1e-12
        r_want, r_got = shear_condition_residual(want), shear_condition_residual(got)
        # the residual is relative to ||gamma|| and a difference of terms that
        # size, so it holds to an absolute tolerance
        np.testing.assert_allclose(r_got, r_want, rtol=0.0, atol=1e-14)
        if math.frexp(scale)[0] == 0.5 and rho == 19.25:  # an exact scaling
            assert u_got.tobytes() == u_want.tobytes()
            assert pure_longitudinal_residual(got).tobytes() == \
                pure_longitudinal_residual(want).tobytes()

    @pytest.mark.parametrize("scale,rho", UNIT_SCALES, ids=UNIT_SCALE_IDS)
    def test_pure_modes_at_extreme_unit_scales(self, scale, rho):
        # before, 1e155 overflowed the hits' eigen residuals, and 1e-200 the
        # triclinic search
        a = np.random.default_rng(5).normal(size=(6, 6))
        for voigt in (bundled_material("W").voigt, a @ a.T * 100.0):
            want, got = (find_pure_longitudinal(voigt_to_full(voigt * k), r)
                         for k, r in ((1.0, 19.25), (scale, rho)))
            assert [h.kind for h in got.hits] == [h.kind for h in want.hits]
            assert (got.seeds, got.certified) == (want.seeds, want.certified)
            ratio = math.sqrt(scale) * math.sqrt(19.25 / rho)
            np.testing.assert_allclose([h.velocity for h in got.hits],
                                       [h.velocity * ratio for h in want.hits], rtol=1e-14)
            np.testing.assert_allclose([h.residual for h in got.hits],
                                       [h.residual for h in want.hits], rtol=0.0, atol=1e-15)


class TestShearSum:
    def test_isotropic(self):
        assert shear_sum(decompose(ISO), EZ, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_tungsten_along_axis(self):
        assert shear_sum(decompose(W), EZ, 1.0) == pytest.approx(
            2 * 1.608, abs=1e-12)

    def test_equals_trace_minus_longitudinal_everywhere(self, rng):
        for _ in range(100):
            c = random_stiffness(rng)
            n = random_unit(rng)
            rho = float(rng.uniform(0.5, 3.0))
            parts = decompose(c)
            bundle = christoffel(c, n, rho)
            expect = float(np.trace(bundle.gamma) - n @ bundle.cauchy @ n)
            assert shear_sum(parts, n, rho) == pytest.approx(
                expect, rel=1e-11, abs=1e-11)

    def test_degenerate_pair_splits_equally(self):
        # isotropic: both shear eigenvalues equal half the shear sum
        wave = wave_solve(christoffel(ISO, EZ, 1.0))
        total = shear_sum(decompose(ISO), EZ, 1.0)
        assert wave.eigenvalues[1] == pytest.approx(total / 2, abs=1e-12)
        assert wave.eigenvalues[2] == pytest.approx(total / 2, abs=1e-12)

    def test_constant_corrected_not_printed_variant(self):
        # (4S-5A)/30 reproduces the isotropic 2 mu; (8S-5A)/30 does not
        parts = decompose(ISO)
        s, a = parts.scalar_s, parts.scalar_a
        assert (4 * s - 5 * a) / 30.0 == pytest.approx(2.0, abs=1e-12)
        assert (8 * s - 5 * a) / 30.0 != pytest.approx(2.0, abs=1e-3)


class TestIsotropicClosedForms:
    def test_velocity_pair_formulas(self, rng):
        for lam, mu in [(2.0, 1.0), (1.3, 0.4), (0.9, 2.1)]:
            c = isotropic_stiffness(lam, mu)
            parts = decompose(c)
            rho = 1.7
            wave = wave_solve(christoffel(c, random_unit(rng), rho))
            s, a = parts.scalar_s, parts.scalar_a
            assert wave.eigenvalues[0] == pytest.approx(s / (5 * rho), rel=1e-12)
            assert wave.eigenvalues[1] == pytest.approx(
                (4 * s - 5 * a) / (60 * rho), rel=1e-12)
            assert wave.eigenvalues[2] == pytest.approx(
                (4 * s - 5 * a) / (60 * rho), rel=1e-12)


class TestHexagonalBound:
    def test_stable_family_satisfies_window(self, rng):
        found = 0
        while found < 25:
            c11 = rng.uniform(2.0, 8.0)
            c12 = rng.uniform(-0.5 * c11, 0.9 * c11)
            c33 = rng.uniform(1.0, 8.0)
            c44 = rng.uniform(0.1, 3.0)
            c13 = rng.uniform(-1.0, 3.0)
            m = hexagonal_voigt(c11, c12, c13, c33, c44)
            if np.linalg.eigvalsh(m).min() <= 1e-9:
                continue
            found += 1
            parts = decompose(voigt_to_full(m))
            ell = (2 * parts.dev_p + parts.dev_q)[0, 0]
            bound = (2 * parts.scalar_s - parts.scalar_a)
            assert bound / 6.0 > ell > -bound / 3.0
