import numpy as np
import pytest

from cauchykit.constitutive import (
    energy,
    hooke_full,
    hooke_mean,
    hooke_shear,
    k_mean,
    k_shear,
    lame_from_invariants,
    split_strain,
    split_stress,
    stability_bounds,
)
from cauchykit.decomp import a_from_delta, decompose
from cauchykit.tensor_core import cubic_stiffness, isotropic_stiffness, voigt_to_full

from conftest import random_spd_voigt, random_stiffness, random_symmetric3

W = cubic_stiffness(5.224, 2.044, 1.608)


def lame_stress_oracle(lam, mu, eps):
    return lam * np.trace(eps) * np.eye(3) + 2.0 * mu * eps


class TestSplits:
    def test_identity_strain(self):
        sp = split_strain(np.eye(3))
        assert sp.trace == 3.0
        assert np.abs(sp.shear).max() == 0.0

    def test_already_traceless(self):
        eps = np.diag([1.0, -1.0, 0.0])
        sp = split_strain(eps)
        assert sp.trace == 0.0
        assert np.array_equal(sp.shear, eps)

    def test_recombination(self, rng):
        for _ in range(100):
            eps = random_symmetric3(rng)
            sp = split_strain(eps)
            assert np.allclose(sp.trace / 3.0 * np.eye(3) + sp.shear, eps,
                               atol=1e-15)
            assert abs(np.trace(sp.shear)) <= 1e-13

    def test_stress_split_mirrors_strain_split(self, rng):
        sig = random_symmetric3(rng)
        sp = split_stress(sig)
        assert sp.trace == pytest.approx(np.trace(sig))
        assert abs(np.trace(sp.shear)) <= 1e-13

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            split_strain(np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))

    @pytest.mark.parametrize("scale", [1e-9, 1.0])
    def test_asymmetry_tolerance_is_relative(self, scale):
        eps = scale * np.array([[0.0, 1.0, 0], [1.0005, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="symmetric"):
            split_strain(eps)  # 5e-4 relative asymmetry at every scale

    # NaN fails every comparison, so the symmetry check alone lets it through
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("entry", ["split_strain", "split_stress", "hooke_full", "energy"])
    def test_non_finite_entry_rejected(self, bad, entry):
        eps = 0.01 * np.eye(3)
        eps[0, 0] = bad
        call = {
            "split_strain": lambda: split_strain(eps),
            "split_stress": lambda: split_stress(eps),
            "hooke_full": lambda: hooke_full(W, eps),
            "energy": lambda: energy(decompose(W), eps),
        }[entry]
        with pytest.raises(ValueError, match="non-finite"):
            call()


class TestHookeFull:
    def test_isotropic_identity_strain(self):
        sigma = hooke_full(isotropic_stiffness(2.0, 1.0), np.eye(3))
        assert np.allclose(sigma, np.diag([8.0, 8.0, 8.0]), atol=1e-14)

    def test_matches_lame_oracle(self, rng):
        lam, mu = 1.7, 0.6
        c = isotropic_stiffness(lam, mu)
        for _ in range(20):
            eps = random_symmetric3(rng)
            assert np.allclose(hooke_full(c, eps), lame_stress_oracle(lam, mu, eps),
                               atol=1e-13)

    def test_zero_strain(self, rng):
        assert np.abs(hooke_full(random_stiffness(rng), np.zeros((3, 3)))).max() == 0

    def test_cubic_tungsten_uniaxial(self):
        sigma = hooke_full(W, np.outer([1, 0, 0], [1, 0, 0]))
        assert np.allclose(sigma, np.diag([5.224, 2.044, 2.044]), atol=1e-14)


class TestHookeDecomposed:
    def test_isotropic_mean_coefficient(self):
        parts = decompose(isotropic_stiffness(2.0, 1.0))
        sp = split_strain(np.eye(3) / 3.0)  # trace 1, no shear
        assert hooke_mean(parts, sp) == pytest.approx(8.0, abs=1e-13)
        assert (parts.scalar_s + parts.scalar_a) / 3.0 == pytest.approx(8.0)

    def test_equal_deviators_decouple_mean_from_shear(self, rng):
        # synthetic material with P = Q != 0: mean stress blind to pure shear
        from cauchykit.decomp import _sym_pg  # test-only access to the builder

        p = random_symmetric3(rng, traceless=True)
        base = decompose(isotropic_stiffness(2.0, 1.0))
        c = base.tensor_s1 + base.tensor_a1 + _sym_pg(p) / 7.0 + a_from_delta(p)
        parts = decompose(c)
        assert np.allclose(parts.dev_p, p, atol=1e-12)
        assert np.allclose(parts.dev_q, p, atol=1e-12)
        u = random_symmetric3(rng, traceless=True)
        assert hooke_mean(parts, split_strain(u)) == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_shear_coefficient(self):
        lam, mu = 2.0, 1.0
        parts = decompose(isotropic_stiffness(lam, mu))
        u = np.array([[0.0, 0.3, 0.0], [0.3, 0.0, 0.1], [0.0, 0.1, 0.0]])
        s = hooke_shear(parts, split_strain(u))
        assert np.allclose(s, 2.0 * mu * u, atol=1e-13)

    def test_isotropic_pure_compression_has_no_shear_stress(self):
        parts = decompose(isotropic_stiffness(2.0, 1.0))
        s = hooke_shear(parts, split_strain(0.7 * np.eye(3)))
        assert np.abs(s).max() <= 1e-14

    def test_consistency_with_full_hooke(self, rng):
        for _ in range(1000):
            c = random_stiffness(rng)
            eps = random_symmetric3(rng)
            parts = decompose(c)
            sp = split_strain(eps)
            sigma = hooke_full(c, eps)
            scale = max(np.abs(sigma).max(), 1e-300)
            assert hooke_mean(parts, sp) == pytest.approx(
                np.trace(sigma), abs=1e-11 * scale)
            deviator = sigma - np.trace(sigma) / 3.0 * np.eye(3)
            assert np.allclose(hooke_shear(parts, sp), deviator,
                               atol=1e-11 * scale)

    def test_shear_output_is_traceless(self, rng):
        parts = decompose(random_stiffness(rng))
        s = hooke_shear(parts, split_strain(random_symmetric3(rng)))
        assert abs(np.trace(s)) <= 1e-12


class TestCoefficientMonotonicity:
    def test_k_mean_up_k_shear_down_in_a(self):
        base = decompose(isotropic_stiffness(2.0, 1.0))
        higher = decompose(isotropic_stiffness(2.2, 0.9))  # larger lam - mu
        assert higher.scalar_a > base.scalar_a
        assert higher.scalar_s == pytest.approx(base.scalar_s)
        assert k_mean(higher) > k_mean(base)
        assert k_shear(higher) < k_shear(base)


class TestEnergy:
    def test_isotropic_identity_strain(self):
        report = energy(decompose(isotropic_stiffness(2.0, 1.0)), np.eye(3))
        # oracle: E = (9 lam + 6 mu) / 2
        assert report.total == pytest.approx(12.0, abs=1e-12)
        assert report.compression == pytest.approx(12.0, abs=1e-12)
        assert report.compression_cauchy == pytest.approx(10.0, abs=1e-12)
        assert report.compression_non_cauchy == pytest.approx(2.0, abs=1e-12)
        assert report.mixed == pytest.approx(0.0, abs=1e-13)
        assert report.shear == pytest.approx(0.0, abs=1e-13)

    def test_zero_strain(self, rng):
        report = energy(decompose(random_stiffness(rng)), np.zeros((3, 3)))
        assert report.total == 0.0
        assert report.compression == 0.0
        assert report.mixed == 0.0
        assert report.shear == 0.0

    def test_cubic_mixed_energy_vanishes(self, rng):
        eps = random_symmetric3(rng)
        report = energy(decompose(W), eps)
        assert report.mixed == pytest.approx(0.0, abs=1e-12)

    def test_closure_and_attribution(self, rng):
        for _ in range(200):
            c = random_stiffness(rng)
            eps = random_symmetric3(rng)
            r = energy(decompose(c), eps)
            scale = max(abs(r.total), 1e-300)
            assert r.total == pytest.approx(
                r.compression + r.mixed + r.shear, abs=1e-12 * scale)
            assert r.compression == r.compression_cauchy + r.compression_non_cauchy
            assert r.mixed == r.mixed_cauchy + r.mixed_non_cauchy
            assert r.shear == r.shear_cauchy + r.shear_non_cauchy

    def test_bilinearity_against_stress_contraction(self, rng):
        c = random_stiffness(rng)
        eps = random_symmetric3(rng)
        via_stress = 0.5 * float(np.einsum("ij,ij->", hooke_full(c, eps), eps))
        assert energy(decompose(c), eps).total == pytest.approx(via_stress, rel=1e-12)


class TestStabilityBounds:
    def test_reference_isotropic_values(self):
        report = stability_bounds(decompose(isotropic_stiffness(2.0, 1.0)))
        assert report.s_plus_a == pytest.approx(24.0)
        assert report.four_s_minus_five_a == pytest.approx(60.0)
        assert report.a_window_ok
        assert report.poisson_equiv == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report.poisson_ok
        assert report.voigt_min_eigenvalue > 0

    def test_upper_boundary_violated(self):
        # mu = 0 puts A exactly at 0.8 S; the window is strict
        report = stability_bounds(decompose(isotropic_stiffness(1.0, 0.0)))
        assert report.four_s_minus_five_a == pytest.approx(0.0, abs=1e-12)
        assert not report.a_window_ok

    def test_lower_boundary_violated(self):
        # lam = -2 mu / 3 * 3 -> A = -S exactly
        report = stability_bounds(decompose(isotropic_stiffness(-2.0, 3.0)))
        assert report.s_plus_a == pytest.approx(0.0, abs=1e-12)
        assert not report.a_window_ok

    def test_lame_recovery(self, rng):
        lam, mu = 1.3, 0.8
        parts = decompose(isotropic_stiffness(lam, mu))
        lam2, mu2 = lame_from_invariants(parts)
        assert lam2 == pytest.approx(lam, abs=1e-12)
        assert mu2 == pytest.approx(mu, abs=1e-12)

    def test_anisotropic_input_has_no_poisson(self, rng):
        report = stability_bounds(decompose(random_stiffness(rng)))
        assert report.poisson_equiv is None

    def test_spd_isotropic_grid_passes_all_bounds(self):
        for lam in np.linspace(-0.4, 4.0, 12):
            for mu in np.linspace(0.05, 3.0, 12):
                if 3 * lam + 2 * mu <= 0:
                    continue
                report = stability_bounds(decompose(isotropic_stiffness(lam, mu)))
                assert report.s_plus_a > 0
                assert report.four_s_minus_five_a > 0
                assert report.a_window_ok
                assert report.poisson_ok

    def test_spd_voigt_matrix_diagnostic(self, rng):
        report = stability_bounds(decompose(voigt_to_full(random_spd_voigt(rng))))
        assert report.voigt_min_eigenvalue > 0
