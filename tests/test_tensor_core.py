import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchykit.tensor_core import (
    LEVI_CIVITA,
    VOIGT_PAIRS,
    SymmetryViolation,
    cubic_stiffness,
    degenerate_pairs,
    eig_sym3,
    frobenius_inner4,
    frobenius_norm4,
    full_to_voigt,
    isotropic_stiffness,
    unit_vector,
    voigt_to_full,
)
from cauchykit.decomp import sa_split

from conftest import (
    contract_nn_oracle,
    levi_civita_value,
    orbit_average_oracle,
    random_rotation,
    random_stiffness,
    random_voigt,
    rotate4,
    symmetrize_orbit,
    validate_symmetries,
)

W_VOIGT = cubic_stiffness(5.224, 2.044, 1.608)
SI_C11, SI_C12, SI_C44 = 1.658, 0.639, 0.796


class TestVoigtMap:
    def test_identity_matrix_maps_directly(self):
        c = voigt_to_full(np.eye(6))
        assert c[0, 0, 0, 0] == 1.0
        assert c[0, 1, 0, 1] == 1.0
        assert c[0, 0, 1, 1] == 0.0

    def test_cubic_tungsten_components(self):
        c = W_VOIGT
        assert c[0, 0, 0, 0] == 5.224
        assert c[0, 0, 1, 1] == 2.044
        assert c[1, 2, 1, 2] == 1.608

    def test_round_trip_is_bit_exact(self, rng):
        for _ in range(50):
            m = random_voigt(rng)
            assert np.array_equal(full_to_voigt(voigt_to_full(m)), m)

    def test_silicon_round_trip(self):
        c = cubic_stiffness(SI_C11, SI_C12, SI_C44)
        m = full_to_voigt(c)
        assert m[0, 0] == SI_C11 and m[0, 1] == SI_C12 and m[3, 3] == SI_C44

    def test_zero_tensor(self):
        assert np.array_equal(full_to_voigt(np.zeros((3, 3, 3, 3))), np.zeros((6, 6)))

    @pytest.mark.parametrize("shape", [(9, 9), (81,), (3, 3, 3, 3, 2)])
    def test_full_to_voigt_rejects_wrong_shape(self, shape):
        # the flat gather would read any 81 entries; the shape is checked first
        with pytest.raises(ValueError, match="expected shape"):
            full_to_voigt(np.zeros(shape))

    def test_output_satisfies_symmetries_exactly(self, rng):
        c = random_stiffness(rng)
        assert np.array_equal(c, np.einsum("jikl->ijkl", c))
        assert np.array_equal(c, np.einsum("ijlk->ijkl", c))
        assert np.array_equal(c, np.einsum("klij->ijkl", c))

    def test_asymmetric_input_rejected_with_indices(self):
        m = np.eye(6)
        m[0, 1] = 0.5
        with pytest.raises(SymmetryViolation) as err:
            voigt_to_full(m)
        assert err.value.index[:2] in {(1, 2), (2, 1)}

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_asymmetry_within_tolerance_matches_cell_loop(self, rng, scale):
        m = random_voigt(rng) * scale
        m += rng.uniform(-1, 1, (6, 6)) * 1e-9 * np.abs(m).max()
        sym = 0.5 * (m + m.T)
        expected = np.empty((3, 3, 3, 3))
        for I, (i, j) in enumerate(VOIGT_PAIRS):
            for J, (k, l) in enumerate(VOIGT_PAIRS):
                expected[i, j, k, l] = expected[j, i, k, l] = sym[I, J]
                expected[i, j, l, k] = expected[j, i, l, k] = sym[I, J]
        c = voigt_to_full(m)
        assert c.tobytes() == expected.tobytes()
        assert full_to_voigt(c).tobytes() == sym.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=21, max_size=21))
    def test_round_trip_hypothesis(self, upper):
        m = np.zeros((6, 6))
        k = 0
        for i in range(6):
            for j in range(i, 6):
                m[i, j] = m[j, i] = upper[k]
                k += 1
        assert np.array_equal(full_to_voigt(voigt_to_full(m)), m)


class TestValidateSymmetries:
    def test_symmetric_input_unchanged(self, rng):
        c = random_stiffness(rng)
        assert np.array_equal(validate_symmetries(c, tol=1e-8), c)

    def test_projection_is_idempotent(self, rng):
        raw = rng.uniform(-1, 1, (3, 3, 3, 3))
        once = symmetrize_orbit(raw)
        assert np.allclose(symmetrize_orbit(once), once, rtol=0, atol=1e-15)

    def test_projection_matches_orbit_average_oracle(self, rng):
        raw = rng.uniform(-1, 1, (3, 3, 3, 3))
        assert np.allclose(symmetrize_orbit(raw), orbit_average_oracle(raw),
                           rtol=0, atol=1e-14)

    def test_violation_beyond_tol_names_worst_index(self, rng):
        tol = 1e-6
        c = random_stiffness(rng)
        raw = c.copy()
        # perturbing one orbit member by 2*tol leaves a 1.5*tol correction
        raw[0, 1, 2, 2] = raw[1, 0, 2, 2] + 2 * tol * np.abs(raw).max()
        with pytest.raises(SymmetryViolation) as err:
            validate_symmetries(raw, tol=tol)
        assert err.value.index == (0, 1, 2, 2)
        assert err.value.magnitude > 0

    def test_small_violation_accepted_and_projected(self, rng):
        tol = 1e-6
        c = random_stiffness(rng)
        raw = c.copy()
        raw[0, 1, 2, 2] += 0.5 * tol * np.abs(raw).max()
        out = validate_symmetries(raw, tol=tol)
        assert np.allclose(out, orbit_average_oracle(raw), rtol=0, atol=1e-14)
        assert np.array_equal(out, np.einsum("jikl->ijkl", out))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            validate_symmetries(np.zeros((3, 3, 3, 3)), tol=-1.0)


class TestRelativeTolerance:
    """A stiffness 0.02 (say in Mbar) gets the same 1e-8 relative asymmetry
    tolerance as the same material at 1000 times the scale."""

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_voigt_asymmetry_is_relative_to_the_largest_entry(self, scale):
        m = full_to_voigt(cubic_stiffness(0.02, 0.01, 0.005)) * scale
        m[0, 1] += 1e-11 * scale  # 5e-10 of the largest entry
        voigt_to_full(m)
        m[0, 1] += 5e-9 * scale  # 2.5e-7 of the largest entry
        with pytest.raises(SymmetryViolation):
            voigt_to_full(m)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_tensor_asymmetry_is_relative_to_the_largest_entry(self, scale):
        c = cubic_stiffness(0.02, 0.01, 0.005) * scale
        c[0, 0, 1, 1] += 1e-11 * scale
        validate_symmetries(c)
        c[0, 0, 1, 1] += 5e-9 * scale
        with pytest.raises(SymmetryViolation):
            validate_symmetries(c)


class TestLeviCivita:
    def test_values(self):
        for i, j, k in itertools.product(range(3), repeat=3):
            assert LEVI_CIVITA[i, j, k] == levi_civita_value(i, j, k)

    def test_contraction_identity_all_81_combinations(self):
        # eps[i,j,k] eps[i,m,n] = d[j,m] d[k,n] - d[j,n] d[k,m]
        for j, k, m, n in itertools.product(range(3), repeat=4):
            lhs = sum(LEVI_CIVITA[i, j, k] * LEVI_CIVITA[i, m, n] for i in range(3))
            rhs = (j == m) * (k == n) - (j == n) * (k == m)
            assert lhs == rhs


class TestEigSym3:
    def test_diagonal_with_degenerate_pair(self):
        values, vectors = eig_sym3(np.diag([3.0, 1.0, 1.0]))
        assert np.allclose(values, [3, 1, 1])
        assert np.allclose(np.abs(vectors[:, 0]), [1, 0, 0])
        assert degenerate_pairs(values, scale=np.sqrt(11.0)) == [(1, 2)]

    def test_isotropic_christoffel_spectrum(self):
        # lam = mu = rho = 1 along z: direct contraction oracle gives diag(1,1,3)
        c = isotropic_stiffness(1.0, 1.0)
        gamma = contract_nn_oracle(c, np.array([0.0, 0.0, 1.0]), 1.0)
        assert np.allclose(gamma, np.diag([1.0, 1.0, 3.0]))
        values, _ = eig_sym3(gamma)
        assert np.allclose(values, [3, 1, 1])

    def test_degenerate_input_keeps_orthonormal_frame(self, rng):
        o = random_rotation(rng)
        a = o @ np.diag([2.0, 2.0, -1.0]) @ o.T
        values, vectors = eig_sym3(a)
        assert np.allclose(vectors.T @ vectors, np.eye(3), atol=1e-11)
        assert degenerate_pairs(values, scale=3.0) == [(0, 1)]

    def test_reconstruction_on_random_matrices(self, rng):
        worst = 0.0
        for _ in range(10_000):
            a = rng.normal(size=(3, 3))
            a = 0.5 * (a + a.T)
            values, vectors = eig_sym3(a)
            err = np.abs(vectors @ np.diag(values) @ vectors.T - a).max()
            worst = max(worst, err / max(np.linalg.norm(a), 1e-300))
        assert worst <= 1e-10

    def test_eigen_residual_and_orthonormality(self, rng):
        for _ in range(200):
            a = rng.normal(size=(3, 3))
            a = 0.5 * (a + a.T)
            values, vectors = eig_sym3(a)
            norm = np.linalg.norm(a)
            for k in range(3):
                residual = a @ vectors[:, k] - values[k] * vectors[:, k]
                assert np.linalg.norm(residual) <= 1e-11 * max(norm, 1e-300)
            assert np.abs(vectors.T @ vectors - np.eye(3)).max() <= 1e-11
            assert values[0] >= values[1] >= values[2]

    def test_zero_matrix(self):
        values, vectors = eig_sym3(np.zeros((3, 3)))
        assert np.array_equal(values, np.zeros(3))
        assert np.array_equal(vectors, np.eye(3))

    def test_stacked_slices_keep_the_contract(self, rng):
        o = random_rotation(rng)
        stack = np.concatenate([
            rng.normal(size=(50, 3, 3)),  # not symmetric: symmetrized first
            [o @ np.diag([2.0, 2.0, -1.0]) @ o.T, np.diag([3.0, 1.0, 1.0]),
             5.0 * np.eye(3), np.zeros((3, 3)), np.diag([0.0, 0.0, -4.0])],
        ]).reshape(5, 11, 3, 3)
        values, vectors = eig_sym3(stack)
        assert values.shape == (5, 11, 3) and vectors.shape == (5, 11, 3, 3)
        sym = 0.5 * (stack + np.swapaxes(stack, -1, -2))
        for idx in np.ndindex(5, 11):
            a, w, v = sym[idx], values[idx], vectors[idx]
            assert w[0] >= w[1] >= w[2]
            assert np.abs(v.T @ v - np.eye(3)).max() <= 1e-12
            assert np.abs(a @ v - v * w).max() <= 1e-12 * max(np.linalg.norm(a), 1e-300)
            for k in range(3):
                assert v[np.abs(v[:, k]).argmax(), k] > 0
            single = eig_sym3(stack[idx])
            assert np.array_equal(single[0], w) and np.array_equal(single[1], v)
        zero = (4, 9)
        assert np.array_equal(values[zero], np.zeros(3))
        assert np.array_equal(vectors[zero], np.eye(3))
        assert degenerate_pairs(values[4, 7], scale=np.sqrt(11.0)) == [(1, 2)]
        assert degenerate_pairs(values[4, 8], scale=5.0) == [(0, 1), (0, 2), (1, 2)]

    def test_non_square_input_rejected(self):
        with pytest.raises(ValueError):
            eig_sym3(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            eig_sym3(np.zeros(3))


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_voigt_to_full_rejects(self, bad):
        m = np.eye(6)
        m[2, 4] = m[4, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            voigt_to_full(m)

    def test_validate_symmetries_rejects(self, rng):
        c = random_stiffness(rng)
        c[0, 1, 0, 1] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            validate_symmetries(c)

    @pytest.mark.parametrize("n", [
        [float("nan"), 0.0, 1.0],
        [[0.0, 0.0, 1.0], [0.6, float("nan"), 0.8]],
    ])
    def test_unit_vector_rejects_nan_rows(self, n):
        with pytest.raises(ValueError, match="not a unit vector"):
            unit_vector(n)


class TestFrobenius:
    def test_zero(self):
        assert frobenius_norm4(np.zeros((3, 3, 3, 3))) == 0.0

    def test_single_orbit_counts_distinct_tuples(self):
        # place 1.0 on the full symmetry orbit of (0,0,1,1) and count members
        members = set()
        seed = (0, 0, 1, 1)
        for i, j, k, l in [seed]:
            members |= {
                (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
            }
        c = np.zeros((3, 3, 3, 3))
        for idx in members:
            c[idx] = 1.0
        assert frobenius_norm4(c) ** 2 == pytest.approx(len(members), rel=1e-15)

    def test_sa_parts_orthogonal(self, rng):
        for _ in range(20):
            parts = sa_split(random_stiffness(rng))
            ns = frobenius_norm4(parts.s)
            na = frobenius_norm4(parts.a)
            assert abs(frobenius_inner4(parts.s, parts.a)) <= 1e-12 * ns * na


class TestRotations:
    def test_rotation_matrices_are_proper(self, rng):
        for _ in range(50):
            o = random_rotation(rng)
            assert np.allclose(o.T @ o, np.eye(3), atol=1e-12)
            assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-12)

    def test_rotate4_preserves_norm_and_symmetries(self, rng):
        c = random_stiffness(rng)
        o = random_rotation(rng)
        cr = rotate4(c, o)
        assert frobenius_norm4(cr) == pytest.approx(frobenius_norm4(c), rel=1e-12)
        assert np.allclose(cr, np.einsum("jikl->ijkl", cr), atol=1e-12)
        assert np.allclose(cr, np.einsum("klij->ijkl", cr), atol=1e-12)
