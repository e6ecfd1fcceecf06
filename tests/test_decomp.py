import itertools
import json

import numpy as np
import pytest

from cauchykit.acoustics import christoffel
from cauchykit.constitutive import hooke_full
from cauchykit import decomp
from cauchykit.decomp import (
    SAParts,
    a_from_delta,
    assemble,
    cauchy_factor,
    classify,
    decompose,
    sa_split,
    so3_refine,
)
from cauchykit.materials import bundled_material, material_from_dict
from cauchykit.report import decomposition_report
from cauchykit.tensor_core import (
    IDENTITY3,
    LEVI_CIVITA,
    cubic_stiffness,
    frobenius_inner4,
    frobenius_norm2,
    frobenius_norm4,
    full_to_voigt,
    isotropic_stiffness,
    voigt_to_full,
)

from conftest import (
    delta_oracle,
    double_trace_oracle,
    full_symmetrization_oracle,
    general_relation_residual,
    hexagonal_voigt,
    inner4_oracle,
    mn_split,
    q_components_voigt,
    random_rotation,
    random_spd_voigt,
    random_stiffness,
    random_symmetric3,
    rotate2,
    rotate4,
)

W = cubic_stiffness(5.224, 2.044, 1.608)

# published cubic constants: five materials each with positive and negative
# scalar invariant of the non-Cauchy part
POSITIVE_CLASS = {
    "AlSb": (0.894, 0.443, 0.416),
    "InP": (1.022, 0.576, 0.460),
    "InAs": (0.83, 0.453, 0.396),
    "W": (5.224, 2.044, 1.608),
    "Mo": (4.637, 1.578, 1.092),
}
NEGATIVE_CLASS = {
    "C": (10.76, 1.250, 5.760),
    "Si": (1.658, 0.639, 0.796),
    "Ge": (1.284, 0.482, 0.667),
    "Ir": (5.800, 2.420, 2.560),
    "Cr": (3.398, 0.586, 0.990),
}


class TestSASplit:
    def test_matches_24_permutation_oracle(self, rng):
        c = random_stiffness(rng)
        parts = sa_split(c)
        assert np.allclose(parts.s, full_symmetrization_oracle(c), atol=1e-14)

    def test_reconstruction_and_orthogonality(self, rng):
        c = random_stiffness(rng)
        parts = sa_split(c)
        assert np.array_equal(parts.s + parts.a, c) or np.allclose(
            parts.s + parts.a, c, rtol=0, atol=1e-15
        )
        assert abs(frobenius_inner4(parts.s, parts.a)) <= 1e-12 * (
            frobenius_norm4(parts.s) * frobenius_norm4(parts.a)
        )

    def test_cyclic_identity_of_mixed_part(self, rng):
        a = sa_split(random_stiffness(rng)).a
        cyclic = a + np.einsum("iklj->ijkl", a) + np.einsum("iljk->ijkl", a)
        assert np.abs(cyclic).max() <= 1e-14

    def test_equal_lame_moduli_mean_full_cauchy(self):
        parts = sa_split(isotropic_stiffness(1.0, 1.0))
        assert frobenius_norm4(parts.a) <= 1e-14
        assert classify(decompose(isotropic_stiffness(1.0, 1.0))).full_cauchy

    def test_fully_symmetric_input_is_fixed_point(self, rng):
        s0 = sa_split(random_stiffness(rng)).s
        parts = sa_split(s0)
        assert np.allclose(parts.s, s0, atol=1e-15)
        assert np.abs(parts.a).max() <= 1e-15

    def test_projector_property_on_mixed_part(self, rng):
        a0 = sa_split(random_stiffness(rng)).a
        parts = sa_split(a0)
        assert np.abs(parts.s).max() <= 1e-14
        assert np.allclose(parts.a, a0, atol=1e-14)

    def test_tungsten_delta_from_contraction_oracle(self):
        # brute-force contraction oracle on the published constants; the
        # defining contraction carries a 2/3 against the bare C12 - C44
        d = delta_oracle(sa_split(W).a)
        diff = 2.044 - 1.608  # = 0.436 = A/4
        assert np.allclose(d, np.diag([2 * diff / 3] * 3), atol=1e-12)
        assert 2 * np.trace(d) == pytest.approx(4 * diff, abs=1e-12)


class TestNonFiniteStiffness:
    # the decomposition and the Christoffel tensor start at sa_split, and the
    # plain contractions call its check directly; q_components_voigt never
    # reads c[0, 1, 2, 2], so only the check catches it there
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("entry", ["sa_split", "decompose", "christoffel", "hooke_full",
                                       "q_components_voigt", "general_relation_residual",
                                       "mn_split"])
    def test_rejected(self, bad, entry):
        c = W.copy()
        c[0, 1, 2, 2] = bad
        call = {
            "sa_split": lambda: sa_split(c),
            "decompose": lambda: decompose(c),
            "christoffel": lambda: christoffel(c, [0.0, 0.0, 1.0], 1.0),
            "hooke_full": lambda: hooke_full(c, 0.01 * np.eye(3)),
            "q_components_voigt": lambda: q_components_voigt(c),
            "general_relation_residual": lambda: general_relation_residual(c, 1.0, 1.0),
            "mn_split": lambda: mn_split(c),
        }[entry]
        with pytest.raises(ValueError, match="stiffness tensor has a non-finite entry"):
            call()


class TestDelta:
    def test_zero(self):
        assert np.abs(decompose(np.zeros((3, 3, 3, 3))).delta).max() == 0.0

    def test_recovers_unit_delta(self):
        d = np.diag([1.0, 0.0, 0.0])
        assert np.allclose(decompose(a_from_delta(d)).delta, d, atol=1e-14)

    def test_component_dictionary(self, rng):
        c = random_stiffness(rng)
        a = sa_split(c).a
        d = decompose(c).delta
        assert a[1, 1, 2, 2] == pytest.approx(d[0, 0], abs=1e-14)
        assert a[2, 2, 0, 1] == pytest.approx(-d[0, 1], abs=1e-14)
        assert a[1, 1, 0, 2] == pytest.approx(-d[0, 2], abs=1e-14)
        assert a[0, 0, 2, 2] == pytest.approx(d[1, 1], abs=1e-14)
        assert a[0, 0, 1, 2] == pytest.approx(-d[1, 2], abs=1e-14)
        assert a[0, 0, 1, 1] == pytest.approx(d[2, 2], abs=1e-14)

    def test_matches_loop_oracle(self, rng):
        c = random_stiffness(rng)
        assert np.allclose(decompose(c).delta, delta_oracle(sa_split(c).a), atol=1e-13)

    def test_round_trip_many(self, rng):
        for _ in range(1000):
            d = random_symmetric3(rng)
            assert np.allclose(decompose(a_from_delta(d)).delta, d, atol=1e-13)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_a_from_delta_rejects_non_finite_input(self, bad):
        d = np.eye(3)
        d[0, 1] = d[1, 0] = bad
        with pytest.raises(ValueError, match="delta has a non-finite entry"):
            a_from_delta(d)
        with pytest.raises(ValueError, match="delta has a non-finite entry"):
            a_from_delta(np.full((3, 3), bad))

    def test_unit_matrix_source(self):
        a = a_from_delta(np.eye(3))
        assert a[1, 1, 2, 2] == pytest.approx(1.0)
        assert a[0, 0, 2, 2] == pytest.approx(1.0)
        assert a[0, 0, 1, 1] == pytest.approx(1.0)
        # the cyclic identity forces a[2323] = -a[2233]/2, and likewise for
        # the other two shear diagonals
        assert a[1, 2, 1, 2] == pytest.approx(-0.5)
        assert a[0, 2, 0, 2] == pytest.approx(-0.5)
        assert a[0, 1, 0, 1] == pytest.approx(-0.5)
        # scalar invariant equals twice the delta trace: 81-term loop oracle
        assert double_trace_oracle(a) == pytest.approx(6.0, abs=1e-13)

    def test_a_from_delta_output_is_admissible(self, rng):
        a = a_from_delta(random_symmetric3(rng))
        assert np.allclose(a, np.einsum("jikl->ijkl", a), atol=1e-15)
        assert np.allclose(a, np.einsum("klij->ijkl", a), atol=1e-15)
        cyclic = a + np.einsum("iklj->ijkl", a) + np.einsum("iljk->ijkl", a)
        assert np.abs(cyclic).max() <= 1e-14


class TestSO3Refine:
    def test_isotropic_invariants(self):
        parts = decompose(isotropic_stiffness(2.0, 1.0))
        assert parts.scalar_s == pytest.approx(20.0, abs=1e-12)
        assert parts.scalar_a == pytest.approx(4.0, abs=1e-12)
        assert parts.p_norm <= 1e-13
        assert parts.q_norm <= 1e-13
        assert parts.r_norm <= 1e-13

    def test_cubic_tungsten_structure(self):
        parts = decompose(W)
        assert parts.p_norm <= 1e-13
        assert parts.q_norm <= 1e-13
        assert parts.scalar_a == pytest.approx(4 * (2.044 - 1.608), abs=1e-12)
        assert parts.r_norm > 1e-3

    def test_scalars_match_loop_oracles(self, rng):
        c = random_stiffness(rng)
        sa = sa_split(c)
        parts = so3_refine(sa)
        assert parts.scalar_s == pytest.approx(double_trace_oracle(sa.s), abs=1e-12)
        assert parts.scalar_a == pytest.approx(double_trace_oracle(sa.a), abs=1e-12)

    def test_voigt_scalar_formula_matches_contraction(self, rng):
        c = random_stiffness(rng)
        m = full_to_voigt(c)
        from_voigt = 4.0 / 3.0 * (
            (m[0, 1] - m[3, 3]) + (m[0, 2] - m[4, 4]) + (m[1, 2] - m[5, 5])
        )
        assert decompose(c).scalar_a == pytest.approx(from_voigt, abs=1e-12)

    def test_reconstruction_and_orthogonality(self, rng):
        c = random_stiffness(rng)
        parts = decompose(c)
        assert np.allclose(assemble(parts), c, atol=1e-13)
        tensors = [parts.tensor_s1, parts.tensor_s2, parts.harm_r,
                   parts.tensor_a1, parts.tensor_a2]
        for x, y in itertools.combinations(tensors, 2):
            bound = 1e-10 * max(frobenius_norm4(x) * frobenius_norm4(y), 1e-30)
            assert abs(frobenius_inner4(x, y)) <= bound

    def test_traceless_invariants(self, rng):
        parts = decompose(random_stiffness(rng))
        assert abs(np.trace(parts.dev_p)) <= 1e-13
        assert abs(np.trace(parts.dev_q)) <= 1e-13
        # harmonic part traceless on every index pair
        assert np.abs(np.einsum("ijkk->ij", parts.harm_r)).max() <= 1e-13
        assert np.abs(np.einsum("ikjk->ij", parts.harm_r)).max() <= 1e-13
        assert np.abs(np.einsum("kijk->ij", parts.harm_r)).max() <= 1e-13

    def test_scalar_consistency_of_subtensors(self, rng):
        parts = decompose(random_stiffness(rng))
        assert double_trace_oracle(parts.tensor_s1) == pytest.approx(
            parts.scalar_s, rel=1e-12, abs=1e-12)
        assert double_trace_oracle(parts.tensor_a1) == pytest.approx(
            parts.scalar_a, rel=1e-12, abs=1e-12)
        for t in (parts.tensor_s2, parts.harm_r, parts.tensor_a2):
            assert abs(double_trace_oracle(t)) <= 1e-12

    def test_subtensor_inner_products_match_loop_oracle(self, rng):
        parts = decompose(random_stiffness(rng, scale=0.5))
        assert inner4_oracle(parts.tensor_s1, parts.tensor_a1) == pytest.approx(
            frobenius_inner4(parts.tensor_s1, parts.tensor_a1), abs=1e-12)


class TestQComponents:
    def test_cubic_is_zero(self):
        assert np.abs(q_components_voigt(W)).max() <= 1e-14

    def test_hexagonal_proportional_to_diag_1_1_minus2(self):
        m = hexagonal_voigt(c11=4.0, c12=1.5, c13=1.1, c33=3.6, c44=0.9)
        q = q_components_voigt(voigt_to_full(m))
        assert abs(q[0, 0] - q[1, 1]) <= 1e-14
        assert q[2, 2] == pytest.approx(-2.0 * q[0, 0], abs=1e-13)
        off = q - np.diag(np.diagonal(q))
        assert np.abs(off).max() <= 1e-14
        assert abs(q[0, 0]) > 1e-3  # c13 != c44 makes it nonzero

    def test_traceless_identically(self, rng):
        for _ in range(20):
            q = q_components_voigt(random_stiffness(rng))
            assert abs(np.trace(q)) <= 1e-13

    def test_agrees_with_refinement(self, rng):
        c = random_stiffness(rng)
        q1 = q_components_voigt(c)
        q2 = decompose(c).dev_q
        assert np.allclose(q1, q2, rtol=1e-12, atol=1e-13)


class TestCauchyFactor:
    def test_pure_cauchy_is_one(self, rng):
        s = sa_split(random_stiffness(rng)).s
        assert cauchy_factor(s) == pytest.approx(1.0, abs=1e-12)

    def test_pure_non_cauchy_is_zero(self, rng):
        a = a_from_delta(random_symmetric3(rng))
        assert cauchy_factor(a) == pytest.approx(0.0, abs=1e-12)

    def test_two_computations_agree(self, rng):
        c = isotropic_stiffness(2.0, 1.0)
        parts = sa_split(c)
        via_norms = cauchy_factor(c)
        via_inner = np.sqrt(inner4_oracle(parts.s, parts.s) / inner4_oracle(c, c))
        assert via_norms == pytest.approx(via_inner, abs=1e-12)

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            cauchy_factor(np.zeros((3, 3, 3, 3)))

    def test_zero_tensor_classification_rejected(self):
        # the same answer as the factor itself: no stand-in 1.0
        parts = decompose(np.zeros((3, 3, 3, 3)))
        for read in (lambda: parts.cauchy_factor, lambda: classify(parts)):
            with pytest.raises(ValueError, match="zero tensor"):
                read()

    def test_classification_carries_the_same_factor(self, rng):
        for c in (W, isotropic_stiffness(2.0, 1.0), random_stiffness(rng)):
            assert classify(decompose(c)).cauchy_factor == cauchy_factor(c)

    @pytest.mark.parametrize("c", [isotropic_stiffness(0.1, 0.1),
                                   cubic_stiffness(0.3, 0.1, 0.1)])
    def test_exactly_cauchy_input(self, c):
        # lam = mu: the non-Cauchy part is rounding noise, whose cyclic sum is
        # as large as the noise itself
        assert cauchy_factor(c) == pytest.approx(1.0, abs=1e-15)
        cls = classify(decompose(c))
        assert cls.full_cauchy and cls.a_sign == "zero-within-tol"


class TestUnitScale:
    """The decomposition and its classification hold at every unit scale:
    each norm behind them is rescaled where its sum of squares would leave
    the double range."""

    @pytest.mark.parametrize("k", [-300, -200, -160, 155, 200, 300])
    @pytest.mark.parametrize("name", ["W", "triclinic"])
    def test_report_at_extreme_unit_scales(self, name, k):
        # before, 1e155 read A ~ 0 and full Cauchy with a NaN factor, 1e-160
        # lost 5 significant digits of the factor and 1e-200 raised "zero tensor"
        voigt = (bundled_material("W").voigt if name == "W"
                 else random_spd_voigt(np.random.default_rng(5), 100.0))
        want, got = (decomposition_report(material_from_dict({
            "schema_version": "1", "name": name,
            "stiffness": {"unit": "GPa", "voigt": (voigt * scale).tolist()}}))
            for scale in (1.0, 10.0 ** k))
        json.dumps(got, allow_nan=False)
        for key in ("full_cauchy", "partial_cauchy", "a_sign"):
            assert got["classification"][key] == want["classification"][key]
        factor = want["classification"]["cauchy_factor"]
        assert abs(got["classification"]["cauchy_factor"] - factor) <= 4 * np.spacing(factor)


class TestClassify:
    @pytest.mark.parametrize("name,constants", sorted(POSITIVE_CLASS.items()))
    def test_positive_class(self, name, constants):
        cls = classify(decompose(cubic_stiffness(*constants)))
        assert cls.a_sign == "positive"
        assert cls.partial_cauchy and not cls.full_cauchy

    @pytest.mark.parametrize("name,constants", sorted(NEGATIVE_CLASS.items()))
    def test_negative_class(self, name, constants):
        cls = classify(decompose(cubic_stiffness(*constants)))
        assert cls.a_sign == "negative"
        assert cls.partial_cauchy and not cls.full_cauchy

    def test_full_cauchy_isotropic(self):
        cls = classify(decompose(isotropic_stiffness(1.0, 1.0)))
        assert cls.full_cauchy
        assert cls.partial_cauchy
        assert cls.a_sign == "zero-within-tol"
        assert cls.cauchy_factor == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
    def test_invalid_tolerance_rejected(self, tol):
        # under a NaN tolerance every comparison is false, and W (A = 1.744)
        # would read "zero-within-tol"
        with pytest.raises(ValueError, match="tolerance"):
            classify(decompose(W), tol=tol)

    def test_quadratic_invariants_reported(self, rng):
        cls = classify(decompose(random_stiffness(rng)))
        parts = decompose(random_stiffness(rng))
        assert set(cls.quadratic_invariants) == {"p_norm", "q_norm", "r_norm"}
        assert all(v >= 0 for v in cls.quadratic_invariants.values())


class TestGeneralRelation:
    def test_unit_parameters_give_minus_three_a(self, rng):
        c = random_stiffness(rng)
        residual = general_relation_residual(c, 1.0, 1.0)
        # oracle: explicit loop over the definition
        expect = np.zeros((3, 3, 3, 3))
        for i, j, k, l in itertools.product(range(3), repeat=4):
            expect[i, j, k, l] = (c[i, k, l, j] - c[i, j, k, l]) + (
                c[i, l, k, j] - c[i, j, k, l]
            )
        assert np.allclose(residual, expect, atol=1e-15)
        assert np.allclose(residual, -3.0 * sa_split(c).a, atol=1e-13)

    def test_full_cauchy_input_annihilated_for_any_parameters(self, rng):
        s = sa_split(random_stiffness(rng)).s
        for beta, gamma in [(1.0, 1.0), (2.0, -0.7), (0.0, 3.0), (1.0, 0.0)]:
            assert np.abs(general_relation_residual(s, beta, gamma)).max() <= 1e-13

    def test_antisymmetric_member_matches_mn_form(self, rng):
        c = random_stiffness(rng)
        residual = general_relation_residual(c, 1.0, -1.0)
        _, n = mn_split(c)
        assert np.allclose(residual, 2.0 * np.einsum("iklj->ijkl", n), atol=1e-13)

    def test_zero_iff_delta_zero(self, rng):
        a = a_from_delta(random_symmetric3(rng))
        s = sa_split(random_stiffness(rng)).s
        assert np.abs(general_relation_residual(s + a, 0.5, 1.5)).max() > 1e-6
        assert np.abs(general_relation_residual(s, 0.5, 1.5)).max() <= 1e-13

    def test_both_parameters_zero_rejected(self, rng):
        with pytest.raises(ValueError):
            general_relation_residual(random_stiffness(rng), 0.0, 0.0)


class TestMNSplit:
    def test_sum_reconstructs(self, rng):
        c = random_stiffness(rng)
        m, n = mn_split(c)
        assert np.allclose(m + n, c, atol=1e-15)

    def test_full_cauchy_kills_n(self, rng):
        s = sa_split(random_stiffness(rng)).s
        _, n = mn_split(s)
        assert np.abs(n).max() <= 1e-14

    def test_n_zero_iff_delta_zero(self, rng):
        for _ in range(20):
            c = random_stiffness(rng)
            _, n = mn_split(c)
            delta = decompose(c).delta
            n_zero = np.abs(n).max() <= 1e-12
            d_zero = np.abs(delta).max() <= 1e-12
            assert n_zero == d_zero
        # and force the zero branch explicitly
        s = sa_split(random_stiffness(rng)).s
        _, n = mn_split(s)
        assert np.abs(decompose(s).delta).max() <= 1e-13
        assert np.abs(n).max() <= 1e-13

    def test_m_escapes_the_stiffness_class(self, rng):
        m, _ = mn_split(random_stiffness(rng))
        minor = np.abs(m - np.einsum("jikl->ijkl", m)).max()
        major = np.abs(m - np.einsum("klij->ijkl", m)).max()
        assert max(minor, major) > 1e-6


class TestPartialCauchySystem:
    def test_relations_hold_when_q_vanishes(self, rng):
        # material with arbitrary Cauchy part and pure-trace mixed part
        s = sa_split(random_stiffness(rng)).s
        a_scalar = 2.4
        c = s + a_from_delta(a_scalar / 6.0 * np.eye(3))
        m = full_to_voigt(c)
        a = decompose(c).scalar_a
        assert a == pytest.approx(a_scalar, abs=1e-12)
        assert m[1, 2] - m[3, 3] == pytest.approx(a / 4.0, abs=1e-12)
        assert m[0, 2] - m[4, 4] == pytest.approx(a / 4.0, abs=1e-12)
        assert m[0, 1] - m[5, 5] == pytest.approx(a / 4.0, abs=1e-12)
        assert m[3, 4] - m[2, 5] == pytest.approx(0.0, abs=1e-12)
        assert m[3, 5] - m[1, 4] == pytest.approx(0.0, abs=1e-12)
        assert m[4, 5] - m[0, 3] == pytest.approx(0.0, abs=1e-12)


class TestRotationEquivariance:
    def test_decomposition_commutes_with_rotations(self, rng):
        c = random_stiffness(rng)
        parts = decompose(c)
        for _ in range(100):
            o = random_rotation(rng)
            rotated = decompose(rotate4(c, o))
            scale = frobenius_norm4(c)
            assert rotated.scalar_s == pytest.approx(parts.scalar_s, rel=1e-10)
            assert rotated.scalar_a == pytest.approx(
                parts.scalar_a, rel=1e-10, abs=1e-10 * scale)
            assert np.allclose(rotated.dev_p, rotate2(parts.dev_p, o),
                               atol=1e-10 * scale)
            assert np.allclose(rotated.dev_q, rotate2(parts.dev_q, o),
                               atol=1e-10 * scale)
            assert np.allclose(rotated.harm_r, rotate4(parts.harm_r, o),
                               atol=1e-10 * scale)
            assert np.allclose(rotated.tensor_a1, rotate4(parts.tensor_a1, o),
                               atol=1e-10 * scale)


# The einsum forms of decomp's fixed linear maps.  The operators compute
# each from its formula, summing the same nonzero terms in the same order, so
# they must agree bit for bit, signed zeros included.


def sa_split_s_oracle(c):
    return (c + np.einsum("iklj->ijkl", c) + np.einsum("iljk->ijkl", c)) / 3.0


def condense_oracle(a):
    d = np.einsum("mil,njk,ijkl->mn", LEVI_CIVITA, LEVI_CIVITA, a) / 3.0
    return 0.5 * (d + d.T)


def a_from_delta_oracle(d):
    t1 = np.einsum("ikm,jln,mn->ijkl", LEVI_CIVITA, LEVI_CIVITA, d)
    t2 = np.einsum("ilm,jkn,mn->ijkl", LEVI_CIVITA, LEVI_CIVITA, d)
    return 0.5 * (t1 + t2)


def sym_pg_oracle(p):
    g = IDENTITY3
    return (
        np.einsum("ij,kl->ijkl", p, g)
        + np.einsum("ik,jl->ijkl", p, g)
        + np.einsum("il,jk->ijkl", p, g)
        + np.einsum("jk,il->ijkl", p, g)
        + np.einsum("jl,ik->ijkl", p, g)
        + np.einsum("kl,ij->ijkl", p, g)
    )


def signed_zero_stiffness(rng):
    """Sparse stiffness with exact zeros of both signs among a few values."""
    m = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.0], size=(6, 6))
    return voigt_to_full(np.triu(m) + np.triu(m, 1).T)


def operator_inputs(family, rng):
    # the operators serve any 3^4 array, so the raw families drop the
    # stiffness symmetries, under which several terms of an entry coincide
    if family == "raw":
        return [rng.normal(size=(3, 3, 3, 3)) for _ in range(50)]
    if family == "raw-signed-zeros":
        return [rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=(3, 3, 3, 3))
                for _ in range(100)]
    if family == "cubic":
        return [W, cubic_stiffness(-1.0, 2.0, -3.0)]
    if family == "isotropic":
        return [isotropic_stiffness(2.0, 1.0), isotropic_stiffness(0.1, 0.1),
                isotropic_stiffness(-0.3, 0.7)]
    if family == "signed-zeros":
        return [signed_zero_stiffness(rng) for _ in range(100)]
    if family == "subnormal":
        # entries below 2.2e-308, where products lose bits, and multiples of
        # the least one, where halving a sum rounds to a signed zero
        return ([random_stiffness(rng) * 1e-312 for _ in range(50)]
                + [voigt_to_full(np.triu(m) + np.triu(m, 1).T) * 5e-324
                   for m in rng.integers(-3, 4, size=(50, 6, 6)).astype(float)])
    return [random_stiffness(rng) * float(family) for _ in range(50)]


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


FAMILIES = ["1e-300", "1e-9", "1", "1e9", "1e300", "subnormal", "cubic",
            "isotropic", "signed-zeros", "raw", "raw-signed-zeros"]


class TestTabulatedOperators:
    """decomp's fixed linear maps agree bit for bit with their einsum oracles
    on every family.  The class keeps the name it had when the maps were
    gathered from import-time tables, so that its test ids stay stable."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sa_split_transposes(self, family, rng):
        for c in operator_inputs(family, rng):
            parts = sa_split(c)
            s = sa_split_s_oracle(c)
            assert same_bits(parts.s, s)
            assert same_bits(parts.a, c - s)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_condense(self, family, rng):
        for c in operator_inputs(family, rng):
            # the non-Cauchy part, as so3_refine condenses it, and any tensor
            for a in (sa_split(c).a, c):
                assert same_bits(decomp._condense(a), condense_oracle(a))
            assert same_bits(decompose(c).delta, condense_oracle(sa_split(c).a))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sym_pg(self, family, rng):
        for c in operator_inputs(family, rng):
            for p in (decompose(c).dev_p, c[0, 0], c[:, :, 1, 2]):
                assert same_bits(decomp._sym_pg(p), sym_pg_oracle(p))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_from_delta(self, family, rng):
        for c in operator_inputs(family, rng):
            parts = decompose(c)
            # symmetric and non-symmetric 3x3 inputs
            for d in (parts.dev_q, parts.delta, c[0, 0], c[:, :, 1, 2], c[0, :, 2, :]):
                assert same_bits(a_from_delta(d), a_from_delta_oracle(d))
            assert same_bits(parts.tensor_a2, a_from_delta_oracle(parts.dev_q))

    def test_a_from_delta_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3x3"):
            a_from_delta(np.zeros(9))


class TestFrozenResults:
    FIELDS = ("delta", "dev_p", "harm_r", "dev_q", "tensor_s1", "tensor_s2",
              "tensor_a1", "tensor_a2")

    def arrays(self, parts):
        return ([parts.split.c, parts.split.s, parts.split.a]
                + [getattr(parts, name) for name in self.FIELDS])

    @pytest.mark.parametrize("writeable", [True, False])
    def test_decompose_neither_aliases_nor_freezes_the_callers_array(self, rng, writeable):
        c = random_stiffness(rng)
        c.setflags(write=writeable)
        before = c.copy()
        parts = decompose(c)
        assert c.flags.writeable == writeable
        for arr in self.arrays(parts):
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, c)
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        if writeable:
            c[0, 0, 0, 0] += 1.0
        assert np.array_equal(parts.split.c, before)

    def test_direct_construction_copies_the_callers_arrays(self, rng):
        c = random_stiffness(rng)
        s = sa_split_s_oracle(c)
        a = c - s
        view = a[...]
        view.setflags(write=False)  # read-only, but a's owner can still write
        split = SAParts(c=c, s=s, a=view)
        for mine, kept in ((c, split.c), (s, split.s), (a, split.a)):
            assert mine.flags.writeable
            assert not kept.flags.writeable
            assert not np.shares_memory(mine, kept)

    def test_cached_norms_equal_fresh_ones(self, rng):
        for c in (W, isotropic_stiffness(2.0, 1.0), random_stiffness(rng)):
            parts = decompose(c)
            for _ in range(2):  # first read computes, second reads the cache
                assert parts.split.c_norm == frobenius_norm4(c)
                assert parts.split.s_norm == frobenius_norm4(parts.split.s)
                assert parts.split.a_norm == frobenius_norm4(parts.split.a)
                assert parts.p_norm == frobenius_norm2(parts.dev_p)
                assert parts.q_norm == frobenius_norm2(parts.dev_q)
                assert parts.r_norm == frobenius_norm4(parts.harm_r)
                ns, na = frobenius_norm4(parts.split.s), frobenius_norm4(parts.split.a)
                assert parts.cauchy_factor == float(ns / np.sqrt(ns * ns + na * na))

    def test_cauchy_factor_raises_on_every_read_of_the_zero_tensor(self):
        parts = decompose(np.zeros((3, 3, 3, 3)))
        for _ in range(3):
            with pytest.raises(ValueError, match="zero tensor"):
                parts.cauchy_factor
