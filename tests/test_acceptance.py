"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured worst-case error at the pinned tolerance.

Everything here is checked against published constants, closed forms, or
independent brute-force oracles; run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines as they print).
"""

import itertools

import numpy as np
import pytest

from cauchykit.acoustics import (
    christoffel,
    fibonacci_sphere,
    find_pure_longitudinal,
    longitudinal_velocity,
    shear_polarization,
    sum_squared_velocities,
    wave_solve,
)
from cauchykit.constitutive import (
    energy,
    hooke_mean,
    hooke_shear,
    split_strain,
    stability_bounds,
)
from cauchykit.decomp import (
    a_from_delta,
    assemble,
    decompose,
    sa_split,
)
from cauchykit.tensor_core import (
    cubic_stiffness,
    frobenius_norm2,
    frobenius_norm4,
    isotropic_stiffness,
    voigt_to_full,
)

from conftest import (
    hexagonal_voigt,
    random_rotation,
    random_spd_voigt,
    random_symmetric3,
    rotate2,
    rotate4,
)

TABLE_POSITIVE = {
    "AlSb": (0.894, 0.443, 0.416),
    "InP": (1.022, 0.576, 0.460),
    "InAs": (0.83, 0.453, 0.396),
    "W": (5.224, 2.044, 1.608),
    "Mo": (4.637, 1.578, 1.092),
}
TABLE_NEGATIVE = {
    "C": (10.76, 1.250, 5.760),
    "Si": (1.658, 0.639, 0.796),
    "Ge": (1.284, 0.482, 0.667),
    "Ir": (5.800, 2.420, 2.560),
    "Cr": (3.398, 0.586, 0.990),
}


def check(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number:2d} [{status}] {description} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {description} {detail}"


def batch_random_voigt(rng, count):
    ms = rng.uniform(-1.0, 1.0, (count, 6, 6))
    return 0.5 * (ms + np.transpose(ms, (0, 2, 1)))


def test_01_reconstruction_and_orthogonality(rng):
    worst_recon = 0.0
    worst_ortho = 0.0
    for m in batch_random_voigt(rng, 10_000):
        c = voigt_to_full(m)
        parts = decompose(c)
        norm_c = frobenius_norm4(c)
        worst_recon = max(
            worst_recon, frobenius_norm4(assemble(parts) - c) / norm_c
        )
        tensors = [
            parts.tensor_s1, parts.tensor_s2, parts.harm_r,
            parts.tensor_a1, parts.tensor_a2,
        ]
        flat = np.array([t.ravel() for t in tensors])
        gram = flat @ flat.T
        norms = np.sqrt(np.maximum(np.diag(gram), 1e-300))
        cross = np.abs(gram) / np.outer(norms, norms)
        np.fill_diagonal(cross, 0.0)
        worst_ortho = max(worst_ortho, float(cross.max()))
    check(
        1,
        "five-part reconstruction and pairwise orthogonality on 10^4 tensors",
        worst_recon <= 1e-10 and worst_ortho <= 1e-10,
        f"(worst reconstruction {worst_recon:.2e}, worst cross {worst_ortho:.2e})",
    )


def test_02_table_classification():
    ok = True
    details = []
    for name, (c11, c12, c44) in TABLE_POSITIVE.items():
        a = decompose(cubic_stiffness(c11, c12, c44)).scalar_a
        ok &= a > 0
        details.append(f"{name} {a:+.4f}")
    for name, (c11, c12, c44) in TABLE_NEGATIVE.items():
        a = decompose(cubic_stiffness(c11, c12, c44)).scalar_a
        ok &= a < 0
        details.append(f"{name} {a:+.4f}")
    a_w = decompose(cubic_stiffness(*TABLE_POSITIVE["W"])).scalar_a
    a_si = decompose(cubic_stiffness(*TABLE_NEGATIVE["Si"])).scalar_a
    ok &= abs(a_w - 1.744) <= 1e-12
    ok &= abs(a_si - (-0.628)) <= 1e-12
    check(2, "published cubic tables classify with the stated sign of A", ok,
          f"(W A = {a_w:.6f}, Si A = {a_si:.6f})")


def test_03_isotropic_closed_forms():
    worst = 0.0
    rho = 1.0
    n = np.array([0.36, 0.48, 0.8])
    n /= np.linalg.norm(n)
    count = 0
    for lam in np.linspace(-0.45, 4.0, 20):
        for mu in np.linspace(0.05, 3.0, 20):
            if mu <= 0 or 3 * lam + 2 * mu <= 0:
                continue
            count += 1
            parts = decompose(isotropic_stiffness(lam, mu))
            s, a = parts.scalar_s, parts.scalar_a
            scale = max(abs(s), abs(a), 1.0)
            worst = max(worst, abs(s - 5 * (lam + 2 * mu)) / scale)
            worst = max(worst, abs(a - 4 * (lam - mu)) / scale)
            vl2 = s / (5 * rho)
            vs2 = (4 * s - 5 * a) / (60 * rho)
            worst = max(worst, abs(vl2 - (lam + 2 * mu) / rho) / scale)
            worst = max(worst, abs(vs2 - mu / rho) / scale)
    # eigen cross-check on a subsample, and the critical Poisson point
    for lam, mu in [(0.5, 0.5), (2.0, 1.0), (3.1, 0.3)]:
        c = isotropic_stiffness(lam, mu)
        wave = wave_solve(christoffel(c, n, rho))
        worst = max(worst, abs(wave.eigenvalues[0] - (lam + 2 * mu)) / (lam + 2 * mu))
        worst = max(worst, abs(wave.eigenvalues[1] - mu) / mu)
    nu = stability_bounds(decompose(isotropic_stiffness(1.3, 1.3))).poisson_equiv
    ok = worst <= 1e-12 and abs(nu - 0.25) <= 1e-12 and count >= 300
    check(3, "isotropic closed forms over the 20x20 Lame grid", ok,
          f"(worst {worst:.2e}, nu(lam=mu) = {nu}, {count} stable points)")


def test_04_christoffel_structure(rng):
    worst_vec = 0.0
    worst_det = 0.0
    ms = batch_random_voigt(rng, 10_000)
    dirs = rng.normal(size=(10_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for m, n in zip(ms, dirs):
        bundle = christoffel(voigt_to_full(m), n, 1.0)
        scale = max(frobenius_norm2(bundle.non_cauchy), 1e-300)
        worst_vec = max(
            worst_vec, float(np.linalg.norm(bundle.non_cauchy @ n)) / scale
        )
        worst_det = max(
            worst_det, abs(float(np.linalg.det(bundle.non_cauchy))) / scale ** 3
        )
    check(4, "non-Cauchy Christoffel annihilates n and is singular, 10^4 pairs",
          worst_vec <= 1e-10 and worst_det <= 1e-10,
          f"(worst |A n| {worst_vec:.2e}, worst det {worst_det:.2e})")


def test_05_velocity_sum_invariants(rng):
    worst = 0.0
    for m in batch_random_voigt(rng, 1000):
        c = voigt_to_full(m)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        parts = decompose(c)
        wave = wave_solve(christoffel(c, n, 1.0))
        formula = sum_squared_velocities(parts, n, 1.0)
        worst = max(worst, abs(float(np.sum(wave.eigenvalues)) - formula)
                    / max(abs(formula), 1e-300))
    worst_triple = 0.0
    for _ in range(100):
        c = voigt_to_full(batch_random_voigt(rng, 1)[0])
        parts = decompose(c)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        total = sum(sum_squared_velocities(parts, q[:, k], 1.0) for k in range(3))
        expect = (2 * parts.scalar_s - parts.scalar_a) / 2.0
        worst_triple = max(worst_triple, abs(total - expect)
                           / max(abs(expect), 1e-300))
    spreads = []
    for c in (cubic_stiffness(5.224, 2.044, 1.608), isotropic_stiffness(2.0, 1.0)):
        parts = decompose(c)
        values = [sum_squared_velocities(parts, n, 1.0)
                  for n in fibonacci_sphere(1000)]
        spreads.append(np.ptp(values) / abs(np.mean(values)))
    ok = worst <= 1e-10 and worst_triple <= 1e-10 and max(spreads) <= 1e-12
    check(5, "velocity-sum invariants (per direction, triples, 2P+Q=0 classes)",
          ok, f"(worst {worst:.2e}, triple {worst_triple:.2e}, "
              f"spread {max(spreads):.2e})")


def test_06_non_cauchy_independence(rng):
    base = sa_split(cubic_stiffness(5.224, 2.044, 1.608)).s
    probe_dirs = fibonacci_sphere(200)
    ref_vl = []
    ref_pol = []
    for n in probe_dirs:
        bundle = christoffel(base, n, 1.0)
        ref_vl.append(longitudinal_velocity(bundle))
        ref_pol.append(shear_polarization(bundle))
    worst = 0.0
    for _ in range(100):
        c = base + a_from_delta(random_symmetric3(rng))
        for k, n in enumerate(probe_dirs):
            bundle = christoffel(c, n, 1.0)
            worst = max(worst, abs(longitudinal_velocity(bundle) - ref_vl[k])
                        / ref_vl[k])
            u = shear_polarization(bundle)
            if np.isnan(ref_pol[k]).any():
                worst = max(worst, 0.0 if np.isnan(u).all() else 1.0)
            else:  # a NaN u where the reference has a polarization counts as 1
                gap = np.nan_to_num(np.abs(u - ref_pol[k]), nan=1.0)
                worst = max(worst, float(gap.max()))
    # full search: the discrete pure-longitudinal set is unchanged
    ref_set = find_pure_longitudinal(base, 1.0, grid_n=600)
    ref_dirs = np.array([h.direction for h in ref_set.hits])
    set_ok = len(ref_dirs) == 13
    for _ in range(3):
        c = base + a_from_delta(random_symmetric3(rng))
        scan = find_pure_longitudinal(c, 1.0, grid_n=600)
        dirs = np.array([h.direction for h in scan.hits])
        set_ok &= dirs.shape == ref_dirs.shape
        if set_ok:
            for d in dirs:
                gap = min(min(np.linalg.norm(d - r), np.linalg.norm(d + r))
                          for r in ref_dirs)
                set_ok &= gap <= 1e-10
    check(6, "longitudinal velocity, shear polarization and pure set are "
             "non-Cauchy independent (100 replacements)",
          worst <= 1e-10 and set_ok, f"(worst deviation {worst:.2e})")


def test_07_hooke_consistency(rng):
    worst = 0.0
    ms = batch_random_voigt(rng, 10_000)
    for m in ms:
        c = voigt_to_full(m)
        eps = random_symmetric3(rng)
        parts = decompose(c)
        sp = split_strain(eps)
        sigma = np.einsum("ijkl,kl->ij", c, eps)
        scale = max(float(np.abs(sigma).max()), 1e-300)
        worst = max(worst, abs(hooke_mean(parts, sp) - np.trace(sigma)) / scale)
        deviator = sigma - np.trace(sigma) / 3.0 * np.eye(3)
        worst = max(
            worst,
            float(np.abs(hooke_shear(parts, sp) - deviator).max()) / scale,
        )
    closure_ok = True
    for c in (cubic_stiffness(5.224, 2.044, 1.608), isotropic_stiffness(2.0, 1.0)):
        for _ in range(50):
            eps = random_symmetric3(rng)
            r = energy(decompose(c), eps)
            scale = max(abs(r.total), 1e-300)
            closure_ok &= abs(r.total - (r.compression + r.mixed + r.shear)) \
                <= 1e-12 * scale
            closure_ok &= abs(r.mixed) <= 1e-12 * scale
    check(7, "decomposed Hooke equations reproduce trace/deviator on 10^4 "
             "pairs; energy closure with vanishing mixed term",
          worst <= 1e-11 and closure_ok, f"(worst {worst:.2e})")


def test_08_coefficient_regression(rng):
    # brute-force quartic contraction of the symmetric part against both
    # closed-form candidates; only S/5 survives, hence (4S-5A)/30 for shears
    c = voigt_to_full(batch_random_voigt(rng, 1)[0])
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    parts = decompose(c)
    s_part = sa_split(c).s
    quotient = 0.0
    for i, j, k, l in itertools.product(range(3), repeat=4):
        quotient += s_part[i, j, k, l] * n[i] * n[j] * n[k] * n[l]
    p_nn = float(n @ parts.dev_p @ n)
    r_nnnn = float(np.einsum("ijkl,i,j,k,l->", parts.harm_r, n, n, n, n))
    s = parts.scalar_s
    good = s / 5.0 + 6.0 / 7.0 * p_nn + r_nnnn
    bad = s / 15.0 + 6.0 / 7.0 * p_nn + r_nnnn
    coeff_ok = abs(quotient - good) <= 1e-11 * max(abs(good), 1.0) and \
        abs(quotient - bad) > 1e-2 * abs(s / 5.0 - s / 15.0)
    # shear sum constant: isotropic oracle 2 mu
    iso = decompose(isotropic_stiffness(2.0, 1.0))
    si, ai = iso.scalar_s, iso.scalar_a
    shear_ok = abs((4 * si - 5 * ai) / 30.0 - 2.0) <= 1e-12 and \
        abs((8 * si - 5 * ai) / 30.0 - 2.0) > 0.5
    check(8, "longitudinal coefficient is S/5 (not S/15); shear-sum constant "
             "is (4S-5A)/30 (not (8S-5A)/30)", coeff_ok and shear_ok,
          f"(S:nn quotient matches S/5 to {abs(quotient - good):.2e})")


def test_09_bounds(rng):
    iso_ok = True
    for lam in np.linspace(-0.45, 4.0, 20):
        for mu in np.linspace(0.05, 3.0, 20):
            if mu <= 0 or 3 * lam + 2 * mu <= 0:
                continue
            report = stability_bounds(decompose(isotropic_stiffness(lam, mu)))
            iso_ok &= report.a_window_ok
            iso_ok &= report.poisson_ok
    hex_ok = True
    found = 0
    grid = fibonacci_sphere(4000)
    while found < 20:
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
        s, a = parts.scalar_s, parts.scalar_a
        values = np.array([
            sum_squared_velocities(parts, n, 1.0) for n in grid
        ])
        base = (2 * s - a) / 6.0
        # K(n) = base + ell (1 - 3 nz^2) / 2 ranges over [base + ell/2,
        # base - ell]; the spread gives |ell| and the asymmetry its sign
        spread = values.max() - values.min()
        amp = 2.0 * spread / 3.0
        ell = amp if (values.max() - base) <= (base - values.min()) else -amp
        resolution = 1e-3 * max(abs(s), 1.0)
        hex_ok &= abs(ell - (2 * parts.dev_p + parts.dev_q)[0, 0]) <= resolution
        hex_ok &= (2 * s - a) / 6.0 > ell - resolution
        hex_ok &= ell + resolution > -(2 * s - a) / 3.0
    check(9, "stability bounds: isotropic window and Poisson bound on the "
             "grid; hexagonal scan extrema obey the 2P+Q window",
          iso_ok and hex_ok, f"({found} stable hexagonal samples)")


def test_10_rotation_equivariance(rng):
    c = voigt_to_full(batch_random_voigt(rng, 1)[0])
    parts = decompose(c)
    scale = frobenius_norm4(c)
    worst = 0.0
    for _ in range(100):
        o = random_rotation(rng)
        rotated = decompose(rotate4(c, o))
        worst = max(worst, abs(rotated.scalar_s - parts.scalar_s) / scale)
        worst = max(worst, abs(rotated.scalar_a - parts.scalar_a) / scale)
        worst = max(worst, float(np.abs(
            rotated.dev_p - rotate2(parts.dev_p, o)).max()) / scale)
        worst = max(worst, float(np.abs(
            rotated.dev_q - rotate2(parts.dev_q, o)).max()) / scale)
        for mine, reference in (
            (rotated.tensor_s1, rotate4(parts.tensor_s1, o)),
            (rotated.tensor_s2, rotate4(parts.tensor_s2, o)),
            (rotated.harm_r, rotate4(parts.harm_r, o)),
            (rotated.tensor_a1, rotate4(parts.tensor_a1, o)),
            (rotated.tensor_a2, rotate4(parts.tensor_a2, o)),
        ):
            worst = max(worst, float(np.abs(mine - reference).max()) / scale)
    check(10, "decomposition commutes with 100 random rotations part by part",
          worst <= 1e-10, f"(worst {worst:.2e})")


def inertia(sym: np.ndarray) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts, zero relative to the norm."""
    values = np.linalg.eigvalsh(sym)
    tol = 1e-9 * float(np.abs(values).max())
    return (int((values > tol).sum()), int((values < -tol).sum()),
            int((np.abs(values) <= tol).sum()))


def random_invertible(rng, min_det=0.2):
    while True:
        m = rng.normal(size=(3, 3))
        if abs(np.linalg.det(m)) >= min_det:
            return m


def test_11_gl3_covariance(rng):
    # c -> L (x) L (x) L (x) L c for an invertible L, which rotate4 applies
    worst_split = worst_delta = worst_cauchy = 0.0
    same_inertia = 0
    count = 200
    for _ in range(count):
        c = voigt_to_full(random_spd_voigt(rng))
        m = random_invertible(rng)
        split, moved = sa_split(c), sa_split(rotate4(c, m))
        scale = frobenius_norm4(moved.c)
        worst_split = max(worst_split, frobenius_norm4(
            moved.s - rotate4(split.s, m)) / scale)
        # delta is a weight-2 density: delta' = det(L)^2 L^-T delta L^-1
        inv = np.linalg.inv(m)
        delta, delta_moved = decompose(c).delta, decompose(moved.c).delta
        expect = np.linalg.det(m) ** 2 * inv.T @ delta @ inv
        worst_delta = max(worst_delta, frobenius_norm2(delta_moved - expect)
                          / frobenius_norm2(expect))
        same_inertia += inertia(delta_moved) == inertia(delta)
        s_moved = sa_split(rotate4(split.s, m))
        worst_cauchy = max(worst_cauchy, s_moved.a_norm / s_moved.c_norm)
    check(11, "permutation split commutes with L(x)4 for 200 random invertible L",
          worst_split <= 1e-12, f"(worst {worst_split:.2e})")
    check(11, "delta' = det(L)^2 L^-T delta L^-1",
          worst_delta <= 1e-12, f"(worst {worst_delta:.2e})")
    check(11, "a = 0 survives any invertible L",
          worst_cauchy <= 1e-12, f"(worst {worst_cauchy:.2e})")
    check(11, "the inertia of delta is GL-invariant",
          same_inertia == count, f"({same_inertia} of {count})")

    w = cubic_stiffness(5.224, 2.044, 1.608)
    q_before = decompose(w).q_norm
    q_after = decompose(rotate4(w, random_invertible(rng))).q_norm
    check(11, "counterexample: Q = 0 (cubic W) is not GL-invariant",
          q_before <= 1e-12 and q_after > 0.1, f"(q_norm {q_before:.1e} -> {q_after:.3g})")
    c = sa_split(w).s + a_from_delta(np.diag([1.0, 1.0, -1.5]))
    a_before = decompose(c).scalar_a
    a_after = decompose(rotate4(c, np.diag([1.0, 1.0, 0.5]))).scalar_a
    check(11, "counterexample: the sign of A is not GL-invariant",
          abs(a_before - 1.0) <= 1e-12 and abs(a_after + 2.0) <= 1e-12,
          f"(A {a_before:+.3g} -> {a_after:+.3g} under L = diag(1, 1, 0.5))")


@pytest.fixture
def rng():
    return np.random.default_rng(424242)
