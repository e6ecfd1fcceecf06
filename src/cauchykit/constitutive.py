"""Constitutive response expressed through the invariant sub-tensors.

Hooke's law splits into an exactly equivalent pair of equations once strain
and stress are separated into hydrostatic and deviatoric pieces: a scalar
equation for the mean stress and a traceless equation for the stress
deviator.  The elastic energy likewise splits into compression, mixed and
shear parts, each with an attributed Cauchy and non-Cauchy share.  Everything
here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# re-exported: decompose builds the IrreducibleParts the functions here take
from .decomp import IrreducibleParts, check_stiffness, decompose  # noqa: F401
from .tensor_core import IDENTITY3

__all__ = [
    "TraceSplit",
    "EnergyReport",
    "BoundsReport",
    "split_strain",
    "split_stress",
    "hooke_full",
    "hooke_mean",
    "hooke_shear",
    "k_mean",
    "k_shear",
    "energy",
    "stability_bounds",
    "lame_from_invariants",
]


class TraceSplit(NamedTuple):
    """Trace/deviator split of a symmetric strain or stress tensor:
    ``x = (trace/3) g + shear``."""

    trace: float
    shear: np.ndarray


class EnergyReport(NamedTuple):
    """Elastic energy density split by strain channel and tensor origin.

    ``total = compression + mixed + shear`` holds exactly, and each channel
    equals the sum of its ``*_cauchy`` and ``*_non_cauchy`` shares.
    """

    total: float
    compression: float
    compression_cauchy: float
    compression_non_cauchy: float
    mixed: float
    mixed_cauchy: float
    mixed_non_cauchy: float
    shear: float
    shear_cauchy: float
    shear_non_cauchy: float


class BoundsReport(NamedTuple):
    """Diagnostic stability bounds on the scalar invariants.

    The scalar bounds assume hydrostatic compression and pure shear are
    independently realizable; they are reported, never enforced.  For inputs
    whose deviators and harmonic part vanish (isotropic), the equivalent
    Poisson ratio and its classical window are reported too, else both are
    None.  ``voigt_min_eigenvalue`` is the smallest eigenvalue of the
    material's own 6x6 Voigt matrix, a necessary-and-sufficient positivity
    diagnostic for the general anisotropic case, cached on the split as
    ``SAParts.voigt_min_eigenvalue``.  The field order is the key order of
    the report's ``bounds`` block.
    """

    s_plus_a: float
    four_s_minus_five_a: float
    a_window_ok: bool
    voigt_min_eigenvalue: float
    poisson_equiv: float | None
    poisson_ok: bool | None


def _sym3(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (3, 3):
        raise ValueError(f"expected a 3x3 tensor, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("strain or stress tensor has a non-finite entry")
    if np.abs(x - x.T).max() > 1e-12 * float(np.abs(x).max()):
        raise ValueError("tensor must be symmetric")
    return 0.5 * (x + x.T)


def _trace_split(x: np.ndarray) -> TraceSplit:
    # x = (tr/3) g + shear, for an x that _sym3 already checked
    tr = float(np.trace(x))
    return TraceSplit(tr, x - tr / 3.0 * IDENTITY3)


def split_strain(eps) -> TraceSplit:
    """Split a symmetric strain into trace and traceless shear parts."""
    return _trace_split(_sym3(eps))


def split_stress(sig) -> TraceSplit:
    """Split a symmetric stress into trace and traceless shear parts."""
    return _trace_split(_sym3(sig))


def hooke_full(c: np.ndarray, eps) -> np.ndarray:
    """Plain Hooke's law ``sigma[i,j] = c[i,j,k,l] eps[k,l]``."""
    return np.einsum("ijkl,kl->ij", check_stiffness(c), _sym3(eps))


def k_mean(parts: IrreducibleParts) -> float:
    """Hydrostatic stiffness coefficient ``(S + A) / 3``; increasing in A."""
    return (parts.scalar_s + parts.scalar_a) / 3.0


def k_shear(parts: IrreducibleParts) -> float:
    """Shear stiffness coefficient ``(4S - 5A) / 30``; decreasing in A."""
    return (4.0 * parts.scalar_s - 5.0 * parts.scalar_a) / 30.0


def hooke_mean(parts: IrreducibleParts, strain: TraceSplit) -> float:
    """Mean-stress equation: trace of the stress from the invariant parts.

    ``sigma = ((S + A) / 3) eps + (P - Q) : u``, the coefficient being
    :func:`k_mean`.  Equals the trace of :func:`hooke_full` for the assembled
    tensor.
    """
    pq = parts.dev_p - parts.dev_q
    return k_mean(parts) * strain.trace + float(np.einsum("kl,kl->", pq, strain.shear))


def hooke_shear(parts: IrreducibleParts, strain: TraceSplit) -> np.ndarray:
    """Stress-deviator equation from the invariant parts.

    ``s = ((P - Q)/3) eps + ((4S - 5A)/30) u + R : u
    + (2/7) (P u + u P - (2/3)(P : u) g) + (Q u + u Q - (2/3)(Q : u) g)``.

    The result is traceless and equals the deviator of :func:`hooke_full`;
    ``(4S - 5A)/30`` is :func:`k_shear`.
    """
    p, q = parts.dev_p, parts.dev_q
    u = strain.shear
    g = IDENTITY3
    out = (p - q) / 3.0 * strain.trace
    out = out + k_shear(parts) * u
    out = out + np.einsum("ijkl,kl->ij", parts.harm_r, u)
    out = out + 2.0 / 7.0 * (p @ u + u @ p - 2.0 / 3.0 * np.einsum("mn,mn->", p, u) * g)
    out = out + (q @ u + u @ q - 2.0 / 3.0 * np.einsum("mn,mn->", q, u) * g)
    return out


def energy(parts: IrreducibleParts, eps) -> EnergyReport:
    """Elastic energy density ``E = (1/2) c : eps : eps`` with attribution,
    for the tensor ``c`` that :func:`decompose` split into ``parts``.

    Channels:

    * compression  ``(eps_tr^2 / 18) (S + A)``, split as S- and A-shares;
    * mixed        ``(eps_tr / 3) (P - Q) : u``, split as P- and -Q-shares;
    * shear        Cauchy share ``(S/15) u:u + (2/7) P[i,k] u[i,j] u[j,k]
      + (1/2) R : u : u`` and non-Cauchy share ``-(A/12) u:u
      + Q[i,j] u[j,k] u[k,i]``.

    The channel sum reproduces the direct quadruple contraction exactly.  A
    result that leaves the float range raises ``ValueError``.
    """
    eps = _sym3(eps)
    tr, u = _trace_split(eps)

    total = 0.5 * float(np.einsum("ijkl,ij,kl->", parts.split.c, eps, eps))

    ec_c = tr * tr / 18.0 * parts.scalar_s
    ec_nc = tr * tr / 18.0 * parts.scalar_a

    em_c = tr / 3.0 * float(np.einsum("kl,kl->", parts.dev_p, u))
    em_nc = -tr / 3.0 * float(np.einsum("kl,kl->", parts.dev_q, u))

    uu = float(np.einsum("ij,ij->", u, u))
    es_c = (
        parts.scalar_s / 15.0 * uu
        + 2.0 / 7.0 * float(np.einsum("ik,ij,jk->", parts.dev_p, u, u))
        + 0.5 * float(np.einsum("ijkl,ij,kl->", parts.harm_r, u, u))
    )
    es_nc = -parts.scalar_a / 12.0 * uu + float(
        np.einsum("ij,jk,ki->", parts.dev_q, u, u)
    )

    result = EnergyReport(
        total=total,
        compression=ec_c + ec_nc,
        compression_cauchy=ec_c,
        compression_non_cauchy=ec_nc,
        mixed=em_c + em_nc,
        mixed_cauchy=em_c,
        mixed_non_cauchy=em_nc,
        shear=es_c + es_nc,
        shear_cauchy=es_c,
        shear_non_cauchy=es_nc,
    )
    if not all(map(math.isfinite, result)):
        raise ValueError("the energy of this strain leaves the float range")
    return result


def lame_from_invariants(parts: IrreducibleParts) -> tuple[float, float]:
    """Lame moduli implied by (S, A): ``lam = (2S + 5A)/30``, ``mu = (4S - 5A)/60``.

    Exact only when the material is isotropic (P, Q and R all vanish).
    """
    lam = (2.0 * parts.scalar_s + 5.0 * parts.scalar_a) / 30.0
    mu = k_shear(parts) / 2.0
    return lam, mu


_ISO_TOL = 1e-9


def stability_bounds(parts: IrreducibleParts) -> BoundsReport:
    """Evaluate the scalar stability bounds on the invariant parameters.

    Reports ``S + A`` (positivity of compression energy), ``4S - 5A``
    (positivity of isotropic shear energy) and whether the window
    ``0.8 S > A > -S`` holds strictly.  For isotropic input the Poisson ratio
    ``nu = lam / (2 lam + 2 mu)`` and the bound ``-1 < nu < 0.5`` are included.
    ``voigt_min_eigenvalue`` is read from ``parts.split``, which solves the
    6x6 eigenproblem on first read and caches it, so every later call on the
    same ``parts`` costs scalar arithmetic only.
    """
    s, a = parts.scalar_s, parts.scalar_a
    scale = max(abs(s), abs(a), 1e-300)
    isotropic = (
        parts.p_norm <= _ISO_TOL * scale
        and parts.q_norm <= _ISO_TOL * scale
        and parts.r_norm <= _ISO_TOL * scale
    )
    poisson = None
    poisson_ok = None
    if isotropic:
        lam, mu = lame_from_invariants(parts)
        denom = 2.0 * (lam + mu)
        if denom != 0.0:
            poisson = lam / denom
            poisson_ok = -1.0 < poisson < 0.5

    return BoundsReport(
        s_plus_a=s + a,
        four_s_minus_five_a=4.0 * s - 5.0 * a,
        a_window_ok=bool(0.8 * s > a > -s),
        voigt_min_eigenvalue=parts.split.voigt_min_eigenvalue,
        poisson_equiv=poisson,
        poisson_ok=poisson_ok,
    )
