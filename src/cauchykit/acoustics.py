"""Plane-wave acoustics through the Christoffel tensor.

For a unit propagation direction ``n`` and density ``rho`` the Christoffel
tensor ``Gamma[i,l] = c[i,j,k,l] n[j] n[k] / rho`` is symmetric; its
eigenvalues are squared phase velocities and its eigenvectors the
polarizations.  Splitting the stiffness tensor into Cauchy and non-Cauchy
parts splits Gamma the same way, and the non-Cauchy piece annihilates the
propagation direction (``A n = 0``, hence ``det A = 0``).  Two consequences
drive everything in this module: the velocity of a pure longitudinal wave and
the polarization of an isolated pure shear wave depend on the Cauchy part
only.

:func:`christoffel`, :func:`wave_solve` and every velocity, polarization,
residual and sum function take one direction ``(3,)`` or a whole direction
array ``(N, 3)``.  A batch splits the stiffness tensor once, contracts it
with every direction in one matrix product and solves all ``N``
eigenproblems in one stacked LAPACK call; row ``i`` of a batched result
depends on ``n[i]`` alone.  The single-direction form is the batch of one
with the leading axis dropped.
Every velocity is NaN for a non-causal mode (``v^2 <= 0``), never 0.

The pure-longitudinal directions are the critical points of ``f(n) = s:nnnn``
on the projective plane, which are the real eigenvectors of the symmetric
tensor ``s`` (``s.nnn = lambda n``).  A generic ``s`` has 13 eigenvectors over
the complex numbers; :func:`find_pure_longitudinal` computes all 13 as the
roots of a resultant and polishes the real ones by Newton's method, or, when
that does not account for every root, runs Newton from golden-angle seeds.
Either way it checks the set against the Euler characteristic, a necessary
condition for completeness.  A *family* hit has a singular tangent Hessian, as
on a continuous ring or cone of pure directions; the check does not apply
there.  Two short cuts come first, read exactly off the orthogonal harmonics
of ``f = S/5 + (6/7) P:nn + R:nnnn``: every direction is pure when ``P = R =
0``, and a transversely isotropic ``s`` has ``f = alpha + beta c^2 + gamma
c^4``, ``c = n.e`` for its axis ``e``, so its pure set is the axis, the basal
ring and at most one cone, each reported once.  No result here uses scipy.
"""

from __future__ import annotations

import importlib
import math
import operator
from typing import NamedTuple

import numpy as np

from .constitutive import k_shear
from .decomp import IrreducibleParts, SAParts, harmonic_split, sa_split
from .tensor_eigen import real_eigenvectors
from .tensor_core import (
    EIGEN_PAIRS,
    IDENTITY3,
    binary_unit,
    degenerate_mask,
    degenerate_pairs,
    eig_sym3,
    frobenius_norm2,
    frobenius_norm4,
    norm,
    unit_vector,
)

__all__ = [
    "ChristoffelBundle",
    "WaveSolution",
    "PureModeHit",
    "PureModeScan",
    "CriticalDirections",
    "check_density",
    "christoffel",
    "wave_solve",
    "sum_squared_velocities",
    "critical_directions",
    "longitudinal_velocity",
    "pure_longitudinal_residual",
    "find_pure_longitudinal",
    "shear_polarization",
    "shear_velocity",
    "shear_condition_residual",
    "shear_sum",
    "fibonacci_sphere",
]

PURITY_TOL = 1e-8  # relative eigen residual of a pure longitudinal direction
_FAMILY_MERGE = 2.0 * math.sin(math.radians(0.25))  # chord of 0.5 degrees
_POINT_MERGE = 1e-7  # chord; isolated hits closer than this are one point
_NEWTON_SEEDS = 100
_GRID_N = 20000  # the default cap on golden-angle seeds
_NEWTON_ITERATIONS = 50
# A seed still unconverged this long after the last new convergence is, in
# practice, cycling between capped steps and would not converge by the cap;
# a patience of 10 lost a near-degenerate hit on a near-hexagonal tensor.
_NEWTON_PATIENCE = 15
_NEWTON_STEP_CAP = 0.3  # radians
_NEWTON_STEP_TOL = 1e-9  # radians; a seed whose last step was longer has not converged
_FLAT_TOL = 1e-10  # relative to ||s||: no Newton step along a flatter direction
_FAMILY_TOL = 1e-8  # relative to ||s||: a hit this flat lies on a family
# relative to ||s||: the (P, R) residual of an exactly transversely isotropic s
# is ~1e-15, that of a 4e-8 triclinic perturbation of one ~1e-8
_TI_TOL = 1e-12
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # i + 1 and i - 1 (mod 3)
_MERGE_ENTRIES = 1 << 12  # bound on the point pairs one merge block compares
_KINDS = ("max", "min", "saddle", "family")  # a hit's kind by its code

# Nothing in the library calls scipy.  perfbench/tracing.py still reads
# ``acoustics.minimize`` and ``acoustics.cKDTree``, so those names resolve here,
# importing scipy on that read; delete both with the tracer's next version.
_SCIPY_HOMES = {"minimize": "scipy.optimize", "cKDTree": "scipy.spatial"}


def __getattr__(name: str):
    if name in _SCIPY_HOMES:
        return getattr(importlib.import_module(_SCIPY_HOMES[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ChristoffelBundle(NamedTuple):
    """Christoffel tensor and its Cauchy/non-Cauchy split.

    For one direction the tensors have shape ``(3, 3)`` and ``direction``
    shape ``(3,)``; for a direction array every field gains a leading axis
    ``N``.  ``gamma = cauchy + non_cauchy`` exactly; ``non_cauchy @ direction
    = 0`` and ``det(non_cauchy) = 0`` up to rounding.
    """

    gamma: np.ndarray
    cauchy: np.ndarray
    non_cauchy: np.ndarray
    direction: np.ndarray
    density: float


class WaveSolution(NamedTuple):
    """Eigen solution of one Christoffel tensor, or of a stack of them.

    ``eigenvalues`` are squared velocities sorted descending;
    ``velocities[k]`` is ``sqrt(eigenvalues[k])`` or NaN for a non-causal
    (non-positive) mode, which is reported rather than dropped.
    ``polarizations[:, k]`` is the unit polarization of mode ``k`` and
    ``longitudinal_purity[k] = |U_k . n|``.  ``degenerate_pairs`` lists the
    coinciding eigenvalue index pairs and ``causal`` is True when every mode
    is causal.

    A batched solution stacks every array field along a leading axis ``N``;
    there ``causal`` is a boolean array ``(N,)`` and ``degenerate_pairs`` a
    boolean mask ``(N, 3)`` over the pairs ``EIGEN_PAIRS = (0, 1), (0, 2),
    (1, 2)``.
    """

    eigenvalues: np.ndarray
    velocities: np.ndarray
    polarizations: np.ndarray
    degenerate_pairs: tuple[tuple[int, int], ...]
    longitudinal_purity: np.ndarray
    causal: bool


class PureModeHit(NamedTuple):
    """A direction supporting a pure longitudinal wave.

    ``kind`` is its Morse type as a critical point of ``s:nnnn``: ``"max"``,
    ``"min"``, ``"saddle"``, ``"family"`` (singular tangent Hessian) or None.
    ``velocity`` is ``sqrt(s:nnnn / rho)``, or NaN where ``s:nnnn <= 0``.
    """

    direction: np.ndarray
    residual: float
    velocity: float
    seed_index: int
    kind: str | None = None


class PureModeScan(NamedTuple):
    """Result of a pure-mode search; ``seeds`` is the number of Newton starts:
    the real eigenvectors of ``s`` when those give the result, 0 where every
    direction is pure or for the closed form of a transversely isotropic
    ``s``, else the golden-angle seed count.  ``axis`` is the unit symmetry
    axis of that closed form (largest component positive), None otherwise."""

    hits: tuple[PureModeHit, ...]
    all_directions_pure: bool
    seeds: int
    axis: np.ndarray | None = None

    @property
    def morse(self) -> dict[str, int]:
        """Hit counts by ``kind``: ``max``, ``min``, ``saddle``, ``family``."""
        kinds = [h.kind for h in self.hits]
        return {k: kinds.count(k) for k in _KINDS}

    @property
    def certified(self) -> bool | None:
        """Whether ``#max + #min - #saddle = 1``, the Euler characteristic of
        the projective plane.

        A necessary check, not a proof of completeness: every complete set of
        isolated hits passes it, and a set that fails it is incomplete or
        mislabelled, but a missed max-saddle or min-saddle pair leaves the sum
        unchanged, so True does not rule one out.  True where ``axis`` is set:
        the closed form is complete, and its Morse-Bott sum ``sum (-1)^index
        chi(set)`` is 1, since the ring and the cone are circles (``chi = 0``)
        and only the axis counts.  None where a family is otherwise present or
        every direction is pure."""
        if self.axis is not None:
            return True
        m = self.morse
        if self.all_directions_pure or m["family"]:
            return None
        return m["max"] + m["min"] - m["saddle"] == 1


class CriticalDirections(NamedTuple):
    """Stationary directions of the squared-velocity sum.

    These are the eigenvectors of ``L = 2 P + Q``; degenerate eigenvalues mean
    a whole eigenspace of critical directions, and ``fully_degenerate`` marks
    ``L = 0`` (isotropic or cubic), where every direction is critical.
    """

    eigenvalues: np.ndarray
    directions: np.ndarray
    degenerate_pairs: tuple[tuple[int, int], ...]
    fully_degenerate: bool


def check_density(rho) -> float:
    """Return ``rho`` as a float, or raise ``ValueError`` unless it is finite
    and positive."""
    rho = float(rho)
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"density must be finite and positive, got {rho}")
    return rho


def christoffel(c: np.ndarray, n, rho: float) -> ChristoffelBundle:
    """Build the Christoffel tensor and its Cauchy/non-Cauchy split.

    ``n`` is one unit direction ``(3,)`` or an array of them ``(N, 3)``; every
    row must have unit norm within 1e-12.  ``rho`` must be finite and
    positive.  With stiffness in GPa and density in g/cm^3, eigenvalues come
    out in (km/s)^2.  A tensor that leaves the float range raises
    ``ValueError``.
    """
    rho, n = check_density(rho), unit_vector(n)
    return _christoffel(sa_split(c), n, rho)


def _christoffel(split: SAParts, n: np.ndarray, rho: float) -> ChristoffelBundle:
    """:func:`christoffel` on the split of ``c``, for checked ``n`` and ``rho``."""
    # one BLAS product contracts c[i,j,k,l] with n[j] n[k] for every direction
    nn = np.einsum("...j,...k->...jk", n, n)
    cauchy = np.tensordot(nn, split.s, axes=([-2, -1], [1, 2])) / rho
    non_cauchy = np.tensordot(nn, split.a, axes=([-2, -1], [1, 2])) / rho
    gamma = cauchy + non_cauchy
    if not np.isfinite(gamma).all():
        raise ValueError(f"the Christoffel tensor at density {rho!r} leaves the float range")
    return ChristoffelBundle(
        gamma=gamma,
        cauchy=cauchy,
        non_cauchy=non_cauchy,
        direction=n,
        density=rho,
    )


def wave_solve(bundle: ChristoffelBundle) -> WaveSolution:
    """Phase velocities and polarizations for one direction or a batch."""
    values, vectors = eig_sym3(bundle.gamma)
    purity = np.abs(np.einsum("...ik,...i->...k", vectors, bundle.direction))
    degenerate = degenerate_mask(values, norm(bundle.gamma, (-2, -1)))
    causal = np.all(values > 0, axis=-1)
    if values.ndim == 1:
        degenerate, causal = degenerate_pairs(degenerate), bool(causal)
    return WaveSolution(
        eigenvalues=values,
        velocities=_velocity(values),
        polarizations=vectors,
        degenerate_pairs=degenerate,
        longitudinal_purity=purity,
        causal=causal,
    )


def sum_squared_velocities(parts: IrreducibleParts, n, rho: float) -> float:
    """Sum of the three squared velocities along ``n`` in closed form.

    ``(2S - A) / (6 rho) + (2P + Q) : nn / (2 rho)``; equals the trace of the
    Christoffel tensor and hence the eigenvalue sum.  Independent of ``n``
    whenever ``2P + Q = 0`` (isotropic and cubic materials).  For a
    direction array ``(N, 3)`` the result is an array ``(N,)``.
    """
    rho = check_density(rho)
    n = unit_vector(n)
    l_matrix = 2.0 * parts.dev_p + parts.dev_q
    total = (2.0 * parts.scalar_s - parts.scalar_a) / (6.0 * rho) + np.einsum(
        "...i,ij,...j->...", n, l_matrix, n
    ) / (2.0 * rho)
    return _scalar_or_array(total)


def critical_directions(parts: IrreducibleParts) -> CriticalDirections:
    """Directions where the squared-velocity sum is stationary on the sphere.

    The stationarity condition is the eigenvalue problem of ``L = 2P + Q``.
    Where ``L`` is fully degenerate its eigenvalues are rounding noise, and
    every pair of them is listed as degenerate.
    """
    l_matrix = 2.0 * parts.dev_p + parts.dev_q
    values, vectors = eig_sym3(l_matrix)
    scale = frobenius_norm2(l_matrix)
    fully = bool(scale <= 1e-12 * max(abs(parts.scalar_s), abs(parts.scalar_a), 1e-300))
    return CriticalDirections(
        eigenvalues=values,
        directions=vectors,
        degenerate_pairs=(EIGEN_PAIRS if fully
                          else degenerate_pairs(degenerate_mask(values, scale))),
        fully_degenerate=fully,
    )


def longitudinal_velocity(bundle: ChristoffelBundle) -> float:
    """Longitudinal phase velocity as the Rayleigh quotient of the Cauchy part.

    ``v_L^2 = n . cauchy . n``; this is the exact velocity of a pure
    longitudinal wave when the direction supports one and is entirely
    independent of the non-Cauchy part.  In closed form
    ``v_L^2 = (S/5 + (6/7) P:nn + R:nnnn) / rho`` (the scalar coefficient is
    S/5, not S/15: contracting ``g + 2 nn`` with ``nn`` gives 3, not 1).
    NaN where ``v_L^2 <= 0``; a batched bundle gives an array ``(N,)``.
    """
    return _scalar_or_array(_velocity(_rayleigh(bundle.cauchy, bundle.direction)))


def pure_longitudinal_residual(bundle: ChristoffelBundle) -> float:
    """How far a direction is from supporting three pure waves.

    ``r(n) = || cauchy . n - (n . cauchy . n) n || / ||cauchy||``; zero exactly
    when ``n`` is an eigenvector of the Cauchy Christoffel tensor, which is the
    condition for one pure longitudinal plus two pure shear waves.  A
    batched bundle gives an array ``(N,)``.
    """
    return _scalar_or_array(_purity(bundle.cauchy, bundle.direction))


def _purity(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Eigen residual ``||m.n - (n.m.n) n|| / ||m||`` of the unit rows ``n``
    (..., 3), 0 where ``m = 0``; scale-free, so the density may be left out."""
    mn = np.einsum("...il,...l->...i", m, n)
    return _eigen_residual(m, n, mn, np.einsum("...i,...i->...", n, mn))


def _eigen_residual(m: np.ndarray, n: np.ndarray, mn: np.ndarray, nmn: np.ndarray) -> np.ndarray:
    """:func:`_purity` of ``m`` at ``n`` from ``mn = m.n`` and ``nmn = n.m.n``."""
    # the quotient is scale-free, so both of its norms take the unit of m
    unit = binary_unit(m, (-2, -1))
    m, residual = m / unit, (mn - nmn[..., None] * n) / unit[..., 0]
    scale = np.sqrt(np.add.reduce(m * m, (-2, -1)))
    return np.sqrt(np.add.reduce(residual * residual, -1)) / np.where(scale == 0.0, 1.0, scale)


def _rayleigh(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rayleigh quotient ``v . m . v / v . v`` of the rows ``v`` (..., 3)."""
    return np.einsum("...i,...ij,...j->...", v, m, v) / np.einsum("...i,...i->...", v, v)


def _velocity(v2: np.ndarray) -> np.ndarray:
    """``sqrt(v2)``, and NaN for a non-causal ``v2 <= 0``, never 0."""
    return np.where(v2 > 0, np.sqrt(np.maximum(v2, 0.0)), np.nan)


def _hit_velocities(f: np.ndarray, rho: float) -> list[float]:
    """The :func:`_velocity` of ``f / rho`` for the hits' ``f = s:nnnn``;
    ``ValueError`` where ``f / rho`` is not finite, as it overflowed or the
    search did."""
    v2 = f / rho
    if not np.isfinite(v2).all():
        raise ValueError(f"the pure-mode search at density {rho!r} leaves the float range")
    return _velocity(v2).tolist()


def _scalar_or_array(x: np.ndarray):
    """A 0-d result as a float, a batched one as the array."""
    return float(x) if np.ndim(x) == 0 else x


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic near-uniform unit directions on the sphere (golden-angle
    lattice), shape ``(count, 3)``.  ``count`` must be an integer (a numpy
    integer will do) of at least 1."""
    count = operator.index(count)
    if count < 1:
        raise ValueError("need at least one point")
    i = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _canonical_direction(n: np.ndarray) -> np.ndarray:
    """The rows of ``n`` (M, 3) as unit vectors with their largest component
    positive."""
    n = np.array(n, dtype=float)
    # refinement jitter leaves ~1e-16 residue on components that are exactly
    # zero by symmetry; snap it out before fixing the overall sign
    size = np.abs(n)
    n[size < 1e-12 * size.max(axis=1)[:, None]] = 0.0
    # row by row the dot product that np.linalg.norm takes of one vector
    n /= np.sqrt(np.matmul(n[:, None, :], n[:, :, None]))[:, 0]
    n[n[np.arange(len(n)), np.abs(n).argmax(axis=1)] < 0] *= -1.0
    return n + 0.0  # clears negative zeros for stable text output


def find_pure_longitudinal(
    c: np.ndarray,
    rho: float,
    grid_n: int = _GRID_N,
) -> PureModeScan:
    """Find every pure longitudinal-wave direction: the critical points of
    ``f(n) = s:nnnn`` on the projective plane, ``s`` the Cauchy part of ``c``.

    They are the real eigenvectors of ``s``.  First, from ``S``, ``P`` and
    ``R`` of ``s`` (:func:`~cauchykit.decomp.harmonic_split`):
    ``max(||P||, ||R||) <= PURITY_TOL ||s||`` gives ``all_directions_pure``
    with ``seeds`` 0, and an exactly transversely isotropic ``s`` is answered
    in closed form (:func:`_transversely_isotropic`).  Otherwise the search
    computes all 13 eigenvectors as resultant roots (one ``np.linalg.eig``,
    see :mod:`cauchykit.tensor_eigen`) and runs Newton from the real ones.
    That result stands when no root is unresolved between real and complex,
    every real root converges to a hit of its own, no hit is a ``family``
    and the Euler check holds.  Then ``seeds`` is the number of real roots
    and the hits are listed by decreasing ``s:nnnn`` at their roots, the
    fastest first.  Otherwise the search runs Newton from 100 golden-angle
    seeds, doubling them while ``certified`` is False up to ``grid_n`` (an
    integer of at least 100), and lists the hits in seed order.

    The Newton solve is batched and Riemannian: each step solves the 2x2
    tangent-Hessian system, skipping directions flatter than ``1e-10 ||s||``,
    and is capped at 0.3 rad.  A start has converged once its step is at
    most 1e-9 rad; the solve stops when every start has, when 15 iterations
    pass without a start converging for the first time, or after 50
    iterations.  Converged points with purity residual at most ``PURITY_TOL`` are
    kept, labelled by the signs of their tangent-Hessian eigenvalues and
    merged within 1e-7 rad (0.5 degrees for two ``family`` points; antipodes
    identified; the lowest residual wins).  Every step holds at every unit
    scale of ``c`` and ``rho``; a hit whose ``s:nnnn / rho`` leaves the float
    range raises ``ValueError``.
    """
    grid_n = operator.index(grid_n)
    if grid_n < _NEWTON_SEEDS:
        raise ValueError("grid_n must be at least 100")
    rho = check_density(rho)
    split = sa_split(c)
    return _pure_longitudinal(split, rho, *harmonic_split(split.s), grid_n)


def _pure_longitudinal(split: SAParts, rho: float, scalar_s: float, dev_p: np.ndarray,
                       harm_r: np.ndarray, grid_n: int = _GRID_N) -> PureModeScan:
    """:func:`find_pure_longitudinal` on the split of ``c`` and ``S, P, R`` of ``s``."""
    if max(frobenius_norm2(dev_p), frobenius_norm4(harm_r)) <= PURITY_TOL * split.s_norm:
        return PureModeScan(hits=(), all_directions_pure=True, seeds=0)
    scan = _transversely_isotropic(split, rho, scalar_s, dev_p, harm_r)
    if scan is not None:
        return scan
    roots = real_eigenvectors(split.s)
    if roots is not None:
        scan = _newton_search(split, rho, roots)
        if len(scan.hits) == len(roots) and scan.certified:
            return scan
    scan = _newton_search(split, rho, fibonacci_sphere(_NEWTON_SEEDS))
    while scan.certified is False and scan.seeds < grid_n:
        scan = _newton_search(split, rho, fibonacci_sphere(min(2 * scan.seeds, grid_n)))
    return scan


def _transversely_isotropic(split: SAParts, rho: float, scalar_s: float, dev_p: np.ndarray,
                            harm_r: np.ndarray) -> PureModeScan | None:
    """The pure directions of a transversely isotropic ``s = split.s``, given its ``S``,
    ``P`` and ``R``, in closed form (:func:`_ti_quartic`): the axis, a ``max``
    where ``beta + 2 gamma > 0`` and a ``min`` otherwise, one ``family`` point
    on the basal ring ``c = 0`` and, where ``0 < -beta / (2 gamma) < 1``, one
    on the cone ``c^2 = -beta / (2 gamma)``.  None where ``s`` is not one, or
    where the tangent Hessian of ``f / 4`` across a set is at most
    ``_FAMILY_TOL ||s||``, the flatness of a Newton ``family`` hit
    (``-(beta + 2 gamma) / 2`` on the axis, ``beta / 2`` on the ring, ``-beta
    (1 - c^2)`` on the cone), or where a hit's residual exceeds ``PURITY_TOL``.
    The form takes ``S``, ``P``, ``R`` and ``||s||`` over the binary unit of ``||s||``."""
    unit = binary_unit(split.s_norm)
    scale = split.s_norm / unit
    form = _ti_quartic(scalar_s / unit, dev_p / unit, harm_r / unit, scale)
    if form is None:
        return None
    axis, _alpha, beta, gamma = form
    ring = _cross(axis[None], IDENTITY3[np.abs(axis).argmin()][None])[0]
    ring /= math.sqrt(ring @ ring)
    points, kinds = [axis, ring], ["max" if beta + 2.0 * gamma > 0 else "min", "family"]
    curvature = [-0.5 * (beta + 2.0 * gamma), 0.5 * beta]
    if beta * (beta + 2.0 * gamma) < 0:  # df/d(c^2) changes sign on (0, 1)
        cone = -beta / (2.0 * gamma)
        points.append(math.sqrt(cone) * axis + math.sqrt(1.0 - cone) * ring)
        kinds.append("family")
        curvature.append(-beta * (1.0 - cone))
    if min(map(abs, curvature)) <= _FAMILY_TOL * scale:
        return None
    n = np.array(points)
    f, sc, _frame, snnn, _hess = _local_model(split.s, n)
    residual = _eigen_residual(sc, n, snnn, f)
    if residual.max() > PURITY_TOL:
        return None
    hits = tuple(
        PureModeHit(direction, float(r), velocity, i, kind)
        for i, (direction, r, velocity, kind) in enumerate(
            zip(_canonical_direction(n), residual, _hit_velocities(f, rho), kinds)))
    return PureModeScan(hits=hits, all_directions_pure=False, seeds=0,
                        axis=hits[0].direction.copy())


def _ti_quartic(scalar_s: float, dev_p: np.ndarray, harm_r: np.ndarray, scale: float):
    """``(e, alpha, beta, gamma)``, ``s:nnnn = alpha + beta c^2 + gamma c^4`` with
    ``c = n.e``, where ``s`` (norm ``scale``, split into ``S``, ``P``, ``R``)
    is transversely isotropic about the unit ``e``, else None.  That holds
    exactly when ``P = p (ee - g/3)`` and ``R = r Z_e``, ``Z_e`` the ``R`` of
    ``eeee``; ``p = (3/2) e.P.e`` and ``r = (35/8) R:eeee`` are the orthogonal
    projections, and each residual must be at most ``_TI_TOL ||s||``.  ``e``
    comes from the deviator ``D = b (ee - I/3)`` of ``P``, or of ``R_ijkl
    R_mjkl`` where ``||P|| <= _TI_TOL ||s||``, in closed form, as a LAPACK
    solver would add its code pages to peak memory: ``|b| = sqrt(3/2) ||D||``
    with the sign of ``tr D^3``, ``e`` the row of ``D + (b/3) I = b ee`` with
    the largest diagonal entry.  Its squares and cubes need ``||s||`` near 1."""
    tol, deviator, size = _TI_TOL * scale, dev_p, frobenius_norm2(dev_p)
    if size <= tol:
        m = harm_r.reshape(3, 27)
        deviator = m @ m.T - (np.vdot(m, m) / 3.0) * IDENTITY3
        size = frobenius_norm2(deviator)
        if size <= tol * scale:
            return None
    b = math.copysign(math.sqrt(1.5) * size, np.vdot(deviator @ deviator, deviator))
    rank_one = deviator + (b / 3.0) * IDENTITY3
    axis = rank_one[np.abs(np.diag(rank_one)).argmax()]
    axis = axis / math.sqrt(axis @ axis)
    ee = axis[:, None] * axis
    p = 1.5 * float(axis @ dev_p @ axis)
    if frobenius_norm2(dev_p - p * (ee - IDENTITY3 / 3.0)) > tol:
        return None
    r = 35.0 / 8.0 * float(ee.ravel() @ harm_r.reshape(9, 9) @ ee.ravel())
    if frobenius_norm4(harm_r - r * harmonic_split(ee[:, :, None, None] * ee)[2]) > tol:
        return None
    return axis, scalar_s / 5.0 - 2.0 * p / 7.0 + 3.0 * r / 35.0, 6.0 * (p - r) / 7.0, r


def _local_model(s: np.ndarray, n: np.ndarray):
    """``f = s:nnnn``, ``s . nn``, a tangent frame ``(N, 3, 2)``, ``s.nnn``
    and the tangent Hessian of ``f / 4`` at every row of ``n``; the tangent
    gradient of ``f / 4`` is ``s.nnn`` in that frame."""
    count = len(n)
    # the BLAS product np.tensordot(nn, s, axes=2) makes, without its set-up
    sc = np.dot((n[:, :, None] * n[:, None, :]).reshape(count, 9),
                s.reshape(9, 9)).reshape(count, 3, 3)
    snnn = np.einsum("nij,nj->ni", sc, n)
    f = np.einsum("ni,ni->n", snnn, n)
    frame = np.empty((count, 3, 2))
    e1 = _cross(n, IDENTITY3[np.abs(n).argmin(axis=1)])
    e1 /= np.sqrt(np.add.reduce(e1 * e1, 1))[:, None]
    frame[:, :, 0] = e1
    frame[:, :, 1] = _cross(n, e1)
    hess = 3.0 * np.swapaxes(frame, 1, 2) @ sc @ frame
    hess[:, 0, 0] -= f
    hess[:, 1, 1] -= f
    return f, sc, frame, snnn, hess


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``np.cross`` of ``(N, 3)`` arrays, with its arithmetic and
    without its broadcasting set-up."""
    return a.take(_NEXT, 1) * b.take(_PREV, 1) - a.take(_PREV, 1) * b.take(_NEXT, 1)


def _eig2(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigen solution of symmetric 2x2 matrices ``(N, 2, 2)``:
    values ``(N, 2)`` descending, ``vectors[:, k]`` the unit vector of value k."""
    half, mean = 0.5 * (h[:, 0, 0] - h[:, 1, 1]), 0.5 * (h[:, 0, 0] + h[:, 1, 1])
    radius, angle = np.hypot(half, h[:, 0, 1]), 0.5 * np.arctan2(h[:, 0, 1], half)
    values, vectors = np.empty((len(h), 2)), np.empty((len(h), 2, 2))
    values[:, 0] = mean + radius
    values[:, 1] = mean - radius
    vectors[:, 0, 0] = vectors[:, 1, 1] = np.cos(angle)
    vectors[:, 0, 1] = np.sin(angle)
    vectors[:, 1, 0] = -vectors[:, 0, 1]
    return values, vectors


def _newton_search(split: SAParts, rho: float, seeds: np.ndarray) -> PureModeScan:
    """One batched Newton solve on ``s = split.s`` from the unit rows of ``seeds``."""
    s, scale = split.s, split.s_norm
    n = seeds
    converged, last_new = np.zeros(len(n), dtype=bool), -1
    for it in range(_NEWTON_ITERATIONS):
        _f, _sc, frame, snnn, hess = _local_model(s, n)
        grad = np.einsum("nia,ni->na", frame, snnn)
        values, vectors = _eig2(hess)
        inverse = np.divide(1.0, values, out=np.zeros_like(values),
                            where=np.abs(values) > _FLAT_TOL * scale)
        step = -np.einsum("nk,nkc->nc", np.einsum("nkc,nc->nk", vectors, grad) * inverse,
                          vectors)
        length = np.sqrt(np.add.reduce(step * step, 1))
        step *= np.minimum(1.0, _NEWTON_STEP_CAP / np.maximum(length, 1e-300))[:, None]
        n = n + np.einsum("nia,na->ni", frame, step)
        n /= np.sqrt(np.add.reduce(n * n, 1))[:, None]
        done = length <= _NEWTON_STEP_TOL
        if done.all():
            break
        if (done & ~converged).any():
            converged |= done
            last_new = it
        elif it - last_new >= _NEWTON_PATIENCE:
            break

    f, sc, _frame, snnn, hess = _local_model(s, n)
    residual = _eigen_residual(sc, n, snnn, f)
    kept = np.flatnonzero((length <= _NEWTON_STEP_TOL) & (residual <= PURITY_TOL))
    kept = kept[np.argsort(residual[kept], kind="stable")]
    values = _eig2(hess[kept])[0]
    family = np.abs(values).min(axis=1) <= _FAMILY_TOL * scale
    kinds = np.where(family, 3, np.where(values[:, 0] < 0, 0, np.where(values[:, 1] > 0, 1, 2)))
    winners = _merge(n[kept], family)
    winners = winners[np.argsort(kept[winners])]  # seed order
    index = kept[winners]
    hits = tuple(map(PureModeHit, _canonical_direction(n[index]), residual[index].tolist(),
                     _hit_velocities(f[index], rho), index.tolist(),
                     [_KINDS[k] for k in kinds[winners].tolist()]))
    return PureModeScan(hits=hits, all_directions_pure=False, seeds=len(seeds))


def _merge(points: np.ndarray, family: np.ndarray) -> np.ndarray:
    """Indices of the points that survive the merge, in claim order.

    ``points`` are sorted by residual; the first point still alive claims
    every point within its merge radius, antipodes identified.  The gaps
    among the alive points are computed for a block of the next of them at
    a time, at most ``_MERGE_ENTRIES`` pairs: all at once for up to 64.
    Up to 64 points that are all more than ``sqrt(2) _FAMILY_MERGE`` apart,
    antipodes too, all survive in order, as the Gram matrix shows at once."""
    if len(points) ** 2 <= _MERGE_ENTRIES:
        gram = np.abs(points @ points.T)
        gram.flat[::len(points) + 1] = 0.0
        if gram.max(initial=0.0) < 1.0 - _FAMILY_MERGE * _FAMILY_MERGE:
            return np.arange(len(points))
    alive, winners = np.ones(len(points), dtype=bool), []
    while alive.any():
        live = np.flatnonzero(alive)
        block = live[:max(1, _MERGE_ENTRIES // len(live))]
        coords, ends = points[live].T[:, None, :], points[block].T[:, :, None]
        # the chord to each point and to its antipode, summed as np.linalg.norm sums
        chord = [np.sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2])
                 for d in (coords - ends, coords + ends)]
        apart = np.minimum(*chord) > np.where(family[block][:, None] & family[live],
                                              _FAMILY_MERGE, _POINT_MERGE)
        for row, k in enumerate(block.tolist()):
            if alive[k]:
                winners.append(k)
                alive[live] &= apart[row]
    return np.array(winners, dtype=int)


def shear_polarization(bundle: ChristoffelBundle) -> np.ndarray:
    """Unit polarization of the pure shear wave along ``bundle.direction``.

    ``U = n x (cauchy . n)``, normalized; exactly orthogonal to ``n`` and
    independent of the non-Cauchy part.  The row is NaN where the cross
    product degenerates (``cauchy . n`` parallel to ``n``): the direction is
    longitudinal-pure and every transverse polarization is admissible.  A
    batched bundle gives an array ``(N, 3)``.
    """
    n = bundle.direction
    u = np.cross(n, np.einsum("...il,...l->...i", bundle.cauchy, n))
    size = norm(u, -1)
    scale = norm(bundle.cauchy, (-2, -1))
    shear = size > 1e-10 * np.maximum(scale, 1e-300)
    return np.where(shear[..., None], u / np.where(shear, size, 1.0)[..., None], np.nan)


def shear_velocity(bundle: ChristoffelBundle, u) -> float:
    """Phase velocity of the wave polarized along ``u``.

    Rayleigh quotient ``v^2 = (u . gamma . u) / |u|^2`` of the full
    Christoffel tensor; exact when ``u`` is an eigenvector, NaN where
    ``v^2 <= 0``.  ``u`` holds one polarization per direction of the bundle;
    a zero or non-finite one raises ``ValueError``.
    """
    u = np.asarray(u, dtype=float).reshape(bundle.direction.shape)
    if not (np.isfinite(u).all() and u.any(axis=-1).all()):
        raise ValueError("polarization vector must be finite and nonzero")
    u = u / binary_unit(u, -1)  # u . u neither overflows nor underflows
    return _scalar_or_array(_velocity(_rayleigh(bundle.gamma, u)))


def shear_condition_residual(bundle: ChristoffelBundle) -> float:
    """Residual of the pure-shear condition along ``bundle.direction``.

    With ``U`` the unit :func:`shear_polarization`, returns
    ``|| gamma . U - (U . gamma . U) U || / ||gamma||``: zero exactly when the
    candidate shear polarization really is an eigenvector of gamma.  A
    longitudinal-pure direction (a NaN ``U``) gives 0, since the full
    three-pure-wave condition already holds there.  A batched bundle gives an
    array ``(N,)``.
    """
    u = shear_polarization(bundle)
    return _scalar_or_array(np.where(np.isnan(u[..., 0]), 0.0, _purity(bundle.gamma, u)))


def shear_sum(parts: IrreducibleParts, n, rho: float) -> float:
    """Sum of the two squared shear velocities at a pure-longitudinal direction.

    ``((4S - 5A)/30 + (2P + 7Q):nn / 14 - R:nnnn) / rho``; identical to
    ``tr(gamma) - v_L^2`` for every ``n``, and equal to the actual shear
    eigenvalue sum when ``n`` supports a pure longitudinal wave.  The constant
    is (4S - 5A)/30: the trace identity leaves (2S - A)/6 - S/5, so the
    (8S - 5A)/30 variant implied by an S/15 longitudinal coefficient is ruled
    out.  On an acoustic axis each shear wave carries half this value.  For a
    direction array ``(N, 3)`` the result is an array ``(N,)``.
    """
    rho = check_density(rho)
    n = unit_vector(n)
    quad_nn = np.einsum("...i,ij,...j->...", n, 2.0 * parts.dev_p + 7.0 * parts.dev_q, n)
    r_nnnn = np.einsum("ijkl,...i,...j,...k,...l->...", parts.harm_r, n, n, n, n)
    return _scalar_or_array((k_shear(parts) + quad_nn / 14.0 - r_nnnn) / rho)
