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

:func:`christoffel` and :func:`wave_solve` take one direction ``(3,)`` or a
whole direction array ``(N, 3)``.  A batch splits the stiffness tensor once,
contracts it with every direction in one matrix product and solves all ``N``
eigenproblems in one stacked LAPACK call; row ``i`` of a batched result
depends on ``n[i]`` alone.  The single-direction form is the batch of one
with the leading axis dropped.

The pure-longitudinal directions are the critical points of ``f(n) = s:nnnn``
on the projective plane; :func:`find_pure_longitudinal` finds them by Newton's
method and certifies the set by its Euler characteristic.  A *family* hit has
a singular tangent Hessian, as on a continuous ring or cone of pure directions
(a transversely isotropic Cauchy part has them); the certificate does not
apply there.  No result in this module uses scipy.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from .decomp import IrreducibleParts, sa_split
from .tensor_core import (
    EIGEN_PAIRS,
    degenerate_mask,
    degenerate_pairs,
    eig_sym3,
    frobenius_norm2,
    frobenius_norm4,
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

DEGENERACY_TOL = 1e-9
PURITY_TOL = 1e-8
_FAMILY_MERGE = 2.0 * math.sin(math.radians(0.25))  # chord of 0.5 degrees
_POINT_MERGE = 1e-7  # chord; isolated hits closer than this are one point
_NEWTON_SEEDS = 100
_NEWTON_ITERATIONS = 50
_NEWTON_STEP_CAP = 0.3  # radians
_NEWTON_STEP_TOL = 1e-9  # radians; a seed whose last step was longer has not converged
_FLAT_TOL = 1e-10  # relative to ||s||: no Newton step along a flatter direction
_FAMILY_TOL = 1e-8  # relative to ||s||: a hit this flat lies on a family

# Nothing in the library calls scipy.  perfbench/tracing.py still reads
# ``acoustics.minimize`` and ``acoustics.cKDTree``, so those names resolve here,
# importing scipy on that read; delete both with the tracer's next version.
_SCIPY_HOMES = {"minimize": "scipy.optimize", "cKDTree": "scipy.spatial"}


def __getattr__(name: str):
    if name in _SCIPY_HOMES:
        return getattr(importlib.import_module(_SCIPY_HOMES[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ChristoffelBundle:
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


@dataclass(frozen=True)
class WaveSolution:
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


@dataclass(frozen=True)
class PureModeHit:
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


@dataclass(frozen=True)
class PureModeScan:
    """Result of a pure-mode search; ``seeds`` is the Newton seed count used."""

    hits: tuple[PureModeHit, ...]
    all_directions_pure: bool
    seeds: int

    @property
    def morse(self) -> dict[str, int]:
        """Hit counts by ``kind``: ``max``, ``min``, ``saddle``, ``family``."""
        return {k: sum(h.kind == k for h in self.hits) for k in ("max", "min", "saddle", "family")}

    @property
    def certified(self) -> bool | None:
        """Whether ``#max + #min - #saddle = 1``: no pure direction was missed.
        None where a family is present or every direction is pure."""
        m = self.morse
        if self.all_directions_pure or m["family"]:
            return None
        return m["max"] + m["min"] - m["saddle"] == 1


@dataclass(frozen=True)
class CriticalDirections:
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
    out in (km/s)^2.
    """
    rho = check_density(rho)
    n = unit_vector(n)
    parts = sa_split(np.asarray(c, dtype=float))
    # one BLAS product contracts c[i,j,k,l] with n[j] n[k] for every direction
    nn = np.einsum("...j,...k->...jk", n, n)
    cauchy = np.tensordot(nn, parts.s, axes=([-2, -1], [1, 2])) / rho
    non_cauchy = np.tensordot(nn, parts.a, axes=([-2, -1], [1, 2])) / rho
    return ChristoffelBundle(
        gamma=cauchy + non_cauchy,
        cauchy=cauchy,
        non_cauchy=non_cauchy,
        direction=n,
        density=rho,
    )


def wave_solve(bundle: ChristoffelBundle) -> WaveSolution:
    """Phase velocities and polarizations for one direction or a batch."""
    values, vectors = eig_sym3(bundle.gamma)
    velocities = np.where(values > 0, np.sqrt(np.maximum(values, 0.0)), np.nan)
    purity = np.abs(np.einsum("...ik,...i->...k", vectors, bundle.direction))
    scale = np.linalg.norm(bundle.gamma, axis=(-2, -1))
    degenerate = degenerate_mask(values, scale, DEGENERACY_TOL)
    causal = np.all(values > 0, axis=-1)
    if values.ndim == 1:
        degenerate = tuple(p for p, hit in zip(EIGEN_PAIRS, degenerate) if hit)
        causal = bool(causal)
    return WaveSolution(
        eigenvalues=values,
        velocities=velocities,
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
    return float(total) if n.ndim == 1 else total


def critical_directions(parts: IrreducibleParts) -> CriticalDirections:
    """Directions where the squared-velocity sum is stationary on the sphere.

    The stationarity condition is the eigenvalue problem of ``L = 2P + Q``.
    """
    l_matrix = 2.0 * parts.dev_p + parts.dev_q
    values, vectors = eig_sym3(l_matrix)
    scale = frobenius_norm2(l_matrix)
    invariant_scale = max(abs(parts.scalar_s), abs(parts.scalar_a), 1e-300)
    return CriticalDirections(
        eigenvalues=values,
        directions=vectors,
        degenerate_pairs=tuple(degenerate_pairs(values, scale, DEGENERACY_TOL)),
        fully_degenerate=bool(scale <= 1e-12 * invariant_scale),
    )


def longitudinal_velocity(bundle: ChristoffelBundle) -> float:
    """Longitudinal phase velocity as the Rayleigh quotient of the Cauchy part.

    ``v_L^2 = n . cauchy . n``; this is the exact velocity of a pure
    longitudinal wave when the direction supports one and is entirely
    independent of the non-Cauchy part.  In closed form
    ``v_L^2 = (S/5 + (6/7) P:nn + R:nnnn) / rho`` (the scalar coefficient is
    S/5, not S/15: contracting ``g + 2 nn`` with ``nn`` gives 3, not 1).
    """
    n = bundle.direction
    v2 = float(n @ bundle.cauchy @ n)
    if v2 < 0:
        raise ValueError(f"non-causal direction: v_L^2 = {v2}")
    return math.sqrt(v2)


def pure_longitudinal_residual(bundle: ChristoffelBundle) -> float:
    """How far a direction is from supporting three pure waves.

    ``r(n) = || cauchy . n - (n . cauchy . n) n || / ||cauchy||``; zero exactly
    when ``n`` is an eigenvector of the Cauchy Christoffel tensor, which is the
    condition for one pure longitudinal plus two pure shear waves.  A
    batched bundle gives an array ``(N,)``.
    """
    out = _purity(bundle.cauchy, bundle.direction)
    return float(out) if out.ndim == 0 else out


def _purity(cauchy: np.ndarray, n: np.ndarray) -> np.ndarray:
    # invariant under scaling ``cauchy``, so the density may be left out
    sn = np.einsum("...il,...l->...i", cauchy, n)
    residual = sn - np.einsum("...i,...i->...", n, sn)[..., None] * n
    scale = np.linalg.norm(cauchy, axis=(-2, -1))
    return np.linalg.norm(residual, axis=-1) / np.where(scale == 0.0, 1.0, scale)


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic near-uniform unit directions on the sphere (golden-angle
    lattice), shape ``(count, 3)``."""
    if count < 1:
        raise ValueError("need at least one point")
    i = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _canonical_direction(n: np.ndarray) -> np.ndarray:
    n = np.asarray(n, dtype=float).copy()
    # refinement jitter leaves ~1e-16 residue on components that are exactly
    # zero by symmetry; snap it out before fixing the overall sign
    n[np.abs(n) < 1e-12 * np.abs(n).max()] = 0.0
    n /= np.linalg.norm(n)
    j = int(np.abs(n).argmax())
    if n[j] < 0:
        n = -n
    return n + 0.0  # clears negative zeros for stable text output


def find_pure_longitudinal(
    c: np.ndarray,
    rho: float,
    grid_n: int = 20000,
    tol: float = PURITY_TOL,
) -> PureModeScan:
    """Find every pure longitudinal-wave direction: the critical points of
    ``f(n) = s:nnnn`` on the projective plane, ``s`` the Cauchy part of ``c``.

    A batched Riemannian Newton solve runs from 100 golden-angle seeds; each
    step solves the 2x2 tangent-Hessian system, skipping directions flatter
    than ``1e-10 ||s||``, and is capped at 0.3 rad.  Converged points with
    purity residual at most ``tol`` are kept, labelled by the signs of their
    tangent-Hessian eigenvalues and merged within 1e-7 rad (0.5 degrees for two
    ``family`` points; antipodes identified; the lowest residual wins), in seed
    order.  While ``certified`` is False the seeds double up to ``grid_n``; a
    residual at most ``tol`` on every seed gives ``all_directions_pure=True``.
    """
    if grid_n < _NEWTON_SEEDS:
        raise ValueError("grid_n must be at least 100")
    rho = check_density(rho)
    if not np.isfinite(c).all():
        raise ValueError("stiffness tensor has a non-finite entry")
    s = sa_split(np.asarray(c, dtype=float)).s
    seeds = fibonacci_sphere(_NEWTON_SEEDS)
    if float(_purity(_local_model(s, seeds)[1], seeds).max()) <= tol:
        return PureModeScan(hits=(), all_directions_pure=True, seeds=_NEWTON_SEEDS)
    scan = _newton_search(s, rho, _NEWTON_SEEDS, tol)
    while scan.certified is False and scan.seeds < grid_n:
        scan = _newton_search(s, rho, min(2 * scan.seeds, grid_n), tol)
    return scan


def _local_model(s: np.ndarray, n: np.ndarray):
    """``f = s:nnnn``, ``s . nn``, a tangent frame ``(N, 3, 2)``, and the
    tangent gradient and Hessian of ``f / 4`` at every row of ``n``."""
    sc = np.tensordot(np.einsum("ni,nj->nij", n, n), s, axes=2)
    snnn = np.einsum("nij,nj->ni", sc, n)
    f = np.einsum("ni,ni->n", snnn, n)
    e1 = np.cross(n, np.eye(3)[np.abs(n).argmin(axis=1)])
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    frame = np.stack([e1, np.cross(n, e1)], axis=2)
    grad = np.einsum("nia,ni->na", frame, snnn)
    hess = 3.0 * np.swapaxes(frame, 1, 2) @ sc @ frame - f[:, None, None] * np.eye(2)
    return f, sc, frame, grad, hess


def _eig2(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigen solution of symmetric 2x2 matrices ``(N, 2, 2)``:
    values ``(N, 2)`` descending, ``vectors[:, k]`` the unit vector of value k."""
    half, mean = 0.5 * (h[:, 0, 0] - h[:, 1, 1]), 0.5 * (h[:, 0, 0] + h[:, 1, 1])
    radius, angle = np.hypot(half, h[:, 0, 1]), 0.5 * np.arctan2(h[:, 0, 1], half)
    cos, sin = np.cos(angle), np.sin(angle)
    vectors = np.stack([np.stack([cos, sin], axis=1), np.stack([-sin, cos], axis=1)], axis=1)
    return np.stack([mean + radius, mean - radius], axis=1), vectors


def _newton_search(s: np.ndarray, rho: float, count: int, tol: float) -> PureModeScan:
    """One batched Newton solve from ``count`` seeds."""
    scale = frobenius_norm4(s)
    n = fibonacci_sphere(count)
    for _ in range(_NEWTON_ITERATIONS):
        _f, _sc, frame, grad, hess = _local_model(s, n)
        values, vectors = _eig2(hess)
        inverse = np.divide(1.0, values, out=np.zeros_like(values),
                            where=np.abs(values) > _FLAT_TOL * scale)
        step = -np.einsum("nk,nkc->nc", np.einsum("nkc,nc->nk", vectors, grad) * inverse,
                          vectors)
        length = np.linalg.norm(step, axis=1)
        step *= np.minimum(1.0, _NEWTON_STEP_CAP / np.maximum(length, 1e-300))[:, None]
        n = n + np.einsum("nia,na->ni", frame, step)
        n /= np.linalg.norm(n, axis=1)[:, None]
        if length.max() <= _NEWTON_STEP_TOL:
            break

    f, sc, _frame, _grad, hess = _local_model(s, n)
    residual = _purity(sc, n)
    kept = np.flatnonzero((length <= _NEWTON_STEP_TOL) & (residual <= tol))
    kept = kept[np.argsort(residual[kept], kind="stable")]
    values = _eig2(hess[kept])[0]
    family = np.abs(values).min(axis=1) <= _FAMILY_TOL * scale
    kinds = np.where(family, "family", np.where(
        values[:, 0] < 0, "max", np.where(values[:, 1] > 0, "min", "saddle")))
    points, alive, winners = n[kept], np.ones(len(kept), dtype=bool), []
    while alive.any():  # the lowest residual left claims the points it merges
        k = int(alive.argmax())
        winners.append(k)
        gap = np.minimum(np.linalg.norm(points - points[k], axis=1),
                         np.linalg.norm(points + points[k], axis=1))
        alive &= gap > np.where(family & family[k], _FAMILY_MERGE, _POINT_MERGE)
    hits = tuple(
        PureModeHit(_canonical_direction(n[i]), float(residual[i]),
                    math.sqrt(f[i] / rho) if f[i] > 0 else math.nan, int(i), str(kind))
        for i, kind in sorted(zip(kept[winners], kinds[winners])))  # seed order
    return PureModeScan(hits=hits, all_directions_pure=False, seeds=count)


def shear_polarization(bundle: ChristoffelBundle) -> np.ndarray | None:
    """Unit polarization of the pure shear wave along ``bundle.direction``.

    ``U = n x (cauchy . n)``, normalized; exactly orthogonal to ``n`` and
    independent of the non-Cauchy part.  Returns None when the cross product
    degenerates (``cauchy . n`` parallel to ``n``): the direction is
    longitudinal-pure and every transverse polarization is admissible.
    """
    n = bundle.direction
    u = np.cross(n, bundle.cauchy @ n)
    scale = frobenius_norm2(bundle.cauchy)
    norm = float(np.linalg.norm(u))
    if norm <= 1e-10 * max(scale, 1e-300):
        return None
    return u / norm


def shear_velocity(bundle: ChristoffelBundle, u) -> float:
    """Phase velocity of the wave polarized along ``u``.

    Rayleigh quotient ``v^2 = (u . gamma . u) / |u|^2`` of the full
    Christoffel tensor; exact when ``u`` is an eigenvector.
    """
    u = np.asarray(u, dtype=float).reshape(3)
    norm2 = float(u @ u)
    if norm2 == 0.0:
        raise ValueError("polarization vector must be nonzero")
    v2 = float(u @ bundle.gamma @ u) / norm2
    if v2 < 0:
        raise ValueError(f"non-causal polarization: v^2 = {v2}")
    return math.sqrt(v2)


def shear_condition_residual(bundle: ChristoffelBundle) -> float:
    """Residual of the pure-shear condition along ``bundle.direction``.

    With ``U = n x (cauchy . n)`` and ``v^2`` its Rayleigh quotient, returns
    ``|| gamma . U - v^2 U || / (||gamma|| |U|)``: zero exactly when the
    candidate shear polarization really is an eigenvector of gamma.  A
    longitudinal-pure direction (degenerate ``U``) returns 0, since the full
    three-pure-wave condition already holds there.
    """
    n = bundle.direction
    u = np.cross(n, bundle.cauchy @ n)
    norm_u = float(np.linalg.norm(u))
    scale = frobenius_norm2(bundle.gamma)
    if norm_u <= 1e-10 * max(frobenius_norm2(bundle.cauchy), 1e-300):
        return 0.0
    v2 = float(u @ bundle.gamma @ u) / (norm_u * norm_u)
    w = bundle.gamma @ u - v2 * u
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(w)) / (scale * norm_u)


def shear_sum(parts: IrreducibleParts, n, rho: float) -> float:
    """Sum of the two squared shear velocities at a pure-longitudinal direction.

    ``((4S - 5A)/30 + (2P + 7Q):nn / 14 - R:nnnn) / rho``; identical to
    ``tr(gamma) - v_L^2`` for every ``n``, and equal to the actual shear
    eigenvalue sum when ``n`` supports a pure longitudinal wave.  The constant
    is (4S - 5A)/30: the trace identity leaves (2S - A)/6 - S/5, so the
    (8S - 5A)/30 variant implied by an S/15 longitudinal coefficient is ruled
    out.  On an acoustic axis each shear wave carries half this value.
    """
    rho = check_density(rho)
    n = unit_vector(n)
    quad = 2.0 * parts.dev_p + 7.0 * parts.dev_q
    r_nnnn = float(np.einsum("ijkl,i,j,k,l->", parts.harm_r, n, n, n, n))
    return (
        (4.0 * parts.scalar_s - 5.0 * parts.scalar_a) / 30.0
        + float(n @ quad @ n) / 14.0
        - r_nnnn
    ) / rho
