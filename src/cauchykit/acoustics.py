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

Only the pure-mode search, :func:`find_pure_longitudinal`, uses scipy
(``scipy.optimize.minimize`` and ``scipy.spatial.cKDTree``).  Both are loaded
on their first use, so importing this module, and every other result in the
package, needs numpy alone.  The two names still resolve as attributes of this
module, and a rebinding of either (a wrapper or a test double) is what the
search then calls.
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
_DEDUP_ANGLE = math.radians(0.5)
_SCIPY_HOMES = {"minimize": "scipy.optimize", "cKDTree": "scipy.spatial"}


def _scipy(name: str):
    """The scipy callable ``name``, imported and bound here on first use.

    A binding already in the module globals wins, so a wrapper set with
    ``setattr(acoustics, name, ...)`` is the one the search calls.
    """
    namespace = globals()
    if name not in namespace:
        namespace[name] = getattr(importlib.import_module(_SCIPY_HOMES[name]), name)
    return namespace[name]


def __getattr__(name: str):
    if name in _SCIPY_HOMES:
        return _scipy(name)
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
    """A direction supporting an exactly or nearly pure wave.

    ``velocity`` is ``sqrt(s:nnnn / rho)``, or NaN where ``s:nnnn <= 0`` (a
    non-causal longitudinal mode).
    """

    direction: np.ndarray
    kind: str
    residual: float
    velocity: float
    seed_index: int


@dataclass(frozen=True)
class PureModeScan:
    """Result of a pure-mode search over the direction sphere."""

    hits: tuple[PureModeHit, ...]
    all_directions_pure: bool
    seeds: int


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
    n = bundle.direction
    sn = np.einsum("...il,...l->...i", bundle.cauchy, n)
    residual = sn - np.einsum("...i,...i->...", n, sn)[..., None] * n
    scale = np.linalg.norm(bundle.cauchy, axis=(-2, -1))
    out = np.linalg.norm(residual, axis=-1) / np.where(scale == 0.0, 1.0, scale)
    return float(out) if n.ndim == 1 else out


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


def _tangent_frame(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pivot = np.zeros(3)
    pivot[int(np.abs(n).argmin())] = 1.0
    e1 = np.cross(n, pivot)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(n, e1)


def _residual_field(s_part: np.ndarray, dirs: np.ndarray, rho: float) -> np.ndarray:
    sc = np.einsum("ijkl,nj,nk->nil", s_part, dirs, dirs) / rho
    sn = np.einsum("nil,nl->ni", sc, dirs)
    ray = np.einsum("ni,ni->n", sn, dirs)
    res = sn - ray[:, None] * dirs
    scale = np.sqrt(np.einsum("nil,nil->n", sc, sc))
    scale[scale == 0.0] = 1.0
    return np.linalg.norm(res, axis=1) / scale


def find_pure_longitudinal(
    c: np.ndarray,
    rho: float,
    grid_n: int = 20000,
    tol: float = PURITY_TOL,
) -> PureModeScan:
    """Search the direction sphere for pure longitudinal-wave directions.

    Seeds a golden-angle lattice of ``grid_n`` directions (at least 100),
    keeps local minima of the purity residual, polishes each candidate with a
    derivative-free simplex over two tangent angles (200 iterations,
    convergence 1e-12 on the residual), and reports refined directions with
    residual at most ``tol``.  Antipodes are identified and hits closer than
    0.5 degrees are merged; output order follows the seed lattice index.

    If the residual is below ``tol`` on every seed (isotropic Cauchy part),
    the scan short-circuits with ``all_directions_pure=True``.
    """
    if grid_n < 100:
        raise ValueError("grid_n must be at least 100")
    rho = check_density(rho)
    c = np.asarray(c, dtype=float)
    s_part = sa_split(c).s
    seeds = fibonacci_sphere(grid_n)
    residuals = _residual_field(s_part, seeds, rho)

    if float(residuals.max()) <= tol:
        return PureModeScan(hits=(), all_directions_pure=True, seeds=grid_n)

    def refined(n0: np.ndarray) -> tuple[np.ndarray, float]:
        e1, e2 = _tangent_frame(n0)

        def objective(t):
            v = n0 + t[0] * e1 + t[1] * e2
            v /= np.linalg.norm(v)
            return _residual_field(s_part, v[None, :], rho)[0]

        result = _scipy("minimize")(
            objective,
            np.zeros(2),
            method="Nelder-Mead",
            options={"maxiter": 200, "xatol": 1e-12, "fatol": 1e-12},
        )
        v = n0 + result.x[0] * e1 + result.x[1] * e2
        return v / np.linalg.norm(v), float(result.fun)

    candidates = _local_minima(seeds, residuals)
    hits: list[PureModeHit] = []
    for idx in candidates:
        direction, value = refined(seeds[idx])
        if value > tol:
            continue
        direction = _canonical_direction(direction)
        v_l2 = float(np.einsum(
            "ijkl,j,k,i,l->", s_part, direction, direction, direction, direction
        ) / rho)
        v_l = math.sqrt(v_l2) if v_l2 > 0 else math.nan
        hits.append(PureModeHit(
            direction=direction,
            kind="longitudinal",
            residual=value,
            velocity=v_l,
            seed_index=int(idx),
        ))

    hits.sort(key=lambda h: h.seed_index)
    deduped: list[PureModeHit] = []
    for hit in hits:
        replaced = False
        for k, kept in enumerate(deduped):
            cosine = min(1.0, abs(float(kept.direction @ hit.direction)))
            if math.acos(cosine) <= _DEDUP_ANGLE:
                if hit.residual < kept.residual:
                    deduped[k] = hit
                replaced = True
                break
        if not replaced:
            deduped.append(hit)
    deduped.sort(key=lambda h: h.seed_index)
    return PureModeScan(hits=tuple(deduped), all_directions_pure=False, seeds=grid_n)


def _local_minima(seeds: np.ndarray, residuals: np.ndarray) -> list[int]:
    """Seed indices that beat all neighbors within ~2.5 lattice spacings,
    plus the globally best few as insurance near saddle ridges."""
    spacing = math.sqrt(4.0 * math.pi / len(seeds))
    radius = 2.5 * spacing  # chord length ~ angle for small angles
    tree = _scipy("cKDTree")(seeds)
    neighborhoods = tree.query_ball_point(seeds, r=radius)
    minima = [
        i
        for i, neigh in enumerate(neighborhoods)
        if all(residuals[i] <= residuals[j] for j in neigh)
    ]
    best = np.argsort(residuals)[:40]
    return sorted(set(minima) | set(int(b) for b in best))


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
