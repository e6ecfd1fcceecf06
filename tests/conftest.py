"""Shared generators and independent brute-force oracles.

The loop oracles here deliberately avoid the library's einsum-based code
paths: they loop over explicit index ranges so that agreement with the library
is a genuine cross-check, not a tautology.  The pure-mode oracles keep the
search's earlier per-hit merge and canonical direction, and build the tables
of its algebraic seeds one entry at a time.  The formula oracles below them are
independent forms the library does not use: the symmetry-orbit projection, the
Voigt-component formula for ``Q``, the general family of Cauchy relations and
the inner-pair split.  The rotation helpers are fixtures; ``rotate2`` and
``rotate4`` apply any invertible matrix, not only a rotation.  ``run_cli`` runs
the command line in this process.
"""

import contextlib
import io
import itertools
import math
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from cauchykit import acoustics, cli
from cauchykit.decomp import check_stiffness
from cauchykit.tensor_core import (
    SymmetryViolation,
    frobenius_norm4,
    full_to_voigt,
    voigt_to_full,
)


def random_voigt(rng, scale=1.0):
    m = rng.uniform(-scale, scale, (6, 6))
    return 0.5 * (m + m.T)


def random_stiffness(rng, scale=1.0):
    return voigt_to_full(random_voigt(rng, scale))


def random_spd_voigt(rng, scale=1.0):
    b = rng.uniform(-scale, scale, (6, 6))
    return b @ b.T + 0.05 * scale * np.eye(6)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_symmetric3(rng, scale=1.0, traceless=False):
    a = rng.uniform(-scale, scale, (3, 3))
    a = 0.5 * (a + a.T)
    if traceless:
        a -= np.trace(a) / 3.0 * np.eye(3)
    return a


def rotate2(a: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Rotate a rank-2 tensor: ``a'_{ij} = O_ia O_jb a_{ab}``."""
    return np.einsum("ia,jb,ab->ij", o, o, a)


def rotate4(c: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Rotate a rank-4 tensor: ``c'_{ijkl} = O_ia O_jb O_kc O_ld c_{abcd}``."""
    return np.einsum("ia,jb,kc,ld,abcd->ijkl", o, o, o, o, c)


def rotation_from_quaternion(q) -> np.ndarray:
    """Proper rotation matrix from a (not necessarily normalized) quaternion."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation, sampled via a Gaussian quaternion."""
    q = rng.normal(size=4)
    while np.linalg.norm(q) < 1e-8:  # pragma: no cover - astronomically rare
        q = rng.normal(size=4)
    return rotation_from_quaternion(q)


# ---------------------------------------------------------------- oracles


def levi_civita_value(i, j, k):
    return {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
            (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}.get((i, j, k), 0)


def orbit_average_oracle(c):
    """Average over the 8 minor/major symmetry images, one entry at a time."""
    out = np.zeros((3, 3, 3, 3))
    for i, j, k, l in itertools.product(range(3), repeat=4):
        images = [
            c[i, j, k, l], c[j, i, k, l], c[i, j, l, k], c[j, i, l, k],
            c[k, l, i, j], c[l, k, i, j], c[k, l, j, i], c[l, k, j, i],
        ]
        out[i, j, k, l] = sum(images) / 8.0
    return out


def full_symmetrization_oracle(c):
    """Average over all 24 index permutations."""
    out = np.zeros((3, 3, 3, 3))
    for perm in itertools.permutations(range(4)):
        out += np.transpose(c, perm)
    return out / 24.0


def delta_oracle(a):
    """delta[m,n] = (1/3) eps[m,i,l] eps[n,j,k] a[i,j,k,l] by explicit loops."""
    d = np.zeros((3, 3))
    for m, n in itertools.product(range(3), repeat=2):
        total = 0.0
        for i, j, k, l in itertools.product(range(3), repeat=4):
            total += (levi_civita_value(m, i, l) * levi_civita_value(n, j, k)
                      * a[i, j, k, l])
        d[m, n] = total / 3.0
    return d


def double_trace_oracle(c):
    """g_ij g_kl c[i,j,k,l] by explicit loops."""
    return sum(c[i, i, k, k] for i in range(3) for k in range(3))


def contract_nn_oracle(c, n, rho):
    """Christoffel tensor by explicit loops."""
    gamma = np.zeros((3, 3))
    for i, l in itertools.product(range(3), repeat=2):
        gamma[i, l] = sum(
            c[i, j, k, l] * n[j] * n[k]
            for j in range(3) for k in range(3)
        ) / rho
    return gamma


def inner4_oracle(a, b):
    return sum(
        a[i, j, k, l] * b[i, j, k, l]
        for i, j, k, l in itertools.product(range(3), repeat=4)
    )


def hexagonal_voigt(c11, c12, c13, c33, c44):
    """Transversely isotropic Voigt matrix (c66 forced to (c11 - c12)/2)."""
    m = np.zeros((6, 6))
    m[0, 0] = m[1, 1] = c11
    m[2, 2] = c33
    m[0, 1] = m[1, 0] = c12
    m[0, 2] = m[2, 0] = m[1, 2] = m[2, 1] = c13
    m[3, 3] = m[4, 4] = c44
    m[5, 5] = 0.5 * (c11 - c12)
    return m


def canonical_direction_oracle(n):
    """One hit direction made canonical, as the pure-mode search did per hit
    before it took all hits at once."""
    n = np.asarray(n, dtype=float).copy()
    n[np.abs(n) < 1e-12 * np.abs(n).max()] = 0.0
    n /= np.linalg.norm(n)
    j = int(np.abs(n).argmax())
    if n[j] < 0:
        n = -n
    return n + 0.0


def newton_search_oracle(s, rho, count, tol):
    """The pure-mode Newton solve from ``count`` golden-angle seeds with its
    merge as a loop over winners (two ``np.linalg.norm`` calls each) and one
    canonical direction per hit: the form ``acoustics._newton_search`` had
    before it merged and canonicalized in batches."""
    scale = frobenius_norm4(s)
    n = acoustics.fibonacci_sphere(count)
    converged, last_new = np.zeros(count, dtype=bool), -1
    for it in range(acoustics._NEWTON_ITERATIONS):
        _f, _sc, frame, grad, hess = acoustics._local_model(s, n)
        values, vectors = acoustics._eig2(hess)
        inverse = np.divide(1.0, values, out=np.zeros_like(values),
                            where=np.abs(values) > acoustics._FLAT_TOL * scale)
        step = -np.einsum("nk,nkc->nc", np.einsum("nkc,nc->nk", vectors, grad) * inverse,
                          vectors)
        length = np.sqrt(np.add.reduce(step * step, 1))
        step *= np.minimum(1.0, acoustics._NEWTON_STEP_CAP / np.maximum(length, 1e-300))[:, None]
        n = n + np.einsum("nia,na->ni", frame, step)
        n /= np.sqrt(np.add.reduce(n * n, 1))[:, None]
        done = length <= acoustics._NEWTON_STEP_TOL
        if done.all():
            break
        if (done & ~converged).any():
            converged |= done
            last_new = it
        elif it - last_new >= acoustics._NEWTON_PATIENCE:
            break

    f, sc, _frame, _grad, hess = acoustics._local_model(s, n)
    residual = acoustics._purity(sc, n)
    kept = np.flatnonzero((length <= acoustics._NEWTON_STEP_TOL) & (residual <= tol))
    kept = kept[np.argsort(residual[kept], kind="stable")]
    values = acoustics._eig2(hess[kept])[0]
    family = np.abs(values).min(axis=1) <= acoustics._FAMILY_TOL * scale
    kinds = np.where(family, "family", np.where(
        values[:, 0] < 0, "max", np.where(values[:, 1] > 0, "min", "saddle")))
    points, alive, winners = n[kept], np.ones(len(kept), dtype=bool), []
    while alive.any():  # the lowest residual left claims the points it merges
        k = int(alive.argmax())
        winners.append(k)
        gap = np.minimum(np.linalg.norm(points - points[k], axis=1),
                         np.linalg.norm(points + points[k], axis=1))
        alive &= gap > np.where(family & family[k], acoustics._FAMILY_MERGE,
                                acoustics._POINT_MERGE)
    hits = tuple(
        acoustics.PureModeHit(canonical_direction_oracle(n[i]), float(residual[i]),
                              math.sqrt(f[i] / rho) if f[i] > 0 else math.nan, int(i), str(kind))
        for i, kind in sorted(zip(kept[winners], kinds[winners])))  # seed order
    return acoustics.PureModeScan(hits=hits, all_directions_pure=False, seeds=count)


def chart_tables_oracle(r, sigma):
    """The maps of ``tensor_eigen.real_eigenvectors``, built one entry at a
    time.  ``r15[e, (a,b,c,d)] = (r[i,a] r[j,b]) (r[k,c] r[l,d])`` for the
    sorted index tuple ``(i, j, k, l)`` of each of the 15 distinct entries of
    a totally symmetric tensor, ordered by their counts of index 0 and 1;
    ``q`` gives ``Q(t) = t^4 P(sigma + 1/t)`` for the Sylvester matrix ``P``
    of ``y g3 - g2`` (3 rows) and ``x g3 - g1`` (4 rows) in ``y``, with
    ``g_i = s[i,j,k,l] n_j n_k n_l`` at ``n = (x, y, 1)`` and every
    coefficient a form in those 15 entries."""
    reps = sorted(itertools.combinations_with_replacement(range(3), 4),
                  key=lambda rep: (rep.count(0), rep.count(1)))
    r15 = np.zeros((15, 81))
    for e, (i, j, k, l) in enumerate(reps):
        for a, b, c, d in itertools.product(range(3), repeat=4):
            r15[e, 27 * a + 9 * b + 3 * c + d] = (r[i, a] * r[j, b]) * (r[k, c] * r[l, d])
    g = [{}, {}, {}]  # g[i][(x power, y power)]: coefficient form
    for i, j, k, l in itertools.product(range(3), repeat=4):
        key = ((j, k, l).count(0), (j, k, l).count(1))
        g[i].setdefault(key, np.zeros(15))[reps.index(tuple(sorted((i, j, k, l))))] += 1.0
    e1, e2 = {}, {}
    for (px, py), form in g[2].items():
        e1[(px, py + 1)] = e1.get((px, py + 1), np.zeros(15)) + form
        e2[(px + 1, py)] = e2.get((px + 1, py), np.zeros(15)) + form
    for key, form in g[1].items():
        e1[key] = e1.get(key, np.zeros(15)) - form
    for key, form in g[0].items():
        e2[key] = e2.get(key, np.zeros(15)) - form
    p = np.zeros((5, 7, 7, 15))  # x power, row, column (y power)
    for row in range(7):
        poly, shift = (e1, row) if row < 3 else (e2, row - 3)
        for (px, py), form in poly.items():
            p[px, row, py + shift] += form
    sigma_power = [1.0]
    for _ in range(4):
        sigma_power.append(sigma_power[-1] * sigma)
    q = np.zeros((5, 7, 7, 15))
    for t in range(5):
        for px in range(4 - t, 5):  # (sigma + 1/t)^px t^4 has t^t from m = 4 - t
            q[t] += math.comb(px, 4 - t) * sigma_power[px - 4 + t] * p[px]
    return r15, q.reshape(245, 15)


# ---------------------------------------------------------------- formula oracles


def symmetrize_orbit(c: np.ndarray) -> np.ndarray:
    """Average a 3^4 array over its 8-element minor/major symmetry orbit."""
    c = np.asarray(c, dtype=float)
    minor = 0.25 * (
        c
        + np.einsum("jikl->ijkl", c)
        + np.einsum("ijlk->ijkl", c)
        + np.einsum("jilk->ijkl", c)
    )
    return 0.5 * (minor + np.einsum("klij->ijkl", minor))


def validate_symmetries(c: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Project a raw 3^4 array onto the stiffness symmetry class, or reject it.

    The projection averages each component over its 8-element symmetry orbit
    (both minor swaps and the major pair swap).  Acceptance requires the
    largest single-component correction to be at most ``tol`` relative to the
    largest entry of the input.

    Returns the exactly symmetric projected tensor.  Raises
    :class:`SymmetryViolation` naming the worst index tuple otherwise, and
    ``ValueError`` for a NaN or infinite entry.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (3, 3, 3, 3):
        raise ValueError(f"expected shape (3, 3, 3, 3), got {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("stiffness entries must be finite")
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    projected = symmetrize_orbit(c)
    corr = np.abs(c - projected)
    scale = float(np.abs(c).max())
    worst = float(corr.max())
    if worst > tol * scale:
        idx = np.unravel_index(int(corr.argmax()), c.shape)
        raise SymmetryViolation(tuple(int(i) for i in idx), worst, tol * scale)
    return projected


def q_components_voigt(c: np.ndarray) -> np.ndarray:
    """Deviator ``Q`` expressed directly in the stiffness Voigt components.

    With ``A = (4/3) [(C12 - C44) + (C13 - C55) + (C23 - C66)]``:

    * ``Q11 = (2/3)(C23 - C44) - A/6``   ``Q12 = (2/3)(C45 - C36)``
    * ``Q22 = (2/3)(C13 - C55) - A/6``   ``Q13 = (2/3)(C46 - C25)``
    * ``Q33 = (2/3)(C12 - C66) - A/6``   ``Q23 = (2/3)(C56 - C14)``

    The leading 2/3 keeps this identical to the deviator produced by
    :func:`so3_refine` (a doubled variant of these component formulas
    circulates, but it is inconsistent with the sub-tensor reconstruction
    identity and is not used here).  The result is traceless by construction;
    its vanishing defines the partial Cauchy relations
    ``C23 - C44 = C13 - C55 = C12 - C66 = A/4``, ``C45 = C36``, ``C46 = C25``,
    ``C56 = C14``.
    """
    m = full_to_voigt(check_stiffness(c))
    a = 4.0 / 3.0 * ((m[0, 1] - m[3, 3]) + (m[0, 2] - m[4, 4]) + (m[1, 2] - m[5, 5]))
    q11 = 2.0 / 3.0 * (m[1, 2] - m[3, 3]) - a / 6.0
    q22 = 2.0 / 3.0 * (m[0, 2] - m[4, 4]) - a / 6.0
    q33 = 2.0 / 3.0 * (m[0, 1] - m[5, 5]) - a / 6.0
    q12 = 2.0 / 3.0 * (m[3, 4] - m[2, 5])
    q13 = 2.0 / 3.0 * (m[3, 5] - m[1, 4])
    q23 = 2.0 / 3.0 * (m[4, 5] - m[0, 3])
    return np.array([[q11, q12, q13], [q12, q22, q23], [q13, q23, q33]])


def general_relation_residual(c: np.ndarray, beta: float, gamma: float) -> np.ndarray:
    """Residual of the general linear-relation family on the stiffness tensor.

    Returns ``beta (c[i,k,l,j] - c[i,j,k,l]) + gamma (c[i,l,k,j] - c[i,j,k,l])``
    as a rank-4 array.  For any ``(beta, gamma) != (0, 0)`` this residual
    vanishes exactly when ``delta = 0``, i.e. every member of the family is
    equivalent to the Cauchy relations; ``beta = gamma = 1`` gives ``-3 a``
    and ``beta = 1, gamma = -1`` gives the antisymmetrized-pair form.
    """
    if beta == 0.0 and gamma == 0.0:
        raise ValueError("beta and gamma must not both vanish")
    c = check_stiffness(c)
    return beta * (np.einsum("iklj->ijkl", c) - c) + gamma * (
        np.einsum("ilkj->ijkl", c) - c
    )


def mn_split(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Alternative split into inner-pair symmetric and antisymmetric terms.

    ``m = c[i,(j,k),l]`` and ``n = c[i,[j,k],l]`` with ``m + n = c``.  ``n``
    vanishes exactly when ``delta = 0``, but ``m`` does not inherit the
    stiffness symmetries for generic input, so unlike :func:`sa_split` this is
    not a decomposition inside the stiffness class.  Provided for comparison.
    """
    c = check_stiffness(c)
    swapped = np.einsum("ikjl->ijkl", c)
    m = 0.5 * (c + swapped)
    n = 0.5 * (c - swapped)
    return m, n


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def w_file(tmp_path):
    """The bundled tungsten material file, copied to a temporary path."""
    path = tmp_path / "w.json"
    path.write_text((resources.files("cauchykit") / "data" / "w.json").read_text(),
                    encoding="utf-8")
    return str(path)


def run_cli(args):
    """Run ``cauchykit.cli.main(args)`` with stdout and stderr captured into one
    buffer.  ``exit_code`` is the ``SystemExit`` code, or the return value, with
    ``None`` meaning 0; ``output`` is everything the command printed."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    return SimpleNamespace(exit_code=code or 0, output=buffer.getvalue())
