"""Index algebra for rank-2 and rank-4 tensors in 3-D Euclidean space.

Stiffness tensors are stored as dense ``(3, 3, 3, 3)`` float arrays satisfying
the minor symmetries ``c[i,j,k,l] = c[j,i,k,l] = c[i,j,l,k]`` and the major
symmetry ``c[i,j,k,l] = c[k,l,i,j]``.  The 6x6 Voigt form uses the index map
1=11, 2=22, 3=33, 4=23, 5=31, 6=12 and carries tensor components one-to-one,
with no engineering factors of 2 or 4 anywhere.  Strain and stress only ever
appear as full symmetric 3x3 arrays, so Voigt strain conventions never arise.

The scale rule lives here alone: :func:`norm` takes every norm of
stiffness-scaled data, and :func:`binary_unit` is the power of two that it,
and any product that must stay in the float range, divides by first.

All functions are pure and all returned arrays are fresh; nothing here holds
shared mutable state, so every operation is safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "IDENTITY3",
    "LEVI_CIVITA",
    "VOIGT_PAIRS",
    "SymmetryViolation",
    "voigt_to_full",
    "full_to_voigt",
    "eig_sym3",
    "EIGEN_PAIRS",
    "degenerate_mask",
    "degenerate_pairs",
    "frobenius_norm4",
    "frobenius_inner4",
    "frobenius_norm2",
    "binary_unit",
    "norm",
    "unit_vector",
    "isotropic_stiffness",
    "cubic_stiffness",
]

IDENTITY3 = np.eye(3)
SYMMETRY_TOL = 1e-8  # relative Voigt asymmetry that a stiffness input may carry
DEGENERACY_TOL = 1e-9  # relative gap below which two eigenvalues coincide
# a finite sum of squares at least this large lost no significant bit to underflow
SQUARES_MIN = float(np.finfo(float).tiny / np.finfo(float).eps)

# Voigt index -> symmetric index pair, zero-based: 1=11, 2=22, 3=33, 4=23, 5=31, 6=12
VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (2, 0), (0, 1))
_VOIGT_I, _VOIGT_J = np.array(VOIGT_PAIRS).T
# and its inverse: tensor index pair, in either order -> Voigt index
_VOIGT_INDEX = np.empty((3, 3), dtype=np.intp)
_VOIGT_INDEX[_VOIGT_I, _VOIGT_J] = np.arange(6)
_VOIGT_INDEX[_VOIGT_J, _VOIGT_I] = np.arange(6)
# both maps as positions in the flattened source array: the Voigt cell of each
# tensor entry, shape (3, 3, 3, 3), and the tensor entry of each Voigt cell, (6, 6)
_FULL_FROM_VOIGT = np.ravel_multi_index((_VOIGT_INDEX[:, :, None, None], _VOIGT_INDEX), (6, 6))
_VOIGT_FROM_FULL = np.ravel_multi_index(
    (_VOIGT_I[:, None], _VOIGT_J[:, None], _VOIGT_I, _VOIGT_J), (3, 3, 3, 3))


def _levi_civita() -> np.ndarray:
    e = np.zeros((3, 3, 3))
    e[0, 1, 2] = e[1, 2, 0] = e[2, 0, 1] = 1.0
    e[0, 2, 1] = e[2, 1, 0] = e[1, 0, 2] = -1.0
    return e


LEVI_CIVITA = _levi_civita()
LEVI_CIVITA.setflags(write=False)
IDENTITY3.setflags(write=False)


class SymmetryViolation(ValueError):
    """Raised when a Voigt matrix is not symmetric within tolerance.

    Attributes
    ----------
    index : tuple[int, int, int, int]
        Index tuple with the largest deviation; :func:`voigt_to_full` reports
        the one-based Voigt pair ``(I, J)`` as ``(I, J, 0, 0)``.
    magnitude : float
        Absolute size of that deviation.
    """

    def __init__(self, index: tuple[int, int, int, int], magnitude: float, tol: float):
        self.index = index
        self.magnitude = magnitude
        super().__init__(
            f"symmetry violation at index {index}: correction {magnitude:.3e} "
            f"exceeds tolerance {tol:.3e}"
        )


def voigt_to_full(m: np.ndarray) -> np.ndarray:
    """Expand a symmetric 6x6 Voigt matrix to the full rank-4 stiffness tensor.

    Parameters
    ----------
    m : ndarray, shape (6, 6)
        Symmetric matrix of stiffness components.

    Returns
    -------
    ndarray, shape (3, 3, 3, 3)
        Tensor satisfying minor and major symmetries exactly.

    Raises
    ------
    ValueError
        If an entry of ``m`` is NaN or infinite.
    SymmetryViolation
        If ``m`` deviates from symmetry by more than ``SYMMETRY_TOL`` times
        its largest entry; the offending Voigt pair is reported one-based.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("stiffness entries must be finite")
    scale = float(np.abs(m).max())
    asym = np.abs(m - m.T)
    if asym.max() > SYMMETRY_TOL * scale:
        I, J = np.unravel_index(int(asym.argmax()), (6, 6))
        raise SymmetryViolation((I + 1, J + 1, 0, 0), float(asym[I, J]), SYMMETRY_TOL * scale)
    return (0.5 * (m + m.T)).take(_FULL_FROM_VOIGT)


def full_to_voigt(c: np.ndarray) -> np.ndarray:
    """Pack a stiffness tensor into its 6x6 Voigt matrix (exact inverse of
    :func:`voigt_to_full`)."""
    c = np.asarray(c, dtype=float)
    if c.shape != (3, 3, 3, 3):
        raise ValueError(f"expected shape (3, 3, 3, 3), got {c.shape}")
    return c.take(_VOIGT_FROM_FULL)


def eig_sym3(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of symmetric 3x3 matrices.

    ``a`` has shape ``(3, 3)`` or a stack ``(..., 3, 3)``; every slice is
    symmetrized and all slices are solved by one stacked LAPACK ``eigh`` call.
    Slice results do not depend on the other slices in the stack.

    Returns
    -------
    (values, vectors)
        ``values[..., k]`` sorted descending; ``vectors[..., :, k]`` is the
        unit eigenvector for ``values[..., k]``, signed so that its
        largest-magnitude component is positive, and the columns form an
        orthonormal frame, also for degenerate spectra.  A zero slice gives
        zero values and the identity frame.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2:] != (3, 3):
        raise ValueError(f"expected 3x3 matrices, got shape {a.shape}")
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    values, vectors = np.linalg.eigh(sym)
    values = values[..., ::-1].copy()
    vectors = vectors[..., ::-1]
    pivot = np.take_along_axis(
        vectors, np.abs(vectors).argmax(axis=-2)[..., None, :], axis=-2
    )
    vectors = np.where(pivot < 0, -vectors, vectors)
    zero = ~sym.any(axis=(-2, -1))
    values[zero] = 0.0
    vectors[zero] = IDENTITY3
    return values, vectors


# eigenvalue index pairs, in the order degenerate_mask reports them
EIGEN_PAIRS = ((0, 1), (0, 2), (1, 2))


def degenerate_mask(values: np.ndarray, scale) -> np.ndarray:
    """Flags, shape ``(..., 3)``, telling which pairs of :data:`EIGEN_PAIRS`
    of the spectra ``values`` (shape ``(..., 3)``) coincide within
    ``DEGENERACY_TOL * scale`` (``scale`` broadcasts against shape ``(...)``)."""
    values = np.asarray(values, dtype=float)
    gaps = np.abs(values[..., [0, 0, 1]] - values[..., [1, 2, 2]])
    return gaps <= DEGENERACY_TOL * np.maximum(np.asarray(scale, dtype=float), 0.0)[..., None]


def degenerate_pairs(mask) -> tuple[tuple[int, int], ...]:
    """The :data:`EIGEN_PAIRS` flagged in one :func:`degenerate_mask` row ``mask``."""
    return tuple(p for p, hit in zip(EIGEN_PAIRS, mask) if hit)


def binary_unit(x, axes=None) -> np.ndarray:
    """The power of two at or below the largest entry of ``x`` over ``axes``
    (all of them by default), kept as size-1 axes; 0.5 for a zero row.
    Dividing by it is exact, and the sum of squares of the quotient neither
    overflows nor underflows."""
    return np.ldexp(0.5, np.frexp(np.abs(x).max(axis=axes, keepdims=True))[1])


def norm(x, axes=None):
    """Euclidean norm of ``x`` at every unit scale.

    Over ``axes`` it is ``np.linalg.norm(x, axis=axes)`` of ``x`` divided by
    its :func:`binary_unit`, times that unit: each bit of numpy's sum.  Over
    the whole array (the default) it is the float ``sqrt(einsum(x, x))`` of
    the entries in C order, divided by the unit only where that sum of squares
    overflows or falls under :data:`SQUARES_MIN`.  Either way, every input
    whose plain sum stays in range keeps each bit of it."""
    if axes is not None:
        unit = binary_unit(x, axes)
        x = x / unit
        return np.sqrt(np.add.reduce(x * x, axes)) * np.squeeze(unit, axes)
    x = np.asarray(x).ravel()
    total = float(np.einsum("i,i->", x, x))
    if SQUARES_MIN <= total < math.inf or not x.any():
        return math.sqrt(total)
    unit = binary_unit(x)
    x = x / unit
    return unit.item() * math.sqrt(np.einsum("i,i->", x, x))


def frobenius_inner4(a: np.ndarray, b: np.ndarray) -> float:
    """Full 81-term contraction ``a : b`` of two rank-4 tensors."""
    return float(np.einsum("ijkl,ijkl->", a, b))


# the Frobenius norms of a rank-4 and of a rank-2 tensor
frobenius_norm4 = frobenius_norm2 = norm


def unit_vector(n) -> np.ndarray:
    """Return ``n`` as a fresh float array of shape ``(3,)`` or ``(N, 3)``,
    requiring ``|n| = 1`` within 1e-12 on every row (a non-finite row fails)."""
    n = np.array(n, dtype=float)
    if n.ndim not in (1, 2) or n.shape[-1] != 3:
        raise ValueError(f"expected a direction of shape (3,) or (N, 3), got {n.shape}")
    norm = np.linalg.norm(n, axis=-1)
    bad = np.flatnonzero(~(np.abs(norm - 1.0) <= 1e-12))
    if bad.size:
        where = "" if n.ndim == 1 else f" in row {int(bad[0])}"
        raise ValueError(f"not a unit vector{where}: |n| = {float(norm.flat[bad[0]])!r}")
    return n


def isotropic_stiffness(lam: float, mu: float) -> np.ndarray:
    """Stiffness tensor of an isotropic solid from its two Lame moduli."""
    g = IDENTITY3
    return (
        lam * np.einsum("ij,kl->ijkl", g, g)
        + mu * (np.einsum("ik,jl->ijkl", g, g) + np.einsum("il,jk->ijkl", g, g))
    )


def cubic_stiffness(c11: float, c12: float, c44: float) -> np.ndarray:
    """Stiffness tensor of a cubic solid from its three Voigt constants."""
    m = np.zeros((6, 6))
    m[:3, :3] = c12
    np.fill_diagonal(m[:3, :3], c11)
    m[3, 3] = m[4, 4] = m[5, 5] = c44
    return voigt_to_full(m)
