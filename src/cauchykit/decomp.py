"""Two-level irreducible decomposition of the stiffness tensor.

Level one splits a stiffness tensor under index permutations into a totally
symmetric part ``s`` (15 dimensions) and a mixed-symmetry remainder ``a``
(6 dimensions, equivalent to a symmetric 3x3 matrix ``delta``).  Vanishing of
``a`` is exactly the classical Cauchy relations, so ``s`` and ``a`` are called
the Cauchy and non-Cauchy parts below.

Level two refines each part under rotations:

* ``s``  ->  scalar ``S``, traceless deviator ``P`` (3x3), and a fully
  symmetric fully traceless rank-4 harmonic remainder ``R``;
* ``a``  ->  scalar ``A`` and traceless deviator ``Q`` (3x3), obtained from
  the trace/deviator split of ``delta`` (``A = 2 tr delta``).

The five assembled sub-tensors are mutually orthogonal under the Frobenius
inner product and sum back to the input; both facts are what make the
decomposition unique and are enforced by the test suite.

:func:`decompose` is the one analysis pass: its result keeps the split it
refined, so the classification, the Cauchy factor and the constitutive
results read off it.  :func:`generator_tensors` is the one home of the S, P
and A sub-tensor assembly, shared with report reconstruction.

Every fixed linear map here (the index permutations of :func:`sa_split`,
the condensation of ``a`` into ``delta``, its inverse :func:`a_from_delta`
and the symmetrized product behind ``s2``) is computed from the formula its
docstring or comment states, with results bitwise equal to that formula's
einsum.  Norms, and the smallest eigenvalue of the split tensor's Voigt
matrix, are computed once per result and cached on it.

Sign and normalization conventions are fixed once and for all by the
condensation of ``a`` into ``delta`` that :func:`decompose` performs;
alternative scalings of ``delta`` found in the literature are deliberately
not supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .tensor_core import (
    IDENTITY3,
    LEVI_CIVITA,
    frobenius_norm2,
    frobenius_norm4,
    full_to_voigt,
    norm,
)

__all__ = [
    "SAParts",
    "IrreducibleParts",
    "Classification",
    "check_stiffness",
    "check_tolerance",
    "sa_split",
    "a_from_delta",
    "harmonic_split",
    "so3_refine",
    "generator_tensors",
    "decompose",
    "assemble",
    "cauchy_factor",
    "classify",
]


_G1 = np.einsum("ij,kl->ijkl", IDENTITY3, IDENTITY3)
_G2 = np.einsum("ik,jl->ijkl", IDENTITY3, IDENTITY3)
_G3 = np.einsum("il,jk->ijkl", IDENTITY3, IDENTITY3)
# s1 and a1 of generator_tensors, per unit S/15 and A/12
_S1_BASIS = _G1 + _G2 + _G3
_A1_BASIS = 2.0 * _G1 - _G3 - _G2


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _freeze_fields(obj, names: tuple[str, ...]) -> None:
    # an array that is already read-only and owns its memory is kept (sa_split
    # and so3_refine freeze the arrays they make); any other array, a writable
    # one or a view, is replaced by a frozen copy, so no writable array is
    # aliased and no caller's array has its flags changed
    for name in names:
        a = getattr(obj, name)
        if not (isinstance(a, np.ndarray) and a.dtype == float and a.base is None
                and not a.flags.writeable):
            object.__setattr__(obj, name, _readonly(np.array(a, dtype=float)))


@dataclass(frozen=True, eq=False)
class SAParts:
    """Permutation-group split ``c = s + a`` of the tensor ``c``.

    ``s`` is invariant under all 24 index permutations; ``a`` carries the
    deviation from the Cauchy relations and satisfies the cyclic identity
    ``a[i,(j,k,l)] = 0`` (symmetrization over the last three indices).
    Equality and hashing are by identity, as for every type here that holds
    arrays and caches values derived from them.
    """

    c: np.ndarray
    s: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        _freeze_fields(self, ("c", "s", "a"))

    @cached_property
    def c_norm(self) -> float:
        return frobenius_norm4(self.c)

    @cached_property
    def s_norm(self) -> float:
        return frobenius_norm4(self.s)

    @cached_property
    def a_norm(self) -> float:
        return frobenius_norm4(self.a)

    @cached_property
    def voigt_min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the 6x6 Voigt matrix of ``c``."""
        return float(np.linalg.eigvalsh(full_to_voigt(self.c)).min())


@dataclass(frozen=True, eq=False)
class IrreducibleParts:
    """Rotation-group refinement of both permutation parts.

    Scalars and generators:

    * ``scalar_s``: double trace of the symmetric part.
    * ``dev_p``: traceless 3x3 generator of the symmetric five-dimensional
      piece.
    * ``harm_r``: fully symmetric, fully traceless rank-4 remainder.
    * ``scalar_a``: double trace of the mixed part (twice the trace of
      ``delta``).
    * ``dev_q``: traceless part of ``delta``.

    ``tensor_s1``, ``tensor_s2``, ``harm_r``, ``tensor_a1`` and ``tensor_a2``
    are the five assembled rank-4 sub-tensors; they are pairwise orthogonal
    and sum to the decomposed stiffness tensor.
    ``split`` is the permutation split they were refined from (``split.c`` is
    the decomposed tensor) and ``delta`` the 3x3 form of its non-Cauchy part.
    The norms here and on ``split``, and the four sub-tensors that
    :func:`generator_tensors` builds, are computed on first read and cached.
    """

    split: SAParts
    delta: np.ndarray
    scalar_s: float
    dev_p: np.ndarray
    harm_r: np.ndarray
    scalar_a: float
    dev_q: np.ndarray

    def __post_init__(self):
        _freeze_fields(self, ("delta", "dev_p", "harm_r", "dev_q"))

    @cached_property
    def _sub_tensors(self) -> tuple[np.ndarray, ...]:
        return tuple(map(_readonly, generator_tensors(self.scalar_s, self.dev_p,
                                                      self.scalar_a, self.dev_q)))

    tensor_s1 = property(lambda self: self._sub_tensors[0])
    tensor_s2 = property(lambda self: self._sub_tensors[1])
    tensor_a1 = property(lambda self: self._sub_tensors[2])
    tensor_a2 = property(lambda self: self._sub_tensors[3])

    @cached_property
    def p_norm(self) -> float:
        return frobenius_norm2(self.dev_p)

    @cached_property
    def q_norm(self) -> float:
        return frobenius_norm2(self.dev_q)

    @cached_property
    def r_norm(self) -> float:
        return frobenius_norm4(self.harm_r)

    @cached_property
    def cauchy_factor(self) -> float:
        """Dimensionless closeness to the ideal Cauchy model, in [0, 1].

        ``F = ||s|| / sqrt(||s||^2 + ||a||^2)``; equals 1 exactly when the
        non-Cauchy part vanishes.  Undefined (rejected, on every read) for the
        zero tensor.
        """
        ns = self.split.s_norm
        na = self.split.a_norm
        if ns == 0.0 and na == 0.0:
            raise ValueError("Cauchy factor is undefined for the zero tensor")
        return ns / norm((ns, na))


class Classification(NamedTuple):
    """Cauchy-structure summary of a material.

    ``a_sign`` is one of ``"positive"``, ``"negative"``,
    ``"zero-within-tol"``.  ``full_cauchy`` implies ``partial_cauchy`` and a
    Cauchy factor of 1 within tolerance.  The field order is the key order of
    the report's ``classification`` block.
    """

    full_cauchy: bool
    partial_cauchy: bool
    a_sign: str
    scalar_a: float
    cauchy_factor: float
    quadratic_invariants: dict[str, float]


def check_stiffness(c) -> np.ndarray:
    """Return ``c`` as a float array, or raise ``ValueError`` if an entry is
    NaN or infinite.  The one home of this check: :func:`sa_split`, and so
    every analysis, calls it, as does ``constitutive.hooke_full``, which
    bypasses the split."""
    c = np.asarray(c, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError("stiffness tensor has a non-finite entry")
    return c


def check_tolerance(tol: float) -> float:
    """Return ``tol``; ``ValueError`` unless it is finite and nonnegative."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol


def sa_split(c: np.ndarray) -> SAParts:
    """Split a stiffness tensor into its Cauchy and non-Cauchy parts.

    ``s[i,j,k,l] = (c[i,j,k,l] + c[i,k,l,j] + c[i,l,j,k]) / 3`` is the full
    symmetrization (the three cyclic terms suffice given the minor and major
    symmetries of the input); ``a = c - s`` is the remainder.  The
    decomposition, the Christoffel tensor and the pure-mode search all start
    here; a non-finite entry raises ``ValueError`` (:func:`check_stiffness`).
    """
    # the caller's array is copied once; the arrays made here are frozen in place
    c = _readonly(np.array(check_stiffness(c)))
    s = (c + c.transpose(0, 3, 1, 2) + c.transpose(0, 2, 3, 1)) / 3.0
    return SAParts(c=c, s=_readonly(s), a=_readonly(c - s))


def _condense(a: np.ndarray) -> np.ndarray:
    d = np.einsum("mil,njk,ijkl->mn", LEVI_CIVITA, LEVI_CIVITA, a) / 3.0
    return 0.5 * (d + d.T)


def a_from_delta(d: np.ndarray) -> np.ndarray:
    """Rebuild the rank-4 non-Cauchy tensor from its 3x3 matrix form.

    ``a[i,j,k,l] = (eps[i,k,m] eps[j,l,n] + eps[i,l,m] eps[j,k,n]) d[m,n] / 2``.
    The result satisfies all stiffness symmetries and the cyclic identity
    exactly, and ``decompose(a).delta`` inverts this map on symmetric ``d``.
    A NaN or infinite entry raises ``ValueError``.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("delta has a non-finite entry")
    # t1[i,j,k,l] is entry ((i, k), (j, l)) of e d e^T, e[(i, k), m] =
    # eps[i,k,m], and t2 is t1 with k and l swapped; every entry is one signed
    # entry of d, so the sums are exact, and "+ 0.0" turns a -0.0 into the
    # +0.0 that einsum's zero-started accumulation gives
    e = LEVI_CIVITA.reshape(9, 3)
    t1 = (e @ d @ e.T + 0.0).reshape(3, 3, 3, 3).transpose(0, 2, 1, 3)
    return 0.5 * (t1 + t1.transpose(0, 1, 3, 2))


def _sym_pg(p: np.ndarray) -> np.ndarray:
    # six-term symmetrized product of a symmetric 3x3 with the metric, the
    # sum of einsum("ij,kl->ijkl", p, g) and its five other pairings, in this
    # order: p[i,j] g[k,l], p[i,k] g[j,l], p[i,l] g[j,k], p[j,k] g[i,l],
    # p[j,l] g[i,k] and p[k,l] g[i,j]; "+ 0.0" as in a_from_delta, since
    # einsum's outer products start from zero too
    pg = p[:, :, None, None] * IDENTITY3
    return np.add.reduce([
        pg, pg.transpose(0, 2, 1, 3), pg.transpose(0, 2, 3, 1),
        pg.transpose(2, 0, 1, 3), pg.transpose(2, 0, 3, 1), pg.transpose(2, 3, 0, 1),
    ]) + 0.0


def generator_tensors(scalar_s: float, dev_p: np.ndarray, scalar_a: float,
                      dev_q: np.ndarray) -> tuple[np.ndarray, ...]:
    """Assemble the rank-4 sub-tensors ``(s1, s2, a1, a2)`` from the
    generators ``S``, ``P``, ``A`` and ``Q`` (``R`` is its own sub-tensor):

    * ``s1 = (S/15) (g g + g g + g g)`` over the three index pairings,
    * ``s2 = (1/7) sym(P g)`` over the six pairings,
    * ``a1 = (A/12) (2 g g - g g - g g)``,
    * ``a2`` rebuilt from ``Q`` by :func:`a_from_delta`.
    """
    s1 = scalar_s / 15.0 * _S1_BASIS
    s2 = _sym_pg(dev_p) / 7.0
    a1 = scalar_a / 12.0 * _A1_BASIS
    a2 = a_from_delta(dev_q)
    return s1, s2, a1, a2


def harmonic_split(s: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The rotation split ``(S, P, R)`` of a totally symmetric rank-4 ``s``:
    ``S = s[i,i,k,k]``, ``P = s[i,j,k,k] - (S/3) g`` and ``R = s - s1 - s2``
    (:func:`generator_tensors`), so ``s:nnnn = S/5 + (6/7) P:nn + R:nnnn`` on
    unit ``n``.  ``R`` traceless on every index pair checks the 1/15 and 1/7
    coefficients.  ``R`` of ``eeee`` (unit ``e``) is the zonal harmonic
    ``Z_e = eeee - (6/7) sym(ee g) + (3/35) sym(g g)``, ``sym`` the average
    over the 24 index permutations."""
    scalar_s = float(np.einsum("iikk->", s))
    dev_p = np.einsum("ijkk->ij", s) - scalar_s / 3.0 * IDENTITY3
    harm_r = s - scalar_s / 15.0 * _S1_BASIS - _sym_pg(dev_p) / 7.0
    return scalar_s, dev_p, harm_r


def so3_refine(parts: SAParts) -> IrreducibleParts:
    """Refine a permutation split into the five rotation-invariant sub-tensors.

    The symmetric part yields ``S``, ``P`` and ``R`` by
    :func:`harmonic_split`.  The mixed part yields ``A = 2 tr delta`` and
    ``Q = delta - (tr delta / 3) g``, and ``a1 + a2 = a`` exactly.
    """
    scalar_s, dev_p, harm_r = harmonic_split(parts.s)
    delta = _condense(parts.a)
    tr_delta = float(delta.trace())
    scalar_a = 2.0 * tr_delta
    dev_q = delta - tr_delta / 3.0 * IDENTITY3
    # every array here is made here, so it is frozen in place, not copied
    return IrreducibleParts(
        split=parts,
        delta=_readonly(delta),
        scalar_s=scalar_s,
        dev_p=_readonly(dev_p),
        harm_r=_readonly(harm_r),
        scalar_a=scalar_a,
        dev_q=_readonly(dev_q),
    )


def decompose(c: np.ndarray) -> IrreducibleParts:
    """Full two-level decomposition of a stiffness tensor."""
    return so3_refine(sa_split(c))


def assemble(parts: IrreducibleParts) -> np.ndarray:
    """Sum the five sub-tensors back into a stiffness tensor."""
    return (
        parts.tensor_s1
        + parts.tensor_s2
        + parts.harm_r
        + parts.tensor_a1
        + parts.tensor_a2
    )


def cauchy_factor(c: np.ndarray) -> float:
    """Cauchy factor of a stiffness tensor; see
    :attr:`IrreducibleParts.cauchy_factor`."""
    return decompose(c).cauchy_factor


def classify(parts: IrreducibleParts, tol: float = 1e-6) -> Classification:
    """Classify a decomposed material by the structure of its non-Cauchy part.

    ``full_cauchy``: the whole non-Cauchy part vanishes,
    ``||a|| <= tol ||c||``.  ``partial_cauchy``: only the deviator vanishes,
    ``||Q|| <= tol ||c||`` (holds for all isotropic and cubic materials).
    The sign of the surviving scalar ``A`` splits materials into the positive
    and negative classes; ``|A| <= tol ||c||`` is reported as
    ``"zero-within-tol"``.  ``parts`` is the result of :func:`decompose` on a
    nonzero tensor and ``tol`` is finite and nonnegative (``ValueError`` otherwise).
    """
    scale = check_tolerance(tol) * parts.split.c_norm

    full = parts.split.a_norm <= scale
    partial = parts.q_norm <= scale
    if parts.scalar_a > scale:
        sign = "positive"
    elif parts.scalar_a < -scale:
        sign = "negative"
    else:
        sign = "zero-within-tol"

    return Classification(
        full_cauchy=bool(full),
        partial_cauchy=bool(partial),
        a_sign=sign,
        scalar_a=parts.scalar_a,
        cauchy_factor=parts.cauchy_factor,
        quadratic_invariants={
            "p_norm": parts.p_norm,
            "q_norm": parts.q_norm,
            "r_norm": parts.r_norm,
        },
    )
