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

Sign and normalization conventions are fixed once and for all by
:func:`delta_from_a`; alternative scalings of ``delta`` found in the
literature are deliberately not supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    IDENTITY3,
    LEVI_CIVITA,
    frobenius_inner4,
    frobenius_norm2,
    frobenius_norm4,
    full_to_voigt,
)

__all__ = [
    "SAParts",
    "IrreducibleParts",
    "Classification",
    "sa_split",
    "delta_from_a",
    "a_from_delta",
    "so3_refine",
    "generator_tensors",
    "decompose",
    "assemble",
    "q_components_voigt",
    "cauchy_factor",
    "classify",
    "general_relation_residual",
    "mn_split",
]

_G1 = np.einsum("ij,kl->ijkl", IDENTITY3, IDENTITY3)
_G2 = np.einsum("ik,jl->ijkl", IDENTITY3, IDENTITY3)
_G3 = np.einsum("il,jk->ijkl", IDENTITY3, IDENTITY3)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    out = []
    for a in arrays:
        a = np.array(a, dtype=float)
        a.setflags(write=False)
        out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class SAParts:
    """Permutation-group split ``c = s + a`` of the tensor ``c``.

    ``s`` is invariant under all 24 index permutations; ``a`` carries the
    deviation from the Cauchy relations and satisfies the cyclic identity
    ``a[i,(j,k,l)] = 0`` (symmetrization over the last three indices).
    """

    c: np.ndarray
    s: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        for name, arr in zip(("c", "s", "a"), _frozen(self.c, self.s, self.a)):
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
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

    ``tensor_s1 .. tensor_a2`` are the five assembled rank-4 sub-tensors; they
    are pairwise orthogonal and sum to the decomposed stiffness tensor.
    ``split`` is the permutation split they were refined from (``split.c`` is
    the decomposed tensor) and ``delta`` the 3x3 form of its non-Cauchy part.
    """

    split: SAParts
    delta: np.ndarray
    scalar_s: float
    dev_p: np.ndarray
    harm_r: np.ndarray
    scalar_a: float
    dev_q: np.ndarray
    tensor_s1: np.ndarray
    tensor_s2: np.ndarray
    tensor_s3: np.ndarray
    tensor_a1: np.ndarray
    tensor_a2: np.ndarray

    def __post_init__(self):
        names = ("delta", "dev_p", "harm_r", "dev_q", "tensor_s1", "tensor_s2",
                 "tensor_s3", "tensor_a1", "tensor_a2")
        for name, arr in zip(names, _frozen(*(getattr(self, n) for n in names))):
            object.__setattr__(self, name, arr)

    @property
    def p_norm(self) -> float:
        return frobenius_norm2(self.dev_p)

    @property
    def q_norm(self) -> float:
        return frobenius_norm2(self.dev_q)

    @property
    def r_norm(self) -> float:
        return frobenius_norm4(self.harm_r)

    @property
    def cauchy_factor(self) -> float:
        """Dimensionless closeness to the ideal Cauchy model, in [0, 1].

        ``F = ||s|| / sqrt(||s||^2 + ||a||^2)``; equals 1 exactly when the
        non-Cauchy part vanishes.  Undefined (rejected) for the zero tensor.
        """
        ns = frobenius_norm4(self.split.s)
        na = frobenius_norm4(self.split.a)
        if ns == 0.0 and na == 0.0:
            raise ValueError("Cauchy factor is undefined for the zero tensor")
        return float(ns / np.sqrt(ns * ns + na * na))


@dataclass(frozen=True)
class Classification:
    """Cauchy-structure summary of a material.

    ``a_sign`` is one of ``"positive"``, ``"negative"``,
    ``"zero-within-tol"``.  ``full_cauchy`` implies ``partial_cauchy`` and a
    Cauchy factor of 1 within tolerance.
    """

    full_cauchy: bool
    partial_cauchy: bool
    a_sign: str
    scalar_a: float
    cauchy_factor: float
    quadratic_invariants: dict[str, float]


def sa_split(c: np.ndarray) -> SAParts:
    """Split a stiffness tensor into its Cauchy and non-Cauchy parts.

    ``s[i,j,k,l] = (c[i,j,k,l] + c[i,k,l,j] + c[i,l,j,k]) / 3`` is the full
    symmetrization (the three cyclic terms suffice given the minor and major
    symmetries of the input); ``a = c - s`` is the remainder.
    """
    c = np.asarray(c, dtype=float)
    s = (c + np.einsum("iklj->ijkl", c) + np.einsum("iljk->ijkl", c)) / 3.0
    return SAParts(c=c, s=s, a=c - s)


def delta_from_a(a: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Condense a non-Cauchy tensor into its equivalent symmetric 3x3 matrix.

    ``delta[m,n] = (1/3) eps[m,i,l] eps[n,j,k] a[i,j,k,l]``.  The input must
    satisfy the cyclic identity of the non-Cauchy class; if it deviates beyond
    ``tol`` (relative to its own norm) the representation would be lossy and
    the input is rejected.  The non-Cauchy part of an exactly Cauchy tensor is
    rounding noise and may be rejected; callers holding the full tensor ``c``
    should read ``decompose(c).delta`` instead.
    """
    a = np.asarray(a, dtype=float)
    scale = frobenius_norm4(a)
    cyc = a + np.einsum("iklj->ijkl", a) + np.einsum("iljk->ijkl", a)
    if scale > 0 and float(np.abs(cyc).max()) > tol * scale:
        raise ValueError(
            "input is not a pure non-Cauchy tensor: cyclic identity violated "
            f"by {float(np.abs(cyc).max()):.3e} (norm {scale:.3e})"
        )
    return _condense(a)


def _condense(a: np.ndarray) -> np.ndarray:
    d = np.einsum("mil,njk,ijkl->mn", LEVI_CIVITA, LEVI_CIVITA, a) / 3.0
    return 0.5 * (d + d.T)


def a_from_delta(d: np.ndarray) -> np.ndarray:
    """Rebuild the rank-4 non-Cauchy tensor from its 3x3 matrix form.

    ``a[i,j,k,l] = (eps[i,k,m] eps[j,l,n] + eps[i,l,m] eps[j,k,n]) d[m,n] / 2``.
    The result satisfies all stiffness symmetries and the cyclic identity
    exactly, and :func:`delta_from_a` inverts this map.
    """
    d = np.asarray(d, dtype=float)
    t1 = np.einsum("ikm,jln,mn->ijkl", LEVI_CIVITA, LEVI_CIVITA, d)
    t2 = np.einsum("ilm,jkn,mn->ijkl", LEVI_CIVITA, LEVI_CIVITA, d)
    return 0.5 * (t1 + t2)


def _sym_pg(p: np.ndarray) -> np.ndarray:
    # six-term symmetrized product of a symmetric 3x3 with the metric
    g = IDENTITY3
    return (
        np.einsum("ij,kl->ijkl", p, g)
        + np.einsum("ik,jl->ijkl", p, g)
        + np.einsum("il,jk->ijkl", p, g)
        + np.einsum("jk,il->ijkl", p, g)
        + np.einsum("jl,ik->ijkl", p, g)
        + np.einsum("kl,ij->ijkl", p, g)
    )


def generator_tensors(scalar_s: float, dev_p: np.ndarray, scalar_a: float,
                      dev_q: np.ndarray) -> tuple[np.ndarray, ...]:
    """Assemble the rank-4 sub-tensors ``(s1, s2, a1, a2)`` from the
    generators ``S``, ``P``, ``A`` and ``Q`` (``R`` is its own sub-tensor):

    * ``s1 = (S/15) (g g + g g + g g)`` over the three index pairings,
    * ``s2 = (1/7) sym(P g)`` over the six pairings,
    * ``a1 = (A/12) (2 g g - g g - g g)``,
    * ``a2`` rebuilt from ``Q`` by :func:`a_from_delta`.
    """
    s1 = scalar_s / 15.0 * (_G1 + _G2 + _G3)
    s2 = _sym_pg(dev_p) / 7.0
    a1 = scalar_a / 12.0 * (2.0 * _G1 - _G3 - _G2)
    a2 = a_from_delta(dev_q)
    return s1, s2, a1, a2


def so3_refine(parts: SAParts) -> IrreducibleParts:
    """Refine a permutation split into the five rotation-invariant sub-tensors.

    The symmetric part yields the scalar ``S = s[i,i,k,k]``, the deviator
    ``P = s[i,j,k,k] - (S/3) g`` and the harmonic remainder
    ``R = s - s1 - s2``.  ``R`` coming out traceless on every index pair is a
    built-in self check of the 1/15 and 1/7 coefficients of
    :func:`generator_tensors`.  The mixed part yields ``A = 2 tr delta`` and
    ``Q = delta - (tr delta / 3) g``, and ``a1 + a2 = a`` exactly.
    """
    s, a = parts.s, parts.a
    g = IDENTITY3

    scalar_s = float(np.einsum("iikk->", s))
    dev_p = np.einsum("ijkk->ij", s) - scalar_s / 3.0 * g

    # a is non-Cauchy by construction; delta_from_a's check, relative to ||a||,
    # would reject an exactly Cauchy input, whose a is rounding noise
    delta = _condense(a)
    tr_delta = float(np.trace(delta))
    scalar_a = 2.0 * tr_delta
    dev_q = delta - tr_delta / 3.0 * g

    s1, s2, a1, a2 = generator_tensors(scalar_s, dev_p, scalar_a, dev_q)
    harm_r = s - s1 - s2

    return IrreducibleParts(
        split=parts,
        delta=delta,
        scalar_s=scalar_s,
        dev_p=dev_p,
        harm_r=harm_r,
        scalar_a=scalar_a,
        dev_q=dev_q,
        tensor_s1=s1,
        tensor_s2=s2,
        tensor_s3=harm_r,
        tensor_a1=a1,
        tensor_a2=a2,
    )


def decompose(c: np.ndarray) -> IrreducibleParts:
    """Full two-level decomposition of a stiffness tensor."""
    return so3_refine(sa_split(c))


def assemble(parts: IrreducibleParts) -> np.ndarray:
    """Sum the five sub-tensors back into a stiffness tensor."""
    return (
        parts.tensor_s1
        + parts.tensor_s2
        + parts.tensor_s3
        + parts.tensor_a1
        + parts.tensor_a2
    )


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
    m = full_to_voigt(np.asarray(c, dtype=float))
    a = 4.0 / 3.0 * ((m[0, 1] - m[3, 3]) + (m[0, 2] - m[4, 4]) + (m[1, 2] - m[5, 5]))
    q11 = 2.0 / 3.0 * (m[1, 2] - m[3, 3]) - a / 6.0
    q22 = 2.0 / 3.0 * (m[0, 2] - m[4, 4]) - a / 6.0
    q33 = 2.0 / 3.0 * (m[0, 1] - m[5, 5]) - a / 6.0
    q12 = 2.0 / 3.0 * (m[3, 4] - m[2, 5])
    q13 = 2.0 / 3.0 * (m[3, 5] - m[1, 4])
    q23 = 2.0 / 3.0 * (m[4, 5] - m[0, 3])
    return np.array([[q11, q12, q13], [q12, q22, q23], [q13, q23, q33]])


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
    ``"zero-within-tol"``.  ``parts`` is the result of :func:`decompose`.
    """
    norm_c = frobenius_norm4(parts.split.c)
    norm_a = frobenius_norm4(parts.split.a)
    scale = tol * norm_c

    full = norm_a <= scale
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
        cauchy_factor=parts.cauchy_factor if norm_c > 0 else 1.0,
        quadratic_invariants={
            "p_norm": parts.p_norm,
            "q_norm": parts.q_norm,
            "r_norm": parts.r_norm,
        },
    )


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
    c = np.asarray(c, dtype=float)
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
    c = np.asarray(c, dtype=float)
    swapped = np.einsum("ikjl->ijkl", c)
    m = 0.5 * (c + swapped)
    n = 0.5 * (c - swapped)
    return m, n
