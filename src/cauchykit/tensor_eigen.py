"""Real eigenvectors of a totally symmetric 4-tensor in 3-D, from a resultant.

An eigenvector of ``s`` satisfies ``s.nnn = lambda n``.  A generic ``s`` has
exactly 13 of them over the complex numbers, counted as directions
(Cartwright and Sturmfels, "The number of eigenvalues of a tensor", Linear
Algebra Appl. 2013, arXiv:1004.4953); :func:`real_eigenvectors` computes all
13 and returns the real ones, or None when it cannot tell them apart.  The
pure-mode search of :mod:`cauchykit.acoustics` starts Newton's method from
them.

The method: rotate ``s`` by a fixed generic rotation and take the chart
``n = (x, y, 1)``, where, with ``g = s.nnn``, the eigenvectors are the common
roots of ``e1 = y g3 - g2`` and ``e2 = x g3 - g1``.  Their Sylvester matrix
in ``y`` is a 7x7 matrix polynomial ``P(x)`` of degree 4 (``e2`` has degree 3
in ``y``); row ``i`` holds ``y^i e1`` (i < 3) or ``y^(i-3) e2`` and column
``j`` the coefficient of ``y^j``, so ``P(x) (1, y, ..., y^6) = 0`` at a
common root.  Substituting ``x = sigma + 1/t`` gives ``Q(t) = t^4 P(sigma +
1/t)``, whose leading coefficient ``P(sigma)`` is invertible unless
``sigma`` is a root or the roots form a family.  One ``np.linalg.eig`` of
the 28x28 companion matrix of ``Q`` gives every ``t``: the 13 largest are
the eigenvectors, and the other 15 lie at ``x = infinity``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["real_eigenvectors"]

_ROOTS = 13
_SHIFT = 0.3183  # sigma in x = sigma + 1/t; any value off the roots
# a companion entry beyond this means P(sigma) is (nearly) singular, as for a
# family of eigenvectors, whose resultant vanishes identically
_COMPANION_BOUND = 1e10
_ROOT_GAP = 0.05  # |t| of the 14th root over the 13th; the rest lie at x = infinity
# the imaginary size of a root, relative to its chart vector: real at most
# _REAL_TOL (LAPACK returns real roots exactly real), complex at least
# _COMPLEX_TOL, unresolved in between
_REAL_TOL, _COMPLEX_TOL = 1e-10, 1e-3


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed maps of :func:`real_eigenvectors`, tabulated on its first
    call: at import they would cost every process about 0.5 MB of peak RSS,
    the numpy code pages their index arithmetic touches first.

    ``s`` is totally symmetric, so it is read through its 15 distinct
    entries, one per multiset of indices, ordered by the count of index 0
    and then of index 1.  ``r`` is the rotation; ``r15`` (15, 81) maps
    ``s.ravel()`` to those entries of the rotated ``s'[i,j,k,l] = r[i,a]
    r[j,b] r[k,c] r[l,d] s[a,b,c,d]``; ``q`` (245, 15) maps them to ``Q(t)``
    (5, 7, 7) by power of ``t``.  The arrays are read-only."""
    (u, v, w), angle = (0.48, -0.6, 0.64), 1.1  # a unit axis
    r = (math.cos(angle) * np.eye(3)
         + math.sin(angle) * np.array([[0.0, -w, v], [w, 0.0, -u], [-v, u, 0.0]])
         + (1.0 - math.cos(angle)) * np.outer((u, v, w), (u, v, w)))
    ijkl = np.indices((3, 3, 3, 3)).reshape(4, 81)
    n0, n1 = np.count_nonzero(ijkl == 0, axis=0), np.count_nonzero(ijkl == 1, axis=0)
    entry = 5 * n0 - n0 * (n0 - 1) // 2 + n1  # the place of (#0, #1) in that order
    # the sorted index tuple (0.., 1.., 2..) of each distinct entry
    grid = np.indices((5, 5)).reshape(2, 25)
    c0, c1 = grid[:, grid.sum(axis=0) <= 4]
    place = np.arange(4)
    index = 1 * (place >= c0[:, None]) + 1 * (place >= (c0 + c1)[:, None])
    ri, rj, rk, rl = r[index].swapaxes(0, 1)
    r15 = ((ri[:, :, None] * rj[:, None, :])[:, :, :, None, None]
           * (rk[:, :, None] * rl[:, None, :])[:, None, None, :, :]).reshape(15, 81)
    # e[0] = y g3 - g2 and e[1] = x g3 - g1 by powers of x and y: s'[i, j, k, l]
    # enters g_i with x^#0 y^#1, counted over (j, k, l)
    i = ijkl[0]
    xs, ys = n0 - (i == 0), n1 - (i == 1)
    sign = np.array([1 * (i == 2) - (i == 1), 1 * (i == 2) - (i == 0)])
    onehot = np.eye(5)
    e = np.einsum("pn,pnx,pny,nc->pxyc", sign, onehot[np.array([xs, xs + (i == 2)])],
                  onehot[np.array([ys + (i == 2), ys])], np.eye(15)[entry])
    power = np.arange(7) - np.array([0, 1, 2, 0, 1, 2, 3])[:, None]  # of y, by row, column
    p = e[np.array([0, 0, 0, 1, 1, 1, 1])[:, None], :, np.clip(power, 0, 4)]
    p[(power < 0) | (power > 4)] = 0.0  # p[i, j, a]: the x^a coefficient of P[i, j]
    # (sigma + 1/t)^a t^4 = sum_m C(a, m) sigma^(a - m) t^(4 - m)
    a, m = np.arange(5), 4 - np.arange(5)[:, None]
    factorial = np.array([1.0, 1.0, 2.0, 6.0, 24.0])
    sigma_power = np.cumprod([1.0] + [_SHIFT] * 4)  # sigma^0 .. sigma^4
    binomial = factorial[a] / (factorial[np.minimum(m, a)] * factorial[np.abs(a - m)])
    shift = np.where(m <= a, binomial * sigma_power[np.abs(a - m)], 0.0)
    q = np.einsum("ta,ijas->tijs", shift, p).reshape(245, 15)
    for table in (r, r15, q):
        table.setflags(write=False)
    return r, r15, q


def real_eigenvectors(s: np.ndarray) -> np.ndarray | None:
    """The real eigenvectors of the totally symmetric ``s`` (3, 3, 3, 3) as
    unit rows ``(M, 3)``, by decreasing ``s:nnnn``; None when a root lies in
    the band between real and complex, when the 13 roots do not stand clear
    of those at infinity, or when ``P(sigma)`` is (nearly) singular."""
    r, r15, q = _tables()
    q = (q @ (r15 @ s.reshape(81))).reshape(5, 7, 7)
    companion = np.eye(28, k=7)
    try:
        companion[21:] = -np.linalg.solve(q[4], q[:4].transpose(1, 0, 2).reshape(7, 28))
        if not np.abs(companion[21:]).max() <= _COMPANION_BOUND:
            return None
        t, z = np.linalg.eig(companion)
    except np.linalg.LinAlgError:
        return None
    order = np.argsort(-np.abs(t), kind="stable")
    if abs(t[order[_ROOTS]]) > _ROOT_GAP * abs(t[order[_ROOTS - 1]]):
        return None
    t, z = t[order[:_ROOTS]], z[:, order[:_ROOTS]]
    # each eigenvector stacks v, t v, t^2 v, t^3 v; read v from its largest block
    blocks = z.reshape(4, 7, _ROOTS)
    v = blocks[np.abs(blocks).sum(axis=1).argmax(axis=0), :, np.arange(_ROOTS)]
    y = (np.einsum("ri,ri->r", v[:, 1:], v[:, :-1].conj())
         / np.einsum("ri,ri->r", v[:, :-1], v[:, :-1].conj()))
    chart = np.empty((_ROOTS, 3), dtype=complex)
    chart[:, 0], chart[:, 1], chart[:, 2] = _SHIFT + 1.0 / t, y, 1.0
    # the sums np.linalg.norm takes of the imaginary parts and of the rows
    imag = (np.sqrt(np.add.reduce(chart.imag * chart.imag, 1))
            / np.sqrt(np.add.reduce((chart.conj() * chart).real, 1)))
    if ((imag > _REAL_TOL) & (imag < _COMPLEX_TOL)).any():
        return None
    n = chart[imag <= _REAL_TOL].real @ r  # back from the chart: r.T n'
    n /= np.sqrt(np.add.reduce(n * n, 1))[:, None]
    nn = (n[:, :, None] * n[:, None, :]).reshape(len(n), 9)
    return n[np.argsort(-np.einsum("ri,ij,rj->r", nn, s.reshape(9, 9), nn), kind="stable")]
