"""Scalar fields with analytic derivatives.

A :class:`ScalarField` bundles an evaluation callable with analytic
gradient/Hessian callables; asking for a derivative the field was built
without is a :class:`~critsense.errors.UsageError`.
All callables are vectorized over leading axes: points have shape
``(..., dim)``, values ``(...,)``, gradients ``(..., dim)`` and Hessians
``(..., dim, dim)``. Evaluation is pure, so repeated calls at the same point
are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UsageError


# ---------------------------------------------------------------- #
# reference bump and transition functions
# ---------------------------------------------------------------- #

def bump_vgh(s: np.ndarray, order: int = 2):
    """Value, gradient and Hessian of the reference bump
    ``exp(1 - 1/(1 - |s|^2))``, 0 outside the unit ball, at ``(..., d)``:
    the first ``order + 1`` of them as a tuple. A lower order computes
    less, by the same operations, so each part has the bits it has in the
    full call.

    Closed form: with u = 1/(1-r^2), grad log b = -2 u^2 s and
    H = b (g g' - 2 u^2 I - 8 u^3 s s').
    """
    s = np.asarray(s, dtype=float)
    d = s.shape[-1]
    r2 = np.sum(s * s, axis=-1)
    inside = r2 < 1.0
    safe = np.where(inside, 1.0 - r2, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        b = np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0)
    if order == 0:
        return (b,)
    u = 1.0 / safe
    g_log = -2.0 * u[..., None] ** 2 * s
    grad = np.where(inside[..., None], b[..., None] * g_log, 0.0)
    if order == 1:
        return b, grad
    # b (g g' - 2 u^2 I - 8 u^3 s s'), built in place: the same
    # operations in the same order, with half the matrix temporaries
    hess = g_log[..., :, None] * g_log[..., None, :]
    hess -= 2.0 * u[..., None, None] ** 2 * np.eye(d)
    hess -= 8.0 * u[..., None, None] ** 3 * (s[..., :, None] * s[..., None, :])
    hess *= b[..., None, None]
    hess[~inside] = 0.0
    return b, grad, hess


def bump1_vgh(x: np.ndarray, order: int = 2):
    """Elementwise 1-d bump value and first and second derivatives: the
    first ``order + 1`` of them, as :func:`bump_vgh` gives them."""
    x = np.asarray(x, dtype=float)
    return tuple(p.reshape(x.shape) for p in bump_vgh(x[..., None], order))


def transition_vgh(x: np.ndarray):
    """Monotone transition ``-e^x / (e^x + e^(1-x))``, from 0 to -1, with
    its first and second derivatives, elementwise."""
    x = np.asarray(x, dtype=float)
    # s' = -2e/(e^x+e^{1-x})^2, s'' = 4e(e^x-e^{1-x})/(e^x+e^{1-x})^3;
    # branch on sign so the exponential never overflows (q <= 1 always)
    t = 1.0 - 2.0 * x
    q = np.exp(-np.abs(t))
    pos = t > 0  # x < 1/2
    one_q = 1.0 + q
    v = np.where(pos, -q / one_q, -1.0 / one_q)
    d1 = -2.0 * q / one_q ** 2
    d2 = np.where(pos, -4.0 * q * (1.0 - q), 4.0 * q * (1.0 - q)) / one_q ** 3
    return v, d1, d2


# ---------------------------------------------------------------- #
# the field type
# ---------------------------------------------------------------- #

@dataclass
class ScalarField:
    """A scalar field with derivative access.

    Parameters
    ----------
    fn : callable
        Maps ``(..., dim)`` arrays to ``(...,)`` values.
    dim : int
        Ambient dimension.
    grad_fn, hess_fn : callable, optional
        Analytic derivatives with the same batching convention. A field
        built without one raises :class:`UsageError` when that derivative
        is asked for.
    jet_fn : callable, optional
        ``jet_fn(s, order)`` returns what :meth:`jet` does from one pass
        that shares work between the parts; each part must have the bits
        of its own method.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    hess_fn: Callable[[np.ndarray], np.ndarray] | None = None
    jet_fn: Callable[[np.ndarray, int], tuple] | None = None

    def value(self, s) -> np.ndarray:
        return self._evaluate(self.fn, "value", s)

    def grad(self, s) -> np.ndarray:
        return self._evaluate(self.grad_fn, "gradient", s)

    def hess(self, s) -> np.ndarray:
        return self._evaluate(self.hess_fn, "Hessian", s)

    def jet(self, s, order: int = 1) -> tuple:
        """``(value, grad)`` at ``s``, and for ``order`` 2
        ``(value, grad, hess)``, with the bits of the three methods.
        Without a ``jet_fn`` it calls them, so a wrapper around them
        still sees every evaluation."""
        if order not in (1, 2):
            raise UsageError(f"jet order must be 1 or 2, got {order}")
        s = np.asarray(s, dtype=float)
        if self.jet_fn is None:
            parts = (self.value(s), self.grad(s))
            return parts + (self.hess(s),) if order == 2 else parts
        self._check_shape(s)
        return tuple(np.asarray(a, dtype=float)
                     for a in self.jet_fn(s, order))

    @property
    def members(self) -> int | None:
        """The number of members of a stack (see :meth:`rows`); None for
        a plain field."""
        return None

    def rows(self, member) -> "ScalarField":
        """The field of the stack members ``member``: one member's own
        field for an index, or for an index array ``(k,)`` the field that
        evaluates row j of points ``(..., k, dim)`` on member
        ``member[j]``. A plain field is a stack of one member, so this is
        the field itself; ``randfield.BasisField`` stacks members."""
        return self

    def _evaluate(self, fn, name: str, s) -> np.ndarray:
        if fn is None:
            raise UsageError(f"field has no {name}; build it with one")
        s = np.asarray(s, dtype=float)
        self._check_shape(s)
        return np.asarray(fn(s), dtype=float)

    def _check_shape(self, s: np.ndarray):
        if s.ndim == 0 or s.shape[-1] != self.dim:
            raise UsageError(
                f"point shape {s.shape} does not end in dim={self.dim}")


# ---------------------------------------------------------------- #
# bisection
# ---------------------------------------------------------------- #

def bisect_root(fn, a: float, b: float, fa: float) -> tuple:
    """The final bracket ``(a, b)`` of up to 80 bisection steps on a sign
    change of the scalar ``fn`` over ``[a, b]``, from ``fa = fn(a)``;
    ``a`` stays on the side of ``fa``. An exact zero at a midpoint m ends
    early as ``(m, m)``, and so does a bracket of adjacent doubles, whose
    midpoint is an end. A root is the bracket's midpoint."""
    for _ in range(80):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = fn(m)
        if fm == 0.0:
            return m, m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    return a, b


# ---------------------------------------------------------------- #
# row norms and the symmetric Hessian spectrum
# ---------------------------------------------------------------- #

def _sym(H: np.ndarray) -> np.ndarray:
    return 0.5 * (H + np.swapaxes(H, -1, -2))


def sym_eigvalsh(H) -> np.ndarray:
    """Ascending eigenvalues of the symmetric part ``(H + H')/2``,
    batched over ``(..., d, d)``."""
    return np.linalg.eigvalsh(_sym(np.asarray(H, dtype=float)))


def row_adder(d: int, signed: bool = True):
    """A function that sums ``(..., d)`` arrays along the last axis with
    the bits of ``np.add.reduce(a, axis=-1)``. For d <= 3 it adds the
    columns from the left, ``0.0 + a[..., 0] + a[..., 1]``, as numpy's
    reduction over a short last axis does, at a quarter to a half of its
    cost. The +0.0 start, numpy's too, only makes a row of -0.0 terms sum
    to +0.0; ``signed=False`` leaves it out for terms that are never -0.0,
    such as squares."""
    if d > 3:
        return lambda a: np.add.reduce(a, axis=-1)
    if not signed:
        if d == 1:
            return lambda a: a[..., 0]
        if d == 2:
            return lambda a: a[..., 0] + a[..., 1]
        return lambda a: a[..., 0] + a[..., 1] + a[..., 2]
    if d == 1:
        return lambda a: 0.0 + a[..., 0]
    if d == 2:
        return lambda a: 0.0 + a[..., 0] + a[..., 1]
    return lambda a: 0.0 + a[..., 0] + a[..., 1] + a[..., 2]


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of ``(m, d)`` arrays, each with the
    bits of ``np.dot`` on that pair: a batched ``matmul`` makes the BLAS
    call ``dot`` makes, where ``einsum`` and ``(A * B).sum(-1)`` sum
    differently and can differ in the last bit."""
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def row_norms(A) -> np.ndarray:
    """Euclidean norms of the rows of ``(m, d)``, each with the bits of
    ``np.linalg.norm`` on that row, which forms ``a @ a`` by ``np.dot``
    (see :func:`row_dots`); ``norm(A, axis=-1)`` sums differently."""
    A = np.asarray(A, dtype=float)
    return np.sqrt(row_dots(A, A))


def near_pairs(A, B, radius: float):
    """``(i, j, dist)`` over every row pair of ``A`` ``(m, d)`` and ``B``
    ``(n, d)`` with ``dist = row_norms(A[i] - B[j]) <= radius``, ``i``
    ascending; ``dist`` has the bits of ``np.linalg.norm`` on the pair,
    either way round, as negation is exact.

    Candidates come from a ``searchsorted`` window of ``radius`` around
    ``A[i, 0]`` on ``B`` sorted by its first coordinate. The window is
    padded by a relative 1e-12: a gap over ``radius`` can round down to
    exactly ``radius``, and without the pad that pair would be dropped."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    order = np.argsort(B[:, 0], kind="stable")
    keys, pad = B[order, 0], radius * (1.0 + 1e-12)
    lo = np.searchsorted(keys, A[:, 0] - pad, "left")
    count = np.searchsorted(keys, A[:, 0] + pad, "right") - lo
    i = np.repeat(np.arange(len(A)), count)
    # the k-th candidate of row i is keys[lo[i] + k]
    k = np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
    j = order[np.repeat(lo, count) + k]
    dist = row_norms(A[i] - B[j])
    near = dist <= radius
    return i[near], j[near], dist[near]


def spectral_norms(H) -> np.ndarray:
    """Largest |eigenvalue| of the symmetric part, batched over
    ``(..., d, d)``."""
    return np.max(np.abs(sym_eigvalsh(H)), axis=-1)


def sup_spectral_norm(H) -> float:
    """``float(np.max(spectral_norms(H)))`` bit for bit, with exact
    spectra only where the sup can be reached.

    The spectral norm of the symmetric part is at most its Frobenius
    norm. The exact norm of the matrix with the largest Frobenius norm is
    a floor under the sup, so only matrices whose Frobenius norm reaches
    that floor, less a relative 1e-8 for rounding, can attain it; each
    keeps its own ``eigvalsh`` bits. A stack whose largest entry is 0,
    not finite, or outside [1e-140, 1e140], where squares could overflow
    or lose bits to underflow, takes the full path, with its result or
    its exception."""
    S = _sym(np.asarray(H, dtype=float))
    S = S.reshape((-1,) + S.shape[-2:])
    top = np.max(np.abs(S)) if S.size else 0.0
    if 1e-140 <= top <= 1e140:
        fro = np.sqrt(np.einsum("kij,kij->k", S, S))
        floor = np.max(np.abs(np.linalg.eigvalsh(S[np.argmax(fro)])))
        S = S[fro >= floor * (1.0 - 1e-8)]
    return float(np.max(np.abs(np.linalg.eigvalsh(S))))
