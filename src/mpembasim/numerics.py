"""Dense complex linear algebra for non-Hermitian spectral work.

The routines here wrap LAPACK (reached through ``numpy.linalg``) behind a
small contract tailored to Liouville-space work: eigensystems always come back
with a biorthonormal left/right pairing, and matrix logarithms always take the
principal branch or refuse loudly.  Matrices are plain ``numpy.ndarray`` of
``complex128`` in row-major order; everything is a pure function of its
inputs.

LAPACK's own left eigenvectors are deliberately not used: it does not
guarantee that the left and right vectors it returns are paired mode by mode
when eigenvalues repeat.  Inverting the right eigenvector matrix gives a left
system that is biorthonormal by construction.

The matrix exponential follows Algorithm 2.3 of Higham, SIAM J. Matrix Anal.
Appl. 26, 1179 (2005): the degree-13 Pade approximant, with scaling and
squaring above its bound, for every input: the lower degrees the algorithm
offers for small norms would save a few microseconds of a 4x4 call, which
no whole reference pass resolves.

Each input is validated once, and each pass of the reference route makes
one eigendecomposition: :func:`eig_general` and :func:`expm` check that their
input is a finite square matrix; :func:`log_eigensystem` leaves that check to
the :func:`eig_general` call it makes and returns the logarithm's eigensystem,
which :func:`logm_principal` turns into a matrix and
:func:`liouville.extract_generator` hands on to :func:`liouville.decompose`,
so the generator is not diagonalized again.  The routines run on 4x4 matrices
thousands of times per second, so the code avoids numpy's per-call fixed
costs where the arithmetic allows it: reductions use the method form, each
matrix size has one read-only identity, the 1-norm is the column-sum
maximum that ``numpy.linalg.norm(a, 1)`` computes internally, both halves of
the Pade numerator come from one matrix product, and the logarithm checks its
few eigenvalues as Python numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .exceptions import (
    BranchCutError,
    DefectiveMatrixError,
    NonConvergenceError,
    SingularInputError,
)

#: max |L R - I| accepted before a matrix is declared numerically defective
BIORTHONORMALITY_TOL = 1e-10

#: max scaled |R diag(lambda) L - A| before the eigensystem is rejected
RECONSTRUCTION_TOL = 1e-9

#: eigenvalue magnitude below which a principal log is refused
SINGULARITY_TOL = 1e-12

#: relative distance from the negative real axis that trips the branch-cut guard
BRANCH_TOL = 1e-13

#: largest 1-norm for which the degree-13 Pade approximant meets unit
#: roundoff, the theta_13 of Higham 2005's Algorithm 2.3
PADE13_THETA = 5.371920351148152e0

#: the numerator coefficients b_0 .. b_13 of the degree-13 approximant in
#: Higham 2005's Algorithm 2.3, divided by b_0 so that a nilpotent ``a`` with
#: ``a @ a = 0`` maps to exactly ``I + a``
_B13 = np.array((
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)) / 64764752532480000.0

#: weights on the even powers ``I, a^2, a^4, a^6``: each half of the
#: numerator is ``a^6 @ high + low``, and the rows are the odd half's low and
#: high parts, then the even half's; complex, as the powers are, so the
#: product casts nothing per call
_PADE13_WEIGHTS = np.array(
    [_B13[1:8:2], [0.0, *_B13[9::2]], _B13[0:8:2], [0.0, *_B13[8::2]]], dtype=complex
)
_PADE13_WEIGHTS.flags.writeable = False


def _as_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


@cache
def _identity(n: int) -> np.ndarray:
    """The read-only complex ``n x n`` identity, made once per size."""
    ident = np.eye(n, dtype=complex)
    ident.flags.writeable = False
    return ident


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of a general (possibly non-Hermitian) matrix.

    Attributes
    ----------
    eigenvalues:
        Shape ``(n,)``, in the order returned by the QR iteration.
    right:
        Shape ``(n, n)``; column ``k`` is the right eigenvector of
        ``eigenvalues[k]``.
    left:
        Shape ``(n, n)``; row ``k`` is the matching left eigenvector, scaled so
        ``left @ right == I``.

    :attr:`condition_estimate`, the 2-norm condition number of the right
    eigenvector matrix, costs an SVD and is computed on first read.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray

    @cached_property
    def condition_estimate(self) -> float:
        """2-norm condition number of :attr:`right`, computed on first read."""
        return float(np.linalg.cond(self.right))


def eig_general(a: np.ndarray) -> EigenSystem:
    """Full eigensystem of a general complex matrix with paired left vectors.

    Raises
    ------
    ValueError
        If ``a`` is not a finite square matrix.
    NonConvergenceError
        If the QR iteration fails.
    DefectiveMatrixError
        If the right eigenvector matrix is too ill conditioned to produce a
        biorthonormal left system (Jordan-block inputs land here).
    """
    a = _as_square(a, "a")
    try:
        values, right = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigenvalue iteration failed: {exc}") from exc

    try:
        left = np.linalg.inv(right)
    except np.linalg.LinAlgError as exc:
        raise DefectiveMatrixError(
            "right eigenvectors are linearly dependent; matrix appears defective"
        ) from exc

    residual = float(np.abs(left @ right - _identity(a.shape[0])).max())
    if residual > BIORTHONORMALITY_TOL:
        raise DefectiveMatrixError(
            f"biorthonormality residual {residual:.3e} exceeds {BIORTHONORMALITY_TOL}"
        )
    # A defective matrix can sneak past the pairing check (inv of a nearly
    # singular eigenvector matrix may still invert cleanly in floating point)
    # but its eigenvectors cannot rebuild the input.
    scale = max(1.0, float(np.abs(a).max()))
    rebuilt = float(np.abs(right @ (values[:, None] * left) - a).max())
    if rebuilt > RECONSTRUCTION_TOL * scale:
        raise DefectiveMatrixError(
            f"eigensystem rebuilds the input only to {rebuilt:.3e}; "
            "matrix appears defective"
        )
    return EigenSystem(values, right, left)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the degree-13 Pade
    approximant, as in Higham's Algorithm 2.3.

    ``a`` is divided by ``2**s``, the smallest power of two that brings its
    1-norm under :data:`PADE13_THETA` (``s = 0`` at or below it), and the
    approximant is squared ``s`` times.  The odd and even halves ``odd`` and
    ``even`` of the numerator come from one product of the weights with the
    stacked even powers ``I, a^2, a^4, a^6``; the approximant is
    ``(even - odd)^-1 (even + odd)``.

    Raises
    ------
    ValueError
        If ``a`` is not a finite square matrix, its 1-norm overflows, or the
        squarings overflow.
    """
    a = _as_square(a, "a")
    with np.errstate(over="ignore"):
        norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError("a is too large to exponentiate: its 1-norm overflows")
    squarings = 0
    if norm > PADE13_THETA:
        squarings = int(np.ceil(np.log2(norm / PADE13_THETA)))
        a = a / 2.0**squarings
    n = a.shape[0]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    powers = np.array([_identity(n), a2, a4, a6]).reshape(4, -1)
    halves = (_PADE13_WEIGHTS @ powers).reshape(-1, n, n)
    odd = a @ (a6 @ halves[1] + halves[0])
    even = a6 @ halves[3] + halves[2]
    result = np.linalg.solve(even - odd, even + odd)
    if squarings:
        # the approximant's rounding can grow through the squarings until it
        # overflows, as for a large generator times a long delay
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(squarings):
                result = result @ result
        if not np.isfinite(result).all():
            raise ValueError(f"the exponential overflows in {squarings} squarings")
    return result


def log_eigensystem(a: np.ndarray) -> EigenSystem:
    """Eigensystem of the principal matrix logarithm of ``a``.

    The eigenvalues are the principal ``log(lambda)`` of those of
    :func:`eig_general`, paired with the same right and left vectors, so
    :func:`logm_principal` is ``(right * eigenvalues) @ left``.  Every
    eigenvalue must stay clear of zero and of the negative real axis;
    otherwise the principal branch is ill defined for the intended use
    (extracting a relaxation generator from a channel transfer matrix) and the
    caller should shrink the channel delay instead.

    Raises
    ------
    SingularInputError
        If any ``|eigenvalue| < 1e-12``.
    BranchCutError
        If any eigenvalue sits on the closed negative real axis.
    ValueError, DefectiveMatrixError, NonConvergenceError
        Propagated from :func:`eig_general`, which also validates ``a``.
    """
    system = eig_general(a)
    # the few eigenvalues are checked as Python complex numbers, which skips
    # numpy's fixed cost per call; the comparisons are the same
    values = system.eigenvalues.tolist()
    magnitudes = [abs(value) for value in values]
    worst = min(magnitudes)
    if worst < SINGULARITY_TOL:
        raise SingularInputError(
            f"eigenvalue magnitude {worst:.3e} below {SINGULARITY_TOL}; "
            "matrix logarithm is singular"
        )
    for value, magnitude in zip(values, magnitudes):
        if value.real < 0.0 and abs(value.imag) <= BRANCH_TOL * max(1.0, magnitude):
            raise BranchCutError(
                "eigenvalue on the negative real axis; principal logarithm is ambiguous"
            )
    return EigenSystem(np.log(system.eigenvalues), system.right, system.left)


def logm_principal(a: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm through the eigendecomposition: the matrix
    form of :func:`log_eigensystem`, whose checks and errors it shares."""
    system = log_eigensystem(a)
    # scaling column k of right by eigenvalue k is right @ diag(eigenvalues)
    return (system.right * system.eigenvalues) @ system.left
