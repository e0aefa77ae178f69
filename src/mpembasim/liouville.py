"""Liouville-space representation of qubit relaxation.

Vectorization convention (fixed, used everywhere in this package)
-----------------------------------------------------------------
Row stacking: ``vec(rho)`` is the row-major ravel of ``rho``, so for a qubit
``vec(rho) = (rho_00, rho_01, rho_10, rho_11)`` and

    vec(A rho B) = (A kron B^T) vec(rho).

Consequences used below: a Kraus map ``rho -> sum_j K_j rho K_j^dag`` has
transfer matrix ``sum_j K_j kron K_j^conj``, and a generator

    d rho/dt = -i [H, rho] + sum_k gamma_k (A rho A^dag - {A^dag A, rho}/2)

vectorizes to

    L = -i (H kron I - I kron H^T)
        + sum_k gamma_k (A kron A^conj - (A^dag A kron I + I kron (A^dag A)^T)/2).

The trace functional is the row vector ``vec(I)^T`` and overlaps with left
modes are plain (bilinear, unconjugated) dot products.

Spectral solution: with eigenpairs ``L zeta_k = lambda_k zeta_k`` and
biorthonormal left rows ``xi_k``, a state evolves as

    vec(rho(t)) = sum_k exp(t lambda_k) zeta_k (xi_k . vec(rho_0)).

Modes are ordered by ascending ``|Re lambda|`` (stationary mode first), with
ties broken by ascending ``|Im lambda|`` and then ascending ``Im lambda``.

One eigendecomposition per reference pass: the generator ``log(M) / t`` has
the eigenvectors of the transfer matrix ``M``, so :func:`extract_generator`
returns a read-only :class:`Generator` that carries the eigensystem its
logarithm was checked on, and :func:`decompose` reads the modes off it after
checking that it rebuilds the matrix.  :func:`numerics.eig_general` still runs
on any other array (a plain one, or one derived from a generator, such as
``2 * g`` or a slice), and on a carried generator whose null space is
degenerate, where the transfer matrix's basis of it would pick another fixed
point than the array's own.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import numerics
from .exceptions import (
    DefectiveMatrixError,
    HermiticityError,
    NoStationaryModeError,
    SingularInputError,
    TauOutOfRangeError,
)
from .operators import _scalar, hermitize, validate_density_matrix

#: |Re lambda| below which a mode counts as stationary, times the largest
#: |lambda| where that exceeds 1: the stationary eigenvalue's rounding grows
#: with the rates
STATIONARY_TOL = 1e-8

#: Hermiticity drift beyond which propagation refuses to repair silently
HERMITICITY_TOL = 1e-8


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Row-stacked column vector of a ``d x d`` matrix, or of each matrix in a
    stack ``(..., d, d)`` as ``(..., d*d)``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    return rho.reshape(rho.shape[:-2] + (-1,))


def devectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`; the length must be a perfect square."""
    vec = np.asarray(vec, dtype=complex)
    d = math.isqrt(vec.size)
    if d * d != vec.size:
        raise ValueError(f"vector length {vec.size} is not a perfect square")
    return vec.reshape(d, d)


def transfer_matrix(kraus_operators) -> np.ndarray:
    """Row-stacking transfer matrix ``sum_j K_j kron K_j^conj`` of a Kraus map."""
    ops = np.asarray(kraus_operators, dtype=complex)
    if ops.ndim != 3 or not ops.shape[0]:
        raise ValueError("at least one square Kraus operator is required")
    d = ops.shape[1]
    return np.einsum("kij,kab->iajb", ops, ops.conj()).reshape(d * d, d * d)


class SpectralDecomposition(NamedTuple):
    """Sorted eigensystem of a relaxation generator.

    ``eigenvalues[0]`` is the stationary eigenvalue (zero to numerical
    precision); ``right[:, k]`` and ``left[k, :]`` are the biorthonormal mode
    pair for ``eigenvalues[k]``; ``fixed_point`` is the trace-one stationary
    state; ``system`` is the unsorted, unscaled eigensystem they come from.
    Overlaps against left modes are bilinear dot products.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    fixed_point: np.ndarray
    system: numerics.EigenSystem

    @property
    def condition_estimate(self) -> float:
        """Condition number of the unsorted, unscaled right eigenvector matrix,
        computed on first read."""
        return self.system.condition_estimate


class Generator(np.ndarray):
    """A read-only generator matrix that carries its checked eigensystem.

    :func:`extract_generator` returns one, so that :func:`decompose` reads
    the modes off :attr:`system` instead of diagonalizing the matrix again.
    An array derived from a generator (``2 * g``, ``g.copy()``, a slice)
    carries no system, and ``np.array(g)`` is a plain array.
    """

    __slots__ = ("system",)

    def __new__(cls, matrix: np.ndarray, system: numerics.EigenSystem) -> Generator:
        generator = np.asarray(matrix, dtype=complex).view(cls)
        generator.system = system
        generator.setflags(write=False)
        return generator

    def __array_finalize__(self, obj) -> None:
        # the system was checked against one array only
        self.system = None


def _check_rebuild(a: np.ndarray, system: numerics.EigenSystem) -> None:
    """Refuse a carried eigensystem that does not rebuild the array ``a`` to
    the bound :func:`numerics.eig_general` puts on its own systems."""
    rebuilt = (system.right * system.eigenvalues) @ system.left
    error = float(np.abs(rebuilt - a).max()) if rebuilt.shape == a.shape else math.inf
    if not error <= numerics.RECONSTRUCTION_TOL * max(1.0, float(np.abs(a).max())):
        raise DefectiveMatrixError(
            f"carried eigensystem rebuilds the generator only to {error:.3e}; "
            "it belongs to another matrix"
        )


def decompose(generator: np.ndarray) -> SpectralDecomposition:
    """Sorted biorthonormal spectral decomposition of a generator.

    A :class:`Generator` that carries its eigensystem is decomposed from it,
    once the system rebuilds the matrix to the relative
    :data:`numerics.RECONSTRUCTION_TOL`, unless it has more than one
    stationary candidate: a degenerate null space has no basis of its own.
    Such a generator, and any other array (derived arrays of a generator
    included), is diagonalized by :func:`numerics.eig_general`.

    Sorting: ascending ``|Re lambda|``, ties by ascending ``|Im lambda|``,
    then ascending ``Im lambda``.  When several eigenvalues tie as stationary
    candidates, the mode carrying the largest trace leads, so the fixed point
    is always normalizable.

    Raises
    ------
    NoStationaryModeError
        If no eigenvalue satisfies ``|Re lambda| <= tol``, every one that
        does oscillates (``|Im lambda| > tol``), or the stationary mode
        cannot be normalized to a valid state; ``tol`` is
        :data:`STATIONARY_TOL` times ``max(1, max |lambda|)``.
    DefectiveMatrixError
        If a carried eigensystem does not rebuild its generator, or from
        :func:`numerics.eig_general`.
    """
    carried = generator.system if isinstance(generator, Generator) else None
    if carried is None:
        system = numerics.eig_general(generator)
    else:
        system = carried
        _check_rebuild(generator.view(np.ndarray), system)
    # the modes are ordered, and the stationary lead picked, on Python
    # numbers; the arrays are then indexed once
    values = system.eigenvalues.tolist()
    tol = STATIONARY_TOL * max(1.0, *map(abs, values))
    order = sorted(
        range(len(values)),
        key=lambda k: (abs(values[k].real), abs(values[k].imag), values[k].imag),
    )
    first = values[order[0]]
    if abs(first.real) > tol:
        raise NoStationaryModeError(
            f"smallest |Re lambda| is {abs(first.real):.3e}, "
            f"no stationary mode within {tol:.3g}"
        )

    # Among stationary candidates, lead with the mode that has weight on the
    # trace; a traceless null vector cannot define a fixed point.  Entries
    # 0, d + 1, 2 (d + 1), ... of a row-stacked d x d matrix are its diagonal.
    d = math.isqrt(len(values))
    diagonal = system.right[:: d + 1].tolist()
    traces = {
        i: sum(row[k] for row in diagonal)
        for i, k in enumerate(order)
        if abs(values[k].real) <= tol and abs(values[k].imag) <= tol
    }
    if not traces:
        raise NoStationaryModeError(
            f"every mode with |Re lambda| <= {tol:.3g} oscillates; "
            "no stationary mode"
        )
    if carried is not None and len(traces) > 1:
        # a degenerate null space has no basis of its own, and the carried
        # one is the transfer matrix's: the array's own eigensystem picks
        # the fixed point, as it does for a plain array
        return decompose(generator.view(np.ndarray))
    best = max(traces, key=lambda i: abs(traces[i]))
    trace0 = traces[best]
    order[0], order[best] = order[best], order[0]
    # one index array for the three lookups; ``take`` copies the sorted modes
    # in the layouts of ``[order]``, ``[:, order]`` and ``[order, :]``
    order = np.array(order)
    values = system.eigenvalues.take(order)
    right = system.right.T.take(order, 0).T
    left = system.left.take(order, 0)

    if abs(trace0) < 1e-12:
        raise NoStationaryModeError("stationary mode is traceless; cannot normalize")
    right[:, 0] /= trace0
    left[0, :] *= trace0

    fixed = hermitize(right[:, 0].reshape(d, d))
    try:
        validate_density_matrix(fixed, herm_tol=1e-9, trace_tol=1e-9, psd_tol=1e-9)
    except ValueError as exc:
        raise NoStationaryModeError(f"stationary mode is not a valid state: {exc}") from exc

    return SpectralDecomposition(values, right, left, fixed, system)


def mode_overlap(decomposition: SpectralDecomposition, k: int, rho: np.ndarray):
    """Bilinear overlap of left mode ``k`` (1-based) with a state (a complex),
    or with each state in a stack ``(..., d, d)`` (an array).

    ``k = 1`` addresses the stationary mode, whose left vector is the trace
    functional, so the overlap of any unit-trace state is 1.
    """
    n = decomposition.eigenvalues.size
    if not 1 <= k <= n:
        raise IndexError(f"mode index {k} outside 1..{n}")
    return _scalar(vectorize(rho) @ decomposition.left[k - 1, :])


def slow_pair_indices(decomposition: SpectralDecomposition) -> list[int]:
    """1-based indices of all modes sharing the slowest nonzero decay rate;
    a rate is nonzero above :data:`STATIONARY_TOL` times
    ``max(1, max |lambda|)``, as in :func:`decompose`."""
    values = decomposition.eigenvalues
    rates = np.abs(values.real)
    nonzero = np.flatnonzero(rates > STATIONARY_TOL * max(1.0, float(np.abs(values).max())))
    if nonzero.size == 0:
        return []
    slowest = rates[nonzero].min()
    return [int(k) + 1 for k in nonzero if abs(rates[k] - slowest) <= 1e-9 * max(1.0, slowest)]


def propagate_spectral(
    decomposition: SpectralDecomposition, rho0: np.ndarray, t: float
) -> np.ndarray:
    """Evolve a state by ``exp(t L)`` through the spectral sum.

    The result is symmetrized; a Hermiticity drift above 1e-8 raises instead
    of being papered over.

    Raises
    ------
    HermiticityError
        If the reconstructed state drifts from Hermitian beyond 1e-8.
    """
    if t < 0.0:
        raise ValueError(f"propagation time {t} must be nonnegative")
    amplitudes = decomposition.left @ vectorize(rho0)
    phases = np.exp(t * decomposition.eigenvalues)
    evolved = decomposition.right @ (phases * amplitudes)
    rho_t = devectorize(evolved)
    drift = float(np.max(np.abs(rho_t - rho_t.conj().T)))
    if drift > HERMITICITY_TOL:
        raise HermiticityError(
            f"propagated state drifted {drift:.3e} from Hermitian at t={t}"
        )
    return hermitize(rho_t)


def extract_generator(channel, t: float) -> Generator:
    """Effective generator ``(1/t) log M`` of a channel's transfer matrix.

    ``channel`` is anything with an ``operators`` attribute, such as a
    :class:`channels.KrausChannel`.  The principal logarithm is verified by
    re-exponentiating: ``expm(t L)`` must reproduce the transfer matrix to
    1e-8 or the extraction is rejected.

    The transfer matrix is diagonalized once, by
    :func:`numerics.log_eigensystem`; the generator is
    ``((right * log(lambda)) @ left) / t``, the bits of
    ``logm_principal(M) / t``, returned as a read-only :class:`Generator`
    that carries ``log(lambda) / t`` with the same vectors, for
    :func:`decompose` to use.

    Raises
    ------
    SingularInputError, BranchCutError
        From the matrix logarithm when the channel is at or beyond the delay
        where coherence eigenvalues vanish; shrink ``t`` in that case.
    TauOutOfRangeError
        If ``t`` is not positive, or too short for a finite generator.
    """
    if t <= 0.0:
        raise TauOutOfRangeError(f"channel delay {t} must be positive")
    matrix = transfer_matrix(channel.operators)
    with np.errstate(over="ignore", invalid="ignore"):
        logs = numerics.log_eigensystem(matrix)
        generator = ((logs.right * logs.eigenvalues) @ logs.left) / t
        rates = logs.eigenvalues / t
    if not np.isfinite(generator).all():
        raise TauOutOfRangeError(f"channel delay {t} too short for a finite generator")
    roundtrip = float(np.abs(numerics.expm(t * generator) - matrix).max())
    if roundtrip > 1e-8:
        raise SingularInputError(
            f"generator round trip error {roundtrip:.3e}; branch selection failed"
        )
    return Generator(generator, numerics.EigenSystem(rates, logs.right, logs.left))
