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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .exceptions import (
    HermiticityError,
    NoStationaryModeError,
    SingularInputError,
    TauOutOfRangeError,
)
from .operators import _scalar, hermitize, validate_density_matrix

logger = logging.getLogger(__name__)

#: |Re lambda| below which a mode counts as stationary
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
    d = int(round(np.sqrt(vec.size)))
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


@dataclass(frozen=True)
class SpectralDecomposition:
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
    system: numerics.EigenSystem = field(repr=False)

    @property
    def dim(self) -> int:
        return self.fixed_point.shape[0]

    @property
    def condition_estimate(self) -> float:
        """Condition number of the unsorted, unscaled right eigenvector matrix,
        computed on first read."""
        return self.system.condition_estimate


def decompose(generator: np.ndarray) -> SpectralDecomposition:
    """Sorted biorthonormal spectral decomposition of a generator.

    Sorting: ascending ``|Re lambda|``, ties by ascending ``|Im lambda|``,
    then ascending ``Im lambda``.  When several eigenvalues tie as stationary
    candidates, the mode carrying the largest trace leads, so the fixed point
    is always normalizable.

    Raises
    ------
    NoStationaryModeError
        If no eigenvalue satisfies ``|Re lambda| <= 1e-8`` or the stationary
        mode cannot be normalized to a valid state.
    """
    system = numerics.eig_general(generator)
    values = system.eigenvalues
    order = np.lexsort((values.imag, np.abs(values.imag), np.abs(values.real)))
    values = values[order]
    right = system.right[:, order]
    left = system.left[order, :]

    if abs(values[0].real) > STATIONARY_TOL:
        raise NoStationaryModeError(
            f"smallest |Re lambda| is {abs(values[0].real):.3e}, "
            f"no stationary mode within {STATIONARY_TOL}"
        )

    # Among stationary candidates, lead with the mode that has weight on the
    # trace; a traceless null vector cannot define a fixed point.
    stationary = np.flatnonzero(
        (np.abs(values.real) <= STATIONARY_TOL) & (np.abs(values.imag) <= STATIONARY_TOL)
    )
    traces = np.array([np.trace(devectorize(right[:, k])) for k in stationary])
    best = stationary[int(np.argmax(np.abs(traces)))]
    if best != 0:
        perm = np.arange(values.size)
        perm[0], perm[best] = perm[best], perm[0]
        values = values[perm]
        right = right[:, perm]
        left = left[perm, :]

    trace0 = np.trace(devectorize(right[:, 0]))
    if abs(trace0) < 1e-12:
        raise NoStationaryModeError("stationary mode is traceless; cannot normalize")
    right = right.copy()
    left = left.copy()
    right[:, 0] = right[:, 0] / trace0
    left[0, :] = left[0, :] * trace0

    fixed = hermitize(devectorize(right[:, 0]))
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
    """1-based indices of all modes sharing the slowest nonzero decay rate."""
    rates = np.abs(decomposition.eigenvalues.real)
    nonzero = np.flatnonzero(rates > STATIONARY_TOL)
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
    if drift > 0.0:
        logger.debug("hermiticity drift %.3e at t=%s symmetrized away", drift, t)
    return hermitize(rho_t)


def extract_generator(channel, t: float) -> np.ndarray:
    """Effective generator ``(1/t) log M`` of a channel's transfer matrix.

    ``channel`` is anything with an ``operators`` attribute, such as a
    :class:`channels.KrausChannel`.  The principal logarithm is verified by re-exponentiating: ``expm(t L)`` must reproduce the transfer
    matrix to 1e-8 or the extraction is rejected.

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
        generator = numerics.logm_principal(matrix) / t
    if not np.all(np.isfinite(generator)):
        raise TauOutOfRangeError(f"channel delay {t} too short for a finite generator")
    roundtrip = float(np.max(np.abs(numerics.expm(t * generator) - matrix)))
    if roundtrip > 1e-8:
        raise SingularInputError(
            f"generator round trip error {roundtrip:.3e}; branch selection failed"
        )
    return generator

