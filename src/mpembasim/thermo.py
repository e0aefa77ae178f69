"""Thermodynamic observables and relaxation diagnostics.

Energies are reported in h*kHz (Hamiltonian matrices stay in angular units,
the 2 pi is divided out here), temperatures as ``k_B T / h`` in kHz, and
entropies in nats, so the non-equilibrium free energy

    F_neq(rho) = Tr(H rho)/(2 pi) - T S_vN(rho)

comes out in kHz and obeys ``F_neq(rho) - F_eq = T S_KL(rho || rho_eq)``
exactly, which the tests enforce at 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GridMismatchError, SingularReferenceError
from .operators import (
    PAULIS,
    TWO_PI,
    _scalar,
    hermitize,
    mean_energy,
    validate_bloch_vectors,
    validate_density_matrix,
)

#: eigenvalues below this contribute zero to entropy sums
ENTROPY_FLOOR = 1e-15

#: rank tolerance for relative-entropy reference states
REFERENCE_RANK_TOL = 1e-12

#: strictness margin for crossing persistence
CROSSING_TOL = 1e-12


def gibbs_state(hamiltonian: np.ndarray, temperature: float) -> np.ndarray:
    """Gibbs state ``exp(-H / (2 pi T)) / Z`` for an angular-units Hamiltonian."""
    if temperature <= 0.0:
        raise ValueError(f"temperature {temperature} must be positive")
    h = np.asarray(hamiltonian, dtype=complex)
    energies, vectors = np.linalg.eigh(h)
    # Shift by the ground energy before exponentiating; keeps weights finite
    # for any gap/temperature ratio.
    weights = np.exp(-(energies - energies.min()) / (TWO_PI * temperature))
    weights /= weights.sum()
    rho = (vectors * weights) @ vectors.conj().T
    return hermitize(rho)


def von_neumann_entropy(rho: np.ndarray):
    """Entropy in nats of a state, or of each state in a stack ``(..., d, d)``;
    eigenvalues at or below the floor contribute zero."""
    eigenvalues = np.linalg.eigvalsh(hermitize(np.asarray(rho, dtype=complex)))
    return _scalar(-_eigen_entropy_terms(eigenvalues))


def _eigen_entropy_terms(eigenvalues: np.ndarray) -> np.ndarray:
    """``sum p ln p`` over the last axis, for the eigenvalues above the floor."""
    support = np.where(eigenvalues > ENTROPY_FLOOR, eigenvalues, 1.0)
    return (support * np.log(support)).sum(axis=-1)


def f_neq(rho: np.ndarray, hamiltonian: np.ndarray, temperature: float):
    """Non-equilibrium free energy ``Tr(H rho)/(2 pi) - T S_vN(rho)`` in kHz,
    of a state (a float) or of each state in a stack ``(..., d, d)``."""
    rho = validate_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-10, psd_tol=1e-8)
    return mean_energy(rho, hamiltonian) - temperature * von_neumann_entropy(rho)


def f_neq_bloch(
    bloch: np.ndarray, hamiltonian: np.ndarray, temperature: float
) -> np.ndarray:
    """:func:`f_neq` of qubit states given as Bloch vectors ``(..., 3)``.

    The energy comes from the Pauli components of ``hamiltonian``, the
    entropy from the eigenvalues ``(1 +- |r|)/2`` with the same floor as
    :func:`von_neumann_entropy`, and the positivity bound is the one
    :func:`f_neq` applies.
    """
    r = validate_bloch_vectors(bloch, psd_tol=1e-8)
    h = np.asarray(hamiltonian, dtype=complex)
    components = np.array([np.trace(h @ PAULIS[axis]).real for axis in "xyz"])
    energy = 0.5 * (np.trace(h).real + r @ components) / TWO_PI
    norm = np.linalg.norm(r, axis=-1)
    eigenvalues = np.stack([0.5 * (1.0 + norm), 0.5 * (1.0 - norm)])
    support = np.where(eigenvalues > ENTROPY_FLOOR, eigenvalues, 1.0)
    entropy = -(support * np.log(support)).sum(axis=0)
    return energy - temperature * entropy


def kl_divergence(rho: np.ndarray, sigma: np.ndarray):
    """Quantum relative entropy ``Tr rho (ln rho - ln sigma)`` in nats.

    ``rho`` is one state (a float comes back) or a stack ``(..., d, d)`` of
    states, each measured against the one reference state ``sigma``.

    Raises
    ------
    SingularReferenceError
        If ``sigma`` is not full rank beyond 1e-12 (the divergence diverges).
    """
    rho = validate_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-10, psd_tol=1e-8)
    sigma = validate_density_matrix(sigma, herm_tol=1e-10, trace_tol=1e-10, psd_tol=1e-8)
    s_eigs, s_vecs = np.linalg.eigh(hermitize(sigma))
    if s_eigs.min() <= REFERENCE_RANK_TOL:
        raise SingularReferenceError(
            f"reference state eigenvalue {s_eigs.min():.3e} at or below rank tolerance"
        )
    tr_r_ln_r = _eigen_entropy_terms(np.linalg.eigvalsh(hermitize(rho)))
    log_sigma = (s_vecs * np.log(s_eigs)) @ s_vecs.conj().T
    tr_r_ln_s = (rho @ log_sigma).trace(axis1=-2, axis2=-1).real
    return _scalar(tr_r_ln_r - tr_r_ln_s)


def trace_distance(rho: np.ndarray, sigma: np.ndarray):
    """``Tr |rho - sigma| / 2``, a float for two states or an array over the
    leading axes when either is a stack ``(..., d, d)``."""
    delta = hermitize(np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex))
    return _scalar(0.5 * np.abs(np.linalg.eigvalsh(delta)).sum(axis=-1))


def trace_distance_bloch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`trace_distance` of qubit states given as Bloch vectors, ``|a - b|/2``."""
    return 0.5 * np.linalg.norm(np.asarray(a, float) - np.asarray(b, float), axis=-1)


@dataclass(frozen=True)
class RelaxationTrajectory:
    """Observables of one relaxation experiment sampled on a time grid.

    ``f_neq`` stores the free-energy observable chosen by the producer (the
    sweep functions in this package store the excess over equilibrium, which
    must stay above ``-1e-9``); ``trace_dist`` is the distance to the target
    state.
    """

    times: np.ndarray
    f_neq: np.ndarray
    trace_dist: np.ndarray
    label: str

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "f_neq", np.asarray(self.f_neq, dtype=float))
        object.__setattr__(self, "trace_dist", np.asarray(self.trace_dist, dtype=float))
        n = times.size
        if any(len(x) != n for x in (self.f_neq, self.trace_dist)):
            raise ValueError("trajectory fields must share one grid length")
        if n > 1 and np.any(np.diff(times) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        if self.f_neq.size and float(self.f_neq.min()) < -1e-9:
            raise ValueError(
                f"free-energy excess dips to {float(self.f_neq.min()):.3e} below zero"
            )


@dataclass(frozen=True)
class CrossingReport:
    """Result of comparing two trajectories for an order reversal."""

    exists: bool
    t_cross: float
    persistent: bool


def detect_crossing(
    a: RelaxationTrajectory, b: RelaxationTrajectory, observable: str = "f_neq"
) -> CrossingReport:
    """Earliest sign change of ``observable(a) - observable(b)``.

    The crossing time is linearly interpolated between the bracketing grid
    points.  The crossing is persistent when the reversed order is realized
    strictly (beyond 1e-12) at some later grid time and the original order
    never re-establishes itself beyond that tolerance; trajectories ending
    in a common collapse to equilibrium therefore still count as persistent.
    Identical curves report no crossing.

    Raises
    ------
    GridMismatchError
        If the two trajectories were sampled on different grids.
    """
    if observable not in ("f_neq", "trace_dist"):
        raise ValueError(f"unknown observable {observable!r}")
    if a.times.size != b.times.size or not np.allclose(
        a.times, b.times, rtol=0.0, atol=1e-12
    ):
        raise GridMismatchError("trajectories are sampled on different time grids")

    diff = getattr(a, observable) - getattr(b, observable)
    signs = np.where(diff > CROSSING_TOL, 1, np.where(diff < -CROSSING_TOL, -1, 0))
    nonzero = np.flatnonzero(signs)
    if nonzero.size == 0:
        return CrossingReport(False, float("nan"), False)

    first = signs[nonzero[0]]
    flip = None
    for idx in nonzero[1:]:
        if signs[idx] != first:
            flip = idx
            break
    if flip is None:
        return CrossingReport(False, float("nan"), False)

    # Last grid index before the flip still carrying the original sign.
    before = nonzero[nonzero < flip][-1]
    t0, t1 = a.times[before], a.times[flip]
    y0, y1 = diff[before], diff[flip]
    t_cross = float(t0 + (t1 - t0) * (y0 / (y0 - y1)))

    tail = diff[a.times > t_cross]
    persistent = bool(
        tail.size > 0
        and np.all(tail < CROSSING_TOL)
        and np.any(tail < -CROSSING_TOL)
    )
    return CrossingReport(True, t_cross, persistent)
