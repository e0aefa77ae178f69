"""Anomalous-relaxation toolkit: the slow-mode-killing unitary and sweeps.

The accelerating transformation diagonalizes a state in the energy eigenbasis
with its populations inverted (largest eigenvalue on the highest level).  The
result carries no coherence in that basis, so its overlap with the slowly
decaying pair of generator modes vanishes identically while its free energy
goes up, the combination that makes the subsequent relaxation anomalously
fast.  Construction is only an ``eigh`` pairing of the state with the
Hamiltonian; the slow-mode weights it removes are measured by ``verify``
(``slow-mode-removal``) and the tests, against a generator decomposition, with
:func:`liouville.mode_overlap`.  The sweep helpers generate the theta-rotated
family of initial states and the free-energy / trace-distance curves over the
exchange-delay grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import ThermalEnvironment, heat_exchange_bloch
from .exceptions import DegenerateHamiltonianError
from .operators import bloch_vector, mean_energy, qubit_hamiltonian, \
    validate_bloch_vectors, validate_density_matrix
from .thermo import RelaxationTrajectory, f_neq_bloch, trace_distance_bloch

#: unitarity / conjugation defect tolerated in a constructed transform
TRANSFORM_TOL = 1e-12

#: relative spectral gap below which energy-level pairing is ill defined
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class MpembaTransform:
    """A constructed accelerating unitary and the states it connects.

    ``f_neq_gain`` is the free-energy increase (kHz) paid for the speedup.
    A unitary keeps the spectrum and with it the entropy, so the gain is the
    mean-energy increase alone.
    """

    unitary: np.ndarray
    source_state: np.ndarray
    target_state: np.ndarray
    f_neq_gain: float

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        object.__setattr__(self, "unitary", u)
        eye = np.eye(u.shape[0])
        if np.abs(u.conj().T @ u - eye).max() > TRANSFORM_TOL:
            raise ValueError("transform matrix is not unitary")
        rotated = u @ self.source_state @ u.conj().T
        if np.abs(rotated - self.target_state).max() > TRANSFORM_TOL:
            raise ValueError("target state does not match U rho U^dag")


@dataclass(frozen=True)
class ThetaFamily:
    """Y-axis rotations ``R_y(theta) rho R_y(-theta)`` of a base state.

    ``bloch_vectors`` is an ``(len(angles), 3)`` array: row ``k`` is the
    Bloch vector of the base state rotated by ``angles[k]``.
    """

    angles: np.ndarray
    bloch_vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "angles", np.asarray(self.angles, dtype=float))
        object.__setattr__(self, "bloch_vectors", validate_bloch_vectors(self.bloch_vectors))
        if self.bloch_vectors.shape != (self.angles.size, 3):
            raise ValueError("one rotated Bloch vector required per angle")


def _phase_fixed(columns: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero entry is real positive."""
    fixed = np.array(columns, dtype=complex)
    for j in range(fixed.shape[1]):
        col = fixed[:, j]
        lead = col[np.flatnonzero(np.abs(col) > 1e-14)[0]]
        fixed[:, j] = col * (np.abs(lead) / lead)
    return fixed


def mpemba_unitary(rho: np.ndarray, h: np.ndarray) -> MpembaTransform:
    """Build the population-inverting unitary for ``rho`` under ``h``.

    Parameters
    ----------
    rho : ndarray
        Source density matrix.
    h : ndarray
        Hermitian Hamiltonian in angular units with a nondegenerate
        spectrum.

    Returns
    -------
    MpembaTransform
        The unitary maps eigenvectors of ``rho`` onto eigenvectors of ``h``
        so that the largest population lands on the highest energy level.

    Raises
    ------
    DegenerateHamiltonianError
        If ``h`` has a (near-)degenerate spectrum, which leaves the level
        pairing undefined.
    """
    rho = validate_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-10)
    h = np.asarray(h, dtype=complex)
    energies, levels = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(energies).max()))
    if energies.size > 1 and np.diff(energies).min() <= DEGENERACY_TOL * scale:
        raise DegenerateHamiltonianError(
            f"level spacing below {DEGENERACY_TOL:g} of the spectral scale"
        )

    populations, directions = np.linalg.eigh(rho)
    # eigh sorts both spectra ascending, so pairing column k with column k
    # puts the largest population on the highest level.
    levels = _phase_fixed(levels)
    directions = _phase_fixed(directions)
    unitary = levels @ directions.conj().T
    target = unitary @ rho @ unitary.conj().T

    return MpembaTransform(
        unitary=unitary,
        source_state=rho,
        target_state=target,
        f_neq_gain=mean_energy(target, h) - mean_energy(rho, h),
    )


def build_theta_family(base: np.ndarray, theta_grid: Sequence[float]) -> ThetaFamily:
    """Rotate ``base`` about the y axis by every angle in the grid.

    The rotations act on the Bloch vector ``(x, y, z)`` of the validated base
    state: ``R_y(theta)`` takes it to ``(x cos theta + z sin theta, y,
    z cos theta - x sin theta)``, the Bloch vector of
    ``R_y(theta) rho R_y(-theta)``.  A rotation keeps the length, so the
    family is as valid as its base state.
    """
    base = validate_density_matrix(base, herm_tol=1e-10, trace_tol=1e-10)
    angles = np.asarray(theta_grid, dtype=float)
    if angles.size == 0 or not np.all(np.isfinite(angles)):
        raise ValueError("theta grid must be nonempty and finite")
    x, y, z = bloch_vector(base)
    cos, sin = np.cos(angles), np.sin(angles)
    rotated = np.column_stack(
        [x * cos + z * sin, np.full(angles.size, y), z * cos - x * sin]
    )
    return ThetaFamily(angles=angles, bloch_vectors=rotated)


def free_energy_surface(
    family: ThetaFamily,
    environment: ThermalEnvironment,
    j_hz: float,
    tau_grid: Sequence[float],
) -> np.ndarray:
    """Free energy (kHz) of every rotated state after every exchange delay.

    Returns an array ``(len(family.angles), len(tau_grid))``, one row per
    angle.  Each rotated state goes through the heat exchange with
    ``environment`` and coupling ``j_hz`` for each delay independently (one
    collision of duration tau, not an iterated map).  The free energy is
    taken at the environment's temperature under its Hamiltonian
    ``-2 pi nu sigma_z``, as in :func:`cooling_curves`.
    """
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size == 0:
        raise ValueError("tau grid must be nonempty")
    evolved = heat_exchange_bloch(environment, j_hz, family.bloch_vectors, taus)
    h = qubit_hamiltonian(environment.gap_frequency, axis="z")
    return f_neq_bloch(evolved, h, environment.temperature)


def cooling_curves(
    rho0: np.ndarray,
    env: ThermalEnvironment,
    j_hz: float,
    tau_grid: Sequence[float],
    with_mpemba: bool,
) -> RelaxationTrajectory:
    """Relaxation observables of ``rho0`` along the exchange protocol.

    With ``with_mpemba`` the accelerating unitary is applied first.  The
    trajectory records the free-energy excess over equilibrium (kHz) and the
    trace distance to the thermal target for every delay in the grid.
    """
    taus = np.asarray(tau_grid, dtype=float)
    h = qubit_hamiltonian(env.gap_frequency, axis="z")
    target = np.array([0.0, 0.0, env.polarization])
    f_eq = f_neq_bloch(target, h, env.temperature)

    state0 = rho0
    if with_mpemba:
        state0 = mpemba_unitary(rho0, h).target_state
    start = bloch_vector(validate_density_matrix(state0, herm_tol=1e-10, trace_tol=1e-10))
    evolved = heat_exchange_bloch(env, j_hz, start, taus)
    return RelaxationTrajectory(
        times=taus,
        f_neq=f_neq_bloch(evolved, h, env.temperature) - f_eq,
        trace_dist=trace_distance_bloch(evolved, target),
        label="mpemba" if with_mpemba else "plain",
    )
