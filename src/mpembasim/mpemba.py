"""Anomalous-relaxation toolkit: the slow-mode-killing pulse and sweeps.

The accelerating transformation diagonalizes a state in the energy eigenbasis
with its populations inverted (largest eigenvalue on the highest level).  The
result carries no coherence in that basis, so its overlap with the slowly
decaying pair of generator modes vanishes identically while its free energy
goes up, the combination that makes the subsequent relaxation anomalously
fast.  On the Bloch vector it is the closed form :func:`mpemba_bloch`; the
``eigh`` pairing :func:`mpemba_unitary` is its matrix reference.  The
slow-mode weights it removes are measured by ``verify`` (``slow-mode-removal``)
and the tests with :func:`liouville.mode_overlap`.  The sweep helpers generate
the theta-rotated family of initial states and the paired free-energy /
trace-distance curves over the exchange-delay grid, without and with the
pulse.  The sweeps run the heat exchange on Bloch-component planes, one
value per (state, delay) point, with no ``(..., n, 3)`` stack:
:func:`_exchange_planes` squares and bounds the
checked grid of :func:`channels._exchange_grid`, and the free energy, from
the partner's gap with no matrix, and the trace distance come from its
``x^2 + y^2``, ``z`` and ``|r|`` planes.  ``verify``
(``sweep-kernel-agreement``) and the tests compare them with the Kraus route:
:func:`channels.apply_channel`, :func:`thermo.f_neq` and
:func:`thermo.trace_distance`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .channels import ThermalEnvironment, _exchange_grid
from .exceptions import DegenerateHamiltonianError
from .operators import TWO_PI, _check_bloch_length, mean_energy, validate_bloch_vectors, \
    validate_density_matrix
from .thermo import RelaxationTrajectory, _p_ln_p

#: unitarity defect tolerated in a constructed transform
TRANSFORM_TOL = 1e-12

#: relative spectral gap below which energy-level pairing is ill defined
DEGENERACY_TOL = 1e-9


class MpembaTransform(NamedTuple):
    """A constructed accelerating unitary and the states it connects.

    ``f_neq_gain`` is the free-energy increase (kHz) paid for the speedup.
    A unitary keeps the spectrum and with it the entropy, so the gain is the
    mean-energy increase alone.  :func:`mpemba_unitary`, its constructor,
    checks unitarity and sets ``target_state = U source_state U^dag``.
    """

    unitary: np.ndarray
    source_state: np.ndarray
    target_state: np.ndarray
    f_neq_gain: float


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

    eye = np.eye(unitary.shape[0])
    if np.abs(unitary.conj().T @ unitary - eye).max() > TRANSFORM_TOL:
        raise ValueError("transform matrix is not unitary")

    return MpembaTransform(
        unitary=unitary,
        source_state=rho,
        target_state=target,
        f_neq_gain=mean_energy(target, h) - mean_energy(rho, h),
    )


def mpemba_bloch(bloch: np.ndarray) -> np.ndarray:
    """Bloch vectors ``(..., 3)`` after the accelerating pulse, in closed form.

    The pulse keeps the length ``|r|`` (a unitary keeps the spectrum), removes
    the coherence in the exchange energy basis and puts the larger population
    on the upper level, ``sigma_z = -1`` for every gap ``nu > 0``: ``r -> (0,
    0, -|r|)``.  This is :func:`mpemba_unitary` under ``-2 pi nu sigma_z``.
    """
    r = validate_bloch_vectors(bloch)
    out = np.zeros_like(r)
    out[..., 2] = _pulse_z(r[..., 0], r[..., 1], r[..., 2], np.sqrt)
    return out


def _pulse_z(x, y, z, sqrt=math.sqrt):
    """The one nonzero component of the pulse's image ``(0, 0, -|r|)``,
    unchecked, with ``|r|`` summed in numpy's order over a length-3 axis,
    ``(x^2 + y^2) + z^2``: on Python floats, or on arrays with ``sqrt=np.sqrt``."""
    return -sqrt((x * x + y * y) + z * z)


def build_theta_family(base: np.ndarray, theta_grid: Sequence[float]) -> np.ndarray:
    """Bloch vectors of ``base`` rotated about the y axis by every angle.

    ``R_y(theta)`` takes the Bloch vector ``(x, y, z)`` to ``(x cos theta +
    z sin theta, y, z cos theta - x sin theta)``, the Bloch vector of
    ``R_y(theta) rho R_y(-theta)``; row ``k`` of the ``(len(theta_grid), 3)``
    result is the base rotated by ``theta_grid[k]``.  A rotation keeps the
    length, so the family is as valid as its base.
    """
    base = validate_bloch_vectors(base)
    if base.shape != (3,):
        raise ValueError(f"base must be one Bloch vector, got shape {base.shape}")
    angles = np.asarray(theta_grid, dtype=float)
    if angles.size == 0 or not np.all(np.isfinite(angles)):
        raise ValueError("theta grid must be nonempty and finite")
    x, y, z = base
    cos, sin = np.cos(angles), np.sin(angles)
    return np.column_stack(
        [x * cos + z * sin, np.full(angles.size, y), z * cos - x * sin]
    )


def _exchange_planes(
    environment: ThermalEnvironment, j_hz: float, bloch: np.ndarray, taus
) -> tuple:
    """The sweep kernel: Bloch vectors ``bloch`` ``(..., 3)`` after every delay
    of the heat exchange with ``environment`` and coupling ``j_hz``, as the
    planes ``x^2 + y^2``, ``z`` and ``|r|`` of shape ``(..., len(taus))``.

    The delays are checked first, then the start, then the output's
    finiteness and the positivity bound of
    :func:`operators.validate_bloch_vectors`, taken on the ``|r|`` plane.
    The sum of squares keeps numpy's order over a length-3 axis, ``(x^2 +
    y^2) + z^2``.
    """
    x, y, z = _exchange_grid(environment, j_hz, bloch, taus)
    xy2 = np.multiply(x, x, out=x)
    xy2 += np.multiply(y, y, out=y)
    length = np.sqrt(xy2 + z * z)
    # a NaN or infinite component makes its length non-finite, and max
    # carries that through the plane
    largest = float(length.max(initial=0.0))
    if not math.isfinite(largest):
        raise ValueError("Bloch vectors must be finite")
    _check_bloch_length(largest)
    return xy2, z, length


def _excess_free_energy(
    z: np.ndarray, length: np.ndarray, env: ThermalEnvironment
) -> np.ndarray:
    """Free energy (kHz) over the equilibrium of ``env``, under its
    Hamiltonian ``-2 pi nu sigma_z`` and at its temperature, of the states
    with Bloch components ``z`` and lengths ``length`` from
    :func:`_exchange_planes`, which checked them: the energy ``Tr(H rho)/(2
    pi) = z Tr(H sigma_z)/(4 pi)`` plus ``T sum p ln p`` over the eigenvalues
    ``(1 +- |r|)/2``."""
    # Tr H = 0 and H's one Pauli component is Tr(H sigma_z) = -4 pi nu; the
    # equilibrium is (0, 0, z_eq)
    field = -2.0 * TWO_PI * env.gap_frequency
    z_eq = env.polarization

    def free(z, r):
        entropy_terms = _p_ln_p(0.5 * (1.0 + r)) + _p_ln_p(0.5 * (1.0 - r))
        return 0.5 * (z * field) / TWO_PI + env.temperature * entropy_terms

    return free(z, length) - free(z_eq, abs(z_eq))


def free_energy_surface(
    bloch: np.ndarray,
    environment: ThermalEnvironment,
    j_hz: float,
    tau_grid: Sequence[float],
) -> np.ndarray:
    """Free-energy excess (kHz) of every state after every exchange delay.

    ``bloch`` holds the states as Bloch vectors ``(n, 3)``, such as the
    family of :func:`build_theta_family`; the result is ``(n,
    len(tau_grid))``, one row per state.  Each state goes through the heat
    exchange with ``environment`` and coupling ``j_hz`` for each delay
    independently (one collision of duration tau, not an iterated map).  The
    excess is over the environment's equilibrium, at its temperature and
    under its Hamiltonian ``-2 pi nu sigma_z``, as in :func:`cooling_curves`.
    """
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size == 0:
        raise ValueError("tau grid must be nonempty")
    _, z, length = _exchange_planes(environment, j_hz, bloch, taus)
    return _excess_free_energy(z, length, environment)


def _relaxation(
    start: np.ndarray, env: ThermalEnvironment, j_hz: float, taus: np.ndarray
) -> tuple:
    """Free-energy excess (kHz) and trace distance to the thermal target of
    ``env`` of the Bloch vectors ``start`` ``(..., 3)`` after every delay."""
    xy2, z, length = _exchange_planes(env, j_hz, start, taus)
    # |r - (0, 0, z_eq)| / 2, summed as (x^2 + y^2) + (z - z_eq)^2, in the
    # buffer of x^2 + y^2, which nothing else reads
    distance = np.add(xy2, (z - env.polarization) ** 2, out=xy2)
    np.sqrt(distance, out=distance)
    distance *= 0.5
    return _excess_free_energy(z, length, env), distance


def cooling_curves(
    r0: np.ndarray,
    env: ThermalEnvironment,
    j_hz: float,
    tau_grid: Sequence[float],
) -> tuple[RelaxationTrajectory, RelaxationTrajectory]:
    """Relaxation of the Bloch vector ``r0`` along the exchange, as the pair
    ``(plain, pulsed)``, labelled ``"plain"`` and ``"mpemba"``; the pulsed
    one starts from :func:`mpemba_bloch` of ``r0``, after the plain pass.

    Each records the free-energy excess over equilibrium (kHz) and the trace
    distance to the thermal target for every delay in the grid.
    """
    taus = np.asarray(tau_grid, dtype=float)
    plain = RelaxationTrajectory(taus, *_relaxation(r0, env, j_hz, taus), "plain")
    pulsed = RelaxationTrajectory(
        taus, *_relaxation(mpemba_bloch(r0), env, j_hz, taus), "mpemba"
    )
    return plain, pulsed
