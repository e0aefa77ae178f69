"""Heat-exchange Kraus channel between a qubit and a thermally prepared partner.

The channel models a working qubit coupled to an auxiliary qubit through a
``sigma_z sigma_z`` scalar coupling of strength ``J``, with the auxiliary
freshly prepared in a Gibbs state before each run.  Tracing the auxiliary out
leaves a four-operator Kraus map on the working qubit whose swap angle grows
as ``pi J tau``; at ``tau = (2J)^-1`` the exchange is complete and every input
collapses onto the auxiliary's thermal populations.

The map is exactly a generalized amplitude damping channel with decay
parameter ``eta = sin^2(pi J tau)`` and bias given by the auxiliary's excited
population; :func:`verify_gad_equivalence` checks that identification
numerically rather than assuming it.  The sweeps and the refrigerator cycle
use it through :func:`heat_exchange_bloch`, the closed-form map on Bloch
vectors, and the generator spectrum comes from :func:`exchange_spectrum`;
the Kraus form stays the reference both are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liouville
from .exceptions import SingularInputError, TauOutOfRangeError
from .numerics import SINGULARITY_TOL
from .operators import hermitize, validate_bloch_vectors, validate_density_matrix

#: max |sum K^dag K - I| tolerated for a channel to count as trace preserving
COMPLETENESS_TOL = 1e-12

#: max transfer-matrix deviation from the fitted damping form that passes
GAD_TOL = 1e-10

#: max population-coherence coupling of a generator that passes
DAVIES_TOL = 1e-9


@dataclass(frozen=True)
class ThermalEnvironment:
    """Thermal partner defined by its temperature and level splitting.

    ``temperature`` is ``k_B T / h`` in kHz; ``gap_frequency`` is ``nu`` in
    kHz for a partner Hamiltonian ``-2 pi nu sigma_z`` (splitting ``2 nu`` in
    h*kHz).
    """

    temperature: float
    gap_frequency: float

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ValueError(f"temperature {self.temperature} must be positive")
        if self.gap_frequency <= 0.0:
            raise ValueError(f"gap frequency {self.gap_frequency} must be positive")

    @property
    def excited_population(self) -> float:
        """Gibbs weight of the upper level, ``1 / (1 + exp(2 nu / T))``.

        At temperatures far below the gap the exponential overflows to
        ``inf``, which gives the exact limit 0; that overflow is not reported.
        """
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(2.0 * self.gap_frequency / self.temperature))

    @property
    def polarization(self) -> float:
        """Gibbs-state Bloch component ``1 - 2 p`` along the partner's axis."""
        return 1.0 - 2.0 * self.excited_population


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators."""

    operators: tuple

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        object.__setattr__(self, "operators", tuple(ops))
        completeness = np.einsum("kji,kjl->il", ops.conj(), ops)
        deviation = float(np.max(np.abs(completeness - np.eye(ops.shape[1]))))
        if deviation > COMPLETENESS_TOL:
            raise ValueError(
                f"Kraus completeness violated by {deviation:.3e} (tol {COMPLETENESS_TOL})"
            )

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def swap_window(j_hz: float) -> float:
    """Full-exchange delay ``(2J)^-1`` in ms for a coupling in Hz."""
    if j_hz <= 0.0:
        raise ValueError(f"coupling {j_hz} Hz must be positive")
    return 500.0 / j_hz


def _swap_angle(j_hz: float, taus):
    """Swap angle ``pi J tau`` in rad for delays in ms and a coupling in Hz."""
    return np.pi * (j_hz / 1000.0) * taus


def _check_delays(j_hz: float, taus) -> np.ndarray:
    """The delays as a flat float array; TauOutOfRangeError unless each lies
    in the window ``[0, (2J)^-1]`` ms, up to 1e-9 ms of rounding."""
    window = swap_window(j_hz)
    taus = np.asarray(taus, dtype=float).reshape(-1)
    outside = taus[~((taus >= -1e-9) & (taus <= window + 1e-9))]
    if outside.size:
        raise TauOutOfRangeError(
            f"tau={outside[0]} ms outside [0, {window:.6f}] ms for J={j_hz} Hz"
        )
    return taus


def build_heat_exchange(
    environment: ThermalEnvironment, j_hz: float, tau_ms: float
) -> KrausChannel:
    """Heat-exchange channel after a free-evolution delay ``tau``.

    Parameters
    ----------
    environment:
        Thermal preparation of the auxiliary qubit; its excited population
        sets the channel bias and fixed point.
    j_hz:
        Scalar coupling in Hz.
    tau_ms:
        Exchange delay in ms, restricted to ``[0, (2J)^-1]``.

    Raises
    ------
    TauOutOfRangeError
        If ``tau`` leaves the physical window.
    """
    _check_delays(j_hz, tau_ms)
    angle = _swap_angle(j_hz, tau_ms)
    c, s = np.cos(angle), np.sin(angle)
    p = environment.excited_population
    k1 = np.sqrt(1.0 - p) * np.array([[1.0, 0.0], [0.0, c]], dtype=complex)
    k2 = np.sqrt(1.0 - p) * np.array([[0.0, s], [0.0, 0.0]], dtype=complex)
    k3 = np.sqrt(p) * np.array([[c, 0.0], [0.0, 1.0]], dtype=complex)
    k4 = np.sqrt(p) * np.array([[0.0, 0.0], [-s, 0.0]], dtype=complex)
    return KrausChannel(operators=(k1, k2, k3, k4))


def heat_exchange_bloch(
    environment: ThermalEnvironment,
    j_hz: float,
    bloch: np.ndarray,
    tau_grid: np.ndarray,
) -> np.ndarray:
    """Bloch vectors after every delay of the heat exchange, in closed form.

    The channel of :func:`build_heat_exchange` is generalized amplitude
    damping, so on the Bloch vector it is the affine map
    ``x, y -> c x, c y`` and ``z -> z_eq + (z - z_eq) c^2`` with
    ``c = cos(pi J tau)`` and ``z_eq`` the partner's
    :attr:`~ThermalEnvironment.polarization`.
    ``bloch`` has shape ``(..., 3)`` and ``tau_grid`` shape ``(n,)``; the
    result has shape ``(..., n, 3)``.  Inputs and outputs get the positivity
    bound :func:`apply_channel` puts on states.

    Raises
    ------
    TauOutOfRangeError
        If any delay leaves the physical window.
    """
    taus = _check_delays(j_hz, tau_grid)
    r = validate_bloch_vectors(bloch)
    return validate_bloch_vectors(_exchange_bloch(environment.polarization, j_hz, r, taus))


def _exchange_bloch(
    z_eq: float, j_hz: float, r: np.ndarray, taus: np.ndarray
) -> np.ndarray:
    """The map of :func:`heat_exchange_bloch` without its checks: ``r``
    ``(..., 3)`` floats, ``taus`` a flat array of delays already in the window."""
    r = r[..., np.newaxis, :]
    c = np.cos(_swap_angle(j_hz, taus))
    out = np.empty(r.shape[:-2] + (taus.size, 3))
    out[..., :2] = r[..., :2] * c[:, np.newaxis]
    out[..., 2] = z_eq + (r[..., 2] - z_eq) * c**2
    return out


def exchange_spectrum(
    environment: ThermalEnvironment, j_hz: float, tau_ms: float
) -> tuple:
    """Generator spectrum and fixed point of the heat exchange, in closed form.

    The exchange at delay ``tau`` scales coherences by ``c = cos(pi J tau)``
    and population offsets by ``c^2`` (see :func:`heat_exchange_bloch`), so
    its generator has the eigenvalues ``0``, ``ln(c)/tau`` twice (the
    coherences) and ``2 ln(c)/tau`` (the population offset), in 1/ms.  They
    are returned as a float array in the sort order of
    :func:`liouville.decompose`, together with the fixed-point populations
    ``(1 + z_eq)/2, (1 - z_eq)/2`` of the partner's
    :attr:`~ThermalEnvironment.polarization`.

    ``ln c`` is taken as ``log1p(-t^2) - log1p(t^2)`` with ``t = tan(x/2)``,
    which keeps full relative precision at short delays, where ``log(cos x)``
    rounds ``cos x`` to 1.

    Raises
    ------
    TauOutOfRangeError
        If ``tau`` is not positive or leaves the physical window.
    SingularInputError
        If ``c^2`` falls below the threshold at which the matrix logarithm of
        :func:`liouville.extract_generator` refuses the channel.
    """
    _check_delays(j_hz, tau_ms)
    if not tau_ms > 0.0:
        raise TauOutOfRangeError(f"channel delay {tau_ms} must be positive")
    angle = _swap_angle(j_hz, tau_ms)
    c2 = np.cos(angle) ** 2
    if c2 < SINGULARITY_TOL:
        raise SingularInputError(
            f"c^2 = {c2:.3e} below {SINGULARITY_TOL} at tau = {tau_ms:g} ms; "
            "the exchange generator is singular"
        )
    t2 = np.tan(0.5 * angle) ** 2
    rate = (np.log1p(-t2) - np.log1p(t2)) / tau_ms
    z_eq = environment.polarization
    return (
        np.array([0.0, rate, rate, 2.0 * rate]),
        np.array([0.5 * (1.0 + z_eq), 0.5 * (1.0 - z_eq)]),
    )


def apply_channel(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the Kraus map to a state, or to each state in a stack ``(..., d,
    d)``, and re-validate the output."""
    rho = validate_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-10)
    ops = np.asarray(channel.operators)
    out = hermitize(np.einsum("kij,...jl,kml->...im", ops, rho, ops.conj()))
    return validate_density_matrix(out, herm_tol=1e-10, trace_tol=1e-10)


@dataclass(frozen=True)
class GadEquivalenceReport:
    """Outcome of fitting a channel to the generalized amplitude damping form."""

    eta: float
    bias: float
    max_deviation: float
    passed: bool


def verify_gad_equivalence(channel: KrausChannel) -> GadEquivalenceReport:
    """Fit the channel's action to a two-parameter damping form and compare.

    The decay parameter ``eta`` is read off the population transfer out of
    each computational basis state and the bias from the branching ratio; an
    ideal generalized-amplitude-damping transfer matrix with those parameters
    is then compared entrywise against the channel's.
    """
    if channel.dim != 2:
        raise ValueError("equivalence check is defined for qubit channels")
    ground = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    excited = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    up = float(apply_channel(channel, ground)[1, 1].real)      # eta * p
    down = float(apply_channel(channel, excited)[0, 0].real)   # eta * (1 - p)
    eta = up + down
    bias = up / eta if eta > 1e-14 else float("nan")

    if eta > 1e-14:
        ce, se = np.sqrt(max(0.0, 1.0 - eta)), np.sqrt(min(1.0, eta))
        e1 = np.sqrt(1.0 - bias) * np.array([[1.0, 0.0], [0.0, ce]], dtype=complex)
        e2 = np.sqrt(1.0 - bias) * np.array([[0.0, se], [0.0, 0.0]], dtype=complex)
        e3 = np.sqrt(bias) * np.array([[ce, 0.0], [0.0, 1.0]], dtype=complex)
        e4 = np.sqrt(bias) * np.array([[0.0, 0.0], [se, 0.0]], dtype=complex)
        ideal = liouville.transfer_matrix([e1, e2, e3, e4])
    else:
        ideal = np.eye(4, dtype=complex)
    actual = liouville.transfer_matrix(channel.operators)
    deviation = float(np.max(np.abs(actual - ideal)))
    return GadEquivalenceReport(eta, bias, deviation, deviation < GAD_TOL)


@dataclass(frozen=True)
class DaviesBlockReport:
    """Cross-coupling between population and coherence sectors of a generator."""

    max_coupling: float
    passed: bool


def verify_davies_blocks(generator: np.ndarray) -> DaviesBlockReport:
    """Check that a qubit generator decouples populations from coherences.

    The generator is read in the computational basis, which is the energy
    eigenbasis of the exchange; the population sector lives on the diagonal
    row-stacked indices ``{0, 3}``, the coherence sector on ``{1, 2}``.
    """
    gen = np.asarray(generator, dtype=complex)
    if gen.shape != (4, 4):
        raise ValueError("block check is defined for qubit generators (4 x 4)")
    pop, coh = [0, 3], [1, 2]
    coupling = max(
        float(np.max(np.abs(gen[np.ix_(pop, coh)]))),
        float(np.max(np.abs(gen[np.ix_(coh, pop)]))),
    )
    return DaviesBlockReport(coupling, coupling < DAVIES_TOL)
