"""Heat-exchange Kraus channel between a qubit and a thermally prepared partner.

The channel models a working qubit coupled to an auxiliary qubit through a
``sigma_z sigma_z`` scalar coupling of strength ``J``, with the auxiliary
freshly prepared in a Gibbs state before each run.  Tracing the auxiliary out
leaves a four-operator Kraus map on the working qubit whose swap angle grows
as ``pi J tau``; at ``tau = (2J)^-1`` the exchange is complete and every input
collapses onto the auxiliary's thermal populations.

The map is exactly a generalized amplitude damping channel with decay
parameter ``eta = sin^2(pi J tau)`` and bias given by the auxiliary's excited
population, written here in that form; ``verify`` (``dilation-agreement``)
derives it from the collision itself, a partial swap with the Gibbs
auxiliary, rather than assuming it.  On Bloch vectors it is the affine map
``x, y -> c x, c y`` and ``z -> z_eq + (z - z_eq) c^2`` with ``c = cos(pi J
tau)`` and ``z_eq`` the partner's :attr:`~ThermalEnvironment.polarization`,
written once, on Bloch components, in :func:`_exchange_components`, for
numpy planes and for the refrigerator cycle's Python floats
(:func:`otto.run_cycle`, with ``math.cos``).  The partner's Gibbs numbers
are Python floats as well: :attr:`~ThermalEnvironment.excited_population`
converts numpy's exponential, and :func:`build_heat_exchange` takes its
cosine, sine and weights from ``math``, which gives numpy's bits for them.
:func:`_exchange_grid` checks the delays and the start and maps every
(state, delay) pair, for the sweeps' planes.  The generator spectrum comes
from :func:`exchange_spectrum`; the Kraus form stays the reference all of
these are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SingularInputError, TauOutOfRangeError
from .numerics import SINGULARITY_TOL, _identity
from .operators import hermitize, validate_bloch_vectors, validate_density_matrix

#: max |sum K^dag K - I| tolerated for a channel to count as trace preserving
COMPLETENESS_TOL = 1e-12

#: rounding slack in ms allowed at both ends of the delay window
_DELAY_SLACK = 1e-9

#: exponent up to which ``np.exp`` stays finite (the edge is ln(max float),
#: about 709.7827)
_EXP_FINITE = 709.78


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
        # a NaN fails every comparison, so it fails these too
        if not 0.0 < self.temperature < math.inf:
            raise ValueError(f"temperature {self.temperature} must be positive and finite")
        if not 0.0 < self.gap_frequency < math.inf:
            raise ValueError(f"gap frequency {self.gap_frequency} must be positive and finite")

    @property
    def excited_population(self) -> float:
        """Gibbs weight of the upper level, ``1 / (1 + exp(2 nu / T))``, as a
        Python float.

        The exponential is numpy's (``math.exp`` rounds differently in the
        last bit), converted to a Python float before the rest of the
        formula, which rounds alike on both.  At temperatures far below the
        gap it overflows to ``inf``, which gives the exact limit 0; that
        overflow is not reported.  Below the overflow edge no error state is
        set up, which saves its cost on every call.
        """
        x = 2.0 * self.gap_frequency / self.temperature
        if x <= _EXP_FINITE:
            boltzmann = np.exp(x)
        else:
            with np.errstate(over="ignore"):
                boltzmann = np.exp(x)
        return 1.0 / (1.0 + float(boltzmann))

    @property
    def polarization(self) -> float:
        """Gibbs-state Bloch component ``1 - 2 p`` along the partner's axis,
        a Python float."""
        return 1.0 - 2.0 * self.excited_population


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators.

    ``operators`` is kept as one read-only complex ``(k, d, d)`` array, which
    iterates as the ``k`` operators.  Channels compare and hash by identity.
    """

    operators: np.ndarray

    def __post_init__(self):
        ops = np.array(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or not ops.size:
            raise ValueError(
                f"Kraus operators must be a non-empty (k, d, d) stack, got shape {ops.shape}"
            )
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)
        # sum_k K_k^dag K_k is the Gram matrix of the operators' stacked rows
        d = ops.shape[1]
        stacked = ops.reshape(-1, d)
        completeness = stacked.conj().T @ stacked
        deviation = float(np.abs(completeness - _identity(d)).max())
        if deviation > COMPLETENESS_TOL:
            raise ValueError(
                f"Kraus completeness violated by {deviation:.3e} (tol {COMPLETENESS_TOL})"
            )


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
    in the window ``[0, (2J)^-1]`` ms, up to :data:`_DELAY_SLACK` of
    rounding.  The grids of the sweeps come through here; a caller with one
    delay uses :func:`_check_delay`."""
    window = swap_window(j_hz)
    taus = np.asarray(taus, dtype=float).reshape(-1)
    inside = (taus >= -_DELAY_SLACK) & (taus <= window + _DELAY_SLACK)
    if not inside.all():
        raise _delay_error(float(taus[~inside][0]), window, j_hz)
    return taus


def _check_delay(tau: float, window: float, j_hz: float) -> None:
    """TauOutOfRangeError, as :func:`_check_delays` raises it, unless the one
    delay ``tau`` lies in ``window``, the swap window of the coupling
    ``j_hz``.  The comparisons are made on a Python float, which skips
    numpy's fixed cost per call."""
    tau = float(tau)
    # a NaN fails both comparisons, so it fails this too
    if not -_DELAY_SLACK <= tau <= window + _DELAY_SLACK:
        raise _delay_error(tau, window, j_hz)


def _delay_error(tau: float, window: float, j_hz: float) -> TauOutOfRangeError:
    """The refusal of the delay ``tau`` outside ``window``."""
    return TauOutOfRangeError(f"tau={tau} ms outside [0, {window:.6f}] ms for J={j_hz} Hz")


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
    _check_delay(tau_ms, swap_window(j_hz), j_hz)
    angle = _swap_angle(j_hz, tau_ms)
    # math's cos, sin and sqrt on Python floats have the bits of numpy's
    c, s = math.cos(angle), math.sin(angle)
    p = environment.excited_population
    # one array holding each weight times each nonzero entry; the products
    # are of real numbers, so they have the bits of the matrix-times-weight form
    low, high = math.sqrt(1.0 - p), math.sqrt(p)
    ops = np.zeros((4, 2, 2), dtype=complex)
    ops[0, 0, 0], ops[0, 1, 1] = low, low * c
    ops[1, 0, 1] = low * s
    ops[2, 0, 0], ops[2, 1, 1] = high * c, high
    ops[3, 1, 0] = high * -s
    return KrausChannel(operators=ops)


def _exchange_grid(
    environment: ThermalEnvironment, j_hz: float, bloch: np.ndarray, taus
) -> tuple:
    """Bloch vectors ``bloch`` ``(..., 3)`` after every delay of ``taus``, as
    unchecked planes ``x``, ``y``, ``z`` of shape ``(..., n)``; the delays are
    checked first, then the start."""
    taus = _check_delays(j_hz, taus)
    r = validate_bloch_vectors(bloch)
    c = np.cos(_swap_angle(j_hz, taus))
    x, y, z = np.moveaxis(r, -1, 0)[..., np.newaxis]  # (..., 1), broadcast with c
    return _exchange_components(environment.polarization, c, x, y, z)


def _exchange_components(z_eq: float, c, x, y, z) -> tuple:
    """The exchange's Bloch map on each component, unchecked: ``x c``, ``y c``
    and ``z_eq + (z - z_eq) c^2`` for the cosine ``c = cos(pi J tau)``.  The
    components and ``c`` are numpy arrays that broadcast together or Python
    floats alike; ``c * c`` rather than ``c ** 2``, which on floats goes
    through libm's ``pow``."""
    return x * c, y * c, z_eq + (z - z_eq) * (c * c)


def exchange_spectrum(
    environment: ThermalEnvironment, j_hz: float, tau_ms: float
) -> tuple:
    """Generator spectrum and fixed point of the heat exchange, in closed form.

    The exchange at delay ``tau`` scales coherences by ``c = cos(pi J tau)``
    and population offsets by ``c^2`` (see :func:`_exchange_components`), so
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
    _check_delay(tau_ms, swap_window(j_hz), j_hz)
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
    ops = channel.operators
    out = hermitize(np.einsum("kij,...jl,kml->...im", ops, rho, ops.conj()))
    return validate_density_matrix(out, herm_tol=1e-10, trace_tol=1e-10)

