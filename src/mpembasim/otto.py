"""Qubit Otto refrigerator with an optional accelerating unitary.

Stroke layout and bookkeeping
-----------------------------
One cycle runs: gap expansion along x (nu0 -> nu1), an optional accelerating
unitary into the exchange stroke's energy basis, a tunable heat-exchange
stroke of delay tau2 against the hot-gap auxiliary, the reversed compression
ramp, and a full-window exchange with the cold environment that resets the
medium to the cold Gibbs state.  The enum labels the strokes by their role
in the cycle: COOLING is the tunable stroke (it drains the working medium's
excited population through the large gap), HOT_RESET the closing reset.

Every stroke is an affine map of the Bloch vector r, and :func:`run_cycle`
computes them as such, on the three components as Python floats, through
the expressions the sweeps run on numpy planes.  Every number the strokes
read is a Python float too: the partners' polarizations convert numpy's
Gibbs weight (:attr:`channels.ThermalEnvironment.excited_population`), so
no stroke does numpy-scalar arithmetic.  The two gap ramps rotate r
about x by the same angle, that of :func:`ramp_unitary`, whose cosine and
sine the config derives once (:attr:`CycleConfig.ramp`, read by
:func:`_ramp_bloch`).  The exchange is the generalized-amplitude-damping map
on Bloch components, :func:`channels._exchange_components`, with the hot
partner :attr:`CycleConfig.hot`; the reset is the same map with the cold
partner in the frame that swaps x and z (the Kraus reset conjugated into
the x eigenbasis also flips the sign of y, which cancels because the map
scales x and y alike).  The cold partner's polarization,
:attr:`CycleConfig.z_cold`, is also the x component of the cold Gibbs state
the cycle starts from.  A stroke's energy under ``-2 pi nu sigma_a`` is
``-nu r_a``.  The expansion ramp leaves the cold Gibbs state unchanged, since
that state lies along x; its record only reassigns the energy from ``nu0`` to
``nu1``, as an Otto expansion should.

Every cycle emits all five records, the accelerating stroke included; when
disabled it is the identity and still bridges the bookkeeping frame from the
drive axis (x) to the exchange axis (z).  When enabled it is
:func:`mpemba.mpemba_bloch`, ``r -> (0, 0, -|r|)`` (:func:`mpemba._pulse_z`
on the components), which builds no generator;
that it empties the exchange generator's slow modes is checked by ``verify``
(``slow-mode-removal``) and the tests, not per cycle.  Boundary energies are
evaluated so consecutive records share the same axis and state at each
junction, which makes the closed-cycle energy balance telescope to zero at
machine precision.  A cycle checks its tunable delay once, against
:attr:`CycleConfig.window` (the reset's delay is the window itself), and
bounds its five resulting Bloch vectors on the floats: the largest length,
summed in numpy's order, goes through
:func:`operators._check_bloch_length`, the bound of
:func:`operators.validate_bloch_vectors`, with its two refusals.  Records
hold those Bloch vectors, as rows of one ``(5, 3)`` array built for them;
:attr:`StrokeRecord.state_after` builds the 2x2 density matrix each time it
is read, so a cycle whose matrices nobody reads builds none.  The tests
check every record against the stroke sequence on 2x2 density matrices
through Kraus channels.  :func:`power_ratio` forms all 40 ratios at once and
refuses one below 1 there, so its :class:`PowerReport` rows, like the stroke
records, are plain named tuples.  The pair of distance curves it reads,
plain and pulsed, comes from :func:`distance_curves`, that is from one
:func:`mpemba.cooling_curves` call, so both run on the sweeps' component
planes, with no cycle per delay.  Energies are in h*kHz, times in ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .channels import ThermalEnvironment, _check_delay, _exchange_components, \
    _swap_angle, swap_window
from .exceptions import NoAdvantageError, ThresholdUnreachableError
from .mpemba import _pulse_z, cooling_curves
from .operators import IDENTITY, SIGMA_X, TWO_PI, _check_bloch_length, density_from_bloch
from .thermo import RelaxationTrajectory, _check_same_grid, detect_crossing

#: slack for "curve reached the threshold" comparisons
THRESHOLD_TOL = 1e-12


class StrokeName(Enum):
    EXPANSION = "expansion"
    MPEMBA = "mpemba"
    COOLING = "cooling"
    COMPRESSION = "compression"
    HOT_RESET = "hot_reset"


#: the strokes in cycle order; iterating the enum class itself is slower
_STROKES = tuple(StrokeName)


@dataclass(frozen=True)
class CycleConfig:
    """Cycle parameters; frequencies in kHz, coupling in Hz, times in ms.

    The compression ramp takes ``tau1``, as the expansion does, and the reset
    takes the full exchange window; the accelerating pulse is instantaneous.
    ``tau_bar`` is the fixed per-cycle overhead used in the power ratio; it is
    deliberately a free knob rather than being derived from the stroke times.

    Construction checks the parameters and derives, once, the values the
    strokes read: ``window``, the swap window ``(2J)^-1`` in ms; ``hot``, the
    hot partner ``ThermalEnvironment(t_hot, nu1)``; ``z_cold``, the x
    component of the cold Gibbs state; and ``ramp``, the cosine and sine of
    the Bloch rotation that both gap ramps share.  They are not parameters,
    and :func:`dataclasses.replace` derives them afresh.
    """

    nu0: float = 1.0
    nu1: float = 2.0
    j_hz: float = 215.1
    t_hot: float = 4.77
    t_cold: float = 2.38
    tau1: float = 0.1
    tau_bar: float = 4.65
    use_mpemba: bool = True
    window: float = field(init=False, repr=False, compare=False)
    hot: ThermalEnvironment = field(init=False, repr=False, compare=False)
    z_cold: float = field(init=False, repr=False, compare=False)
    ramp: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        numbers = (
            self.nu0, self.nu1, self.j_hz, self.t_hot, self.t_cold, self.tau1,
            self.tau_bar,
        )
        if not np.all(np.isfinite(numbers)):
            raise ValueError(f"cycle parameters must be finite, got {numbers}")
        if not 0.0 < self.nu0 < self.nu1:
            raise ValueError(f"need nu1 > nu0 > 0, got {self.nu0}, {self.nu1}")
        if self.t_hot <= 0.0 or self.t_cold <= 0.0:
            raise ValueError("temperatures must be positive")
        if min(self.j_hz, self.tau1, self.tau_bar) <= 0.0:
            raise ValueError("coupling and stroke times must be positive")
        # the swap window, the hot field and the ramp angle must be finite at
        # the edges of the float range
        window = swap_window(self.j_hz)
        if not math.isfinite(window):
            raise ValueError(f"J {self.j_hz!r} Hz is too small: 500 / J overflows")
        if not math.isfinite(2.0 * TWO_PI * self.nu1):
            raise ValueError(f"nu1 {self.nu1!r} kHz is too large: 4 pi nu1 overflows")
        angle = 2.0 * _ramp_phase(self.nu0, self.nu1, self.tau1)
        if not math.isfinite(angle):
            raise ValueError(
                f"nu1 {self.nu1!r} kHz and tau1 {self.tau1!r} ms are too large: "
                "the ramp angle 2 pi (nu0 + nu1) tau1 overflows"
            )
        cold = ThermalEnvironment(temperature=self.t_cold, gap_frequency=self.nu0)
        hot = ThermalEnvironment(temperature=self.t_hot, gap_frequency=self.nu1)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "hot", hot)
        object.__setattr__(self, "z_cold", cold.polarization)
        object.__setattr__(self, "ramp", (math.cos(angle), math.sin(angle)))


class StrokeRecord(NamedTuple):
    """One stroke: its boundary energies (h*kHz) and the Bloch vector of the
    medium after it."""

    name: StrokeName
    duration: float
    energy_in: float
    energy_out: float
    bloch_after: np.ndarray

    @property
    def state_after(self) -> np.ndarray:
        """Density matrix of :attr:`bloch_after`, built on each read."""
        return density_from_bloch(self.bloch_after)


class PowerReport(NamedTuple):
    """Threshold times and cycle-power ratio at one trace-distance target."""

    delta: float
    tau2_plain: float
    tau2_mb: float
    ratio: float


def _ramp_phase(nu_start: float, nu_end: float, duration: float) -> float:
    """Phase ``2 pi * (nu_start + nu_end)/2 * duration`` of a linear gap ramp."""
    if duration <= 0.0:
        raise ValueError(f"ramp duration {duration} must be positive")
    return TWO_PI * 0.5 * (nu_start + nu_end) * duration


def ramp_unitary(nu_start: float, nu_end: float, duration: float) -> np.ndarray:
    """Exact propagator of a linear gap ramp along the drive axis x.

    The Hamiltonian stays proportional to ``sigma_x`` throughout, so the
    time-ordered evolution collapses to a single rotation by the angle
    ``2 pi * (nu_start + nu_end)/2 * duration``.
    """
    phi = _ramp_phase(nu_start, nu_end, duration)
    return np.cos(phi) * IDENTITY + 1j * np.sin(phi) * SIGMA_X


def _ramp_bloch(r, ramp: tuple) -> tuple:
    """Bloch components after :func:`ramp_unitary`, a rotation about x, of
    the components ``r``: three floats or a ``(3,)`` array.  ``ramp`` is the
    cosine and sine of the Bloch rotation angle, :attr:`CycleConfig.ramp`."""
    c, s = ramp
    x, y, z = r
    return x, c * y + s * z, c * z - s * y


def run_cycle(cfg: CycleConfig, tau2: float) -> list:
    """Execute one full cycle and return its five stroke records.

    ``tau2`` is the exchange delay of the tunable stroke, restricted to the
    swap window; ``TauOutOfRangeError`` is raised for one outside it.  The
    reset exchanges for the full window.  The strokes run on the Bloch
    components as Python floats, through the unchecked kernels the sweeps
    share, :func:`channels._exchange_components`, :func:`mpemba._pulse_z` and
    :func:`_ramp_bloch`.  The largest length of their five results is then
    bounded as :func:`operators.validate_bloch_vectors` bounds an array, with
    its messages: ``ValueError`` for a non-finite component or a length past
    ``1 + 2e-10``.  The records hold the results as ``(3,)`` arrays.
    """
    # the reset delay is the window itself, so only tau2 needs the check
    _check_delay(tau2, cfg.window, cfg.j_hz)
    r0 = (cfg.z_cold, 0.0, 0.0)
    r1 = _ramp_bloch(r0, cfg.ramp)
    r2 = (0.0, 0.0, _pulse_z(*r1)) if cfg.use_mpemba else r1
    c = math.cos(_swap_angle(cfg.j_hz, tau2))
    r3 = _exchange_components(cfg.hot.polarization, c, *r2)
    r4 = _ramp_bloch(r3, cfg.ramp)
    # the reset exchanges along x with the cold partner: reversing (x, y, z)
    # swaps x and z, and the map scales x and y alike, so y needs no sign flip
    c = math.cos(_swap_angle(cfg.j_hz, cfg.window))
    r5 = _exchange_components(cfg.z_cold, c, *r4[::-1])[::-1]
    vectors = (r1, r2, r3, r4, r5)
    # the checks of operators.validate_bloch_vectors, on the floats: each
    # length summed in numpy's order over a length-3 axis, (x^2 + y^2) + z^2;
    # a NaN or infinite component makes the sum of the squares non-finite,
    # and only then are the components searched for one
    squares = [(x * x + y * y) + z * z for x, y, z in vectors]
    if not math.isfinite(sum(squares)) and not all(
        math.isfinite(value) for vector in vectors for value in vector
    ):
        raise ValueError("Bloch vectors must be finite")
    # no square is NaN now, so max is defined; sqrt is monotone, so the root
    # of the largest square is the largest length
    _check_bloch_length(math.sqrt(max(squares)))

    # energy -nu r_axis at each junction between strokes; neighbours share
    # it, so the MPEMBA record also bridges the frame from the drive axis (x)
    # to the exchange axis (z)
    junctions = [
        float(energy)
        for energy in (
            -cfg.nu0 * r0[0], -cfg.nu1 * r1[0], -cfg.nu1 * r2[2],
            -cfg.nu1 * r3[2], -cfg.nu0 * r4[0], -cfg.nu0 * r5[0],
        )
    ]
    durations = (cfg.tau1, 0.0, tau2, cfg.tau1, cfg.window)
    states = np.array(vectors)
    return list(
        map(StrokeRecord._make, zip(_STROKES, durations, junctions, junctions[1:], states))
    )


def energy_balance(records: Sequence[StrokeRecord]) -> float:
    """Net boundary-energy change over the records; 0 for a closed cycle."""
    return float(sum(r.energy_out - r.energy_in for r in records))


def distance_curves(
    cfg: CycleConfig, tau2_grid: Sequence[float]
) -> tuple[RelaxationTrajectory, RelaxationTrajectory]:
    """Exchange-stroke trace distance to the hot target, without and with
    the accelerating unitary, over a grid of tau2 delays: the pair
    ``(plain, pulsed)`` of :func:`mpemba.cooling_curves` from the expanded
    cold Gibbs state."""
    r_plain = _ramp_bloch((cfg.z_cold, 0.0, 0.0), cfg.ramp)
    return cooling_curves(r_plain, cfg.hot, cfg.j_hz, tau2_grid)


def threshold_times(
    curves: tuple[RelaxationTrajectory, RelaxationTrajectory],
    delta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Earliest delays at which each curve first comes down to each
    threshold of the array ``delta``.

    The result is two arrays of ``delta``'s shape, from one grid check and
    one pass over each curve.  Times are linearly interpolated between grid
    points.  A threshold the curve never reaches raises
    ThresholdUnreachableError naming the first such threshold; one already
    met at the first grid point reports that point's time.
    """
    plain, mb = curves
    _check_same_grid(plain, mb)
    levels = np.asarray(delta, dtype=float)
    flat = levels.reshape(-1)

    def first_reach(trajectory: RelaxationTrajectory) -> np.ndarray:
        values = trajectory.trace_dist
        times = trajectory.times
        reached = values <= flat[:, None] + THRESHOLD_TOL
        i = np.argmax(reached, axis=1)
        missing = ~reached[np.arange(flat.size), i]
        if missing.any():
            raise ThresholdUnreachableError(
                f"delta={flat[missing][0]:.6g} below the curve minimum {values.min():.6g}"
            )
        # at i == 0 the step from i - 1 (clipped to 0) is flat, so a threshold
        # met at the first point or on a flat step reports that grid point
        before = np.maximum(i - 1, 0)
        v0, v1 = values[before], values[i]
        t0, t1 = times[before], times[i]
        steep = v0 - v1 > THRESHOLD_TOL
        t = t0 + (t1 - t0) * (v0 - flat) / np.where(steep, v0 - v1, 1.0)
        return np.where(steep, np.minimum(t, t1), t1).reshape(levels.shape)

    return first_reach(plain), first_reach(mb)


def default_delta_grid(
    curves: tuple[RelaxationTrajectory, RelaxationTrajectory]
) -> np.ndarray:
    """40 thresholds spanning the advantage window, crossing point to full swap.

    The values are the plain curve's own heights on that window, so every
    delta is reached by both curves and the accelerated branch is never the
    slower one.
    """
    plain, mb = curves
    crossing = detect_crossing(mb, plain, observable="trace_dist")
    if not crossing.exists:
        raise ThresholdUnreachableError(
            "distance curves do not cross; no advantage window to sample"
        )
    sample_times = np.linspace(crossing.t_cross, plain.times[-1], 40)
    return np.interp(sample_times, plain.times, plain.trace_dist)


def power_ratio(cfg: CycleConfig, tau2_grid: Sequence[float]) -> list:
    """Cycle-power ratio with/without the accelerating stroke per threshold.

    The ratio is ``(tau_bar + tau2_plain) / (tau_bar + tau2_mb)``, at the 40
    thresholds of :func:`default_delta_grid` on the distance curves over
    ``tau2_grid``.  All 40 threshold delays come from one
    :func:`threshold_times` call, and the ratios are formed element by
    element.  A ratio below ``1 - 1e-12`` raises NoAdvantageError naming the
    first such delta.
    """
    curves = distance_curves(cfg, tau2_grid)
    deltas = default_delta_grid(curves)
    tau2_plain, tau2_mb = threshold_times(curves, deltas)
    ratios = (cfg.tau_bar + tau2_plain) / (cfg.tau_bar + tau2_mb)
    below = ratios < 1.0 - 1e-12
    if below.any():
        k = np.argmax(below)
        raise NoAdvantageError(
            f"ratio {ratios[k].item()} below 1; delta {deltas[k].item()} lies outside "
            "the advantage window"
        )
    rows = zip(deltas.tolist(), tau2_plain.tolist(), tau2_mb.tolist(), ratios.tolist())
    return list(map(PowerReport._make, rows))
