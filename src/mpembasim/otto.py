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
computes them as such.  The two gap ramps rotate r about x by the angle of
:func:`ramp_unitary`.  The exchange is the generalized-amplitude-damping map
of :func:`channels.heat_exchange_bloch` with the hot partner; the reset is the
same map with the cold partner in the frame that swaps x and z (the Kraus
reset conjugated into the x eigenbasis also flips the sign of y, which
cancels because the map scales x and y alike).  A stroke's energy under
``-2 pi nu sigma_a`` is ``-nu r_a``.  The expansion ramp leaves the cold
Gibbs state unchanged, since that state lies along x; its record only
reassigns the energy from ``nu0`` to ``nu1``, as an Otto expansion should.

Every cycle emits all five records, the accelerating stroke included; when
disabled it is the identity and still bridges the bookkeeping frame from the
drive axis (x) to the exchange axis (z).  When enabled it is
:func:`mpemba.mpemba_bloch`, ``r -> (0, 0, -|r|)``, which builds no generator;
that it empties the exchange generator's slow modes is checked by ``verify``
(``slow-mode-removal``) and the tests, not per cycle.  Boundary energies are
evaluated so consecutive records share the same axis and state at each
junction, which makes the closed-cycle energy balance telescope to zero at
machine precision.  A cycle checks its two exchange delays together and its
five resulting Bloch vectors together, once each.  Records hold those Bloch
vectors; :attr:`StrokeRecord.state_after` builds the 2x2 density matrix each
time it is read, so a cycle whose matrices nobody reads builds none.  The
tests check every record against the stroke sequence on 2x2 density matrices
through Kraus channels.  :func:`power_ratio` forms all 40 ratios at once and
refuses one below 1 there, so its :class:`PowerReport` rows, like the stroke
records, are plain named tuples.  Energies are in h*kHz, times in ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .channels import ThermalEnvironment, _check_delays, _exchange_bloch, swap_window
from .exceptions import NoAdvantageError, ThresholdUnreachableError
from .mpemba import _pulse_bloch, cooling_curves
from .operators import IDENTITY, SIGMA_X, TWO_PI, density_from_bloch, \
    validate_bloch_vectors
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
    """

    nu0: float = 1.0
    nu1: float = 2.0
    j_hz: float = 215.1
    t_hot: float = 4.77
    t_cold: float = 2.38
    tau1: float = 0.1
    tau_bar: float = 4.65
    use_mpemba: bool = True

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


def _ramp_bloch(
    r: np.ndarray, nu_start: float, nu_end: float, duration: float
) -> np.ndarray:
    """Bloch vector after :func:`ramp_unitary`, a rotation about x."""
    phi = 2.0 * _ramp_phase(nu_start, nu_end, duration)
    c, s = np.cos(phi), np.sin(phi)
    return np.array([r[0], c * r[1] + s * r[2], c * r[2] - s * r[1]])


def _expanded_cold_state(cfg: CycleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors of the cold Gibbs state before and after the expansion."""
    env_cold = ThermalEnvironment(temperature=cfg.t_cold, gap_frequency=cfg.nu0)
    r0 = np.array([env_cold.polarization, 0.0, 0.0])
    return r0, _ramp_bloch(r0, cfg.nu0, cfg.nu1, cfg.tau1)


def run_cycle(cfg: CycleConfig, tau2: float) -> list:
    """Execute one full cycle and return its five stroke records.

    ``tau2`` is the exchange delay of the tunable stroke, restricted to the
    swap window; ``TauOutOfRangeError`` is raised for one outside it.  The
    reset exchanges for the full window.  The strokes run through the
    unchecked kernels of :func:`channels.heat_exchange_bloch` and
    :func:`mpemba.mpemba_bloch`, and their five results are then validated
    together.
    """
    reset = swap_window(cfg.j_hz)
    taus = _check_delays(cfg.j_hz, (tau2, reset))
    r0, r1 = _expanded_cold_state(cfg)
    r2 = _pulse_bloch(r1) if cfg.use_mpemba else r1
    env_hot = ThermalEnvironment(temperature=cfg.t_hot, gap_frequency=cfg.nu1)
    r3 = _exchange_bloch(env_hot.polarization, cfg.j_hz, r2, taus[:1])[0]
    r4 = _ramp_bloch(r3, cfg.nu1, cfg.nu0, cfg.tau1)
    # the reset exchanges along x with the cold partner, whose polarization
    # r0[0] already holds: reversing (x, y, z) swaps x and z, and the map
    # scales x and y alike, so y needs no sign flip
    r5 = _exchange_bloch(r0[0], cfg.j_hz, r4[::-1], taus[1:])[0][::-1]
    states = validate_bloch_vectors(np.array([r1, r2, r3, r4, r5]))

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
    durations = (cfg.tau1, 0.0, tau2, cfg.tau1, reset)
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
    the accelerating unitary, over a grid of tau2 delays."""
    r_plain = _expanded_cold_state(cfg)[1]
    env_hot = ThermalEnvironment(temperature=cfg.t_hot, gap_frequency=cfg.nu1)
    return tuple(
        cooling_curves(r_plain, env_hot, cfg.j_hz, tau2_grid, flag)
        for flag in (False, True)
    )


def threshold_times(
    curves: tuple[RelaxationTrajectory, RelaxationTrajectory],
    delta: float | np.ndarray,
) -> tuple:
    """Earliest delays at which each curve first comes down to ``delta``.

    ``delta`` is one threshold or an array of them.  One threshold gives two
    floats; an array gives two arrays of its shape, from one grid check and
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

    tau_plain, tau_mb = first_reach(plain), first_reach(mb)
    if levels.ndim == 0:
        return float(tau_plain), float(tau_mb)
    return tau_plain, tau_mb


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
