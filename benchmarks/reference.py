"""Closed-form reference check: the benchmark's correctness gate.

Everything here is computed from the model's closed forms with numpy alone;
nothing is imported from ``mpembasim``.  The exchange channel is generalized
amplitude damping (Nielsen & Chuang, section 8.3.5), so on the Bloch vector
it acts as

    x, y -> c x, c y        z -> z_eq + (z - z_eq) c^2,

with ``c = cos(pi J tau)`` (J in Hz, tau in ms, hence the factor 1/1000) and
``z_eq = tanh(nu / T)`` the Bloch component of the Gibbs state of
``-2 pi nu sigma_z`` at temperature ``T``.  Trace distance to the target is
``|r - r_eq| / 2`` and the free energy follows from the eigenvalues
``(1 +- |r|) / 2``.

Every ``check_*`` function returns a list of problem strings; an empty list
means the output matches.  :func:`selftest` feeds the checks deliberately
wrong outputs and reports any the checks let through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: absolute tolerance for sweep observables (tables carry 12 digits)
SWEEP_TOL = 1e-9

#: cycle closure to the cold Gibbs state, the bound ``verify`` uses
CLOSURE_TOL = 1e-10

#: closed-cycle energy balance, the bound ``verify`` uses
ENERGY_TOL = 1e-8

#: relative tolerance on generator eigenvalues extracted by logm
SPECTRUM_TOL = 1e-8


@dataclass(frozen=True)
class Model:
    """The physical parameters a check needs, in the package's units."""

    nu0: float
    nu1: float
    j_hz: float
    t_hot: float
    t_cold: float
    tau_bar: float
    populations: tuple = (0.3, 0.7)

    @property
    def window(self) -> float:
        """Full-exchange delay ``(2J)^-1`` in ms."""
        return 500.0 / self.j_hz

    @property
    def z_hot(self) -> float:
        """Bloch z of the hot-exchange fixed point."""
        return math.tanh(self.nu1 / self.t_hot)

    @property
    def r_cold(self) -> float:
        """Bloch x of the cold Gibbs state the cycle starts from and closes on."""
        return math.tanh(self.nu0 / self.t_cold)

    def cos(self, tau):
        return np.cos(np.pi * (self.j_hz / 1000.0) * np.asarray(tau, dtype=float))


def gad(model: Model, r: np.ndarray, tau) -> np.ndarray:
    """Bloch vectors ``r`` (..., 3) after the hot exchange of delay ``tau``."""
    r = np.asarray(r, dtype=float)
    c = model.cos(tau)
    z_eq = model.z_hot
    return np.stack(
        [c * r[..., 0], c * r[..., 1], z_eq + (r[..., 2] - z_eq) * c * c], axis=-1
    )


def entropy(norm) -> np.ndarray:
    """Von Neumann entropy (nats) of a qubit with Bloch length ``norm``."""
    out = np.zeros_like(np.asarray(norm, dtype=float))
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * np.asarray(norm, dtype=float))
        live = p > 1e-15
        out = out - np.where(live, p * np.log(np.where(live, p, 1.0)), 0.0)
    return out


def f_neq(r: np.ndarray, nu: float, temperature: float) -> np.ndarray:
    """Free energy (kHz) of Bloch vectors under ``-2 pi nu sigma_z``."""
    r = np.asarray(r, dtype=float)
    return -nu * r[..., 2] - temperature * entropy(np.linalg.norm(r, axis=-1))


def hot_excess(model: Model, r: np.ndarray) -> np.ndarray:
    """Free-energy excess over the hot Gibbs state."""
    equilibrium = f_neq(np.array([0.0, 0.0, model.z_hot]), model.nu1, model.t_hot)
    return f_neq(r, model.nu1, model.t_hot) - equilibrium


def hot_distance(model: Model, r: np.ndarray) -> np.ndarray:
    """Trace distance to the hot Gibbs state, ``|r - r_eq| / 2``."""
    r = np.asarray(r, dtype=float)
    return 0.5 * np.linalg.norm(r - np.array([0.0, 0.0, model.z_hot]), axis=-1)


def base_bloch(model: Model) -> np.ndarray:
    """Base state of ``surface`` and ``cooling``: weights on the x eigenstates."""
    p0, p1 = model.populations
    return np.array([p0 - p1, 0.0, 0.0])


def inverted(r: np.ndarray) -> np.ndarray:
    """The accelerating unitary's output: largest population on the upper
    level of ``-2 pi nu sigma_z``, i.e. Bloch ``(0, 0, -|r|)``."""
    return np.array([0.0, 0.0, -float(np.linalg.norm(r))])


def tau_grid(model: Model, steps: int) -> np.ndarray:
    return np.linspace(0.0, model.window, steps)


# -- expected tables --------------------------------------------------------


def expected_surface(model: Model, theta_steps: int, tau_steps: int) -> dict:
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_steps)
    taus = tau_grid(model, tau_steps)
    x = base_bloch(model)[0]
    # rotation about y by theta: (x, 0, 0) -> (x cos, 0, -x sin)
    states = np.stack(
        [x * np.cos(thetas), np.zeros_like(thetas), -x * np.sin(thetas)], axis=-1
    )
    evolved = gad(model, states[:, None, :], taus[None, :])
    return {
        "theta_rad": np.repeat(thetas, taus.size),
        "tau_ms": np.tile(taus, thetas.size),
        "delta_f_neq_khz": hot_excess(model, evolved).ravel(),
    }


def expected_cooling(model: Model, tau_steps: int) -> dict:
    taus = tau_grid(model, tau_steps)
    plain = gad(model, base_bloch(model), taus)
    mb = gad(model, inverted(base_bloch(model)), taus)
    return {
        "tau_ms": taus,
        "delta_f_plain_khz": hot_excess(model, plain),
        "delta_f_mb_khz": hot_excess(model, mb),
        "dist_plain": hot_distance(model, plain),
        "dist_mb": hot_distance(model, mb),
    }


def cycle_start(model: Model) -> np.ndarray:
    """Exchange-stroke input without the pulse: the expansion ramp rotates
    about x, which leaves the x-aligned cold Gibbs state unchanged."""
    return np.array([model.r_cold, 0.0, 0.0])


def expected_distance(model: Model, tau_steps: int) -> dict:
    taus = tau_grid(model, tau_steps)
    start = cycle_start(model)
    return {
        "tau2_ms": taus,
        "dist_plain": hot_distance(model, gad(model, start, taus)),
        "dist_mb": hot_distance(model, gad(model, inverted(start), taus)),
    }


def crossing_time(model: Model) -> float:
    """Closed-form crossing of the exchange-stroke distance curves (ms)."""
    r_c, r_h = model.r_cold, model.z_hot
    return math.acos(math.sqrt(r_c / (r_c + 2.0 * r_h))) / (
        math.pi * model.j_hz / 1000.0
    )


def threshold_times(model: Model, delta: np.ndarray) -> tuple:
    """Exact first delays at which each distance curve comes down to ``delta``.

    With ``u = c^2``: plain ``4 delta^2 = u r_c^2 + u^2 r_h^2`` and
    accelerated ``2 delta = u (r_c + r_h)``; both curves fall monotonically
    on the swap window.
    """
    delta = np.asarray(delta, dtype=float)
    r_c, r_h = model.r_cold, model.z_hot
    u_plain = (-(r_c**2) + np.sqrt(r_c**4 + 16.0 * delta**2 * r_h**2)) / (
        2.0 * r_h**2
    )
    u_mb = 2.0 * delta / (r_c + r_h)
    rate = math.pi * model.j_hz / 1000.0

    def time_of(u):
        return np.arccos(np.sqrt(np.clip(u, 0.0, 1.0))) / rate

    return time_of(u_plain), time_of(u_mb)


def expected_spectrum(model: Model, tau: float) -> tuple:
    """Generator eigenvalues in the package's sort order, and the fixed point
    populations, of the hot exchange at delay ``tau``."""
    rate = math.log(float(model.cos(tau))) / tau
    eigenvalues = np.array([0.0, rate, rate, 2.0 * rate])
    return eigenvalues, np.array([0.5 * (1 + model.z_hot), 0.5 * (1 - model.z_hot)])


# -- checks -----------------------------------------------------------------


def _show(value: complex) -> str:
    return repr(value.real) if value.imag == 0 else repr(value)


def _compare(name: str, got, want, tol: float) -> list:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{name}: non-finite values"]
    worst = np.abs(got - want)
    if worst.size and float(worst.max()) > tol:
        k = int(np.argmax(worst))
        return [
            f"{name}: row {k} is {_show(got.ravel()[k])}, closed form "
            f"{_show(want.ravel()[k])} (|diff| {worst.max():.3e} > {tol:g})"
        ]
    return []


def check_table(name: str, table: dict, expected: dict, tol: float = SWEEP_TOL) -> list:
    """Compare every column of a parsed table with its closed form."""
    if set(table) != set(expected):
        return [f"{name}: columns {sorted(table)}, expected {sorted(expected)}"]
    problems = []
    for column, want in expected.items():
        problems += _compare(f"{name}.{column}", table[column], want, tol)
    return problems


def check_crossing(model: Model, t_cross, grid_step: float) -> list:
    """The reported crossing must sit within one grid step of the closed form."""
    want = crossing_time(model)
    if t_cross is None or not abs(t_cross - want) <= grid_step:
        return [
            f"crossing at {t_cross!r} ms, closed form {want:.9f} ms "
            f"(allowed one grid step, {grid_step:.3e} ms)"
        ]
    return []


def check_ratio(model: Model, table: dict, grid_step: float) -> list:
    """Power-ratio rows: exact threshold times to grid resolution, the ratio
    formula to 1e-9 and no ratio below one."""
    columns = {"delta", "tau2_plain_ms", "tau2_mb_ms", "ratio"}
    if set(table) != columns:
        return [f"otto-ratio: columns {sorted(table)}, expected {sorted(columns)}"]
    plain, mb = threshold_times(model, table["delta"])
    ratio = (model.tau_bar + table["tau2_plain_ms"]) / (
        model.tau_bar + table["tau2_mb_ms"]
    )
    problems = _compare("otto-ratio.tau2_plain_ms", table["tau2_plain_ms"], plain, grid_step)
    problems += _compare("otto-ratio.tau2_mb_ms", table["tau2_mb_ms"], mb, grid_step)
    problems += _compare("otto-ratio.ratio", table["ratio"], ratio, SWEEP_TOL)
    if table["ratio"].size == 0 or float(table["ratio"].min()) < 1.0 - 1e-12:
        problems.append("otto-ratio: empty table or a ratio below 1")
    return problems


def check_spectrum(model: Model, tau: float, eigenvalues, fixed_populations) -> list:
    """Sorted generator eigenvalues and fixed-point populations at delay ``tau``."""
    want, populations = expected_spectrum(model, tau)
    got = np.asarray(eigenvalues, dtype=complex)
    scale = SPECTRUM_TOL * max(1.0, float(np.abs(want).max()))
    problems = _compare("spectrum.re", got.real, want, scale)
    problems += _compare("spectrum.im", got.imag, np.zeros(4), scale)
    problems += _compare("spectrum.fixed_point", fixed_populations, populations, SWEEP_TOL)
    return problems


def density(r) -> np.ndarray:
    """Density matrix ``(I + r . sigma) / 2`` of a Bloch vector."""
    x, y, z = r
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def check_cycle(model: Model, tau2: float, with_pulse: bool, final, exchanged, energy) -> list:
    """One cycle: closure to the cold Gibbs state, the energy balance, and the
    exchange-stroke output against the damping map."""
    start = cycle_start(model)
    if with_pulse:
        start = inverted(start)
    tag = "cycle(pulse)" if with_pulse else "cycle"
    closure = float(np.abs(np.asarray(final) - density(cycle_start(model))).max())
    problems = []
    if not closure <= CLOSURE_TOL:
        problems.append(f"{tag}: closure defect {closure:.3e} > {CLOSURE_TOL:g}")
    if not abs(energy) <= ENERGY_TOL:
        problems.append(f"{tag}: energy balance {energy:.3e} > {ENERGY_TOL:g}")
    problems += _compare(
        f"{tag}.exchange", exchanged, density(gad(model, start, tau2)), SWEEP_TOL
    )
    return problems


# -- self-test of the gate ---------------------------------------------------


def selftest() -> list:
    """Feed the checks wrong outputs; return the ones they failed to catch.

    Also confirms that exact closed-form outputs pass, so a check that
    rejects everything is caught too.
    """
    model = Model(1.0, 2.0, 215.1, 4.77, 2.38, 4.65, (0.3, 0.7))
    step = model.window / 63
    missed = []

    def expect(label: str, problems: list, should_fail: bool) -> None:
        if bool(problems) != should_fail:
            verdict = "accepted" if should_fail else "rejected"
            missed.append(f"{label} was {verdict}: {problems}")

    # one evolved state pushed off the damping map by 1e-6 along z
    cooling = expected_cooling(model, 16)
    bent = gad(model, base_bloch(model), tau_grid(model, 16)[5]) + np.array([0.0, 0.0, 1e-6])
    perturbed = {key: value.copy() for key, value in cooling.items()}
    perturbed["delta_f_plain_khz"][5] = hot_excess(model, bent)
    perturbed["dist_plain"][5] = hot_distance(model, bent)
    expect("perturbed state", check_table("cooling", perturbed, cooling), True)

    surface = expected_surface(model, 7, 9)
    perturbed = dict(surface, delta_f_neq_khz=surface["delta_f_neq_khz"].copy())
    perturbed["delta_f_neq_khz"][17] += 1e-7
    expect("perturbed surface row", check_table("surface", perturbed, surface), True)

    distance = expected_distance(model, 64)
    swapped = dict(distance, dist_mb=distance["dist_plain"])
    expect("swapped distance curves", check_table("otto-distance", swapped, distance), True)

    t_cross = crossing_time(model)
    expect("exact crossing", check_crossing(model, t_cross + 0.5 * step, step), False)
    expect("wrong crossing", check_crossing(model, 0.87, step), True)
    expect("missing crossing", check_crossing(model, None, step), True)

    # thresholds on the advantage window, where the pulse reaches them first
    late = np.linspace(t_cross, model.window, 5)
    deltas = hot_distance(model, gad(model, cycle_start(model), late))
    plain, mb = threshold_times(model, deltas)
    table = {
        "delta": deltas,
        "tau2_plain_ms": plain,
        "tau2_mb_ms": mb,
        "ratio": (model.tau_bar + plain) / (model.tau_bar + mb),
    }
    expect("exact ratio table", check_ratio(model, table, step), False)
    below_one = dict(table, ratio=np.full_like(table["ratio"], 0.99))
    expect("ratio below one", check_ratio(model, below_one, step), True)

    eigenvalues, populations = expected_spectrum(model, 1.0)
    expect("exact spectrum", check_spectrum(model, 1.0, eigenvalues, populations), False)
    expect("shifted spectrum", check_spectrum(model, 1.0, eigenvalues * 1.001, populations), True)

    gibbs = density(cycle_start(model))
    exchanged = density(gad(model, cycle_start(model), 1.0))
    expect("closed cycle", check_cycle(model, 1.0, False, gibbs, exchanged, 0.0), False)
    opened = gibbs + 1e-8 * np.eye(2)
    expect("open cycle", check_cycle(model, 1.0, False, opened, exchanged, 0.0), True)
    expect("energy leak", check_cycle(model, 1.0, False, gibbs, exchanged, 1e-6), True)
    return missed
