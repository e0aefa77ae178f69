"""Qubit operators, Bloch helpers, and the unit conventions shared by all modules.

Conventions
-----------
* Frequencies in kHz, times in ms (so ``1 kHz * 1 ms = 1``), temperatures as
  ``k_B T / h`` in kHz.
* Hamiltonian matrices are kept in angular units (rad/ms): a qubit with gap
  frequency ``nu`` along ``sigma_z`` is ``H = -2 pi nu sigma_z``.  Dynamics use
  these matrices directly; thermodynamic energies divide the 2 pi back out and
  are reported in h*kHz, i.e. ``mean_energy = Tr(H rho) / (2 pi)``.
* Basis ordering: index 0 is the ground state of ``-2 pi nu sigma_z`` (the
  ``sigma_z = +1`` eigenstate).
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (a + a^dag)/2, of a matrix or of each
    matrix in a stack ``(..., d, d)``."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _scalar(value):
    """A 0-d result as a Python float or complex; arrays pass through."""
    return value.item() if np.ndim(value) == 0 else value


def qubit_hamiltonian(nu_khz: float, axis: str = "z") -> np.ndarray:
    """Angular-units qubit Hamiltonian ``-2 pi nu sigma_axis``.

    Parameters
    ----------
    nu_khz:
        Gap frequency in kHz.  The level splitting is ``2 nu`` in h*kHz.
    axis:
        One of ``"x"``, ``"y"``, ``"z"``.
    """
    try:
        pauli = PAULIS[axis]
    except KeyError:
        raise ValueError(f"unknown axis {axis!r}, expected one of 'x', 'y', 'z'") from None
    return -TWO_PI * float(nu_khz) * pauli


def mean_energy(rho: np.ndarray, hamiltonian: np.ndarray):
    """Mean energy ``Tr(H rho)`` converted from angular units to h*kHz.

    ``rho`` is one state (a float comes back) or a stack ``(..., d, d)`` (an
    array over the leading axes comes back).
    """
    return _scalar((hamiltonian @ rho).trace(axis1=-2, axis2=-1).real / TWO_PI)


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Cartesian Bloch components ``(Tr(sigma_x rho), Tr(sigma_y rho), Tr(sigma_z rho))``
    of a state, or of each state in a stack ``(..., 2, 2)`` as ``(..., 3)``."""
    return np.stack(
        [(p @ rho).trace(axis1=-2, axis2=-1).real for p in (SIGMA_X, SIGMA_Y, SIGMA_Z)],
        axis=-1,
    )


def density_from_bloch(r: np.ndarray) -> np.ndarray:
    """Qubit state from a Bloch vector with ``|r| <= 1``, or the stack
    ``(..., 2, 2)`` of states from Bloch vectors ``(..., 3)``, checked by
    :func:`validate_bloch_vectors` at ``psd_tol=5e-13``: ``|r| <= 1 + 1e-12``."""
    r = validate_bloch_vectors(r, psd_tol=5e-13)
    x, y, z = (r[..., k, np.newaxis, np.newaxis] for k in range(3))
    return 0.5 * (IDENTITY + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state ``A A^dag / Tr(A A^dag)``, ``A`` complex Gaussian."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def validate_density_matrix(
    rho: np.ndarray,
    *,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    psd_tol: float = 1e-10,
) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity; return ``rho`` unchanged.

    ``rho`` is one qubit state or a stack ``(..., 2, 2)``, checked as a whole;
    any other shape is refused.  Raises ``ValueError`` for non-finite
    entries, or naming the violated constraint and the worst deviation in the
    stack.  ``psd_tol`` bounds how negative an eigenvalue may drift before the
    state is rejected.  Every check is a closed form on the four entries
    (:func:`_qubit_deviations`), taken on Python numbers for one state and on
    arrays over the stack otherwise.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"density matrix must be square 2x2, got shape {rho.shape}")
    # refused first, so no NaN reaches a comparison below
    if not np.isfinite(rho).all():
        raise ValueError("state has non-finite entries")
    if rho.ndim == 2:
        herm, trace_dev, smallest = _qubit_deviations(*rho.ravel().tolist(), _hypot)
        herm_dev = max(herm)
    else:
        herm, trace_dev, smallest = _qubit_deviations(*rho.reshape(-1, 4).T, np.hypot)
        herm_dev = max(dev.max(initial=0.0) for dev in herm)
        trace_dev = trace_dev.max(initial=0.0)
        smallest = smallest.min(initial=np.inf)
    if herm_dev > herm_tol:
        raise ValueError(f"state is not Hermitian: max deviation {herm_dev:.3e}")
    if trace_dev > trace_tol:
        raise ValueError(f"state trace deviates from 1 by {trace_dev:.3e}")
    if smallest < -psd_tol:
        raise ValueError(f"state has negative eigenvalue {smallest:.3e}")
    return rho


def _qubit_deviations(a, b, c, d, hypot) -> tuple:
    """The checks of :func:`validate_density_matrix` on the entries ``[[a,
    b], [c, d]]``: the three distinct entries of ``|rho - rho^dag|``, the
    trace deviation ``|a + d - 1|``, and the smallest eigenvalue ``(p + q)/2
    - hypot((p - q)/2, |w|)`` of the Hermitian part, whose diagonal is ``p, q``
    (the real parts of ``a``, ``d``) and whose coherence is ``w = (b +
    conj(c))/2``.  The entries are Python complex numbers, with
    :func:`_hypot`, or arrays over a stack, with ``np.hypot``; both are libm's
    hypot, so a state gives the same bits alone and in a stack."""
    c_bar = c.conjugate()
    skew, w, t = b - c_bar, 0.5 * (b + c_bar), a + d - 1.0
    p, q = a.real, d.real
    return (
        (2.0 * abs(a.imag), 2.0 * abs(d.imag), hypot(skew.real, skew.imag)),
        hypot(t.real, t.imag),
        0.5 * (p + q) - hypot(0.5 * (p - q), hypot(w.real, w.imag)),
    )


def _hypot(u: float, v: float) -> float:
    """libm's hypot of two floats, as ``np.hypot`` takes it (``math.hypot``
    rounds differently)."""
    return abs(complex(u, v))


def validate_bloch_vectors(bloch: np.ndarray, *, psd_tol: float = 1e-10) -> np.ndarray:
    """Check an array of Bloch vectors ``(..., 3)``; return it as floats.

    The state of ``r`` has eigenvalues ``(1 +- |r|)/2``, so positivity is the
    single test ``(1 - |r|)/2 >= -psd_tol`` over the whole array, the same
    bound :func:`validate_density_matrix` puts on the smallest eigenvalue.
    """
    r = np.asarray(bloch, dtype=float)
    if r.ndim == 0 or r.shape[-1] != 3:
        raise ValueError(f"Bloch vectors need a last axis of length 3, got shape {r.shape}")
    # the sum of squares numpy.linalg.norm forms, without its dispatch; a NaN
    # or infinite component makes its square non-finite, and max carries that
    # through, so only then is the array searched for one; a finite square
    # past the float range is inf, unreported, as on Python floats
    with np.errstate(over="ignore"):
        squares = np.add.reduce(r * r, axis=-1)
    largest = float(np.maximum.reduce(squares, axis=None, initial=0.0))
    if not math.isfinite(largest) and not np.isfinite(r).all():
        raise ValueError("Bloch vectors must be finite")
    # sqrt is monotone, so the root of the largest square is the largest root
    _check_bloch_length(math.sqrt(largest), psd_tol)
    return r


def _check_bloch_length(largest: float, psd_tol: float = 1e-10) -> None:
    """The positivity bound of :func:`validate_bloch_vectors`, ``(1 - |r|)/2
    >= -psd_tol``, on the largest length ``|r|`` of an array of Bloch vectors."""
    smallest = 0.5 * (1.0 - largest)
    if smallest < -psd_tol:
        raise ValueError(f"state has negative eigenvalue {smallest:.3e}")
