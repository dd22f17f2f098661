"""Zero-crossing analysis, regime classification and closed-loop stability.

The stability question is settled twice, independently: once through the
Routh table of the degree-4 closed-loop characteristic polynomial and once
through its roots.  The two verdicts must agree at every sampled point.
The polynomial is built from the narrow-band kernel, which is rational in
frequency and so gives exact real coefficients.  Polynomials, Routh
columns and verdicts broadcast over a stack of detunings, coefficients on
the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import backaction as ba
from . import cavity as cav
from .cavity import EffectiveCavity
from .params import InterferometerConfig, MechanicalOscillator, MirrorParams

REGIME_LABELS = ("cooling", "heating", "stable_spring", "unstable_spring", "neutral")
NEUTRAL_FLOOR = 1e-12
_REPORT_SCAN = 1024  # scan intervals of stability_report's zero search


class DegenerateLeadingCoefficientError(ArithmeticError):
    """The characteristic polynomial lost its leading coefficient."""


def find_zero_crossings(f, lo: float, hi: float, n_scan: int = 512, xtol: float | None = None):
    """Sign-changing zeros of a scalar function between ``lo`` and ``hi``
    (either order), sorted.

    Uniform scan followed by bracketed root refinement.  Tangential zeros
    (no sign change) are not claimed.  The default refinement tolerance is
    1e-9 of the interval's outer scale.
    """
    grid, default_xtol = _scan_grid(lo, hi, n_scan)
    if xtol is None:
        xtol = default_xtol
    elif not xtol > 0.0:
        raise ValueError(f"xtol must be positive, got {xtol!r}")
    values = np.array([f(x) for x in grid], dtype=float)
    return _sign_change_zeros(f, grid, values, xtol)


def _scan_grid(lo: float, hi: float, n_scan: int):
    """Ascending scan grid of :func:`find_zero_crossings` over the interval
    with ends ``lo`` and ``hi`` in either order, and its default tolerance."""
    if n_scan < 64:
        raise ValueError("need at least 64 scan points")
    lo, hi = sorted((lo, hi))
    return np.linspace(lo, hi, n_scan + 1), 1e-9 * max(abs(lo), abs(hi))


def _sign_change_zeros(f, grid, values, xtol: float):
    """Zeros of the scalar ``f`` where its samples ``values`` on ``grid``
    change sign, each refined to within ``xtol``; sorted."""
    if not np.all(np.isfinite(values)):
        raise ValueError("function must be finite on the scan range")

    signs = np.sign(values)
    zeros = []
    # exact zeros sitting on scan nodes count once, and only when the sign
    # flips through them (first node of a zero stretch carries the credit)
    for idx in np.flatnonzero(values == 0.0):
        if idx > 0 and values[idx - 1] == 0.0:
            continue
        before = signs[:idx][signs[:idx] != 0.0]
        after = signs[idx + 1 :][signs[idx + 1 :] != 0.0]
        if before.size and after.size and before[-1] * after[0] < 0.0:
            zeros.append(grid[idx])
    for i in np.flatnonzero(signs[:-1] * signs[1:] < 0.0):
        zeros.append(_refine_root(f, grid[i], grid[i + 1], values[i], values[i + 1], xtol))
    return np.array(sorted(zeros))


def _refine_root(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """Root of ``f`` in the bracket (a, b), where ``fa`` and ``fb`` differ in
    sign, by the Illinois variant of regula falsi.

    The value kept at an endpoint that survives two steps in a row is halved,
    which stops the stale endpoint from freezing the bracket.  A step that
    would leave the open bracket, or one that follows three steps which have
    not halved the bracket, is a bisection, so the width halves at least
    every four evaluations.  Stops when the bracket is at most ``2 * xtol``
    wide or its midpoint no longer splits it, and returns the midpoint.
    """
    a_negative = fa < 0.0  # halving may underflow fa to zero; the side stays
    kept = 0  # +1: a was kept by the last step, -1: b was
    slow = 0
    width = b - a
    while True:
        mid = 0.5 * (a + b)
        if b - a <= 2.0 * xtol or not a < mid < b:
            return float(mid)
        x = b - fb * (b - a) / (fb - fa)
        if slow >= 3 or not a < x < b:
            x = mid
        fx = float(f(x))
        if fx == 0.0:
            return float(x)
        if not np.isfinite(fx):
            raise ValueError("function must be finite on the scan range")
        if (fx < 0.0) == a_negative:
            a, fa = x, fx
            if kept < 0:
                fb *= 0.5
            kept = -1
        else:
            b, fb = x, fx
            if kept > 0:
                fa *= 0.5
            kept = 1
        if b - a <= 0.5 * width:
            width, slow = b - a, 0
        else:
            slow += 1


def characteristic_polynomial(
    cavity: EffectiveCavity,
    oscillator: MechanicalOscillator,
    membrane: MirrorParams,
    input_power: float,
    carrier_omega: float,
    cavity_length: float,
    detuning=None,
) -> np.ndarray:
    """Real coefficients (highest power first, on the last axis) of the
    degree-4 closed-loop polynomial in s obtained by multiplying the
    oscillator equation through by the kernel denominator; broadcasts over
    ``detuning``.
    """
    gamma, delta_m, delta_sr, lorentz, reduced, cross = ba._narrowband_terms(cavity, detuning)
    gain = ba._gain(membrane, input_power, carrier_omega, cavity_length)
    mass_term = oscillator.mass * lorentz
    w_sq = oscillator.resonance_frequency**2
    g_mech = oscillator.damping_rate

    return np.stack(
        [
            mass_term,
            2.0 * mass_term * (gamma + g_mech),
            mass_term * (lorentz + 4.0 * gamma * g_mech + w_sq) - gain * delta_m,
            2.0 * mass_term * (g_mech * lorentz + gamma * w_sq)
            - 2.0 * gain * cross,
            mass_term * w_sq * lorentz + gain * delta_sr * reduced,
        ],
        axis=-1,
    )


def routh_first_column(coeffs) -> np.ndarray:
    """First column of the Routh array for real polynomials (leading
    coefficient first, on the last axis); broadcasts over leading axes.

    A vanishing pivot stays in the column as a zero, and so do the entries
    below it: the table cannot be continued there, and the polynomial is
    not strictly Hurwitz.
    """
    c = np.asarray(coeffs, dtype=float)
    n = c.shape[-1]
    rows = np.concatenate([c, np.zeros(c.shape[:-1] + (n % 2 + 2,))], axis=-1)
    top, prev = rows[..., 0::2], rows[..., 1::2]  # each padded with a trailing zero
    column = [top[..., 0], prev[..., 0]]
    for _ in range(n - 2):
        pivot = prev[..., :1]
        new = np.zeros_like(prev)
        np.divide(pivot * top[..., 1:] - top[..., :1] * prev[..., 1:], pivot,
                  out=new[..., :-1], where=pivot != 0.0)
        top, prev = prev, new
        column.append(new[..., 0])
    return np.stack(column, axis=-1)


def _nondegenerate(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    # the coefficients legitimately span many orders of magnitude in SI
    # units, so only a genuinely vanishing leading term is degenerate
    if np.any(c[..., 0] == 0.0):
        raise DegenerateLeadingCoefficientError("leading coefficient vanishes")
    return c


def routh_hurwitz_stable(coeffs):
    """True iff every root of the real polynomial lies in the open left
    half-plane, by positivity of the full Routh first column; broadcasts
    over leading axes."""
    c = _nondegenerate(coeffs)
    c = np.where(c[..., :1] < 0.0, -c, c)
    return np.all(routh_first_column(c) > 0.0, axis=-1)


def roots_stable(coeffs):
    """Direct oracle: all polynomial roots strictly in the left half-plane.

    Broadcasts over leading axes: the eigenvalues of the companion matrices
    that :func:`numpy.roots` builds, in one batched call.  A zero constant
    term is a root at 0, so not stable.
    """
    c = _nondegenerate(coeffs)
    n = c.shape[-1] - 1
    companion = np.zeros(c.shape[:-1] + (n, n))
    companion[..., 1:, :-1] = np.eye(n - 1)
    companion[..., 0, :] = -c[..., 1:] / c[..., :1]
    roots = np.linalg.eigvals(companion)
    return np.all(roots.real < 0.0, axis=-1) & (c[..., -1] != 0.0)


def classify_regimes(spring, damping, spring_floor: float, damping_floor: float):
    """Sign-based regime labels with a neutral band around either zero."""
    spring = np.asarray(spring, dtype=float)
    damping = np.asarray(damping, dtype=float)
    labels = np.full(spring.shape, "neutral", dtype="U15")
    live = (np.abs(spring) >= spring_floor) & (np.abs(damping) >= damping_floor)
    labels[live & (damping > 0) & (spring > 0)] = "stable_spring"
    labels[live & (damping > 0) & (spring < 0)] = "cooling"
    labels[live & (damping < 0) & (spring > 0)] = "unstable_spring"
    labels[live & (damping < 0) & (spring < 0)] = "heating"
    return labels


def _spring_damping_sweep(
    config: InterferometerConfig, cavity: EffectiveCavity, deltas, omega_eval: float | None
):
    """Spring and damping over a detuning grid at a fixed analysis frequency,
    from the cavity that ``config`` reduces to.

    ``omega_eval`` of None or 0 selects the quasi-static limit.
    """
    args = ba._gain_inputs(config)
    deltas = np.asarray(deltas, dtype=float)
    if not omega_eval:
        return ba.spring_damping_dc(cavity, *args, detuning=deltas)
    kernel = ba.kernel_narrowband(cavity, *args, omega_eval, detuning=deltas)
    return ba.spring_damping(kernel, omega_eval)


@dataclass(frozen=True)
class StabilityReport:
    """Zero crossings, stable-spring windows and per-point verdicts over a
    detuning sweep; the two stability oracles are reported side by side."""

    deltas: np.ndarray
    spring: np.ndarray
    damping: np.ndarray
    spring_zeros: np.ndarray
    damping_zeros: np.ndarray
    stable_windows: list[tuple[float, float]]
    rh_verdicts: np.ndarray
    root_verdicts: np.ndarray
    labels: np.ndarray


def stability_report(
    config: InterferometerConfig,
    oscillator: MechanicalOscillator,
    deltas,
    omega_eval: float | None = None,
) -> StabilityReport:
    """Full detuning-sweep stability analysis at a fixed analysis frequency."""
    deltas = np.asarray(deltas, dtype=float)
    cavity = cav.effective_cavity(config)

    def sweep(d):
        return _spring_damping_sweep(config, cavity, d, omega_eval)

    def spring_of(d):
        return float(sweep(d)[0])

    def damping_of(d):
        return float(sweep(d)[1])

    # the scan and the window test are broadcasts; the kernel is rational in
    # the detuning, so their samples are the same bits the scalar functions give
    spring, damping = sweep(deltas)
    lo, hi = sorted((float(deltas[0]), float(deltas[-1])))  # window boundaries ascend
    grid, xtol = _scan_grid(lo, hi, _REPORT_SCAN)
    scan_spring, scan_damping = sweep(grid)
    spring_zeros = _sign_change_zeros(spring_of, grid, scan_spring, xtol)
    damping_zeros = _sign_change_zeros(damping_of, grid, scan_damping, xtol)

    boundaries = np.concatenate(([lo], np.sort(np.concatenate([spring_zeros, damping_zeros])), [hi]))
    starts, ends = boundaries[:-1], boundaries[1:]
    mid_spring, mid_damping = sweep(0.5 * (starts + ends))
    stable = (ends - starts > 0.0) & (mid_spring > 0.0) & (mid_damping > 0.0)
    windows = [(float(a), float(b)) for a, b in zip(starts[stable], ends[stable])]

    coeffs = characteristic_polynomial(cavity, oscillator, *ba._gain_inputs(config), deltas)
    rh = routh_hurwitz_stable(coeffs)
    direct = roots_stable(coeffs)

    labels = classify_regimes(
        spring,
        damping,
        NEUTRAL_FLOOR * np.max(np.abs(spring)),
        NEUTRAL_FLOOR * np.max(np.abs(damping)),
    )
    return StabilityReport(
        deltas, spring, damping, spring_zeros, damping_zeros, windows, rh, direct, labels
    )


@dataclass(frozen=True)
class RegimeMap:
    """Regime labels over a detuning x offset grid (rows indexed by offset)."""

    deltas: np.ndarray
    offsets: np.ndarray
    spring: np.ndarray
    damping: np.ndarray
    labels: np.ndarray


def regime_map(
    config: InterferometerConfig,
    deltas,
    offsets,
    omega_eval: float | None = None,
) -> RegimeMap:
    """Spring/damping signs over a detuning x membrane-offset grid, one row
    per offset."""
    deltas = np.asarray(deltas, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if deltas.size == 0 or offsets.size == 0:
        raise ValueError("regime map grids must be nonempty")

    grid = replace(config, offset=offsets.reshape(-1, 1))
    spring, damping = _spring_damping_sweep(grid, cav.effective_cavity(grid), deltas, omega_eval)
    labels = classify_regimes(
        spring,
        damping,
        NEUTRAL_FLOOR * np.max(np.abs(spring)),
        NEUTRAL_FLOOR * np.max(np.abs(damping)),
    )
    return RegimeMap(deltas, offsets, spring, damping, labels)
