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
_LABELS = np.array(REGIME_LABELS, dtype="U15")
_NEUTRAL = REGIME_LABELS.index("neutral")


class DegenerateLeadingCoefficientError(ArithmeticError):
    """The characteristic polynomial lost its leading coefficient."""


def find_zero_crossings(f, lo: float, hi: float, n_scan: int = 512, xtol: float | None = None):
    """Sign-changing zeros of a scalar function between ``lo`` and ``hi``
    (either order), sorted: the scan for functions without a polynomial form.

    Each sign change on a uniform grid of ``n_scan`` intervals is refined by
    :func:`_refine_root`, by default to 1e-9 of the interval's outer scale; a
    run of exact zeros on the grid counts once, at its first node.  Zeros
    closer together than the grid step can be missed, and tangential zeros
    (no sign change) are not claimed.  :func:`stability_report` takes its
    zeros from polynomial roots instead.
    """
    if n_scan < 64:
        raise ValueError("need at least 64 scan points")
    lo, hi = sorted((lo, hi))
    if xtol is None:
        xtol = 1e-9 * max(abs(lo), abs(hi))
    elif not xtol > 0.0:
        raise ValueError(f"xtol must be positive, got {xtol!r}")
    grid = np.linspace(lo, hi, n_scan + 1)
    values = np.array([f(x) for x in grid], dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("function must be finite on the scan range")
    live = np.flatnonzero(values)
    before, after = live[:-1], live[1:]
    flips = np.sign(values[before]) * np.sign(values[after]) < 0.0
    return np.array([
        grid[i + 1] if j > i + 1 else _refine_root(f, grid[i], grid[j], values[i], values[j], xtol)
        for i, j in zip(before[flips], after[flips])
    ])


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


def _peak(x):
    """The largest magnitude of a curve, max(max x, -min x), without an
    ``np.abs`` temporary of the curve's size; NaN if the curve has a NaN."""
    return np.maximum(np.max(x), -np.min(x))


def _neutral_floors(spring, damping):
    """``NEUTRAL_FLOOR`` times the peak of each curve (NaN if it has a NaN)."""
    return [NEUTRAL_FLOOR * _peak(x) for x in (spring, damping)]


def _regime_codes(spring, damping, spring_floor, damping_floor) -> np.ndarray:
    """Indices into ``REGIME_LABELS`` (uint8): neutral where either curve is
    zero, NaN or below its floor in magnitude, else cooling, heating,
    stable_spring or unstable_spring as 2*(spring > 0) + (damping < 0)."""
    live = (np.abs(spring) >= spring_floor) & (np.abs(damping) >= damping_floor)
    live &= (spring != 0.0) & (damping != 0.0)
    return np.where(live, 2 * (spring > 0.0) + (damping < 0.0), _NEUTRAL).astype(np.uint8)


def _require_linewidth(cavity: EffectiveCavity) -> None:
    """Reject a cavity with a half-linewidth that is not positive anywhere
    (per offset row of a map): lorentz = gamma^2 + delta^2 vanishes on
    resonance and the narrow-band laws divide by it."""
    if not np.all(cavity.half_linewidth > 0.0):
        raise ValueError("the narrow-band laws need a positive half-linewidth")


def _spring_damping_sweep(
    config: InterferometerConfig, cavity: EffectiveCavity, deltas, omega_eval: float | None
):
    """Spring and damping over a detuning grid at a fixed analysis frequency,
    from the cavity that ``config`` reduces to.

    ``omega_eval`` of None or 0 selects the quasi-static limit.
    """
    args = ba._gain_inputs(config)
    if not omega_eval:
        return ba.spring_damping_dc(cavity, *args, detuning=deltas)
    kernel = ba.kernel_narrowband(cavity, *args, omega_eval, detuning=deltas)
    return ba.spring_damping(kernel, omega_eval)


def _numerator_roots(cavity: EffectiveCavity, omega_eval: float | None, lo: float, hi: float):
    """Real parts in (lo, hi), ascending and distinct, of the roots of the
    narrow-band spring and damping numerators in the total detuning.

    In x = delta/gamma, with the terms of ``backaction._narrowband_terms`` in
    units of gamma, the kernel at w = omega_eval/gamma is (A + 2iw*cross) /
    (C - 2iw) over lorentz, A = delta_sr*reduced + delta_m*w^2 and C =
    lorentz - w^2.  The spring numerator A*C - 4w^2*cross is a quintic, or
    at w = 0 the cubic A; the damping one, A + cross*C, is a cubic.
    """
    gamma = cavity.half_linewidth
    g, m = cavity.membrane_half_linewidth / gamma, cavity.membrane_detuning / gamma
    w_sq = (omega_eval / gamma) ** 2 if omega_eval else 0.0
    lorentz = np.array([1.0, 0.0, 1.0])  # coefficients highest power first
    delta_sr = np.array([1.0, -m])
    cross = np.polyadd(g * delta_sr, [cavity.srm_half_linewidth / gamma * m])
    reduced = np.polyadd(lorentz, [-4.0 * m, -4.0 * g])
    a = np.polyadd(np.convolve(delta_sr, reduced), [m * w_sq])
    c = np.polysub(lorentz, [w_sq])
    spring = np.polysub(np.convolve(a, c), 4.0 * w_sq * cross) if w_sq else a
    damping = np.polyadd(a, np.convolve(cross, c))
    roots = [np.roots(n).real * gamma for n in (spring, damping)]
    # distinct: a complex pair gives one node; + 0.0: a root at 0 reads 0, not -0
    return [np.array(sorted(set(x[(lo < x) & (x < hi)] + 0.0))) for x in roots]


class _Coded:
    """A result that stores its regimes as uint8 ``codes`` into ``REGIME_LABELS``."""

    @property
    def labels(self) -> np.ndarray:
        """The regime label strings (dtype ``U15``), built from the codes on
        each access."""
        return _LABELS[self.codes]


@dataclass(frozen=True)
class StabilityReport(_Coded):
    """Zero crossings, stable-spring windows and per-point verdicts over a
    detuning sweep, the two stability oracles side by side, and per point a
    uint8 regime code into ``REGIME_LABELS``."""

    deltas: np.ndarray
    spring: np.ndarray
    damping: np.ndarray
    spring_zeros: np.ndarray
    damping_zeros: np.ndarray
    stable_windows: list[tuple[float, float]]
    rh_verdicts: np.ndarray
    root_verdicts: np.ndarray
    codes: np.ndarray


def stability_report(
    config: InterferometerConfig,
    oscillator: MechanicalOscillator,
    deltas,
    omega_eval: float | None = None,
) -> StabilityReport:
    """Full detuning-sweep stability analysis at a fixed analysis frequency.

    A zero is a root of a narrow-band numerator (the denominators are
    positive) across which the curve's sign flips, so a tangential zero is
    not claimed.  A stable-spring window is a run where both are positive.
    """
    deltas = np.asarray(deltas, dtype=float)
    cavity = cav.effective_cavity(config)
    _require_linewidth(cavity)
    spring, damping = _spring_damping_sweep(config, cavity, deltas, omega_eval)

    lo, hi = sorted((float(deltas[0]), float(deltas[-1])))  # window boundaries ascend
    nodes = _numerator_roots(cavity, omega_eval, lo, hi)
    # a curve's flips use its signs between its own roots, so copies of a shared
    # root that round apart leave no 0 beside either; windows use all the roots
    edges = [np.concatenate(([lo], n, [hi])) for n in nodes]
    edges.append(np.array(sorted(set(np.concatenate(edges)))))  # np.unique imports numpy.ma
    mids = [0.5 * (e[:-1] + e[1:]) for e in edges]
    signs = np.sign(_spring_damping_sweep(config, cavity, np.concatenate(mids), omega_eval))
    spring_own, damping_own, both = np.split(signs, np.cumsum([m.size for m in mids])[:2], axis=-1)
    spring_zeros = nodes[0][spring_own[0, :-1] * spring_own[0, 1:] < 0.0]
    damping_zeros = nodes[1][damping_own[1, :-1] * damping_own[1, 1:] < 0.0]
    runs = np.flatnonzero(np.diff(np.concatenate(([False], np.all(both > 0.0, axis=0), [False]))))
    windows = [(float(edges[2][i]), float(edges[2][j])) for i, j in zip(runs[0::2], runs[1::2])]

    coeffs = characteristic_polynomial(cavity, oscillator, *ba._gain_inputs(config), deltas)
    rh = routh_hurwitz_stable(coeffs)
    direct = roots_stable(coeffs)

    codes = _regime_codes(spring, damping, *_neutral_floors(spring, damping))
    return StabilityReport(
        deltas, spring, damping, spring_zeros, damping_zeros, windows, rh, direct, codes
    )


@dataclass(frozen=True)
class RegimeMap(_Coded):
    """Regimes over a detuning x offset grid (rows indexed by offset): the
    spring and damping, and per cell a uint8 code into ``REGIME_LABELS``."""

    deltas: np.ndarray
    offsets: np.ndarray
    spring: np.ndarray
    damping: np.ndarray
    codes: np.ndarray


def regime_map(
    config: InterferometerConfig,
    deltas,
    offsets,
    omega_eval: float | None = None,
) -> RegimeMap:
    """Spring/damping signs over a detuning x membrane-offset grid, one row
    per offset.

    The whole offset column is reduced once; the spring and damping are
    evaluated, and then classified, in blocks of offset rows
    (:func:`ospring.cavity._blockwise`), so that beside the two float64 and
    one uint8 per cell of the result the map holds one block's temporaries.
    """
    deltas = np.asarray(deltas, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if deltas.size == 0 or offsets.size == 0:
        raise ValueError("regime map grids must be nonempty")

    grid = replace(config, offset=offsets.reshape(-1, 1))
    cavity = cav.effective_cavity(grid)
    _require_linewidth(cavity)
    fields = vars(cavity)

    def sweep(rows):
        part = EffectiveCavity(**{k: v[rows] if np.ndim(v) else v for k, v in fields.items()})
        return _spring_damping_sweep(grid, part, deltas, omega_eval)

    spring, damping = cav._blockwise(sweep, offsets.size, deltas.size)
    floors = _neutral_floors(spring, damping)
    codes = cav._blockwise(
        lambda rows: (_regime_codes(spring[rows], damping[rows], *floors),),
        offsets.size, deltas.size,
    )[0]
    return RegimeMap(deltas, offsets, spring, damping, codes)
