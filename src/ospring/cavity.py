"""Dark-port solver and reduction of the recycled interferometer to an
effective detuned cavity.

The carrier phases of the model are pinned here.  A configuration stores
the dark-port index, the metric offset from that dark port and the carrier
detuning from the dark-port resonance; from those three numbers the carrier
imbalance phase and the carrier round-trip phase are reconstructed exactly,
so results never depend on knowing a macroscopic length to within a
fraction of a wavelength.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .params import C_LIGHT, BeamsplitterParams, InterferometerConfig, MirrorParams

NARROWBAND_WARN = 0.1
DEGENERACY_FLOOR = 1e-14


class DegenerateResonanceError(ArithmeticError):
    """Resonance denominator too close to zero for a meaningful inverse."""


class NoDarkPortError(ValueError):
    """The requested dark-output condition has no solution."""


def dark_port_phase(membrane: MirrorParams, bs: BeamsplitterParams, index: int = 1) -> float:
    """One-way imbalance phase k0*delta_l of the index-th dark output.

    Solves cos(k0*delta_l) = -(t_m/r_m) * asymmetry / sqrt(1 - asymmetry^2)
    on the branch indexed by the odd integer ``index`` (a balanced
    beamsplitter gives index * pi/2).
    """
    return _dark_port_carrier(membrane, bs, index).psi


def dark_port_offset(
    membrane: MirrorParams, bs: BeamsplitterParams, wavelength: float, index: int = 1
) -> float:
    """Arm imbalance (m) of the index-th dark output; n*wavelength/4 when balanced."""
    return dark_port_phase(membrane, bs, index) * wavelength / (2.0 * math.pi)


def imbalance_phase(config: InterferometerConfig) -> float:
    """Exact carrier imbalance phase k0*delta_l of the operating point."""
    return (
        dark_port_phase(config.membrane, config.bs, config.dark_port_index)
        + config.geometry.wavenumber * config.offset
    )


class _DarkPort(NamedTuple):
    """Dark-port constants of the carrier; ``tau_coef``, ``w_re`` and ``w_im`` are the
    coefficients of :func:`_excess`."""

    p: complex  # exp(i*psi_dp)
    rho2: complex
    u: complex  # rho2_dp/|rho2_dp|, the carrier phase the round trip is pinned to
    psi: float
    tau_coef: complex
    w_re: complex
    w_im: complex
    beta1: complex  # (tm*rho2_dp + 2*rb*tb)/rm, the detector-port sum on the dark port


@lru_cache(maxsize=128)
def _dark_port_carrier(membrane: MirrorParams, bs: BeamsplitterParams, index: int) -> _DarkPort:
    """The constants of the index-th dark port, from its condition rather than
    from the double psi_dp, whose rounding would rotate the excess z.

    p_dp = (cos, sin)(psi_dp) takes the cosine the condition fixes and the
    sign of the sine from the branch, and psi_dp (:func:`dark_port_phase`) is
    the branch's arccosine of it.  With a the beamsplitter asymmetry,
    tb^2 - rb^2 = a, tb^2 + rb^2 = 1 and 2*rb*tb = sqrt(1 - a^2) = s, every
    other constant is a closed form in p_dp: rho2_dp = rm*(tb^2*p_dp -
    rb^2*conj(p_dp)) - tm*s = (-tm/s, rm*sin(psi_dp)), and the sums whose
    O(1) terms cancel (w's coefficients, beta1) are written without the
    cancellation.
    """
    if index < 1 or index % 2 == 0:
        raise ValueError("dark port index must be a positive odd integer")
    if membrane.reflectivity <= 0.0:
        raise NoDarkPortError("a fully transmissive membrane has no dark output")
    rm, tm = membrane.reflectivity, membrane.transmissivity
    asym = bs.asymmetry
    cosine = -(tm / rm) * asym / math.sqrt(1.0 - asym**2)
    if abs(cosine) > 1.0:
        raise NoDarkPortError(
            f"no dark output: required cosine {cosine:.6g} falls outside [-1, 1]"
        )
    sine = math.sqrt((1.0 - cosine) * (1.0 + cosine))
    if index % 4 == 1:
        psi = (index - 1) * math.pi / 2.0 + math.acos(cosine)
    else:
        psi = (index + 1) * math.pi / 2.0 - math.acos(cosine)
        sine = -sine
    p_dp = complex(cosine, sine)
    cross = math.sqrt(1.0 - asym * asym)  # 2*rb*tb
    rho2_dp = complex(-tm / cross, rm * sine)
    return _DarkPort(
        p_dp, rho2_dp, rho2_dp / abs(rho2_dp), psi,
        rm * cross * p_dp,
        rm * complex(asym * cosine, sine) / rho2_dp,  # w = w_re*Re(e) + w_im*Im(e)
        1j * rm * complex(cosine, asym * sine) / rho2_dp,
        complex((rm * rm - asym * asym) / (cross * rm), tm * sine),
    )


def expm1i(theta):
    """exp(i*theta) - 1 without the cancellation of the direct difference."""
    if isinstance(theta, float) or np.ndim(theta) == 0:  # scalar sweeps call this per point
        half = math.sin(0.5 * theta)
        return complex(-2.0 * (half * half), math.sin(theta))  # rounds as the array path
    theta = np.asarray(theta, dtype=float)
    half = 0.5 * theta
    np.sin(half, out=half)
    half *= half
    out = np.empty(theta.shape, dtype=complex)
    np.multiply(half, -2.0, out=out.real)
    out.imag = np.sin(theta)
    return out


def _compose(e_a, e_b):
    """expm1(i*(a + b)) from e_a = expm1(i*a) and e_b = expm1(i*b), without a
    transcendental call: as accurate as expm1i of the rounded sum a + b, up to
    a few ulp of e_a and e_b."""
    return e_a + e_b * (1.0 + e_a)


class _Phases(NamedTuple):
    """Operating-point factors of the exact model, resolved once per call.

    Every phase is an operating-point term plus a term odd in the sideband
    frequency omega: the membrane phase eps = k0*offset + omega*delta_l/c and
    the recycling phase phi = 2*srm_detuning*Lc/c + 2*omega*Lc/c, both taken
    from the dark-port resonance.  ``e0`` and ``e_rt`` are the expm1(i*...)
    of the operating-point terms, the carrier's own (omega = 0); the kernel
    and the spectrum add the sideband terms with :func:`_compose`.  ``tau``
    and ``w`` are the carrier's excess over the dark port, :func:`_excess` of e0.
    """

    dark: _DarkPort
    delta_l: float  # metric arm imbalance: dark-port imbalance + offset
    e0: complex  # expm1(i*k0*offset)
    e_rt: complex  # expm1(2i*srm_detuning*Lc/c)
    tau: float
    w: complex


def _phases(config: InterferometerConfig) -> _Phases:
    dark = _dark_port_carrier(config.membrane, config.bs, config.dark_port_index)
    geom = config.geometry
    e0 = expm1i(geom.wavenumber * config.offset)
    tau, w = _excess(dark, e0)
    return _Phases(
        dark,
        dark.psi * geom.wavelength / (2.0 * math.pi) + config.offset,
        e0,
        expm1i(2.0 * config.srm_detuning * geom.cavity_length / C_LIGHT),
        tau,
        w,
    )


def _excess(dark: _DarkPort, e):
    """Carrier excess over the dark port at membrane phase eps: ``(tau, w)``
    from e = expm1(i*eps).

    rho2 and tau are linear in exp(+-i*psi), so both are linear in the excess
    z = exp(i*psi) - exp(i*psi_dp) = exp(i*psi_dp)*e and in conj(z): the
    cross-coupling tau = 2*rm*rb*tb*Re(z), which vanishes on the dark port, and
    w = rho2/rho2_dp - 1 = rm*(tb^2*z - rb^2*conj(z))/rho2_dp.  Both are written
    as combinations of Re(e) and Im(e) with coefficients fixed by the dark
    port, so every complex product has a real factor and a scalar and an
    array eps round alike.
    """
    k = dark.tau_coef
    w = dark.w_re * e.real
    w += dark.w_im * e.imag
    return k.real * e.real - k.imag * e.imag, w


def _recycling_factor(config: InterferometerConfig, omega):
    """expm1(i*phi) of the recycling phase phi = 2*(srm_detuning + omega)*Lc/c,
    taken whole: srm_detuning + omega is exact where the two nearly cancel, at
    the sideband resonance."""
    phi = config.srm_detuning + omega
    phi *= 2.0
    phi *= config.geometry.cavity_length
    phi /= C_LIGHT
    return expm1i(phi)


def _denominator(config: InterferometerConfig, w, e_phi, rho):
    """The recycling denominator of :func:`resonance_denominator` from w,
    e_phi = expm1(i*phi) and rho = 1 + e_phi."""
    srm = config.srm
    denom = w * rho
    denom += e_phi
    denom *= -srm.reflectivity
    denom += srm.reflection_deficit
    if isinstance(denom, complex):
        degenerate = abs(denom) < DEGENERACY_FLOOR
    else:
        degenerate = (np.abs(denom) < DEGENERACY_FLOOR).any()
    if degenerate:
        raise DegenerateResonanceError("resonance denominator vanishes on the grid")
    return denom


def resonance_denominator(config: InterferometerConfig, omega):
    """1 - R_sr * rho2(k) * exp(2ik*cavity_length) for sideband frequency omega.

    Broadcasts over omega and array ``offset`` and ``srm_detuning``.  Near
    resonance the denominator is a small difference of O(1) numbers, so it is
    assembled from small quantities only: with rho2 = rho2_dp*(1 + w)
    (|rho2_dp| = 1 for a lossless interferometer, w from :func:`_excess` at
    the membrane phase eps = k0*offset + omega*delta_l/c) and the carrier
    round trip pinned to arg(rho2_dp),

        denom = (1 - R_sr) - R_sr*(w*exp(i*phi) + expm1(i*phi)),

    where 1 - R_sr = T_sr^2/(1 + R_sr) and phi = 2*(srm_detuning + omega)*Lc/c.
    """
    ph = _phases(config)
    om = np.asarray(omega, dtype=float)
    geom = config.geometry
    _, w = _excess(ph.dark, expm1i(geom.wavenumber * config.offset + om / C_LIGHT * ph.delta_l))
    e_phi = _recycling_factor(config, om)
    return _denominator(config, w, e_phi, 1.0 + e_phi)


_BLOCK = 8192


def _blockwise(fn, length: int, row_cells: int = 1):
    """The tuple of arrays ``fn(slice(None))``, evaluated as ``fn(rows)`` on
    slices of its leading axis of ``length`` rows, ``row_cells`` cells each:
    a sweep's leading axis (:func:`_sweep_blockwise`), or a map's offset rows.

    fn is elementwise along that axis, so the values are those of one call.
    Blocks of about ``_BLOCK`` cells (at least one row) go into outputs
    allocated once; a block's temporaries are reused from the allocator's
    free lists, while whole-length ones are handed fresh pages: a 5.4e4-point
    kernel call faulted in about 3,600 pages when it ran whole, 435 in blocks.
    """
    step = max(1, _BLOCK // row_cells)
    if length <= step:
        return fn(slice(None))
    outs = None
    for start in range(0, length, step):
        rows = slice(start, start + step)
        parts = fn(rows)
        if outs is None:
            outs = tuple(np.empty((length,) + part.shape[1:], dtype=part.dtype) for part in parts)
        for out, part in zip(outs, parts):
            out[rows] = part
    return outs


@dataclass(frozen=True)
class EffectiveCavity:
    """Detuning and half-linewidth decomposition of the effective cavity.

    ``half_linewidth`` is the narrow-band sum of the recycling-mirror and
    membrane contributions; ``half_linewidth_exact`` is c*(1 - R_sr*|rho2|)/(2*Lc),
    formed as c*(T_sr^2/(1 + R_sr) + R_sr*tau^2/(1 + |rho2|))/(2*Lc) with |rho2| =
    sqrt(1 - tau^2).  Fields are arrays where the offset or ``srm_detuning`` is one;
    the two sums are properties, so no field repeats another.
    """

    srm_detuning: float
    membrane_detuning: float
    half_linewidth_exact: float
    srm_half_linewidth: float
    membrane_half_linewidth: float

    @property
    def detuning(self):
        """Total detuning, srm_detuning + membrane_detuning."""
        return self.srm_detuning + self.membrane_detuning

    @property
    def half_linewidth(self):
        """Narrow-band half-linewidth, srm_half_linewidth + membrane_half_linewidth."""
        return self.srm_half_linewidth + self.membrane_half_linewidth

    @classmethod
    def from_rates(
        cls,
        srm_half_linewidth: float,
        membrane_half_linewidth: float,
        detuning: float = 0.0,
        membrane_detuning: float = 0.0,
    ) -> "EffectiveCavity":
        """Synthetic cavity from its rate decomposition (for sweeps and tests)."""
        return cls(
            srm_detuning=detuning - membrane_detuning,
            membrane_detuning=membrane_detuning,
            half_linewidth_exact=srm_half_linewidth + membrane_half_linewidth,
            srm_half_linewidth=srm_half_linewidth,
            membrane_half_linewidth=membrane_half_linewidth,
        )


def _membrane_detuning(config: InterferometerConfig, w):
    """The membrane detuning c*arg(1 + w)/(2*Lc) of the carrier's w."""
    return C_LIGHT * np.arctan2(w.imag, 1.0 + w.real) / (2.0 * config.geometry.cavity_length)


def effective_cavity(config: InterferometerConfig) -> EffectiveCavity:
    """Reduce the operating point to effective-cavity detunings and linewidths;
    broadcasts over an array ``offset`` and ``srm_detuning``.

    gamma_m comes from tau^2 and the membrane detuning from
    arg(rho2/rho2_dp) = arg(1 + w), both the carrier's (:class:`_Phases`).
    """
    lc = config.geometry.cavity_length
    srm = config.srm
    ph = _phases(config)
    tau, w = ph.tau, ph.w
    tau_sq = tau * tau
    if srm.transmissivity**2 > NARROWBAND_WARN or np.count_nonzero(tau_sq > NARROWBAND_WARN):
        # attributed to this line, so the default filter shows it once per process
        warnings.warn(
            "narrow-band decomposition is unreliable: recycling-mirror or "
            "interferometer power transmittance exceeds 0.1"
        )

    gamma_sr = C_LIGHT * srm.transmissivity**2 / (4.0 * lc)
    gamma_m = C_LIGHT * tau_sq / (4.0 * lc)
    deficit = srm.reflection_deficit + srm.reflectivity * tau_sq / (1.0 + np.sqrt(1.0 - tau_sq))
    membrane_detuning = _membrane_detuning(config, w)

    return EffectiveCavity(
        srm_detuning=config.srm_detuning,
        membrane_detuning=membrane_detuning,
        half_linewidth_exact=C_LIGHT * deficit / (2.0 * lc),
        srm_half_linewidth=gamma_sr,
        membrane_half_linewidth=gamma_m,
    )


def with_total_detuning(config: InterferometerConfig, detuning) -> InterferometerConfig:
    """Configuration whose total cavity detuning equals ``detuning``.

    The membrane contribution is fixed by the offset, so the recycling
    tuning absorbs the difference in a single pass.  An array ``detuning``
    gives an array ``srm_detuning``: one configuration for the whole sweep.
    Only the membrane detuning is formed, not the whole reduction, and the
    copy is not validated again: no check of the configuration reads
    ``srm_detuning``, so ``dataclasses.replace`` would only repeat them.
    """
    membrane_detuning = _membrane_detuning(config, _phases(config).w)
    return _replace(config, srm_detuning=detuning - membrane_detuning)


def _replace(config: InterferometerConfig, **fields) -> InterferometerConfig:
    """A copy of ``config`` with ``fields`` replaced, not validated again."""
    copy = object.__new__(type(config))
    copy.__dict__.update(vars(config), **fields)
    return copy


def small_offset_expansion(config: InterferometerConfig):
    """Quadratic-in-offset laws for the membrane linewidth and detuning.

    Only valid for a balanced beamsplitter.  Returns
    ``(membrane_half_linewidth, membrane_detuning, sign)`` where the
    detuning sign alternates between consecutive dark ports, positive for
    index 1, 5, 9, ...
    """
    if config.bs.asymmetry != 0.0:
        raise ValueError("quadratic offset laws require a balanced beamsplitter")
    geom = config.geometry
    rm, tm = config.membrane.reflectivity, config.membrane.transmissivity
    phase = geom.wavenumber * config.offset
    sign = 1.0 if config.dark_port_index % 4 == 1 else -1.0
    gamma_m = C_LIGHT * rm**2 * phase**2 / (4.0 * geom.cavity_length)
    delta_m = sign * C_LIGHT * rm * tm * phase**2 / (4.0 * geom.cavity_length)
    return gamma_m, delta_m, sign


def _sweep_blockwise(fn, config: InterferometerConfig, omega):
    """The tuple ``fn(config, omega)``, through :func:`_blockwise` along the
    leading axis of the broadcast of omega, ``offset`` and ``srm_detuning``:
    each block slices those of the three that span that axis, so fn resolves
    the operating point of its own rows.  Scalar inputs, found by a type
    check cheaper than the broadcast, are one direct call."""
    offset, detuning = config.offset, config.srm_detuning
    if isinstance(omega, float) and isinstance(offset, float) and isinstance(detuning, float):
        return fn(config, omega)
    shape = np.broadcast(omega, offset, detuning).shape or (1,)  # 0-d arrays: one row

    def block(rows):
        om, x, d = (v[rows] if np.ndim(v) == len(shape) and len(v) == shape[0] else v
                    for v in (omega, offset, detuning))
        return fn(_replace(config, offset=x, srm_detuning=d), om)

    return _blockwise(block, shape[0], math.prod(shape[1:]))
