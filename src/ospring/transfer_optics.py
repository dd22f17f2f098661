"""Two-port transfer-matrix algebra for the folded interferometer.

Port convention: index 0 is the laser port, index 1 the detector port.
Matrices are plain (2, 2) complex numpy arrays acting on column vectors of
field amplitudes.  Element matrices are real (Stokes form); the overall
field phase is a gauge choice and never observable.

Two phase conventions coexist:

* raw: propagation phases computed literally as k times a macroscopic
  length.  Used for algebraic identities (unitarity, energy closure) where
  the absolute phase is irrelevant.
* tuned: carrier phases split off and pinned by the operating point (see
  :mod:`ospring.cavity`), with only the sideband part k -> omega/c taken
  from the macroscopic lengths.  Used for every physical observable.
"""

from __future__ import annotations

import numpy as np

from .params import BeamsplitterParams, Geometry, MirrorParams

# diag(1, -1): difference of the squared fields on the two membrane faces
SIGMA3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])

DEGENERACY_FLOOR = 1e-14


class DegenerateResonanceError(ArithmeticError):
    """Resonance denominator too close to zero for a meaningful inverse."""


def beamsplitter_matrix(bs: BeamsplitterParams) -> np.ndarray:
    """[[t, -r], [r, t]] with the real sign convention."""
    r, t = bs.reflectivity, bs.transmissivity
    return np.array([[t, -r], [r, t]], dtype=complex)


def membrane_matrix(membrane: MirrorParams) -> np.ndarray:
    """[[-r, t], [t, r]] with the real sign convention."""
    r, t = membrane.reflectivity, membrane.transmissivity
    return np.array([[-r, t], [t, r]], dtype=complex)


def propagation_matrices(geom: Geometry, k: float):
    """Raw-phase propagators (arm, fold, recycling path) at wavenumber k.

    Returns ``(p_arm, p_fold, p_sr)`` where p_arm covers the beamsplitter ->
    folding-mirror arms, p_fold the two folding-mirror -> membrane half
    paths, and p_sr the beamsplitter -> recycling-mirror path (laser port
    entry is 1: there is no recycling mirror on that side).
    """
    if k <= 0.0:
        raise ValueError("wavenumber must be positive")
    p_arm = np.diag([np.exp(1j * k * geom.arm_length)] * 2)
    p_fold = np.diag(
        [np.exp(1j * k * geom.short_path), np.exp(1j * k * geom.long_path)]
    )
    p_sr = np.diag([1.0, np.exp(1j * k * geom.sr_distance)]).astype(complex)
    return p_arm, p_fold, p_sr


def effective_mirror(membrane: MirrorParams, bs: BeamsplitterParams, imbalance_phase):
    """Scalar reflectivities and transmissivity of the bare interferometer.

    ``imbalance_phase`` is the full one-way phase k*delta_l across the arm
    imbalance (scalar or array).  Returns (rho1, rho2, tau): rho1 reflects
    the laser-port input back to the laser port, rho2 = -conj(rho1) the
    detector-port input back to the detector port, tau cross-couples the
    ports.
    """
    rm, tm = membrane.reflectivity, membrane.transmissivity
    rb, tb = bs.reflectivity, bs.transmissivity
    phase = np.exp(1j * np.asarray(imbalance_phase))
    rho1 = rm * (rb**2 * phase - tb**2 / phase) + 2.0 * tm * rb * tb
    rho2 = rm * (tb**2 * phase - rb**2 / phase) - 2.0 * tm * rb * tb
    tau = rm * rb * tb * (phase + 1.0 / phase) + tm * (tb**2 - rb**2)
    return rho1, rho2, tau


def msi_matrix(geom: Geometry, membrane: MirrorParams, bs: BeamsplitterParams, k: float):
    """Transfer matrix of the non-recycled interferometer at wavenumber k.

    Returns ``(m_ms, rho1, rho2, tau)`` with
    m_ms = exp(2ik(arm_length + half_arm)) * [[rho1, tau], [tau, rho2]].
    """
    rho1, rho2, tau = effective_mirror(membrane, bs, k * geom.arm_imbalance)
    prefactor = np.exp(2j * k * (geom.arm_length + geom.half_arm))
    m_ms = prefactor * np.array([[rho1, tau], [tau, rho2]])
    return m_ms, rho1, rho2, tau


def invert_2x2(m: np.ndarray) -> np.ndarray:
    """Closed-form (adjugate / determinant) inverse of a complex 2x2 matrix."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < DEGENERACY_FLOOR:
        raise DegenerateResonanceError(
            f"2x2 determinant magnitude {abs(det):.3e} below {DEGENERACY_FLOOR:.0e}"
        )
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


def recycling_resolvent(
    geom: Geometry,
    membrane: MirrorParams,
    bs: BeamsplitterParams,
    srm: MirrorParams,
    k: float,
):
    """Closed-form resolvent of the recycling loop and its denominator.

    Returns ``(k_msr, denom)`` where denom = 1 - R_sr * rho2 * exp(2ik*Lc)
    and k_msr = inverse of (I - loop) written out explicitly:

        k_msr = [[1, 0], [R_sr * tau * exp(2ik*Lc) / denom, 1 / denom]]
    """
    _, rho2, tau = effective_mirror(membrane, bs, k * geom.arm_imbalance)
    roundtrip = np.exp(2j * k * geom.cavity_length)
    denom = 1.0 - srm.reflectivity * rho2 * roundtrip
    if abs(denom) < DEGENERACY_FLOOR:
        raise DegenerateResonanceError(
            f"resonance denominator magnitude {abs(denom):.3e} below {DEGENERACY_FLOOR:.0e}"
        )
    k_msr = np.array(
        [
            [1.0, 0.0],
            [srm.reflectivity * tau * roundtrip / denom, 1.0 / denom],
        ]
    )
    return k_msr, denom


def field_matrices(
    membrane: MirrorParams,
    bs: BeamsplitterParams,
    srm: MirrorParams,
    p_arm: np.ndarray,
    p_fold: np.ndarray,
    p_sr: np.ndarray,
    denominator=None,
):
    """Input -> membrane-surface field maps for prebuilt propagators.

    Returns ``(m_inc, m_ref, m_fb)``: the matrices mapping the two input
    fields onto the fields incident on / reflected from the membrane faces,
    and the feedback matrix multiplying the membrane displacement source
    term.  The propagators may follow either phase convention.

    The first row of the recycling loop is zero, so det(I - loop) is the
    resonance denominator 1 - loop[1, 1].  A caller that can form it without
    cancellation (see :func:`ospring.cavity.resonance_denominator`) passes it
    as ``denominator``; otherwise I - loop is inverted as it stands.
    """
    m_bs = beamsplitter_matrix(bs)
    m_m = membrane_matrix(membrane)
    r_sr = np.diag([0.0, srm.reflectivity]).astype(complex)
    t_sr = np.diag([1.0, srm.transmissivity]).astype(complex)

    m_ms = m_bs.T @ p_arm @ p_fold @ m_m @ p_fold @ p_arm @ m_bs
    loop = p_sr @ r_sr @ p_sr @ m_ms
    if denominator is None:
        resolvent = invert_2x2(np.eye(2, dtype=complex) - loop)
    else:
        resolvent = np.array([[1.0, 0.0], [loop[1, 0] / denominator, 1.0 / denominator]])

    to_membrane = p_fold @ p_arm @ m_bs
    m_inc = to_membrane @ resolvent @ p_sr @ t_sr
    m_ref = m_m @ m_inc
    m_fb = membrane.reflectivity * (
        to_membrane @ resolvent @ p_sr @ r_sr @ p_sr @ m_bs.T @ p_arm @ p_fold
    )
    return m_inc, m_ref, m_fb
