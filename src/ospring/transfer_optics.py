"""Two-port transfer-matrix algebra for the folded interferometer.

Port convention: index 0 is the laser port, index 1 the detector port.
Matrices are plain (2, 2) complex numpy arrays acting on column vectors of
field amplitudes.  Element matrices are real (Stokes form); the overall
field phase is a gauge choice and never observable.

:func:`field_matrices` assembles the field maps from propagators its
caller builds.  The package builds none: the closed forms of
:mod:`ospring.backaction` and :mod:`ospring.noise` are the one field model
it runs.  The tests build tuned propagators (carrier phases pinned by the
operating point, only the sideband part k -> omega/c taken from the
macroscopic lengths) and pass them here, as the independent matrix path
the closed forms are checked against; the function stays public for that
path and for the benchmark harness, which times it by name.
:func:`effective_mirror` takes its imbalance phase literally; ``validate``
and the tests use it as the element-algebra reference for the closed-form
carrier excess of :mod:`ospring.cavity`.  The model (``cavity``,
``backaction``, ``noise``) propagates no phase literally: every phase it runs
is pinned to the operating point.  The references of :mod:`ospring.checks`
do: its face fields apply exp(+-i*imbalance/2), and ``validate`` evaluates
:func:`effective_mirror` at literal phases.
"""

from __future__ import annotations

import numpy as np

from .params import BeamsplitterParams, MirrorParams


def beamsplitter_matrix(bs: BeamsplitterParams) -> np.ndarray:
    """[[t, -r], [r, t]] with the real sign convention."""
    r, t = bs.reflectivity, bs.transmissivity
    return np.array([[t, -r], [r, t]], dtype=complex)


def membrane_matrix(membrane: MirrorParams) -> np.ndarray:
    """[[-r, t], [t, r]] with the real sign convention."""
    r, t = membrane.reflectivity, membrane.transmissivity
    return np.array([[-r, t], [t, r]], dtype=complex)


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


def field_matrices(
    membrane: MirrorParams,
    bs: BeamsplitterParams,
    srm: MirrorParams,
    p_arm: np.ndarray,
    p_fold: np.ndarray,
    p_sr: np.ndarray,
    denominator,
):
    """Input -> membrane-surface field maps for prebuilt propagators.

    Returns ``(m_inc, m_ref)``: the matrices mapping the two input fields
    onto the fields incident on / reflected from the membrane faces.

    The first row of the recycling loop is zero, so det(I - loop) is the
    resonance denominator 1 - loop[1, 1].  The caller passes it as
    ``denominator``, formed without cancellation (see
    :func:`ospring.cavity.resonance_denominator`).
    """
    m_bs = beamsplitter_matrix(bs)
    m_m = membrane_matrix(membrane)
    r_sr = np.diag([0.0, srm.reflectivity]).astype(complex)
    t_sr = np.diag([1.0, srm.transmissivity]).astype(complex)

    m_ms = m_bs.T @ p_arm @ p_fold @ m_m @ p_fold @ p_arm @ m_bs
    loop = p_sr @ r_sr @ p_sr @ m_ms
    resolvent = np.array([[1.0, 0.0], [loop[1, 0] / denominator, 1.0 / denominator]])

    m_inc = p_fold @ p_arm @ m_bs @ resolvent @ p_sr @ t_sr
    m_ref = m_m @ m_inc
    return m_inc, m_ref
