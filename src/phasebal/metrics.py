"""Symmetrical-component decomposition and unbalance indices, over arrays.

A three-phase set is unbalanced when the phase magnitudes differ or the
angles between consecutive phasors deviate from 120 degrees. Any such set
decomposes into three balanced sequence sets (zero, positive, negative);
the voltage unbalance factor (VUF) is the negative-to-positive sequence
magnitude ratio in percent.

``node_metric_arrays`` computes VUF, deviation and RMS voltage over every
node of a voltage array, as a run does. The scalar check API of one
three-phase set (``SequenceComponents``, ``fortescue``,
``inverse_fortescue``, ``vuf``, ``rms_voltage``, ``check_vuf_norm`` and
its ``VUF_NORM_LIMITS``) lives in ``checks``, which a run never loads;
``node_metric_arrays`` equals it bit for bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

#: Rotation operator a = 1 at +120 degrees.
ALPHA = cmath.exp(2j * math.pi / 3)


def _times(c: complex, re, im):
    """Python's complex product c * (re + j im), component by component."""
    return c.real * re - c.imag * im, c.real * im + c.imag * re


def _third(re, im):
    """Python's complex quotient (re + j im) / 3, component by component."""
    return (re + im * 0.0) / 3.0, (im - re * 0.0) / 3.0


def node_metric_arrays(
    voltages: np.ndarray, v_base: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """VUF percent ``(..., node)``, signed deviation percent (below
    nominal < 0 < above) ``(..., node, 3)`` and RMS voltage ``(..., node)``
    of the line-to-neutral voltages in ``voltages`` ``(..., node, 4)``.

    Each value equals ``checks.vuf(checks.fortescue(...))``,
    ``checks.rms_voltage`` and the deviation formula bit for bit (the sums
    run component-wise in their order); a zero positive-sequence magnitude
    gives a non-finite VUF instead of raising.
    """
    v_ln = voltages[..., :3] - voltages[..., 3:]
    re, im = v_ln.real, v_ln.imag
    mag = np.hypot(re, im)
    seq_mag = []
    for b, c in ((ALPHA, ALPHA * ALPHA), (ALPHA * ALPHA, ALPHA)):
        b_re, b_im = _times(b, re[..., 1], im[..., 1])
        c_re, c_im = _times(c, re[..., 2], im[..., 2])
        seq_mag.append(np.hypot(*_third(re[..., 0] + b_re + c_re, im[..., 0] + b_im + c_im)))
    mag1, mag2 = seq_mag
    with np.errstate(divide="ignore", invalid="ignore"):
        vuf_pct = 100.0 * mag2 / mag1
    drop_pct = 100.0 * (mag - v_base) / v_base
    sq = mag * mag
    v_rms = np.sqrt((sq[..., 0] + sq[..., 1] + sq[..., 2]) / 3.0)
    return vuf_pct, drop_pct, v_rms
