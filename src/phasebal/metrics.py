"""Symmetrical-component decomposition and unbalance indices.

A three-phase set is unbalanced when the phase magnitudes differ or the
angles between consecutive phasors deviate from 120 degrees. Any such set
decomposes into three balanced sequence sets (zero, positive, negative);
the voltage unbalance factor (VUF) is the negative-to-positive sequence
magnitude ratio in percent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnknownNorm, ZeroPositiveSequence
from .network import PHASES, Feeder, Phase

#: Rotation operator a = 1 at +120 degrees.
ALPHA = cmath.exp(2j * math.pi / 3)

#: Voltage-unbalance limits in percent, by utility/standard.
VUF_NORM_LIMITS: dict[str, float] = {
    "PGE": 2.5,
    "NEMA": 1.0,
    "BCH_STD": 2.0,
    "BCH_RURAL": 3.0,
    "EN50160_LV_MV": 2.0,
    "EN50160_HV": 1.0,
}


@dataclass(frozen=True)
class SequenceComponents:
    """Zero/positive/negative-sequence phasors of a three-phase set."""

    v0: complex
    v1: complex
    v2: complex


@dataclass(frozen=True)
class NodeMetrics:
    """Per-node unbalance and voltage-deviation summary.

    ``drop_pct`` is signed per phase: negative means the line-to-neutral
    magnitude sits below nominal (drop), positive means above (rise).
    """

    vuf_pct: float
    drop_pct: dict[Phase, float]
    v_rms: float


def fortescue(va: complex, vb: complex, vc: complex) -> SequenceComponents:
    """Decompose (Va, Vb, Vc) into symmetrical components.

    v0 = (Va + Vb + Vc) / 3
    v1 = (Va + a Vb + a^2 Vc) / 3      with a = 1 at +120 deg
    v2 = (Va + a^2 Vb + a Vc) / 3
    """
    a = ALPHA
    a2 = ALPHA * ALPHA
    return SequenceComponents(
        v0=(va + vb + vc) / 3,
        v1=(va + a * vb + a2 * vc) / 3,
        v2=(va + a2 * vb + a * vc) / 3,
    )


def inverse_fortescue(seq: SequenceComponents) -> tuple[complex, complex, complex]:
    """Reconstruct (Va, Vb, Vc) from sequence components (exact inverse)."""
    a = ALPHA
    a2 = ALPHA * ALPHA
    va = seq.v0 + seq.v1 + seq.v2
    vb = seq.v0 + a2 * seq.v1 + a * seq.v2
    vc = seq.v0 + a * seq.v1 + a2 * seq.v2
    return va, vb, vc


def vuf(seq: SequenceComponents) -> float:
    """Voltage unbalance factor: 100 |v2| / |v1| percent.

    Raises ZeroPositiveSequence when |v1| = 0 (the ratio is undefined).
    """
    mag1 = abs(seq.v1)
    if mag1 == 0.0:
        raise ZeroPositiveSequence("positive-sequence magnitude is zero")
    return 100.0 * abs(seq.v2) / mag1


def rms_voltage(va_mag: float, vb_mag: float, vc_mag: float) -> float:
    """RMS of the three phase-voltage magnitudes: sqrt((Va^2+Vb^2+Vc^2)/3)."""
    return math.sqrt((va_mag * va_mag + vb_mag * vb_mag + vc_mag * vc_mag) / 3.0)


def check_vuf_norm(vuf_pct: float, norm: str) -> bool:
    """True iff the given VUF (percent) is within the named norm's limit."""
    try:
        limit = VUF_NORM_LIMITS[norm]
    except KeyError:
        raise UnknownNorm(norm) from None
    return vuf_pct <= limit


def _times(c: complex, re, im):
    """Python's complex product c * (re + j im), component by component."""
    return c.real * re - c.imag * im, c.real * im + c.imag * re


def _third(re, im):
    """Python's complex quotient (re + j im) / 3, component by component."""
    return (re + im * 0.0) / 3.0, (im - re * 0.0) / 3.0


def node_metric_arrays(
    voltages: np.ndarray, v_base: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``node_metrics`` as arrays over node voltages ``(..., node, 4)``.

    Returns (VUF percent ``(..., node)``, signed deviation percent
    ``(..., node, 3)``, RMS voltage ``(..., node)``). The Fortescue sums
    run component-wise in the order ``fortescue`` and ``vuf`` evaluate
    them, so each value equals theirs bit for bit; a zero positive-sequence
    magnitude gives a non-finite VUF instead of raising.
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


def node_metrics(solution, feeder: Feeder) -> dict[str, NodeMetrics]:
    """Compute per-node VUF, signed voltage deviation and RMS voltage.

    Works on phase-to-neutral voltages (V_phase - V_neutral), i.e. what a
    line-to-neutral instrument at the node would read: the four-wire model
    makes the local neutral potential nonzero downstream of the source.
    Raises ZeroPositiveSequence where VUF is undefined.
    """
    vuf_pct, drop_pct, v_rms = node_metric_arrays(solution.voltages, feeder.v_base_ln)
    if not np.all(np.isfinite(vuf_pct)):
        raise ZeroPositiveSequence("positive-sequence magnitude is zero")
    return {
        node: NodeMetrics(vuf_pct=u, drop_pct=dict(zip(PHASES, d)), v_rms=r)
        for node, u, d, r in zip(
            feeder.nodes, vuf_pct.tolist(), drop_pct.tolist(), v_rms.tolist()
        )
    }
