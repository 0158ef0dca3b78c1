"""Signal synthesis and spectral readout.

The observable part of a deviation matrix is decomposed transition by
transition: each single-quantum line contributes its Ix matrix element times
the corresponding coherence. A free-induction decay is synthesized from
those complex amplitudes on a uniform time grid,

    s(t_k) = sum_t  a_t * exp(i 2 pi f_t t_k) * exp(-t_k / T2(t)) * exp(-pi lb t_k),

Fourier transformed with the frequency axis centered on zero, phased by a
global zero-order phase that maximizes the summed |real peak integrals|
(largest peak forced positive), and summarized as one signed integral per
transition over +-3 nominal linewidths.

Each line's oscillator exp(i 2 pi f_t t_k) depends only on its frequency and
the time grid, so it is computed once per (frequency, points, dwell) and
reused by later acquisitions on the same system and grid. The cache holds
four oscillators, one spin-3/2 system's three lines, which pins at most
1 MiB at 16384 points; the cached arrays are read-only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .relaxation import RelaxationParams, coherence_t2_s
from .system import SpinSystem, transition_table

DEFAULT_POINTS = 4096
DEFAULT_DWELL_S = 5e-6
DEFAULT_LB_HZ = 200.0

# Number of nominal linewidths (each side) integrated around a line.
PEAK_WINDOW_LINEWIDTHS = 3.0

# Zero-order phases tried by _best_phase and their rotations; the summed
# |Re| has period pi, so [0, pi] covers every distinct score.
_TRIAL = np.linspace(0.0, np.pi, 1801)
_TRIAL_ROTATIONS = np.exp(1j * _TRIAL)
_TRIAL.flags.writeable = False
_TRIAL_ROTATIONS.flags.writeable = False


def observable_amplitudes(rho: np.ndarray, sys: SpinSystem) -> np.ndarray:
    """Complex amplitude of each observable transition, in table order.

    Raises ValueError unless rho is sys.dim x sys.dim.
    """
    rho = np.asarray(rho)
    if rho.shape != (sys.dim, sys.dim):
        raise ValueError(f"state must be {sys.dim}x{sys.dim}, got {rho.shape}")
    table = transition_table(sys)
    return np.array([tr.ix_element * rho[tr.upper_index, tr.lower_index]
                     for tr in table], dtype=complex)


@lru_cache(maxsize=4)
def _oscillator(frequency_hz: float, points: int, dwell_s: float) -> np.ndarray:
    """Read-only exp(i 2 pi f t) on the grid t_k = k * dwell, k < points."""
    osc = np.exp(2j * np.pi * frequency_hz * (np.arange(points) * dwell_s))
    osc.flags.writeable = False
    return osc


@dataclass(frozen=True)
class FID:
    points: int
    dwell_s: float
    samples: np.ndarray
    lb_hz: float = DEFAULT_LB_HZ


def synthesize_fid(amplitudes: np.ndarray, sys: SpinSystem, points: int = DEFAULT_POINTS,
                   dwell_s: float = DEFAULT_DWELL_S, lb_hz: float = DEFAULT_LB_HZ,
                   relax: RelaxationParams | None = None) -> FID:
    """Time-domain signal from per-transition amplitudes.

    Every line decays with the Lorentzian broadening factor lb_hz; when relax
    is given, each line additionally decays with its own transition T2.
    Rejects lines at or beyond the Nyquist frequency 1/(2*dwell).
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    table = transition_table(sys)
    if amplitudes.shape != (len(table),):
        raise ValueError(f"expected {len(table)} amplitudes, got {amplitudes.shape}")
    if points < 2:
        raise ValueError("need at least two points")
    if not (np.isfinite(dwell_s) and dwell_s > 0):
        raise ValueError(f"dwell time must be positive and finite, got {dwell_s}")
    if not np.isfinite(lb_hz) or lb_hz < 0:
        raise ValueError(f"line broadening must be finite and nonnegative, got {lb_hz}")
    nyquist = 1.0 / (2.0 * dwell_s)
    t = np.arange(points) * dwell_s
    samples = np.zeros(points, dtype=complex)
    broadening = np.exp(-np.pi * lb_hz * t)
    t2 = None if relax is None else coherence_t2_s(relax, sys)
    for a, tr in zip(amplitudes, table):
        if abs(tr.frequency_hz) >= nyquist:
            raise ValueError(
                f"transition {tr.label} at {tr.frequency_hz:g} Hz violates the "
                f"Nyquist limit {nyquist:g} Hz; decrease the dwell time")
        decay = broadening
        if t2 is not None:
            decay = decay * np.exp(-t / t2[tr.upper_index, tr.lower_index])
        samples += a * _oscillator(tr.frequency_hz, points, dwell_s) * decay
    return FID(points=points, dwell_s=dwell_s, samples=samples, lb_hz=lb_hz)


@dataclass(frozen=True)
class Peak:
    transition: str
    frequency_hz: float      # location of the maximum within the window
    real_integral: float
    sign: int


@dataclass(frozen=True)
class Spectrum:
    freq_hz: np.ndarray
    amplitude: np.ndarray
    peaks: list[Peak] = field(default_factory=list)
    phase_rad: float = 0.0


def _best_phase(integrals: np.ndarray) -> float:
    """Zero-order phase maximizing sum of |real parts|, largest peak positive."""
    if len(integrals) == 0 or np.max(np.abs(integrals)) == 0:
        return 0.0
    scores = np.abs(np.real(_TRIAL_ROTATIONS[:, None] * integrals[None, :])).sum(axis=1)
    phase = float(_TRIAL[int(np.argmax(scores))])
    biggest = integrals[int(np.argmax(np.abs(integrals)))]
    if np.real(np.exp(1j * phase) * biggest) < 0:
        phase += np.pi
    return phase % (2.0 * np.pi)


def spectrum(fid: FID, sys: SpinSystem | None = None) -> Spectrum:
    """Discrete Fourier transform with zero-centered axis and a peak table.

    Without a system, the raw unphased transform is returned. With one, the
    per-transition windows are integrated, a global zero-order phase is
    chosen, and the stored amplitude is the phased spectrum. Each window
    spans +-3 lb around its line and keeps only the bins no farther from it
    than from any other line, so overlapping windows share no signal except
    at exact ties. A window that holds no frequency bin is a ValueError
    naming the line.
    """
    freq = np.fft.fftshift(np.fft.fftfreq(fid.points, fid.dwell_s))
    amp = np.fft.fftshift(np.fft.fft(fid.samples))
    if sys is None:
        return Spectrum(freq_hz=freq, amplitude=amp)

    half_width = PEAK_WINDOW_LINEWIDTHS * fid.lb_hz
    table = transition_table(sys)
    lines = [tr.frequency_hz for tr in table]
    masks = [np.abs(freq - line) <= half_width for line in lines]
    # only a line whose window overlaps this one can be nearer to its bins
    # (the 0.1% margin covers rounding); a coincident line ties everywhere
    reach = 2.001 * half_width
    for line, mask in zip(lines, masks):
        rivals = [f for f in lines if 0 < abs(f - line) <= reach]
        if rivals:
            idx = np.flatnonzero(mask)
            nearest_rival = np.min(np.abs(freq[idx, None] - rivals), axis=1)
            mask[idx[nearest_rival < np.abs(freq[idx] - line)]] = False
    for tr, mask in zip(table, masks):
        if not np.any(mask):
            raise ValueError(
                f"readout window of line {tr.label} ({tr.frequency_hz:g} Hz "
                f"+- {half_width:g} Hz) holds no frequency bin; raise the line "
                "broadening or the acquisition time points * dwell")
    df = freq[1] - freq[0]
    raw = np.array([complex(np.sum(amp[mask]) * df) for mask in masks])
    phase = _best_phase(raw)
    amp = amp * np.exp(1j * phase)
    peaks = []
    for tr, mask, integral in zip(table, masks, raw * np.exp(1j * phase)):
        idx = np.flatnonzero(mask)[int(np.argmax(np.abs(amp[mask])))]
        peaks.append(Peak(transition=tr.label, frequency_hz=float(freq[idx]),
                          real_integral=float(integral.real),
                          sign=int(np.sign(integral.real)) or 1))
    return Spectrum(freq_hz=freq, amplitude=amp, peaks=peaks, phase_rad=phase)


def acquire(rho: np.ndarray, sys: SpinSystem, points: int = DEFAULT_POINTS,
            dwell_s: float = DEFAULT_DWELL_S, lb_hz: float = DEFAULT_LB_HZ,
            relax: RelaxationParams | None = None) -> tuple[FID, Spectrum]:
    """Convenience pipeline: amplitudes -> FID -> phased spectrum."""
    amps = observable_amplitudes(rho, sys)
    fid = synthesize_fid(amps, sys, points=points, dwell_s=dwell_s,
                         lb_hz=lb_hz, relax=relax)
    return fid, spectrum(fid, sys)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_spectrum_csv(path, spec: Spectrum) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "real", "imag"])
        for f, a in zip(spec.freq_hz, spec.amplitude):
            writer.writerow([_fmt(f), _fmt(a.real), _fmt(a.imag)])


def write_peaks_csv(path, spec: Spectrum) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["transition", "frequency_hz", "real_integral", "sign"])
        for p in spec.peaks:
            writer.writerow([p.transition, _fmt(p.frequency_hz),
                             _fmt(p.real_integral), str(p.sign)])
