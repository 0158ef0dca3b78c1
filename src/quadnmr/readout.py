"""Signal synthesis and spectral readout.

The observable part of a deviation matrix is decomposed transition by
transition: each single-quantum line contributes its Ix matrix element times
the corresponding coherence. A free-induction decay is synthesized from
those complex amplitudes on a uniform time grid,

    s(t_k) = sum_t  a_t * exp(i 2 pi f_t t_k) * exp(-t_k / T2(t)) * exp(-pi lb t_k),

Fourier transformed with the frequency axis centered on zero, phased by the
global zero-order phase that maximizes the summed |real peak integrals|
(largest peak forced positive), and summarized as one signed integral per
transition over +-3 nominal linewidths.

Each line's oscillator exp(i 2 pi f_t t_k) depends only on its frequency and
the time grid, so it is computed once per (frequency, points, dwell) and
reused by later acquisitions on the same system and grid. The cache holds
four oscillators, one spin-3/2 system's three lines, which pins at most
1 MiB at 16384 points; the cached arrays are read-only.

The spectrum is the transform of the FID with its first sample at half
weight, the usual first-point correction: a decay sampled from t = 0 at full
weight would put a flat offset of half its first sample into every bin.

Apart from the FFT, the readout's work grows with the number of lines, not
with the points: each window is found as a run of bins by testing the bins
at its edges (bin by bin only where two lines nearly coincide), giving the
same bits as testing every bin, and the exact phase is found among at most
one sign pattern of the integrals per line.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .relaxation import RelaxationParams, coherence_t2_table
from .system import SpinSystem, transition_table

DEFAULT_POINTS = 4096
DEFAULT_DWELL_S = 5e-6
DEFAULT_LB_HZ = 200.0

# Number of nominal linewidths (each side) integrated around a line.
PEAK_WINDOW_LINEWIDTHS = 3.0

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
    t2 = None if relax is None else coherence_t2_table(relax, sys.dim)
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
    """Zero-order phase maximizing sum of |real parts|, largest peak positive.

    The score sum_k |Re(e^{i theta} z_k)| equals |Z_s| cos(theta + arg Z_s)
    with Z_s = sum_k s_k z_k, where the sign pattern s only changes where a
    term crosses zero, at (pi/2 - arg z_k) mod pi. So its maximum is the
    largest |Z_s| over the at most one pattern per stretch between
    crossings, reached at theta = -arg Z_s. The integrals are first scaled
    by a power of two, which is exact, so that parts from subnormal to near
    overflow keep their bits through the rotations and sums.
    """
    values = integrals.tolist()
    top = max((abs(p) for v in values for p in (v.real, v.imag)), default=0.0)
    if not top:
        return 0.0
    e = math.frexp(top)[1]
    z = [complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e)) for v in values]
    # math.atan2, unlike cmath.phase, does not raise when the angle underflows
    crossings = sorted((math.pi / 2 - math.atan2(v.imag, v.real)) % math.pi for v in z if v)
    best = 0j
    for a, b in zip(crossings, crossings[1:] + [crossings[0] + math.pi]):
        # the sign pattern in the middle of the stretch between two crossings
        turn = cmath.exp(0.5j * (a + b))
        total = sum(v if (turn * v).real > 0 else -v for v in z)
        if abs(total) > abs(best):
            best = total
    phase = -math.atan2(best.imag, best.real)
    if (cmath.exp(1j * phase) * z[int(np.argmax(np.abs(integrals)))]).real < 0:
        phase += math.pi
    phase %= 2.0 * math.pi
    return 0.0 if phase == 2.0 * math.pi else phase    # -1e-48 % 2pi rounds to 2pi


def _window(freq: np.ndarray, span_s: float, line: float, lines: list[float],
            half_width: float) -> slice | np.ndarray:
    """The bins of line's readout window, as a slice or an index array.

    A bin at x = freq[i] belongs to the window when |x - line| <= half_width
    and no other line is strictly nearer to x. Along the axis the first test
    holds on one run of bins and each other line fails the second on one
    end of it, so each edge is settled by testing the bins next to a first
    guess. Where another line lies within a few units in the last place of
    half_width, rounding can tie the two distances at scattered bins, so
    such a window is tested bin by bin.
    """
    points, centre, step = len(freq), len(freq) // 2, 1.0 / span_s

    def first(test, near_hz, lo, hi):
        """First i in [lo, hi) whose bin passes a test that fails then passes, else hi."""
        guess = near_hz * span_s + centre
        i = lo if guess <= lo else hi if not guess < hi else int(guess)   # nan: hi
        # (i - centre) * step rounds exactly like freq[i]
        while i > lo and test((i - 1 - centre) * step):
            i -= 1
        while i < hi and not test((i - centre) * step):
            i += 1
        return i

    lo = first(lambda x: x - line >= -half_width, line - half_width, 0, points)
    hi = first(lambda x: x - line > half_width, line + half_width, lo, points)
    rivals = [f for f in lines if f != line]
    if any(abs(f - line) <= 16 * math.ulp(half_width) for f in rivals):
        dist = np.abs(freq[lo:hi] - line)
        nearer = np.zeros(hi - lo, dtype=bool)
        for f in rivals:
            nearer |= np.abs(freq[lo:hi] - f) < dist
        return lo + np.flatnonzero(~nearer)
    for f in rivals:
        if f > line:
            hi = first(lambda x: abs(x - f) < abs(x - line), line / 2 + f / 2, lo, hi)
        else:
            lo = first(lambda x: not abs(x - f) < abs(x - line), line / 2 + f / 2, lo, hi)
    return slice(lo, hi)


def spectrum(fid: FID, sys: SpinSystem | None = None) -> Spectrum:
    """Discrete Fourier transform with zero-centered axis and a peak table.

    The transform takes the first sample at half weight: 0.5 * samples[0]
    is subtracted from every bin. The axis is (k - points//2) / (points *
    dwell) for k < points, the same values as fftshift(fftfreq(points,
    dwell)). Without a system, the unphased transform is returned. With one, the per-transition windows are
    integrated, the exact zero-order phase is chosen, and the stored
    amplitude is the phased spectrum. Each window spans +-3 lb around its
    line and keeps only the bins no farther from it than from any other
    line, so overlapping windows share no signal except at exact ties. A
    window that holds no frequency bin is a ValueError naming the line.
    """
    n, span_s = fid.points, fid.points * fid.dwell_s
    freq = np.arange(-(n // 2), n - n // 2, dtype=float) * (1.0 / span_s)
    amp = np.fft.fft(fid.samples)
    amp -= 0.5 * fid.samples[0]     # the first sample at half weight
    amp = np.concatenate((amp[n - n // 2:], amp[:n - n // 2]))   # np.fft.fftshift
    if sys is None:
        return Spectrum(freq_hz=freq, amplitude=amp)

    half_width = PEAK_WINDOW_LINEWIDTHS * fid.lb_hz
    table = transition_table(sys)
    lines = [tr.frequency_hz for tr in table]
    windows = [_window(freq, span_s, line, lines, half_width) for line in lines]
    for tr, window in zip(table, windows):
        if freq[window].size == 0:
            raise ValueError(
                f"readout window of line {tr.label} ({tr.frequency_hz:g} Hz "
                f"+- {half_width:g} Hz) holds no frequency bin; raise the line "
                "broadening or the acquisition time points * dwell")
    df = freq[1] - freq[0]
    raw = np.array([complex(amp[window].sum() * df) for window in windows])
    phase = _best_phase(raw)
    amp = amp * np.exp(1j * phase)
    peaks = []
    for tr, window, integral in zip(table, windows, raw * np.exp(1j * phase)):
        peak_hz = freq[window][int(np.argmax(np.abs(amp[window])))]
        peaks.append(Peak(transition=tr.label, frequency_hz=float(peak_hz),
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


_CSV_ROW = "%.17g,%.17g,%.17g\r\n"
_CSV_CHUNK_ROWS = 1024


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_spectrum_csv(path, spec: Spectrum) -> None:
    """Write freq_hz,real,imag rows with CRLF line ends, as csv.writer would.

    Each float is written with 17 significant digits, which reads back to
    the same double. Rows are formatted with one % per chunk of
    _CSV_CHUNK_ROWS rows and converted to Python floats chunk by chunk, so
    neither the whole file nor a float object per value is held at once.
    """
    freq, real, imag = spec.freq_hz, spec.amplitude.real, spec.amplitude.imag
    with open(path, "w", newline="") as fh:
        fh.write("freq_hz,real,imag\r\n")
        for start in range(0, len(freq), _CSV_CHUNK_ROWS):
            part = slice(start, start + _CSV_CHUNK_ROWS)
            chunk = np.column_stack((freq[part], real[part], imag[part]))
            fh.write(_CSV_ROW * len(chunk) % tuple(chunk.ravel().tolist()))


def write_peaks_csv(path, spec: Spectrum) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["transition", "frequency_hz", "real_integral", "sign"])
        for p in spec.peaks:
            writer.writerow([p.transition, _fmt(p.frequency_hz),
                             _fmt(p.real_integral), str(p.sign)])
