"""Signal synthesis and spectral readout.

The observable part of a deviation matrix is decomposed transition by
transition: each single-quantum line contributes its Ix matrix element times
the corresponding coherence. A free-induction decay on the grid
t_k = k * dwell, k < N, is the sum of its lines,

    s(t_k) = sum_t  a_t * exp(i 2 pi f_t t_k) * exp(-t_k / T2(t)) * exp(-pi lb t_k),

each a sampled damped exponential a_t q_t^k with
q_t = exp((2 pi i f_t - pi lb - 1/T2(t)) dwell). synthesize_fid keeps the
lines (amplitude, frequency, T2) and computes the samples only when they are
read.

The spectrum is the discrete transform on a frequency axis centred on zero,
with the first sample at half weight, the usual first-point correction: a
decay sampled from t = 0 at full weight would put a flat offset of half its
first sample into every bin. The transform is the closed form
sum_t a_t (1 - q_t^N) / (1 - q_t w^j) - a_t / 2 of the FID's lines, with
w^j = exp(-2 pi i (j - N//2) / N), so no samples and no FFT are computed.
The spectrum is then phased by the global zero-order phase that maximizes
the summed |real peak integrals| (largest peak forced positive), and
summarized as one signed integral per transition over +-3 nominal linewidths;
check_resolved refuses a window whose own line does not outweigh the rest.

Each window is the slice of bins from the first to the last within +-3
nominal linewidths of its line that no other line is strictly nearer to,
found by one mask over the axis; the exact phase is found among at most one
sign pattern of the integrals per line. What no amplitude touches, each FID
line's transform constants and each system line's window, is the readout
plan of a grid, FID line set and system, kept in one bounded cache
(_readout_plan) of a few Python scalars and a slice per line, so the runs
of every oracle on one system and grid compute it once. Its keys, like the
axis's, compare exactly (system._exact_cache): numbers equal in value but
not in bits never share an entry. Each thread keeps a workspace
(_Workspace) at each of the last three point counts: a working buffer, and
the denominators 1 - q w^j of the last two line sets, from a set's second
transform on and only for small sets (_KEPT_ROWS_BYTES). A repeated set's
transform then only divides.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .relaxation import RelaxationParams, coherence_t2_table
from .system import SpinSystem, _exact_cache, _frozen

DEFAULT_POINTS = 4096
DEFAULT_DWELL_S = 5e-6
DEFAULT_LB_HZ = 200.0
# The most points an acquisition may have. A spectrum CSV takes up to about
# 70 bytes a row, so 2^20 points write about 70 MB; transforming them takes
# 2^21 complex twiddles, the 2^20-point result and a 2^20-point working
# buffer, 64 MB in all. Between transforms the process keeps the twiddle
# table (32 MB, shared by all threads) and each thread that transformed keeps
# its workspace, whose working buffer takes 16 MB: both are cached for the
# last three point counts, its denominator rows bounded by _KEPT_ROWS_BYTES.
MAX_POINTS = 2 ** 20

# Number of nominal linewidths (each side) integrated around a line.
PEAK_WINDOW_LINEWIDTHS = 3.0

def observable_amplitudes(rho: np.ndarray, sys: SpinSystem) -> np.ndarray:
    """Complex amplitude of each observable transition, in table order.

    Raises ValueError unless rho is sys.dim x sys.dim.
    """
    rho = np.asarray(rho)
    if rho.shape != (sys.dim, sys.dim):
        raise ValueError(f"state must be {sys.dim}x{sys.dim}, got {rho.shape}")
    # line (i, i+1) reads rho[i, i+1], the superdiagonal
    return np.array([e * v for e, v in zip(sys._levels.ix, rho.diagonal(1).tolist())],
                    dtype=complex)


class FID:
    """A free-induction decay on the grid t_k = k * dwell_s, k < points.

    It holds its lines, one (amplitude, frequency_hz, t2_s) per transition
    with t2_s = inf without relaxation; spectrum() transforms those in closed
    form, and samples are computed when first read. It refuses a point count
    that is no integer.
    """

    def __init__(self, points: int, dwell_s: float, lb_hz: float,
                 lines: tuple[tuple[complex, float, float], ...]):
        if not isinstance(points, (int, np.integer)):
            raise ValueError(f"point count must be an integer, got {points!r}")
        self.points, self.dwell_s, self.lb_hz, self.lines = points, dwell_s, lb_hz, lines

    @cached_property
    def samples(self) -> np.ndarray:
        t = np.arange(self.points) * self.dwell_s
        samples = np.zeros(self.points, dtype=complex)
        broadening = np.exp(-np.pi * self.lb_hz * t)
        for a, f, t2 in self.lines:
            decay = broadening if t2 == math.inf else broadening * np.exp(-t / t2)
            samples += a * np.exp(2j * np.pi * f * t) * decay
        return samples


def synthesize_fid(amplitudes: np.ndarray, sys: SpinSystem, points: int = DEFAULT_POINTS,
                   dwell_s: float = DEFAULT_DWELL_S, lb_hz: float = DEFAULT_LB_HZ,
                   relax: RelaxationParams | None = None) -> FID:
    """Time-domain signal from per-transition amplitudes.

    Every line decays with the Lorentzian broadening factor lb_hz; when relax
    is given, each line additionally decays with its own transition T2.
    Rejects lines at or beyond the Nyquist frequency 1/(2*dwell), more than
    MAX_POINTS points, a dwell so short that the frequency axis overflows,
    and amplitudes that are not finite or too large for the transform. The
    FID keeps its lines: its samples are computed only when read, by the
    formula of the module docstring, and spectrum() needs none of them.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (sys.dim - 1,):
        raise ValueError(f"expected {sys.dim - 1} amplitudes, got {amplitudes.shape}")
    fid = FID(points, dwell_s, lb_hz, ())   # refuses a point count that is no integer
    if points < 2:
        raise ValueError("need at least two points")
    if points > MAX_POINTS:
        raise ValueError(f"at most {MAX_POINTS} points can be acquired, got {points}")
    if not (math.isfinite(dwell_s) and dwell_s > 0):
        raise ValueError(f"dwell time must be positive and finite, got {dwell_s}")
    if not math.isfinite(lb_hz) or lb_hz < 0:
        raise ValueError(f"line broadening must be finite and nonnegative, got {lb_hz}")
    if not math.isfinite(points // 2 * (1.0 / (points * dwell_s))):   # _axis's largest value
        raise ValueError(f"the frequency axis of {points} points at a {dwell_s:g} s dwell "
                         "overflows the float range; raise the dwell time")
    nyquist = 1.0 / (2.0 * dwell_s)
    t2 = None if relax is None else coherence_t2_table(relax, sys.dim)
    labels, lines, size = sys._levels.line_labels, [], 0.0
    for i, (a, f) in enumerate(zip(amplitudes.tolist(), sys._freqs)):
        if abs(f) >= nyquist:
            raise ValueError(
                f"transition {labels[i]} at {f:g} Hz violates the "
                f"Nyquist limit {nyquist:g} Hz; decrease the dwell time")
        size += math.hypot(a.real, a.imag)
        lines.append((a, f, math.inf if t2 is None else t2.item(i, i + 1)))
    if not math.isfinite(points * size):   # that sum bounds every bin of the transform
        for (a, _, _), label in zip(lines, labels):
            if not cmath.isfinite(a):
                raise ValueError(f"amplitude {a} of line {label} is not finite")
        raise ValueError(f"{points} points times the summed amplitude magnitude "
                         "overflow the float range")
    fid.lines = tuple(lines)
    return fid


class UnresolvedLinesError(ValueError):
    """The readout cannot sign every line apart from its neighbours."""


@dataclass(frozen=True)
class Peak:
    transition: str
    frequency_hz: float      # location of the maximum within the window
    real_integral: float
    sign: int
    own_integral: float = field(default=0.0, repr=False)   # its own line's part of it


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
    # the largest part, over the real and imaginary parts in turn
    top = max(map(abs, integrals.view(float).tolist()), default=0.0)
    if not top:
        return 0.0
    e = math.frexp(top)[1]
    z = [complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e)) for v in values]
    # math.atan2, unlike cmath.phase, does not raise when the angle underflows
    crossings = sorted([(math.pi / 2 - math.atan2(v.imag, v.real)) % math.pi for v in z if v])
    best = 0j
    for a, b in zip(crossings, crossings[1:] + [crossings[0] + math.pi]):
        # the sign pattern in the middle t of the stretch between two crossings:
        # Re(e^{it} v) = cos t Re v - sin t Im v, as the complex product rounds it
        c, s = math.cos(0.5 * (a + b)), math.sin(0.5 * (a + b))
        total = sum([v if c * v.real - s * v.imag > 0 else -v for v in z])
        if abs(total) > abs(best):
            best = total
    phase = -math.atan2(best.imag, best.real)
    largest = z[np.abs(integrals).argmax()]
    if math.cos(phase) * largest.real - math.sin(phase) * largest.imag < 0:
        phase += math.pi
    phase %= 2.0 * math.pi
    return 0.0 if phase == 2.0 * math.pi else phase    # -1e-48 % 2pi rounds to 2pi


# Bound of the readout plan cache (_readout_plan). An entry is its key (the
# pickle of its arguments) and a few Python scalars and a slice per line,
# about 1.5 KB for three lines, so a full cache holds well under 1 MB.
_GEOMETRY_ENTRIES = 256


@_exact_cache(3)
def _axis(points: int, dwell_s: float) -> np.ndarray:
    """Read-only (k - points//2) / (points * dwell) for k < points, which
    the spectra of one grid share."""
    freq = np.arange(-(points // 2), points - points // 2, dtype=float)
    freq *= 1.0 / (points * dwell_s)
    freq.flags.writeable = False
    return freq


def _window_bins(freq: np.ndarray, lines, line: float, half_width: float) -> slice:
    """line's readout window on the axis freq: the slice from the first to
    the last bin within half_width of line to which no other line within
    2.001 half-widths is strictly nearer (a line farther away is nearer to
    none of them), empty where there is none. Lines so near that rounding
    ties their distances at scattered bins get overlapping slices."""
    dist = np.abs(freq - line)
    mask = dist <= half_width
    for f in lines:
        if f != line and not abs(f - line) > 2.001 * half_width:
            mask &= ~(np.abs(freq - f) < dist)
    bins = np.flatnonzero(mask)
    return slice(int(bins[0]), int(bins[-1]) + 1) if bins.size else slice(0, 0)


# 2 pi - math.tau, the part of 2 pi that math.tau rounds off
_TAU_LO = 2.4492935982947064e-16
_TAU_RATIO = math.tau.as_integer_ratio()
_NORMAL_MIN = float(np.finfo(float).tiny)     # the least normal double


@lru_cache(maxsize=3)
def _twiddles(points: int) -> np.ndarray:
    """Read-only table holding w^(j-m), j < points, from (points - points//2 - m) % points.

    w^k = exp(-2 pi i k / points) is computed once for k in
    [-(points//2), points - points//2), the shifted axis, and laid out twice
    in a row, so that every entry holds its angle reduced to [-pi, pi) and
    the bins near a line m have small angles with few rounding errors.
    """
    w = np.exp(-2j * np.pi / points * np.arange(-(points // 2), points - points // 2))
    table = np.concatenate((w[points // 2:], w, w[:points // 2]))
    table.flags.writeable = False
    return table


# The most bytes of denominator rows kept for one line set, 16 a line and
# point: 192 KiB, the three lines of every spin-3/2 grid up to 4096 points,
# so a thread keeps at most 2 sets x 3 point counts = 1.125 MiB of rows.
# Larger sets, such as 16384-point ones, are built on every call: kept, they
# slowed runs that mix point counts more than their rows saved.
_KEPT_ROWS_BYTES = 16 * 3 * 4096


def _denominators(out: np.ndarray, table: np.ndarray, factor: complex, j: int,
                  start: int) -> None:
    """1 + factor w^(j-m) into out, 1 at its line's bin j (set after the division)."""
    np.multiply(factor, table[start:start + len(out)], out=out)
    out += 1.0
    out[j] = 1.0


class _Workspace:
    """One thread's arrays of the transform at one point count: the working
    buffer that every line after the first writes its terms to, and two
    slots for the denominator rows of the last two line sets transformed,
    each kept from its set's second transform on. A new set takes the slot
    of the less recent one, whose buffer it overwrites in place."""

    def __init__(self, points: int):
        self.points, self.terms = points, np.empty(points, dtype=complex)
        # [line constants, buffer, rows]: rows stays None until the set repeats
        self.slots = [[None, None, None], [None, None, None]]

    def rows(self, constants: tuple, table: np.ndarray) -> tuple | None:
        """The rows of constants, the constants of a _readout_plan entry of
        this point count, one per line; None on its first transform and for
        a set of more than _KEPT_ROWS_BYTES. Entries are compared by
        identity, and a slot keeps its entry alive, so a key never matches
        another set."""
        n = self.points
        if 16 * n * len(constants) > _KEPT_ROWS_BYTES:
            return None
        recent, other = self.slots
        if recent[0] is not constants:
            self.slots.reverse()
            if other[0] is not constants:
                other[0], other[2] = constants, None
                return None
            recent = other
        if recent[2] is None:
            if recent[1] is None:
                recent[1] = np.empty(_KEPT_ROWS_BYTES // 16, dtype=complex)
            rows = recent[1][:len(constants) * n].reshape(len(constants), n)
            for row, (factor, _, _, j, start) in zip(rows, constants):
                _denominators(row, table, factor, j, start)
            recent[2] = tuple(rows)
        return recent[2]


class _Buffers(threading.local):
    """Each thread's workspaces (_Workspace) for the last three point counts,
    like _twiddles, their rows bounded by _KEPT_ROWS_BYTES. They outlive the
    call, so that a transform allocates no full-length array besides its
    result."""

    def __init__(self):
        self.workspace = lru_cache(maxsize=3)(_Workspace)


_buffers = _Buffers()


def _expm1(x: float, y: float) -> complex:
    """exp(x + iy) - 1, keeping its digits where it is near zero."""
    return complex(math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
                   math.exp(x) * math.sin(y))


def _bin_offset(frequency_hz: float, points: int, dwell_s: float) -> tuple[int, float]:
    """The bin m nearest a line and N y, y its phase per sample off bin m.

    The phase per sample is (2 pi f) dwell with 2 pi f rounded once, as the
    samples take it; N times it less 2 pi m is formed exactly in integers
    (2 pi as math.tau plus _TAU_LO), so only the result is rounded. A
    rounding of f dwell itself would move an undamped line near Nyquist by
    up to 6e-17 of a turn per sample, which 4097 samples turn into 7e-13 of
    the tallest bin.
    """
    omega = math.tau * frequency_hz
    m = round(points * omega * dwell_s / math.tau)
    (wn, wd), (dn, dd) = omega.as_integer_ratio(), float(dwell_s).as_integer_ratio()
    tn, td = _TAU_RATIO
    scale = max(wd * dd, td)      # powers of two
    exact = int(points) * wn * dn * (scale // (wd * dd)) - m * tn * (scale // td)
    return m, exact / scale - m * _TAU_LO


@_exact_cache(_GEOMETRY_ENTRIES)
def _readout_plan(points: int, dwell_s: float, lb_hz: float,
                  lines: tuple[tuple[float, float], ...],
                  centres: tuple[float, ...]) -> tuple[tuple, tuple]:
    """What no amplitude touches in a readout: each (frequency_hz, t2_s) FID
    line's transform constants, computed first so that a line with no bin (a
    NaN frequency) raises before any window is sought, and the window of
    each system line at centres (none without a system).

    A line's constants are what _line_spectrum takes from it besides its
    amplitude: -q w^m, 1 - q^N, (1 - q^N) / (1 - q w^m) (None where that
    denominator is below the normal range), the result bin j of bin m and
    the start of its twiddles. A window is a slice (_window_bins). Keys
    compare exactly, like _axis's (_exact_cache): the sign of a zero lb_hz
    under a growing line (T2 = -inf), or a numpy scalar in place of a float,
    changes the bits of the constants.
    """
    n, constants = points, []
    for f, t2 in lines:
        d = (math.pi * lb_hz + 1.0 / t2) * dwell_s
        m, ny = _bin_offset(f, n, dwell_s)
        numerator, den = -_expm1(-n * d, ny), -_expm1(-d, ny / n)
        constants.append((-cmath.exp(complex(-d, ny / n)), numerator,
                          numerator / den if abs(den) >= _NORMAL_MIN else None,
                          (m + n // 2) % n, (n - n // 2 - m) % n))
    freq, half_width = _axis(points, dwell_s), PEAK_WINDOW_LINEWIDTHS * lb_hz
    return tuple(constants), tuple([_window_bins(freq, centres, line, half_width)
                                    for line in centres])


def _line_spectrum(fid: FID, constants: tuple, windows) -> tuple[np.ndarray, list[complex]]:
    """The transform of fid's lines on the shifted axis, first sample at half
    weight, and line k's part of windows[k] (0 where there is no line k).

    Line a q^k contributes a (1 - q^N) / (1 - q w^j) - a/2. Each line is
    taken from its nearest bin m (_bin_offset): with y its phase per sample
    off that bin and d = (pi lb + 1/T2) dwell its decay per sample,
    q w^j = exp(i y - d) w^(j-m), 1 - q^N = -expm1(N (i y - d)), and the
    denominator at bin m is -expm1(i y - d). Undamped lines have |q| = 1,
    where 1 - q^N and 1 - q w^m computed directly would lose their digits;
    where both vanish (a line exactly on a bin, undamped) bin m holds N a,
    and so it does where the denominator falls below the normal range: there
    it keeps too few digits for the ratio, which is N a to double precision
    (N |i y - d| < 1e-300). Those constants come from the readout plan
    (_readout_plan); only the amplitudes multiply them per call. This
    thread's workspace at the point count (_Workspace) holds the working
    buffer and the rows 1 - q w^j of a line set that repeats, so its later
    transforms only divide.
    """
    n = fid.points
    table, space = _twiddles(n), _buffers.workspace(n)
    constant = -0.5 * sum(a for a, _, _ in fid.lines)
    amp, terms, own = None, np.empty(n, dtype=complex), [0j] * len(windows)
    rows = space.rows(constants, table)
    # in place: a fresh array per step would cost more than the arithmetic
    for k, (a, _, _) in enumerate(fid.lines):
        factor, numerator, ratio, j, start = constants[k]
        if rows is None:
            _denominators(terms, table, factor, j, start)
        np.divide(a * numerator, terms if rows is None else rows[k], out=terms)
        # the ratio first, so that a tiny amplitude does not take it subnormal
        terms[j] = n * a if ratio is None else a * ratio
        if k < len(windows):    # the line's terms there, and its -a/2 in each bin
            part = terms[windows[k]]
            own[k] = complex(np.add.reduce(part)) + -0.5 * a * part.size
        if amp is None:
            # the first line's array becomes the sum: term + constant has
            # the bits of constant + term, and no array is filled first; the
            # later lines' terms go to the workspace's buffer
            amp, terms = terms, space.terms
            amp += constant
        else:
            amp += terms
    return (np.full(n, constant, dtype=complex) if amp is None else amp), own


def spectrum(fid: FID, sys: SpinSystem | None = None) -> Spectrum:
    """Discrete Fourier transform with zero-centered axis and a peak table.

    The transform takes the first sample at half weight, which subtracts
    half of it from every bin. The FID is transformed in closed form from
    its lines (_line_spectrum), with no samples and no FFT. The axis is
    (k - points//2) / (points * dwell) for k < points, the same values as
    fftshift(fftfreq(points, dwell)); it is read-only, and the spectra of
    one grid share it. Without a system, the unphased transform is
    returned. With one, the per-transition windows are integrated, the
    exact zero-order phase is chosen, and the transform is phased in place.
    Each window spans +-3 lb around its line and keeps only the bins no
    farther from it than from any other line, as one slice (_window_bins).
    A window that holds no frequency bin is a ValueError naming the line. Peak.own_integral is the real part of FID line k's
    share of window k at that phase, 0 where there is no line k.
    """
    freq = _axis(fid.points, fid.dwell_s)
    lines = () if sys is None else sys._freqs
    constants, windows = _readout_plan(fid.points, fid.dwell_s, fid.lb_hz,
                                       tuple([(f, t2) for _, f, t2 in fid.lines]), lines)
    if sys is None:
        return _frozen(Spectrum, freq_hz=freq, amplitude=_line_spectrum(fid, constants, ())[0],
                       peaks=[], phase_rad=0.0)

    half_width = PEAK_WINDOW_LINEWIDTHS * fid.lb_hz
    labels = sys._levels.line_labels
    amp, own = _line_spectrum(fid, constants, windows)
    df = freq.item(1) - freq.item(0)
    raw, parts = [], []
    for label, line, window in zip(labels, lines, windows):
        part = amp[window]
        parts.append(part)
        if not part.size:
            raise ValueError(
                f"readout window of line {label} ({line:g} Hz "
                f"+- {half_width:g} Hz) holds no frequency bin; raise the line "
                "broadening or the acquisition time points * dwell")
        raw.append(complex(np.add.reduce(part)) * df)     # part.sum() without its wrapper
    for label, value in zip(labels, raw):
        if not cmath.isfinite(value):
            raise ValueError(
                f"readout window integral {value} of line {label} is not finite; "
                "lower the amplitudes or raise the dwell time")
    raw = np.array(raw)
    phase = _best_phase(raw)
    rot = np.exp(1j * phase).item()
    amp *= rot      # the bits of amp * rot, without a second array
    peaks = []
    for label, window, part, integral, mine in zip(labels, windows, parts,
                                                   (raw * rot).real.tolist(), own):
        top = window.start + np.abs(part).argmax()    # part is a view of amp, phased too
        peaks.append(_frozen(Peak, transition=label, frequency_hz=freq.item(top),
                             real_integral=integral, sign=-1 if integral < 0 else 1,
                             own_integral=(mine * df * rot).real))
    return _frozen(Spectrum, freq_hz=freq, amplitude=amp, peaks=peaks, phase_rad=phase)


def check_resolved(spec: Spectrum) -> None:
    """Raise UnresolvedLinesError, naming the line and both parts, for the first
    window whose own line's real part (Peak.own_integral) does not outweigh the
    rest, which the other lines' tails put in and which could then set its sign."""
    for p in spec.peaks:
        rest = p.real_integral - p.own_integral
        if not abs(p.own_integral) > abs(rest):
            raise UnresolvedLinesError(
                f"the other lines put {rest:.6g} into the readout window of line "
                f"{p.transition}, against {p.own_integral:.6g} of its own; raise the "
                "splitting, or lower the line broadening or relaxation rates")


def acquire(rho: np.ndarray, sys: SpinSystem, points: int = DEFAULT_POINTS,
            dwell_s: float = DEFAULT_DWELL_S, lb_hz: float = DEFAULT_LB_HZ,
            relax: RelaxationParams | None = None) -> tuple[FID, Spectrum]:
    """Convenience pipeline: amplitudes -> FID -> phased spectrum."""
    fid = synthesize_fid(observable_amplitudes(rho, sys), sys, points, dwell_s, lb_hz, relax)
    return fid, spectrum(fid, sys)


_CSV_ROW = "%.17g,%.17g,%.17g\r\n"
_CSV_CHUNK_ROWS = 1024


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
    """Write transition,frequency_hz,real_integral,sign rows like write_spectrum_csv's."""
    with open(path, "w", newline="") as fh:
        fh.write("transition,frequency_hz,real_integral,sign\r\n")
        for p in spec.peaks:
            fh.write("%s,%.17g,%.17g,%d\r\n" % (p.transition, p.frequency_hz,
                                                 p.real_integral, p.sign))
