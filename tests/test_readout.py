import cmath
import csv
import math
import threading
import tracemalloc
from sys import getsizeof, getswitchinterval, setswitchinterval

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import quadnmr
from quadnmr import (FID, METHODS, ORACLE_IDS, Peak, RelaxationParams, SpinSystem, Spectrum,
                     UnresolvedLinesError, acquire, check_resolved, conjugate, dj,
                     equilibrium_state, hard_pulse, observable_amplitudes, run_dj, spectrum,
                     synthesize_fid, write_peaks_csv, write_spectrum_csv)
from quadnmr.readout import (_CSV_CHUNK_ROWS, _GEOMETRY_ENTRIES, _KEPT_ROWS_BYTES, MAX_POINTS,
                             PEAK_WINDOW_LINEWIDTHS, _axis, _best_phase, _buffers,
                             _readout_plan, _window_bins)
from quadnmr.relaxation import coherence_t2_table

from helpers import (best_phase_reference, clear_readout_caches, ideal_density_after_oracle,
                     line_table, line_spectrum_reference, observable_amplitudes_reference,
                     own_integrals_reference, spectrum_reference, synthesize_fid_reference,
                     windows_reference)


def analytic_window_integral(amplitude, lb_hz, dwell_s,
                             half_width_hz=PEAK_WINDOW_LINEWIDTHS * 200.0):
    """Continuous-transform oracle for one line's windowed real integral.

    The one-sided decay a*exp(-pi*lb*t) transforms to a Lorentzian whose real
    part integrates over +-W to a * arctan(2W/lb) / pi; the discrete transform
    scales that by 1/dwell.
    """
    rate = np.pi * lb_hz
    return amplitude * np.arctan(2.0 * np.pi * half_width_hz / rate) / np.pi / dwell_s


class TestObservableAmplitudes:
    def test_diagonal_state_silent(self, sys32):
        amps = observable_amplitudes(np.diag([1.5, -0.5, -0.5, -0.5]), sys32)
        assert np.max(np.abs(amps)) == 0.0

    def test_equilibrium_after_hard_90_is_343(self, sys32):
        rho = conjugate(equilibrium_state(sys32), hard_pulse(sys32, "-y", np.pi / 2))
        amps = np.abs(observable_amplitudes(rho, sys32))
        assert amps / amps[1] == pytest.approx([0.75, 1.0, 0.75], abs=1e-12)

    def test_lower_cnot_state_sign_pattern(self, sys32):
        rho = ideal_density_after_oracle("f3")
        amps = observable_amplitudes(rho, sys32).real
        assert amps[0] < 0 and amps[2] < 0 and amps[1] > 0

    @pytest.mark.parametrize("dim", [2, 6])
    def test_wrong_state_shape_rejected(self, sys32, dim):
        rho = np.eye(dim, dtype=complex)
        with pytest.raises(ValueError, match=r"state must be 4x4, got \(%d, %d\)" % (dim, dim)):
            observable_amplitudes(rho, sys32)
        with pytest.raises(ValueError, match="state must be 4x4"):
            acquire(rho, sys32)


class TestSynthesizeFid:
    def test_single_resonant_line_is_constant(self):
        sys = SpinSystem(offset_hz=0.0, lambda_hz=0.0)
        fid = synthesize_fid([0, 1.0, 0], sys, points=64, dwell_s=1e-5, lb_hz=0.0)
        assert np.allclose(fid.samples, 1.0)

    def test_zero_amplitudes_zero_fid(self, sys32):
        fid = synthesize_fid([0, 0, 0], sys32, points=128)
        assert np.max(np.abs(fid.samples)) == 0.0

    def test_nyquist_violation_rejected(self, sys32):
        with pytest.raises(ValueError):
            synthesize_fid([1, 1, 1], sys32, points=64, dwell_s=1e-3)

    def test_wrong_amplitude_count(self, sys32):
        with pytest.raises(ValueError):
            synthesize_fid([1, 1], sys32)

    @pytest.mark.parametrize("lb_hz", [float("nan"), float("inf"), -100.0])
    def test_bad_line_broadening_rejected(self, sys32, lb_hz):
        with pytest.raises(ValueError, match="line broadening"):
            synthesize_fid([1, 1, 1], sys32, points=64, lb_hz=lb_hz)

    @pytest.mark.parametrize("dwell_s", [float("nan"), float("inf"), 0.0])
    def test_bad_dwell_rejected(self, sys32, dwell_s):
        with pytest.raises(ValueError, match="dwell time"):
            synthesize_fid([1, 1, 1], sys32, points=64, dwell_s=dwell_s)

    # each once went on to a NaN peak sign; 1e308 overflows the transform
    @pytest.mark.parametrize("amplitudes, message", [
        ([math.nan, 1.0, 1.0], "amplitude (nan+0j) of line 00-01 is not finite"),
        ([1.0, complex(1.0, math.inf), 1.0], "amplitude (1+infj) of line 01-11 is not finite"),
        ([1e308] * 3, "64 points times the summed amplitude magnitude overflow the float range")])
    def test_non_finite_readout_refused(self, sys32, amplitudes, message):
        with pytest.raises(ValueError) as caught:
            synthesize_fid(amplitudes, sys32, points=64)
        assert str(caught.value) == message

    # run_dj and acquire went on to fail in the transform's slicing with a TypeError
    @pytest.mark.parametrize("points", [4096.0, np.float64(64.0), "64"])
    def test_a_point_count_that_is_no_integer_is_refused(self, sys32, points):
        message = f"point count must be an integer, got {points!r}"
        with pytest.raises(ValueError) as caught:
            synthesize_fid([1, 1, 1], sys32, points=points)
        assert str(caught.value) == message
        with pytest.raises(ValueError) as caught:
            run_dj("f3", sys32, points=points)
        assert str(caught.value) == message
        assert synthesize_fid([1, 1, 1], sys32, points=np.int64(64)).points == 64

    def test_more_than_max_points_rejected(self, sys32):
        # the FID computes nothing on its own, so the largest one costs nothing here
        assert synthesize_fid([1, 1, 1], sys32, points=MAX_POINTS).points == MAX_POINTS
        with pytest.raises(ValueError, match=f"at most {MAX_POINTS} points"):
            synthesize_fid([1, 1, 1], sys32, points=MAX_POINTS + 1)


def reference_fid_samples(amplitudes, sys, points, dwell_s, lb_hz, relax):
    """The FID by the per-line formula a exp(2 pi i f t) exp(-t/T2) exp(-pi lb t)."""
    t = np.arange(points) * dwell_s
    samples = np.zeros(points, dtype=complex)
    broadening = np.exp(-np.pi * lb_hz * t)
    t2 = None if relax is None else coherence_t2_table(relax, sys.dim)
    for a, tr in zip(amplitudes, line_table(sys)):
        decay = broadening
        if t2 is not None:
            decay = decay * np.exp(-t / t2[tr.upper_index, tr.lower_index])
        samples += a * np.exp(2j * np.pi * tr.frequency_hz * t) * decay
    return samples


def scaled(integrals):
    """The integrals times the power of two that brings their largest part into
    [0.5, 1): exact for every part that does not underflow, and scores of
    subnormal integrals keep their bits."""
    top = max((abs(p) for v in integrals for p in (v.real, v.imag)), default=0.0)
    e = math.frexp(top)[1]
    return np.array([complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e))
                     for v in integrals], dtype=complex)


def phase_score(phase, z):
    """sum_k |Re(e^{i phase} z_k)|, the score _best_phase maximizes."""
    return float(np.sum(np.abs(np.real(np.exp(1j * phase) * z))))


def grid_scores(z):
    """The score at each of the 1801 angles of the old grid linspace(0, pi, 1801)."""
    trial = np.linspace(0.0, np.pi, 1801)
    return np.abs(np.real(np.exp(1j * trial)[:, None] * z[None, :])).sum(axis=1)


def brute_force_maximum(z):
    """max |sum_k s_k z_k| over all 2^(L-1) sign patterns s with s_0 = +1,
    which is the maximum score over every phase."""
    if len(z) == 0:
        return 0.0
    bits = (np.arange(2 ** (len(z) - 1))[:, None] >> np.arange(len(z) - 1)) & 1
    signs = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits])
    return float(np.max(np.abs(signs @ z)))


@st.composite
def phase_integrals(draw):
    """1 to 15 integrals from 1e-320 to 1e300: zeros, values on the axes,
    equal magnitudes and independent ones."""
    scale = 10.0 ** draw(st.floats(-320.0, 300.0))
    values = []
    for _ in range(draw(st.integers(1, 15))):
        kind = draw(st.sampled_from(["zero", "real", "imag", "same", "free"]))
        sign = draw(st.sampled_from([1.0, -1.0]))
        angle = draw(st.floats(-np.pi, np.pi))
        if kind == "zero":
            values.append(complex(sign * 0.0, draw(st.sampled_from([0.0, -0.0]))))
        elif kind == "real":
            values.append(complex(sign * scale, 0.0))
        elif kind == "imag":
            values.append(complex(0.0, sign * scale))
        else:
            size = scale if kind == "same" else 10.0 ** draw(st.floats(-320.0, 300.0))
            values.append(size * cmath.exp(1j * angle))
    return values


@st.composite
def acquisitions(draw):
    # zero offset and zero coupling put lines at 0 Hz, signed zeros included
    sys = SpinSystem(spin=draw(st.integers(1, 7)) / 2.0,
                     offset_hz=draw(st.one_of(st.just(0.0), st.floats(-5e3, 5e3))),
                     lambda_hz=draw(st.one_of(st.just(0.0), st.floats(0.0, 2e3))))
    parts = st.floats(-2.0, 2.0)
    amplitudes = [complex(draw(parts), draw(parts)) for _ in line_table(sys)]
    return sys, amplitudes


class TestLazySamples:
    # lines stay below 41 kHz and the dwell keeps the Nyquist limit above 50 kHz
    @settings(max_examples=60, deadline=None)
    @given(acquisition=acquisitions(), points=st.integers(2, 2048),
           dwell_s=st.floats(1e-6, 1e-5), lb_hz=st.floats(0.0, 500.0), relaxed=st.booleans())
    def test_samples_equal_the_reference_loop(self, acquisition, points, dwell_s, lb_hz,
                                              relaxed):
        relax = RelaxationParams() if relaxed else None
        sys, amps = acquisition
        fid = synthesize_fid(amps, sys, points=points, dwell_s=dwell_s, lb_hz=lb_hz,
                             relax=relax)
        assert "samples" not in vars(fid)
        reference = reference_fid_samples(amps, sys, points, dwell_s, lb_hz, relax)
        assert fid.samples.tobytes() == reference.tobytes()
        assert fid.samples is fid.samples    # computed once

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_acquire_computes_no_samples(self, sys32, relaxed):
        rho = conjugate(equilibrium_state(sys32), hard_pulse(sys32, "-y", np.pi / 2))
        fid, _ = acquire(rho, sys32, relax=RelaxationParams() if relaxed else None)
        assert "samples" not in vars(fid)


class TestBestPhase:
    @settings(max_examples=400, deadline=None)
    @given(phase_integrals())
    @example([])
    @example([0j, -0j])
    @example([5e-324j])
    @example([2 + 5e-324j])
    @example([1 + 0j, 1j, -1 + 0j, -1j])
    @example([1e300 + 1e300j] * 15)
    @example([1 + 1j, 1 - 1j])
    # the maximum lies near theta = 0 = pi, where grid rows 0 and 1800 meet
    @example([0.08050566792068725 + 0.14388578219072626j,
              13.011741540201928 + 1.4891634781197722j,
              1.4413070644726258 - 1.6330492603104985j])
    # the maximum lies half a grid row between two rows
    @example([-0.2678406984317786 - 2.1351605535167177j,
              0.07216683723397939 + 0.5752963796624128j])
    def test_best_phase_is_the_exact_maximum(self, integrals):
        integrals = np.array(integrals, dtype=complex)
        phase = _best_phase(integrals)
        assert 0.0 <= phase < 2.0 * np.pi
        z = scaled(integrals)
        score = phase_score(phase, z)
        assert score >= np.max(grid_scores(z)) * (1.0 - 1e-12)
        assert score == pytest.approx(brute_force_maximum(z), rel=1e-12, abs=0.0)
        if np.any(z):
            # the largest peak comes out positive
            assert np.real(np.exp(1j * phase) * z[np.argmax(np.abs(integrals))]) >= 0.0


# complex parts from zero through subnormal to near overflow
PARTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e3, 1e3),
                  st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1.0, -1.0,
                                   1e308, -1.7e308]))


@st.composite
def phase_triples(draw):
    """Three integrals; the second and third may be the first with its parts
    negated or swapped, which ties their magnitudes exactly."""
    first = complex(draw(PARTS), draw(PARTS))
    ties = [first, -first, first.conjugate(), complex(first.imag, first.real)]
    return [first] + [draw(st.one_of(st.sampled_from(ties), st.builds(complex, PARTS, PARTS)))
                      for _ in range(2)]


class TestBestPhaseBits:
    @settings(max_examples=600, deadline=None)
    @given(st.one_of(phase_triples(), phase_integrals()))
    @example([1 + 1j, -1 - 1j, 1 - 1j])
    @example([5e-324 + 0j, -5e-324j, 0j])
    @example([1.7e308 - 1.7e308j, 1.7e308 + 1.7e308j, -0.0 + 0j])
    def test_equals_the_complex_arithmetic_reference(self, integrals):
        integrals = np.array(integrals, dtype=complex)
        assert _best_phase(integrals).hex() == best_phase_reference(integrals).hex()


def reference_spectrum(fid, sys, choose_phase):
    """spectrum() with the transform of spectrum(fid), one boolean mask per
    line over the whole axis, each clipped against the lines within 2.001
    half-widths and then filled from its first to its last bin, the
    zero-order phase choose_phase(raw integrals), and each window's own part
    from its line alone (own_integrals_reference)."""
    freq = np.fft.fftshift(np.fft.fftfreq(fid.points, fid.dwell_s))
    amp = spectrum(fid).amplitude
    half_width = PEAK_WINDOW_LINEWIDTHS * fid.lb_hz
    table = line_table(sys)
    lines = [tr.frequency_hz for tr in table]
    masks = [np.abs(freq - line) <= half_width for line in lines]
    reach = 2.001 * half_width
    for line, mask in zip(lines, masks):
        rivals = [f for f in lines if 0 < abs(f - line) <= reach]
        if rivals:
            idx = np.flatnonzero(mask)
            nearest_rival = np.min(np.abs(freq[idx, None] - rivals), axis=1)
            mask[idx[nearest_rival < np.abs(freq[idx] - line)]] = False
        idx = np.flatnonzero(mask)
        if idx.size:    # lines whose distances tie at scattered bins: fill the gaps
            mask[idx[0]:idx[-1] + 1] = True
    for tr, mask in zip(table, masks):
        if not np.any(mask):
            raise ValueError(
                f"readout window of line {tr.label} ({tr.frequency_hz:g} Hz "
                f"+- {half_width:g} Hz) holds no frequency bin; raise the line "
                "broadening or the acquisition time points * dwell")
    df = freq[1] - freq[0]
    raw = np.array([complex(np.sum(amp[mask]) * df) for mask in masks])
    phase = choose_phase(raw)
    amp = amp * np.exp(1j * phase)
    own = own_integrals_reference(fid, masks, float(df), complex(np.exp(1j * phase)))
    peaks = []
    for tr, mask, integral, mine in zip(table, masks, raw * np.exp(1j * phase), own):
        idx = np.flatnonzero(mask)[int(np.argmax(np.abs(amp[mask])))]
        peaks.append(Peak(transition=tr.label, frequency_hz=float(freq[idx]),
                          real_integral=float(integral.real),
                          sign=int(np.sign(integral.real)) or 1, own_integral=mine))
    return Spectrum(freq_hz=freq, amplitude=amp, peaks=peaks, phase_rad=phase)


def readout_outcome(fid, sys, read):
    """Everything a readout returns, as bytes and reprs, or its ValueError."""
    try:
        spec = read(fid, sys)
    except ValueError as err:
        return "ValueError", str(err)
    return (spec.freq_hz.tobytes(), spec.amplitude.tobytes(), repr(spec.phase_rad),
            repr(spec.peaks), repr([p.own_integral for p in spec.peaks]))


@st.composite
def readout_cases(draw):
    """A random FID and system. The FID holds up to four random lines, each
    on a bin, halfway between bins, near +-Nyquist or anywhere, with a T2 of
    inf or finite. The system's lines, which place the windows, sit the same
    ways, spaced from coincident to far apart, with windows from narrower
    than a bin to wider than the spectrum."""
    points = draw(st.one_of(st.integers(2, 17), st.sampled_from([1024, 4096, 16384])))
    dwell_s = draw(st.one_of(st.sampled_from([5e-6, 1e-7]), st.floats(1e-7, 1e-4)))
    step = 1.0 / (points * dwell_s)
    nyquist = 0.5 / dwell_s
    bins = st.integers(-(points // 2), points - points // 2 - 1)
    positions = st.one_of(
        bins.map(lambda k: k * step),
        bins.map(lambda k: (k + 0.5) * step),
        st.sampled_from([-nyquist, nyquist * (1 - 1e-12), -nyquist * (1 - 1e-9)]),
        st.floats(-nyquist, nyquist))
    offset_hz = draw(positions)
    splitting_hz = draw(st.one_of(
        st.just(0.0),
        st.floats(1e-320, 1e-9),
        st.integers(1, 5).map(lambda k: k * step),
        st.integers(0, 5).map(lambda k: (k + 0.5) * step),
        st.floats(0.0, nyquist)))
    lb_hz = draw(st.one_of(
        st.floats(1e-310, 1e-3),
        st.floats(0.0, 1.0).map(lambda u: u * step / 6.0),
        st.integers(0, 8).map(lambda k: k * step / 6.0),
        st.floats(0.0, 2.0 * nyquist)))
    sys = SpinSystem(spin=draw(st.sampled_from([0.5, 1.5, 2.5, 7.5])),
                     offset_hz=offset_hz, lambda_hz=splitting_hz / 6.0)
    parts = st.floats(-2.0, 2.0)
    lines = tuple((complex(draw(parts), draw(parts)), draw(positions),
                   draw(st.one_of(st.just(math.inf), st.floats(1e-6, 1.0))))
                  for _ in range(draw(st.integers(0, 4))))
    return FID(points=points, dwell_s=dwell_s, lb_hz=lb_hz, lines=lines), sys


@st.composite
def synthesized_cases(draw):
    """Arguments of synthesize_fid: odd and even points from 2 to 4097, lb
    from 0 to 500 Hz, relaxation on or off, zero and nonzero amplitudes, and
    the line at -offset (the only line of spin 1/2, the central one of 3/2)
    on a bin, 1e-12 of a bin off one, at the spectral edge or anywhere."""
    points = draw(st.one_of(st.integers(2, 17), st.integers(2, 4097),
                            st.sampled_from([1024, 4096, 4097])))
    dwell_s = draw(st.one_of(st.sampled_from([5e-6, 1e-4]), st.floats(1e-7, 1e-4)))
    step = 1.0 / (points * dwell_s)
    nyquist = 0.5 / dwell_s
    bins = st.integers(-((points - 1) // 2), (points - 1) // 2)
    line_hz = draw(st.one_of(
        bins.map(lambda k: k * step),
        st.tuples(bins, st.sampled_from([1e-12, -1e-12])).map(lambda kd: (kd[0] + kd[1]) * step),
        st.sampled_from([nyquist * (1 - 1e-12), -nyquist * (1 - 1e-12)]),
        st.floats(-nyquist, nyquist, exclude_min=True, exclude_max=True)))
    spin = draw(st.sampled_from([0.5, 1.5]))
    splitting_hz = draw(st.one_of(st.just(0.0), st.integers(1, 5).map(lambda k: k * step),
                                  st.floats(0.0, nyquist)))
    sys = SpinSystem.from_splitting(splitting_hz, offset_hz=-line_hz, spin=spin)
    assume(all(abs(tr.frequency_hz) < nyquist for tr in line_table(sys)))
    # subnormal amplitudes carry too few digits for either transform to agree to 1e-12
    parts = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_subnormal=False))
    amplitudes = [complex(draw(parts), draw(parts)) for _ in line_table(sys)]
    lb_hz = draw(st.one_of(st.sampled_from([0.0, 1e-6]), st.floats(0.0, 500.0)))
    return sys, amplitudes, points, dwell_s, lb_hz, draw(st.booleans())


class TestSpectrum:
    @settings(max_examples=300, deadline=None)
    @given(readout_cases())
    # lines 1e-300 Hz apart tie at scattered bins, so a mask need not be one run
    @example((FID(points=4096, dwell_s=5e-6, lb_hz=200.0, lines=((1.0, 0.0, math.inf),)),
              SpinSystem.from_splitting(splitting_hz=1e-300)))
    # the bins at +-12 kHz lie exactly halfway between two lines and are shared
    @example((FID(points=16, dwell_s=1.0 / (16 * 12000.0), lb_hz=4000.0,
                  lines=((1.0 + 1.0j, 24000.0, math.inf), (0.5, 0.0, 1e-3),
                         (-0.7j, -24000.0, math.inf))),
              SpinSystem.from_splitting(splitting_hz=24000.0)))
    def test_windows_peaks_and_errors_equal_the_mask_code(self, case):
        fid, sys = case
        try:
            phase = spectrum(fid, sys).phase_rad
        except ValueError:
            phase = math.nan    # the reference must raise the same error before phasing

        def spectrum_phase(raw):
            # spectrum()'s phase, which must score as high as every row of the old grid
            z = scaled(raw)
            assert phase_score(phase, z) >= np.max(grid_scores(z)) * (1.0 - 1e-12)
            return phase

        assert readout_outcome(fid, sys, spectrum) == readout_outcome(
            fid, sys, lambda f, s: reference_spectrum(f, s, spectrum_phase))

    @pytest.mark.parametrize("points", [*range(1, 18), 1024, 4096, 16384])
    @pytest.mark.parametrize("dwell_s", [5e-6, 1e-7, 1e-5 / 3.0, 2.5e-4])
    def test_axis_bytes_equal_shifted_fftfreq(self, points, dwell_s):
        fid = FID(points=points, dwell_s=dwell_s, lb_hz=200.0, lines=())
        assert spectrum(fid).freq_hz.tobytes() == \
            np.fft.fftshift(np.fft.fftfreq(points, dwell_s)).tobytes()

    def test_spectra_of_one_grid_share_a_read_only_axis(self, sys32):
        first = spectrum(synthesize_fid([1, 1, 1], sys32, points=64))
        second = spectrum(synthesize_fid([1, 2, 3], sys32, points=64), sys32)
        assert first.freq_hz is second.freq_hz
        with pytest.raises(ValueError, match="read-only"):
            first.freq_hz[0] = 1.0

    @settings(max_examples=300, deadline=None)
    @given(synthesized_cases())
    # undamped on a bin: 1 - q^N and 1 - q w^m are both 0
    @example((SpinSystem(offset_hz=0.0), [0.3, 1.0 - 0.5j, 0.7], 64, 5e-6, 0.0, False))
    # undamped 1e-12 of a bin off bin 1: both differences lose their digits
    @example((SpinSystem(spin=0.5, offset_hz=-3125.0 * (1 + 1e-12), lambda_hz=0.0), [1.0],
              64, 5e-6, 0.0, False))
    # undamped a subnormal frequency off bin 0: the denominator keeps too few digits
    @example((SpinSystem(spin=0.5, offset_hz=-2.225073858507e-311, lambda_hz=0.0), [1j],
              3, 1e-4, 0.0, False))
    def test_closed_form_equals_the_fft_of_the_samples(self, case):
        sys, amplitudes, points, dwell_s, lb_hz, relaxed = case

        def fid_of(amps):
            return synthesize_fid(amps, sys, points=points, dwell_s=dwell_s, lb_hz=lb_hz,
                                  relax=RelaxationParams() if relaxed else None)

        fid = fid_of(amplitudes)
        amp = spectrum(fid).amplitude
        assert "samples" not in vars(fid)
        halved = fid.samples.copy()
        halved[0] *= 0.5
        expected = np.fft.fftshift(np.fft.fft(halved))
        # every bin to 1e-12 of the tallest bin the lines reach with their magnitudes
        # summed: coincident lines (zero splitting) can cancel to any small remainder,
        # which neither transform resolves better than it resolves the lines
        tallest = np.max(sum(np.abs(spectrum(fid_of(np.eye(len(amplitudes))[k] * a)).amplitude)
                             for k, a in enumerate(amplitudes)))
        assert np.max(np.abs(amp - expected)) <= 1e-12 * tallest

    @pytest.mark.parametrize("points", [17, 1000, 1024, 4097])
    def test_one_decaying_line_equals_its_closed_form(self, points):
        # the DFT of a * q^k, k < N, is a (1 - q^N) / (1 - q w^j) with
        # w = exp(-2 pi i / N); the first sample at half weight takes a/2 off
        dwell_s, lb_hz, a = 5e-6, 200.0, 0.7 - 0.3j
        sys = SpinSystem(offset_hz=1234.5)
        f = line_table(sys)[1].frequency_hz
        fid = synthesize_fid([0, a, 0], sys, points=points, dwell_s=dwell_s, lb_hz=lb_hz)
        q = np.exp((2j * np.pi * f - np.pi * lb_hz) * dwell_s)
        w = np.exp(-2j * np.pi * np.arange(points) / points)
        expected = np.fft.fftshift(a * (1 - q ** points) / (1 - q * w) - a / 2)
        amp = spectrum(fid).amplitude
        # every bin to 1e-12 of the tallest
        assert np.max(np.abs(amp - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_single_line_peaks_at_zero(self):
        sys = SpinSystem(offset_hz=0.0, lambda_hz=0.0)
        fid = synthesize_fid([0, 1.0, 0], sys, points=256, dwell_s=1e-5)
        spec = spectrum(fid)
        assert spec.freq_hz[np.argmax(np.abs(spec.amplitude))] == pytest.approx(0.0)

    def test_parseval(self, sys32):
        rho = conjugate(equilibrium_state(sys32), hard_pulse(sys32, "-y", np.pi / 2))
        fid, spec = acquire(rho, sys32)
        halved = fid.samples.copy()
        halved[0] *= 0.5        # the spectrum takes the first sample at half weight
        time_energy = np.sum(np.abs(halved) ** 2)
        freq_energy = np.sum(np.abs(spec.amplitude) ** 2) / fid.points
        assert freq_energy == pytest.approx(time_energy, rel=1e-9)

    def test_linearity(self, sys32):
        fid_a = synthesize_fid([1.0, 0, 0], sys32, points=512)
        fid_b = synthesize_fid([0, 0.5, 0.25], sys32, points=512)
        combined = FID(points=512, dwell_s=fid_a.dwell_s, lb_hz=fid_a.lb_hz,
                       lines=fid_a.lines + fid_b.lines)
        lhs = spectrum(combined).amplitude
        rhs = spectrum(fid_a).amplitude + spectrum(fid_b).amplitude
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(lhs))

    def test_equilibrium_integrals_343_within_one_percent(self, sys32):
        rho = conjugate(equilibrium_state(sys32), hard_pulse(sys32, "-y", np.pi / 2))
        _, spec = acquire(rho, sys32)
        integrals = np.array([p.real_integral for p in spec.peaks])
        assert integrals[0] / integrals[1] == pytest.approx(0.75, rel=0.01)
        assert integrals[2] / integrals[1] == pytest.approx(0.75, rel=0.01)

    def test_integral_magnitude_near_analytic_oracle(self, sys32):
        rho = conjugate(equilibrium_state(sys32), hard_pulse(sys32, "-y", np.pi / 2))
        fid, spec = acquire(rho, sys32)
        amps = np.abs(observable_amplitudes(rho, sys32))
        for peak, a in zip(spec.peaks, amps):
            expected = analytic_window_integral(a, fid.lb_hz, fid.dwell_s)
            # the finite grid and the neighbours' tails cost about 0.25%
            assert abs(peak.real_integral) == pytest.approx(expected, rel=0.01)

    def test_peak_locations_within_one_bin(self, sys32):
        rho = conjugate(equilibrium_state(sys32), hard_pulse(sys32, "-y", np.pi / 2))
        fid, spec = acquire(rho, sys32)
        bin_hz = 1.0 / (fid.points * fid.dwell_s)
        for peak, freq in zip(spec.peaks, (16_000.0, 0.0, -16_000.0)):
            assert abs(peak.frequency_hz - freq) <= bin_hz

    @pytest.mark.parametrize("splitting_hz, offset_hz, lb_hz", [
        (300.0, 0.0, 200.0), (600.0, 700.0, 200.0), (1_000.0, -1_500.0, 200.0),
        (16_000.0, 0.0, 8_000.0), (16_000.0, 0.0, 200.0), (0.0, 0.0, 200.0)])
    def test_windows_keep_bins_nearest_their_line(self, splitting_hz, offset_hz, lb_hz):
        # reference: a bin counts for line k when it lies within 3*lb of it
        # and no farther from it than from any line, ties shared
        sys = SpinSystem.from_splitting(splitting_hz=splitting_hz, offset_hz=offset_hz)
        fid = synthesize_fid([0.8, -1.0, 0.6j], sys, points=4096, lb_hz=lb_hz)
        spec = spectrum(fid, sys)
        lines = np.array([tr.frequency_hz for tr in line_table(sys)])
        dist = np.abs(spec.freq_hz[:, None] - lines)
        windows = (dist <= PEAK_WINDOW_LINEWIDTHS * lb_hz) & \
            (dist <= dist.min(axis=1, keepdims=True))
        df = spec.freq_hz[1] - spec.freq_hz[0]
        for peak, window in zip(spec.peaks, windows.T):
            scale = np.sum(np.abs(spec.amplitude[window])) * df
            assert peak.real_integral == pytest.approx(
                np.sum(spec.amplitude[window]).real * df, rel=0, abs=1e-12 * scale)

    def test_grid_spacing(self, sys32):
        fid, spec = acquire(equilibrium_state(sys32), sys32, points=1024)
        df = np.diff(spec.freq_hz)
        assert np.allclose(df, 1.0 / (1024 * fid.dwell_s))

    def test_relaxation_reduces_outer_peaks(self, sys32):
        rho = conjugate(equilibrium_state(sys32), hard_pulse(sys32, "-y", np.pi / 2))
        _, ideal = acquire(rho, sys32)
        _, relaxed = acquire(rho, sys32, relax=RelaxationParams())
        for k in (0, 2):
            assert abs(relaxed.peaks[k].real_integral) < abs(ideal.peaks[k].real_integral)
        # outer lines lose more than the central line
        loss = [1 - abs(relaxed.peaks[k].real_integral / ideal.peaks[k].real_integral)
                for k in range(3)]
        assert loss[0] > loss[1] and loss[2] > loss[1]


@st.composite
def shared_window_parts(draw):
    """The own parts of 2 to 5 windows over one bin set: from zero through
    subnormal to near overflow (PARTS), each after the first possibly the
    first again or negated, which ties them exactly."""
    first = draw(PARTS)
    return [first] + [draw(st.one_of(st.sampled_from([first, -first]), PARTS))
                      for _ in range(draw(st.integers(1, 4)))]


class TestCheckResolved:
    @staticmethod
    def spec(*parts):
        """A spectrum whose peaks hold the (real_integral, own_integral) parts."""
        return Spectrum(freq_hz=np.zeros(2), amplitude=np.zeros(2, dtype=complex),
                        peaks=[Peak(label, 0.0, real, 1, own) for label, (real, own)
                               in zip(("00-01", "01-11", "11-10"), parts)])

    def test_own_parts_outweighing_the_rest_pass(self):
        check_resolved(self.spec((1.5, 1.0), (-0.5, -1.0), (0.9, 1.0)))

    # the rest equal in magnitude to the own part, or of the opposite sign and larger
    @pytest.mark.parametrize("real, own", [(2.0, 1.0), (0.0, -1.0), (0.5, -1.0), (0.0, 0.0),
                                           (math.nan, 1.0)])
    def test_the_first_window_not_outweighing_the_rest_is_refused(self, real, own):
        with pytest.raises(UnresolvedLinesError) as err:
            check_resolved(self.spec((1.5, 1.0), (real, own), (real, own)))
        assert "readout window of line 01-11," in str(err.value)
        assert isinstance(err.value, ValueError)

    # n >= 2 windows over one bin set hold the same real integral s = sum x_i.
    # Squared, each |x_i| > |s - x_i| reads (2 x_i - s) s > 0, and the n of
    # them sum to (2 - n) s^2 > 0, which is false: nearly coincident lines,
    # whose windows are one slice, are always refused
    @settings(max_examples=1000, deadline=None)
    @given(shared_window_parts())
    @example([1.0, 1.0])
    @example([1.0, 1.0 - 2.0 ** -53])
    @example([5e-324, 5e-324, -0.0])
    @example([1.7e308, 1.7e308])
    def test_windows_over_one_bin_set_are_always_refused(self, own):
        total = sum(own)
        spec = Spectrum(freq_hz=np.zeros(2), amplitude=np.zeros(2, dtype=complex),
                        peaks=[Peak(f"line {k}", 0.0, total, 1, x) for k, x in enumerate(own)])
        with pytest.raises(UnresolvedLinesError):
            check_resolved(spec)

    def test_one_error_class_everywhere(self):
        assert (quadnmr.readout.UnresolvedLinesError is dj.UnresolvedLinesError
                is quadnmr.UnresolvedLinesError)

    def test_equilibrium_windows_are_their_own_lines(self, sys32):
        rho = conjugate(equilibrium_state(sys32), hard_pulse(sys32, "-y", np.pi / 2))
        for peak in acquire(rho, sys32)[1].peaks:
            assert abs(peak.own_integral) > 1000 * abs(peak.real_integral - peak.own_integral)


class TestCsvOutput:
    def test_headers_and_determinism(self, sys32, tmp_path):
        rho = conjugate(equilibrium_state(sys32), hard_pulse(sys32, "-y", np.pi / 2))
        _, spec = acquire(rho, sys32, points=512)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_spectrum_csv(first, spec)
        write_spectrum_csv(second, spec)
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == "freq_hz,real,imag"
        assert len(lines) == 1 + 512

        peaks = tmp_path / "p.csv"
        write_peaks_csv(peaks, spec)
        rows = peaks.read_text().splitlines()
        assert rows[0] == "transition,frequency_hz,real_integral,sign"
        assert len(rows) == 4

    def test_floats_round_trip(self, sys32, tmp_path):
        rho = conjugate(equilibrium_state(sys32), hard_pulse(sys32, "-y", np.pi / 2))
        _, spec = acquire(rho, sys32, points=256)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        assert np.array_equal(data[:, 0], spec.freq_hz)
        assert np.array_equal(data[:, 1], spec.amplitude.real)

    @pytest.mark.parametrize("rows", [0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS,
                                      _CSV_CHUNK_ROWS + 1, 2 * _CSV_CHUNK_ROWS + 1])
    def test_spectrum_bytes_equal_csv_writer(self, tmp_path, rows):
        special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
                   1e308, 0.1, -1.0 / 3.0]
        # ten values cycled over three columns put each one in every column
        values = np.resize(np.array(special), 3 * rows).reshape(rows, 3)
        amplitude = np.empty(rows, dtype=complex)
        amplitude.real, amplitude.imag = values[:, 1], values[:, 2]
        spec = Spectrum(freq_hz=values[:, 0].copy(), amplitude=amplitude)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["freq_hz", "real", "imag"])
            for f, a in zip(spec.freq_hz, spec.amplitude):
                writer.writerow([format(float(f), ".17g"), format(float(a.real), ".17g"),
                                 format(float(a.imag), ".17g")])
        path = tmp_path / "spec.csv"
        write_spectrum_csv(path, spec)
        assert path.read_bytes() == reference.read_bytes()


# complex parts from signed zero through subnormal to 1e100: the transform and
# the window sums of such lines stay finite
BIG_PARTS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e100, -1e100]))
# amplitude parts of every kind, the ones synthesize_fid refuses included
ANY_PARTS = st.one_of(BIG_PARTS, st.floats(), st.sampled_from([1e308, -1.7e308]))


@st.composite
def states_and_systems(draw):
    """A system of spin 1/2 to 15/2 and a state of its size (now and then
    not) as complex, float or integer entries, up to six of them special."""
    sys = SpinSystem(spin=draw(st.integers(1, 15)) / 2.0)
    dim = sys.dim + (draw(st.sampled_from([-1, 1])) if draw(st.integers(0, 9)) == 0 else 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    for _ in range(draw(st.integers(0, 6))):
        rho[draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))] = complex(
            draw(st.one_of(BIG_PARTS, st.sampled_from([1.7e308, -1.7e308]))), draw(BIG_PARTS))
    kind = draw(st.sampled_from(["complex", "float", "int"]))
    if kind == "float":
        rho = rho.real.copy()
    elif kind == "int":
        rho = rng.integers(-5, 6, size=(dim, dim))
    return sys, rho


@st.composite
def fid_arguments(draw):
    """synthesize_fid's arguments, each now and then one it refuses: point
    counts from 1 to past MAX_POINTS, dwells from 5e-324 s to inf, and
    amplitudes with NaN, inf and near-overflow parts."""
    sys = SpinSystem(spin=draw(st.sampled_from([0.5, 1.5, 2.5])),
                     offset_hz=draw(st.one_of(st.just(0.0), st.floats(-5e3, 5e3))),
                     lambda_hz=draw(st.one_of(st.just(0.0), st.floats(0.0, 5e3))))
    count = sys.dim - 1 + (draw(st.sampled_from([-1, 1])) if draw(st.integers(0, 19)) == 0 else 0)
    amplitudes = [complex(draw(ANY_PARTS), draw(ANY_PARTS)) for _ in range(count)]
    points = draw(st.one_of(st.integers(1, 17), st.sampled_from([1024, 4096, MAX_POINTS,
                                                                 MAX_POINTS + 1])))
    dwell_s = draw(st.one_of(st.floats(1e-7, 1e-3), st.sampled_from(
        [5e-6, 1e-310, 5e-324, 1e-300, 0.0, -1e-6, math.inf, math.nan])))
    lb_hz = draw(st.sampled_from([0.0, 200.0, 1e-300, -1.0, math.nan, math.inf]))
    return amplitudes, sys, points, dwell_s, lb_hz, draw(st.sampled_from([None, RelaxationParams()]))


@st.composite
def edge_cases(draw):
    """An FID and a system whose lines sit on bins with windows of a whole
    number of bins each side, so that window edges fall on bins (to the
    rounding of 3 lb), with amplitudes from signed zero to 1e100."""
    points = draw(st.sampled_from([16, 17, 1024, 4096]))
    dwell_s = draw(st.sampled_from([5e-6, 1e-5 / 3.0]))
    step = 1.0 / (points * dwell_s)
    bins = st.integers(-(points // 4), points // 4)
    sys = SpinSystem(spin=draw(st.sampled_from([0.5, 1.5, 2.5])),
                     offset_hz=draw(bins) * step, lambda_hz=draw(st.integers(0, 6)) * step / 6.0)
    lb_hz = draw(st.integers(0, 6)) * step / 3.0
    lines = tuple((complex(draw(BIG_PARTS), draw(BIG_PARTS)), draw(bins) * step,
                   draw(st.sampled_from([math.inf, 1e-3])))
                  for _ in range(draw(st.integers(0, 4))))
    return FID(points=points, dwell_s=dwell_s, lb_hz=lb_hz, lines=lines), sys


@st.composite
def big_readout_cases(draw):
    """readout_cases with amplitude parts from signed zero to 1e100."""
    fid, sys = draw(readout_cases())
    lines = tuple((complex(draw(BIG_PARTS), draw(BIG_PARTS)), f, t2) for _, f, t2 in fid.lines)
    return FID(points=fid.points, dwell_s=fid.dwell_s, lb_hz=fid.lb_hz, lines=lines), sys


def outcome(call, *args):
    """What call returns, or the text of its ValueError."""
    try:
        return call(*args)
    except ValueError as err:
        return ("ValueError", str(err))


class TestRewritesKeepTheirBits:
    """readout functions against their bodies before the fixed-cost cut."""

    @settings(max_examples=300, deadline=None)
    @given(states_and_systems())
    @example((SpinSystem(), np.full((4, 4), complex(-0.0, -0.0))))
    @example((SpinSystem(), np.full((4, 4), -0.0)))
    def test_observable_amplitudes_equal_the_reference(self, case):
        sys, rho = case
        got = outcome(lambda: observable_amplitudes(rho, sys).tobytes())
        with np.errstate(over="ignore"):     # numpy scalars warned of an overflow to inf
            expected = outcome(lambda: observable_amplitudes_reference(rho, sys).tobytes())
        assert got == expected

    @settings(max_examples=400, deadline=None)
    @given(fid_arguments())
    def test_synthesize_fid_equals_the_reference(self, args):
        def lines(call):
            fid = call(*args)
            return fid.points, fid.dwell_s, fid.lb_hz, repr(fid.lines)

        got = outcome(lines, synthesize_fid)
        amplitudes, sys, points, dwell_s, lb_hz, relax = args
        if got[0] == "ValueError" and got[1].startswith("the frequency axis"):
            # refused since the fixed-cost cut: the axis overflows
            assert not math.isfinite(points // 2 * (1.0 / (points * dwell_s)))
            return
        assert got == outcome(lines, synthesize_fid_reference)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(big_readout_cases(), edge_cases()))
    @example((FID(points=4096, dwell_s=5e-6, lb_hz=200.0,
                  lines=((-0.0 + 5e-324j, 0.0, math.inf), (1e100 - 0.0j, 16000.0, 1e-3))),
              SpinSystem()))
    def test_spectrum_equals_the_reference(self, case):
        fid, sys = case
        assert readout_outcome(fid, sys, spectrum) == readout_outcome(fid, sys,
                                                                      spectrum_reference)


class TestOverflowingReadoutRefused:
    # a dwell near the float minimum overflowed the axis k / (points * dwell),
    # whose bin width may still be finite (64 points, 1e-310 s)
    @pytest.mark.parametrize("points, dwell_s", [(4096, 1e-310), (2, 5e-324), (64, 1e-310)])
    def test_axis_beyond_the_float_range(self, points, dwell_s):
        with pytest.raises(ValueError) as caught:
            synthesize_fid([1.0], SpinSystem(spin=0.5), points=points, dwell_s=dwell_s)
        assert str(caught.value) == (f"the frequency axis of {points} points at a {dwell_s:g} s "
                                     "dwell overflows the float range; raise the dwell time")

    def test_largest_finite_axis_accepted(self):
        fid = synthesize_fid([1.0], SpinSystem(spin=0.5), points=2, dwell_s=1e-308)
        assert np.isfinite(spectrum(fid).freq_hz).all()

    def test_window_integral_beyond_the_float_range(self):
        # points * sum(|a|) is finite, but the window sums times the bin width are not
        sys = SpinSystem.from_splitting(0.0)
        fid = synthesize_fid([1e10, 1, 1], sys, points=64, dwell_s=1e-300)
        with pytest.raises(ValueError, match=r"^readout window integral \(inf.*\) of line "
                                             r"00-01 is not finite; lower the amplitudes "
                                             r"or raise the dwell time$"):
            spectrum(fid, sys)


# the T2s of the relaxed lines, single- to triple-quantum
RELAXED_T2_S = sorted({float(t) for t in coherence_t2_table(RelaxationParams(), 4).flat
                       if t < math.inf})


@st.composite
def transform_grids(draw):
    """FIDs on two to six grids, their point counts drawn with repeats, so
    that a kept buffer of another count is reused and, past three counts,
    dropped: counts that are not powers of two, lines undamped and exactly on
    bins or anywhere, zero and subnormal amplitudes, and relaxed T2s."""
    fids = []
    counts = st.one_of(st.integers(2, 17), st.sampled_from([1000, 1024, 4097, 16384]))
    for points in draw(st.lists(counts, min_size=2, max_size=6)):
        dwell_s = draw(st.one_of(st.sampled_from([5e-6, 1e-4]), st.floats(1e-7, 1e-4)))
        step, nyquist = 1.0 / (points * dwell_s), 0.5 / dwell_s
        bins = st.integers(-(points // 2), points - points // 2 - 1)
        positions = st.one_of(bins.map(lambda k: k * step), st.floats(-nyquist, nyquist))
        t2s = st.one_of(st.just(math.inf), st.sampled_from(RELAXED_T2_S), st.floats(1e-6, 1.0))
        lines = tuple((complex(draw(BIG_PARTS), draw(BIG_PARTS)), draw(positions), draw(t2s))
                      for _ in range(draw(st.integers(0, 4))))
        lb_hz = draw(st.one_of(st.just(0.0), st.floats(0.0, 500.0)))
        fids.append(FID(points=points, dwell_s=dwell_s, lb_hz=lb_hz, lines=lines))
    return fids


@st.composite
def repeated_line_sets(draw):
    """Transforms on one grid of two to four line sets, each two or three
    times with new amplitudes, in a drawn interleaved order: the 1, 3 and 5
    lines of spins 1/2, 3/2 and 5/2 (5 lines of 4096 points are over the
    kept-row bound), lines undamped and exactly on bins or anywhere, T2s of
    +-inf or relaxed, and zero and subnormal amplitudes. A None in the order
    clears the line constants, so that the sets after it get new entries."""
    points = draw(st.sampled_from([17, 1024, 2048, 4096]))
    dwell_s = draw(st.sampled_from([5e-6, 1e-4]))
    lb_hz = draw(st.one_of(st.just(0.0), st.floats(0.0, 500.0)))
    step, nyquist = 1.0 / (points * dwell_s), 0.5 / dwell_s
    bins = st.integers(-(points // 2), points - points // 2 - 1)
    positions = st.one_of(bins.map(lambda k: k * step), st.floats(-nyquist, nyquist))
    t2s = st.one_of(st.sampled_from([math.inf, -math.inf]), st.sampled_from(RELAXED_T2_S))
    sets = [[(draw(positions), draw(t2s)) for _ in range(draw(st.sampled_from([1, 3, 5])))]
            for _ in range(draw(st.integers(2, 4)))]
    order = [k for k, _ in enumerate(sets) for _ in range(draw(st.integers(2, 3)))]
    fids = []
    for k in draw(st.permutations(order + [None] * draw(st.integers(0, 2)))):
        fids.append(None if k is None else FID(
            points=points, dwell_s=dwell_s, lb_hz=lb_hz,
            lines=tuple((complex(draw(BIG_PARTS), draw(BIG_PARTS)), f, t2) for f, t2 in sets[k])))
    return fids


def interleaved_spins():
    """A, B, A, C, B, A on one 2048-point grid, the line constants cleared
    before the last A: spin 1/2 undamped exactly on a bin, spin 3/2 with T2s
    of +-inf and zero and subnormal amplitudes, and spin 5/2 relaxed."""
    points, dwell_s = 2048, 5e-6

    def fid(spin, amplitudes, t2s):
        freqs = SpinSystem.from_splitting(16_000.0, offset_hz=16 / (points * dwell_s),
                                          spin=spin)._freqs
        return FID(points=points, dwell_s=dwell_s, lb_hz=0.0,
                   lines=tuple(zip(amplitudes, freqs, t2s)))

    a = [fid(0.5, [amp], [math.inf]) for amp in (0.3, 2.0 - 1j, -1.0)]
    b = [fid(1.5, amps, [math.inf, -math.inf, 0.004])
         for amps in ([0j, -0.0 + 5e-324j, 1.0 - 0.5j], [1.0, -5e-324, 0j])]
    c = fid(2.5, [1e-310, 1.0, 0j, -2.0, 1j], RELAXED_T2_S + [math.inf] * 2)
    return [a[0], b[0], a[1], c, b[1], None, a[2]]


class TestKeptTransformBuffer:
    """The transform keeps one working buffer per thread and point count,
    and the denominator rows of the last two line sets within the bound."""

    @settings(max_examples=200, deadline=None)
    @given(transform_grids())
    @example([FID(points=64, dwell_s=5e-6, lb_hz=0.0,
                  lines=((0.3, 0.0, math.inf), (-0.0 + 5e-324j, 3125.0, math.inf),
                         (1.0 - 0.5j, -6250.0, math.inf))),
              FID(points=17, dwell_s=1e-4, lb_hz=0.0, lines=((0j, 0.0, math.inf),)),
              FID(points=64, dwell_s=5e-6, lb_hz=200.0,
                  lines=((1j, 1234.5, RELAXED_T2_S[0]), (2.0, 0.0, RELAXED_T2_S[-1])))])
    def test_transform_has_the_bits_of_the_parent_body(self, fids):
        # every result is read after the last transform: none may share a kept buffer
        results = [spectrum(fid).amplitude for fid in fids]
        for fid, amp in zip(fids, results):
            assert amp.tobytes() == line_spectrum_reference(fid).tobytes()

    # a 4096-point line set is kept from its second transform on, which
    # fills its rows; 16384-point rows are over the bound and never kept
    @pytest.mark.parametrize("points, transforms", [(16384, 1), (4096, 2)])
    def test_warm_spectrum_allocates_only_its_result(self, sys32, points, transforms):
        fid = synthesize_fid([1.0, 2.0 - 1j, 3.0], sys32, points=points,
                             relax=RelaxationParams())
        for _ in range(transforms):
            spectrum(fid, sys32)     # builds the twiddles, the axis and the kept buffer
        tracemalloc.start()
        try:
            spectrum(fid, sys32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result, 16 bytes a point, and the small arrays of the windows
        assert peak <= 1.25 * 16 * points

    # 16384-point rows are over the bound; at 4096 points each thread
    # alternates two line sets of its own system, which it keeps rows of:
    # rows shared by the threads would be rebuilt under the other's reads
    @pytest.mark.parametrize("points, relaxations, splittings, rounds", [
        (16384, [RelaxationParams()], [16_000.0, 16_000.0], 40),
        (4096, [RelaxationParams(), None], [16_000.0, 12_000.0], 400)])
    def test_threads_get_the_bits_of_the_serial_transform(self, points, relaxations, splittings,
                                                          rounds):
        fids = [[synthesize_fid(amps, SpinSystem.from_splitting(splitting_hz), points=points,
                                relax=relax) for relax in relaxations]
                for amps, splitting_hz in zip(([1.0, 2.0 - 1j, 3.0], [-0.5j, 4.0, 1e-3 + 2j]),
                                              splittings)]
        serial = [[spectrum(fid).amplitude.tobytes() for fid in sets] for sets in fids]
        start = threading.Barrier(len(fids), timeout=60)
        results = [[] for _ in fids]

        def transform(k):
            start.wait()
            for i in range(rounds):
                which = i % len(relaxations)
                results[k].append(spectrum(fids[k][which]).amplitude.tobytes() ==
                                  serial[k][which])

        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=transform, args=(k,)) for k in range(len(fids))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[True] * rounds] * len(fids)

    @settings(max_examples=200, deadline=None)
    @given(repeated_line_sets())
    @example(interleaved_spins())
    def test_repeated_line_sets_have_the_bits_of_the_parent_body(self, fids):
        results = []
        for fid in fids:
            if fid is None:
                _readout_plan.cache_clear()
            else:
                results.append((fid, spectrum(fid).amplitude))
        # every result is read after the last transform: none may share kept rows
        for fid, amp in results:
            assert amp.tobytes() == line_spectrum_reference(fid).tobytes()

    def test_kept_rows_are_bounded(self):
        # rounds over five point counts and three spins, each set transformed
        # twice; 16384 points and 5 lines of 4096 points are over the bound
        counts = [64, 16384, 1024, 2048, 4096]
        for splitting_hz in (8_000.0, 12_000.0, 16_000.0):
            for points in counts:
                for spin in (0.5, 1.5, 2.5):
                    sys = SpinSystem.from_splitting(splitting_hz, spin=spin)
                    fid = synthesize_fid(np.ones(sys.dim - 1), sys, points=points,
                                         relax=RelaxationParams() if spin == 1.5 else None)
                    spectrum(fid)
                    spectrum(fid)
        # the workspaces of the last three counts are kept, each two sets in place
        misses = _buffers.workspace.cache_info().misses
        kept = [_buffers.workspace(points) for points in (1024, 2048, 4096)]
        assert _buffers.workspace.cache_info()[1:] == (misses, 3, 3)
        for space in kept:
            assert len(space.slots) == 2
            for constants, buffer, built in space.slots:
                assert buffer.nbytes == _KEPT_ROWS_BYTES == 192 * 1024
                assert len(built) == len(constants)
                assert all(row.base is buffer for row in built)
        # the last two sets of each count under the bound: spins 3/2 and 5/2,
        # or 1/2 and 3/2 where 5 lines are over it
        sets = [[len(constants) for constants, _, _ in space.slots] for space in kept]
        assert sets == [[5, 3], [5, 3], [3, 1]]


def fill_geometry_caches():
    """Read _GEOMETRY_ENTRIES + 1 readout plans that no test draws (dwells
    above 1 ms, below 1 s), which evicts every earlier entry."""
    sys = SpinSystem(spin=0.5)
    for k in range(_GEOMETRY_ENTRIES + 1):
        spectrum(FID(points=8, dwell_s=1e-3 * (1.0 + k / 1000.0), lb_hz=1000.0,
                     lines=((1.0, 0.0, math.inf),)), sys)
    assert _readout_plan.cache_info().currsize == _GEOMETRY_ENTRIES


def window_bins(window):
    """A window's bins as a list: an empty window's slice bounds are not
    observable, since spectrum refuses every empty window alike."""
    assert type(window) is slice
    return list(range(window.start, window.stop))


def resolved_windows(fid, sys):
    """The bins of the windows spectrum(fid, sys) integrates, each a slice
    that _window_bins finds again."""
    freq, half_width = _axis(fid.points, fid.dwell_s), PEAK_WINDOW_LINEWIDTHS * fid.lb_hz
    kept = _readout_plan(fid.points, fid.dwell_s, fid.lb_hz,
                         tuple((f, t2) for _, f, t2 in fid.lines), sys._freqs)[1]
    assert list(kept) == [_window_bins(freq, sys._freqs, line, half_width)
                          for line in sys._freqs]
    return [window_bins(window) for window in kept]


def reference_windows(fid, sys):
    return [window_bins(window) for window in windows_reference(
        _axis(fid.points, fid.dwell_s), fid.points * fid.dwell_s, list(sys._freqs),
        PEAK_WINDOW_LINEWIDTHS * fid.lb_hz)]


@st.composite
def geometry_reads(draw):
    """Readouts of one to three geometries, each after the first the one
    before with one of its numbers drawn again, so that the keys differ in
    one part. Each geometry is read two to four times, in a drawn order,
    with new amplitudes and its numbers written other ways: a zero offset or
    lb as 0, 0.0 or -0.0, and a whole dwell or lb as an int or a float.
    Point counts from 2 to 16384, dwells of whole seconds or fractions of
    one, lines undamped or at relaxed T2s, and systems whose lines coincide,
    nearly coincide (ties at scattered bins) or lie apart."""
    points = st.one_of(st.integers(2, 17), st.sampled_from([1024, 4096, 16384]))
    dwells = st.one_of(st.integers(1, 3), st.sampled_from([5e-6, 1e-4]), st.floats(1e-7, 1e-4))
    spins = st.sampled_from([0.5, 1.5, 2.5])
    t2s = st.lists(st.one_of(st.just(math.inf), st.sampled_from(RELAXED_T2_S),
                             st.floats(1e-6, 1.0)), min_size=5, max_size=5)

    def offsets(g):
        step, nyquist = 1.0 / (g["points"] * g["dwell_s"]), 0.5 / g["dwell_s"]
        bins = st.integers(-(g["points"] // 2), g["points"] - g["points"] // 2 - 1)
        return st.one_of(st.just(0.0), bins.map(lambda k: k * step),
                         st.floats(-nyquist, nyquist))

    def splittings(g):
        step, nyquist = 1.0 / (g["points"] * g["dwell_s"]), 0.5 / g["dwell_s"]
        return st.one_of(st.just(0.0), st.just(1e-300), st.floats(1e-320, 1e-9),
                         st.integers(1, 5).map(lambda k: k * step), st.floats(0.0, nyquist))

    def lbs(g):
        step, nyquist = 1.0 / (g["points"] * g["dwell_s"]), 0.5 / g["dwell_s"]
        return st.one_of(st.integers(0, 3), st.just(0.0),
                         st.floats(0.0, 1.0).map(lambda u: u * step),
                         st.floats(0.0, 2.0 * nyquist))

    parts = {"points": lambda g: points, "dwell_s": lambda g: dwells, "spin": lambda g: spins,
             "t2s": lambda g: t2s, "offset_hz": offsets, "splitting_hz": splittings,
             "lb_hz": lbs}
    geometry, reads = {}, []
    for name in parts:
        geometry[name] = draw(parts[name](geometry))
    for k in range(draw(st.integers(1, 3))):
        if k:
            geometry = dict(geometry)
            name = draw(st.sampled_from(sorted(parts)))
            geometry[name] = draw(parts[name](geometry))

        def written(x):
            if x == 0:
                return draw(st.sampled_from([0, 0.0, -0.0]))
            return draw(st.sampled_from([x, float(x)])) if type(x) is int else x

        for _ in range(draw(st.integers(2, 4))):
            sys = SpinSystem(spin=geometry["spin"], lambda_hz=geometry["splitting_hz"] / 6.0,
                             offset_hz=geometry["offset_hz"] or draw(st.sampled_from([0.0, -0.0])))
            lines = tuple((complex(draw(BIG_PARTS), draw(BIG_PARTS)), f, t2)
                          for f, t2 in zip(sys._freqs, geometry["t2s"]))
            reads.append((FID(points=geometry["points"], dwell_s=written(geometry["dwell_s"]),
                              lb_hz=written(geometry["lb_hz"]), lines=lines), sys))
    return draw(st.permutations(reads))


class TestReadoutGeometryCache:
    """The readout keeps the plan of each grid, FID line set and system, its
    transform constants and windows, in one bounded cache."""

    @settings(max_examples=100, deadline=None)
    @given(geometry_reads())
    @example([(FID(points=4096, dwell_s=5e-6, lb_hz=200.0, lines=((1.0, 0.0, math.inf),)),
               SpinSystem.from_splitting(splitting_hz=1e-300))] * 2)
    # one geometry written as an int and a float, and with zeros of both signs
    @example([(FID(points=16, dwell_s=1, lb_hz=-0.0, lines=((1j, -0.0, math.inf),)),
               SpinSystem(spin=0.5, offset_hz=0.0)),
              (FID(points=16, dwell_s=1.0, lb_hz=0, lines=((0j, 0.0, math.inf),)),
               SpinSystem(spin=0.5, offset_hz=-0.0))])
    def test_cleared_warm_and_evicted_reads_equal_the_references(self, reads):
        def read_all():
            return [(spectrum(fid).amplitude.tobytes(), readout_outcome(fid, sys, spectrum),
                     resolved_windows(fid, sys)) for fid, sys in reads]

        expected = [(line_spectrum_reference(fid).tobytes(),
                     readout_outcome(fid, sys, spectrum_reference),
                     reference_windows(fid, sys)) for fid, sys in reads]
        clear_readout_caches()
        cold = read_all()
        warm = read_all()
        fill_geometry_caches()
        assert cold == warm == read_all() == expected

    # equal numbers of other bits, read in both orders: the two signs of a
    # zero lb under a growing line (T2 = -inf), whose transforms differ in
    # the sign of zero bins, and a float and a numpy float32 lb or dwell;
    # keys that compared as the numbers do returned the first one's bits
    @pytest.mark.parametrize("points, line, twins", [
        (16, (1j, 0.0, -math.inf), [(1.0, 0.0), (1.0, -0.0)]),
        (64, (1.0, 1234.5, 0.004), [(2.0 ** -17, 200.0), (2.0 ** -17, np.float32(200.0))]),
        (64, (1.0, 1234.5, 0.004), [(2.0 ** -17, 200.0), (np.float32(2.0 ** -17), 200.0)])])
    @pytest.mark.parametrize("order", [1, -1])
    def test_equal_numbers_of_other_bits_share_no_entry(self, points, line, twins, order):
        clear_readout_caches()
        for dwell_s, lb_hz in twins[::order]:
            fid = FID(points=points, dwell_s=dwell_s, lb_hz=lb_hz, lines=(line,))
            spec = spectrum(fid)
            assert spec.amplitude.tobytes() == line_spectrum_reference(fid).tobytes()
            assert spec.freq_hz.tobytes() == \
                np.fft.fftshift(np.fft.fftfreq(fid.points, dwell_s)).tobytes()

    def test_a_nan_line_raises_the_same_error_on_every_call(self, sys32):
        fid = FID(points=64, dwell_s=5e-6, lb_hz=200.0,
                  lines=((1.0, 16000.0, math.inf), (1.0, math.nan, math.inf)))
        clear_readout_caches()
        errors = []
        for read in [lambda: spectrum(fid), lambda: spectrum(fid, sys32)] * 3:
            with pytest.raises(ValueError) as caught:
                read()
            errors.append(str(caught.value))
        assert errors == ["cannot convert float NaN to integer"] * 6
        assert _readout_plan.cache_info().currsize == 0

    def test_a_float_point_count_raises_the_same_error_cold_and_warm(self):
        # 64.0 == 64, though their keys differ in type: the FID refuses it
        # before any readout plan is sought
        def read(points):
            try:
                return spectrum(FID(points=points, dwell_s=5e-6, lb_hz=200.0,
                                    lines=((1.0, 0.0, math.inf),))).amplitude.tobytes()
            except ValueError as err:
                return str(err)

        clear_readout_caches()
        cold = read(64.0)
        assert _readout_plan.cache_info().currsize == 0
        expected, warm = read(64), read(64.0)
        assert cold == warm == "point count must be an integer, got 64.0"
        # only the integer count has a plan, and no read found one kept
        info = _readout_plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
        assert expected == line_spectrum_reference(
            FID(points=64, dwell_s=5e-6, lb_hz=200.0, lines=((1.0, 0.0, math.inf),))).tobytes()

    # lines 1e-300 Hz apart tie at scattered bins: their windows are one slice
    @pytest.mark.parametrize("splitting_hz", [16_000.0, 1e-300])
    def test_entries_hold_python_scalars_and_slices(self, splitting_hz):
        sys = SpinSystem.from_splitting(splitting_hz)
        fid = synthesize_fid([1.0, 2.0 - 1j, 3.0], sys, points=2 ** 16,
                             relax=RelaxationParams())
        clear_readout_caches()
        spectrum(fid, sys)
        key = (fid.points, fid.dwell_s, fid.lb_hz, tuple((f, t2) for _, f, t2 in fid.lines),
               sys._freqs)
        # called again with the key spectrum used, it returns the kept entry
        entry = _readout_plan(*key)
        assert _readout_plan.cache_info()[:2] == (1, 1)
        assert all(type(window) is slice for window in entry[1])
        assert (entry[1][0] == entry[1][1] == entry[1][2]) == (splitting_hz < 1.0)

        def leaves(x):
            if type(x) is tuple:
                return [leaf for item in x for leaf in leaves(item)]
            return leaves((x.start, x.stop, x.step)) if type(x) is slice else [x]

        assert {type(x) for x in leaves((key, entry))} <= {int, float, complex, type(None)}

        def footprint(x):
            parts = x if type(x) is tuple else (x.start, x.stop, x.step) \
                if type(x) is slice else ()
            return getsizeof(x) + sum(footprint(part) for part in parts)

        # about 2 KB an entry with its key, so the full cache holds under 1 MB
        assert _GEOMETRY_ENTRIES * (footprint(key) + footprint(entry)) < 2 ** 20

    # the loop of scripts/run_dj_all.py, without and with --shaped-pulses --relaxation:
    # every oracle and method on one system and grid
    @pytest.mark.parametrize("relax, shaped", [(None, False), (RelaxationParams(), True)])
    def test_runs_on_one_grid_compute_the_geometry_once(self, relax, shaped):
        sys = SpinSystem.from_splitting(16_000.0)
        clear_readout_caches()
        for oracle_id in ORACLE_IDS:
            for method in METHODS:
                run_dj(oracle_id, sys, method=method, relax=relax,
                       shaped_pulses=shaped and method != "ideal-matrix")
        info = _readout_plan.cache_info()
        assert (info.misses, info.hits) == (1, 11)
