import cmath
import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadnmr import (FID, Peak, RelaxationParams, SpinSystem, Spectrum, acquire, conjugate,
                     equilibrium_state, hard_pulse, ideal_density_after_oracle,
                     observable_amplitudes, spectrum, synthesize_fid,
                     write_peaks_csv, write_spectrum_csv)
from quadnmr.readout import _CSV_CHUNK_ROWS, PEAK_WINDOW_LINEWIDTHS, _best_phase, _oscillator
from quadnmr.relaxation import coherence_t2_s
from quadnmr.system import transition_table


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


def reference_fid_samples(amplitudes, sys, points, dwell_s, lb_hz, relax):
    """synthesize_fid's per-line loop with every oscillator computed afresh."""
    t = np.arange(points) * dwell_s
    samples = np.zeros(points, dtype=complex)
    broadening = np.exp(-np.pi * lb_hz * t)
    t2 = None if relax is None else coherence_t2_s(relax, sys)
    for a, tr in zip(amplitudes, transition_table(sys)):
        decay = broadening
        if t2 is not None:
            decay = decay * np.exp(-t / t2[tr.upper_index, tr.lower_index])
        samples += a * np.exp(2j * np.pi * tr.frequency_hz * t) * decay
    return samples


def reference_best_phase(integrals):
    """_best_phase with the trial grid and its rotations rebuilt on each call."""
    if len(integrals) == 0 or np.max(np.abs(integrals)) == 0:
        return 0.0
    trial = np.linspace(0.0, np.pi, 1801)
    scores = np.abs(np.real(np.exp(1j * trial)[:, None] * integrals[None, :])).sum(axis=1)
    phase = float(trial[int(np.argmax(scores))])
    biggest = integrals[int(np.argmax(np.abs(integrals)))]
    if np.real(np.exp(1j * phase) * biggest) < 0:
        phase += np.pi
    return phase % (2.0 * np.pi)


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
    amplitudes = [complex(draw(parts), draw(parts)) for _ in transition_table(sys)]
    return sys, amplitudes


class TestOscillatorCache:
    # lines stay below 41 kHz and the dwell keeps the Nyquist limit above 50 kHz
    @settings(max_examples=60, deadline=None)
    @given(a=acquisitions(), b=acquisitions(), points=st.integers(3, 2048),
           fewer=st.integers(2, 2048), dwell_s=st.floats(1e-6, 1e-5),
           lb_hz=st.floats(0.0, 500.0), relaxed=st.booleans())
    def test_hits_and_misses_equal_the_uncached_loop(self, a, b, points, fewer, dwell_s,
                                                     lb_hz, relaxed):
        relax = RelaxationParams() if relaxed else None
        (sys_a, amps_a), (sys_b, amps_b) = a, b
        for sys, amps, n in ((sys_a, amps_a, points), (sys_b, amps_b, points),
                             (sys_a, amps_a, points), (sys_a, amps_a, min(fewer, points - 1))):
            fid = synthesize_fid(amps, sys, points=n, dwell_s=dwell_s, lb_hz=lb_hz,
                                 relax=relax)
            assert np.array_equal(fid.samples,
                                  reference_fid_samples(amps, sys, n, dwell_s, lb_hz, relax))
        assert _oscillator.cache_info().currsize <= 4

    def test_repeated_acquisition_hits_and_oscillators_are_read_only(self, sys32):
        synthesize_fid([1, 1, 1], sys32, points=256)
        hits = _oscillator.cache_info().hits
        synthesize_fid([0.5, -1, 2j], sys32, points=256)
        assert _oscillator.cache_info().hits == hits + 3
        osc = _oscillator(transition_table(sys32)[0].frequency_hz, 256, 5e-6)
        assert not osc.flags.writeable
        with pytest.raises(ValueError):
            osc[0] = 0.0

    @settings(max_examples=400, deadline=None)
    @given(phase_integrals())
    @example([])
    @example([0j, -0j])
    @example([5e-324j])
    @example([2 + 5e-324j])
    @example([1 + 0j, 1j, -1 + 0j, -1j])
    @example([1e300 + 1e300j] * 15)
    @example([1 + 1j, 1 - 1j])
    # row 1800 outscores row 0 by rounding
    @example([0.08050566792068725 + 0.14388578219072626j,
              13.011741540201928 + 1.4891634781197722j,
              1.4413070644726258 - 1.6330492603104985j])
    # the peak lies half a row from the grid, and the farther row wins
    @example([-0.2678406984317786 - 2.1351605535167177j,
              0.07216683723397939 + 0.5752963796624128j])
    def test_best_phase_equals_the_rebuilt_grid(self, integrals):
        integrals = np.array(integrals, dtype=complex)
        assert _best_phase(integrals) == reference_best_phase(integrals)


def reference_spectrum(fid, sys):
    """spectrum() with one boolean mask per line over the whole axis, each
    clipped against the lines within 2.001 half-widths, and the full grid."""
    freq = np.fft.fftshift(np.fft.fftfreq(fid.points, fid.dwell_s))
    amp = np.fft.fftshift(np.fft.fft(fid.samples))
    half_width = PEAK_WINDOW_LINEWIDTHS * fid.lb_hz
    table = transition_table(sys)
    lines = [tr.frequency_hz for tr in table]
    masks = [np.abs(freq - line) <= half_width for line in lines]
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
    phase = reference_best_phase(raw)
    amp = amp * np.exp(1j * phase)
    peaks = []
    for tr, mask, integral in zip(table, masks, raw * np.exp(1j * phase)):
        idx = np.flatnonzero(mask)[int(np.argmax(np.abs(amp[mask])))]
        peaks.append(Peak(transition=tr.label, frequency_hz=float(freq[idx]),
                          real_integral=float(integral.real),
                          sign=int(np.sign(integral.real)) or 1))
    return Spectrum(freq_hz=freq, amplitude=amp, peaks=peaks, phase_rad=phase)


def readout_outcome(fid, sys, read):
    """Everything a readout returns, as bytes and reprs, or its ValueError."""
    try:
        spec = read(fid, sys)
    except ValueError as err:
        return "ValueError", str(err)
    return (spec.freq_hz.tobytes(), spec.amplitude.tobytes(), repr(spec.phase_rad),
            repr(spec.peaks))


@st.composite
def readout_cases(draw):
    """A random FID and system whose lines sit on bins, halfway between
    them, near +-Nyquist or anywhere, spaced from coincident to far apart,
    with windows from narrower than a bin to wider than the spectrum."""
    points = draw(st.one_of(st.integers(2, 17), st.sampled_from([1024, 4096, 16384])))
    dwell_s = draw(st.one_of(st.sampled_from([5e-6, 1e-7]), st.floats(1e-7, 1e-4)))
    step = 1.0 / (points * dwell_s)
    nyquist = 0.5 / dwell_s
    bins = st.integers(-(points // 2), points - points // 2 - 1)
    offset_hz = draw(st.one_of(
        bins.map(lambda k: k * step),
        bins.map(lambda k: (k + 0.5) * step),
        st.sampled_from([-nyquist, nyquist * (1 - 1e-12), -nyquist * (1 - 1e-9)]),
        st.floats(-nyquist, nyquist)))
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
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.standard_normal(points) + 1j * rng.standard_normal(points)
    return FID(points=points, dwell_s=dwell_s, samples=samples, lb_hz=lb_hz), sys


class TestSpectrum:
    @settings(max_examples=300, deadline=None)
    @given(readout_cases())
    # lines 1e-300 Hz apart tie at scattered bins, so a window need not be one run
    @example((FID(points=4096, dwell_s=5e-6, samples=np.ones(4096, dtype=complex)),
              SpinSystem.from_splitting(splitting_hz=1e-300)))
    # the bins at +-12 kHz lie exactly halfway between two lines and are shared
    @example((FID(points=16, dwell_s=1.0 / (16 * 12000.0), samples=np.arange(16.0) + 1j,
                  lb_hz=4000.0),
              SpinSystem.from_splitting(splitting_hz=24000.0)))
    def test_windows_peaks_and_errors_equal_the_mask_code(self, case):
        fid, sys = case
        assert readout_outcome(fid, sys, spectrum) == readout_outcome(fid, sys,
                                                                      reference_spectrum)

    @pytest.mark.parametrize("points", [*range(1, 18), 1024, 4096, 16384])
    @pytest.mark.parametrize("dwell_s", [5e-6, 1e-7, 1e-5 / 3.0, 2.5e-4])
    def test_axis_bytes_equal_shifted_fftfreq(self, points, dwell_s):
        fid = FID(points=points, dwell_s=dwell_s, samples=np.zeros(points, dtype=complex))
        assert spectrum(fid).freq_hz.tobytes() == \
            np.fft.fftshift(np.fft.fftfreq(points, dwell_s)).tobytes()

    def test_single_line_peaks_at_zero(self):
        sys = SpinSystem(offset_hz=0.0, lambda_hz=0.0)
        fid = synthesize_fid([0, 1.0, 0], sys, points=256, dwell_s=1e-5)
        spec = spectrum(fid)
        assert spec.freq_hz[np.argmax(np.abs(spec.amplitude))] == pytest.approx(0.0)

    def test_parseval(self, sys32):
        rho = conjugate(equilibrium_state(sys32), hard_pulse(sys32, "-y", np.pi / 2))
        fid, spec = acquire(rho, sys32)
        time_energy = np.sum(np.abs(fid.samples) ** 2)
        freq_energy = np.sum(np.abs(spec.amplitude) ** 2) / fid.points
        assert freq_energy == pytest.approx(time_energy, rel=1e-9)

    def test_linearity(self, sys32):
        fid_a = synthesize_fid([1.0, 0, 0], sys32, points=512)
        fid_b = synthesize_fid([0, 0.5, 0.25], sys32, points=512)
        combined = FID(points=512, dwell_s=fid_a.dwell_s,
                       samples=fid_a.samples + fid_b.samples, lb_hz=fid_a.lb_hz)
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
            # discretization (half-sample baseline, finite grid) costs ~2%
            assert abs(peak.real_integral) == pytest.approx(expected, rel=0.03)

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
        lines = np.array([tr.frequency_hz for tr in transition_table(sys)])
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
