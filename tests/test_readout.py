import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnmr import (FID, RelaxationParams, SpinSystem, acquire, conjugate,
                     equilibrium_state, hard_pulse, ideal_density_after_oracle,
                     observable_amplitudes, spectrum, synthesize_fid,
                     write_peaks_csv, write_spectrum_csv)
from quadnmr.readout import PEAK_WINDOW_LINEWIDTHS, _best_phase, _oscillator
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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                       allow_infinity=False), max_size=7))
    def test_best_phase_equals_the_rebuilt_grid(self, integrals):
        integrals = np.array(integrals, dtype=complex)
        assert _best_phase(integrals) == reference_best_phase(integrals)


class TestSpectrum:
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
