"""Reference operations that only the tests use: a dense eigendecomposition
exponential, the global phase between two gates, the composite selective
z-pulse, the dense Hamiltonian and free evolution under it, the post-oracle
states and an entrywise comparison. propagator compiles one event the one way
the package builds propagators, through compile_unitary. line_table reads
a system's lines as records. The *_reference
functions are earlier bodies of package code that now computes the same bits
another way: the numpy build of a SpinSystem, the zero-order phase, the
oracle matrices and the crusher; and the bodies that the cut of run_dj's
fixed per-call cost replaced: the pulse exponential and the sandwich product
by the @ operator, the spin check, the relaxation step, the observable
amplitudes, the FID's lines, the readout's bookkeeping and the oracle
sequence; the transform as it was before it kept a working buffer per
thread, line by line (line_terms_reference), from which
own_integrals_reference takes each window's own part; the transform
constants as they were computed on every call, before the readout kept them
per grid and line set; the readout windows as an edge search found them on
every call, before one mask per line replaced it; and the pulses of a plan
grouped per generator, before one gathered exponential built them all.
clear_readout_caches makes the next readout start cold, and
clear_kept_states the next run_dj propagate its state again.
"""

import cmath
import dataclasses
import math
from collections import namedtuple

import numpy as np

from quadnmr import (FID, Peak, SequenceIR, Spectrum, SpinSystem, compile_unitary,
                     oracle_class, oracle_matrix, selective_pulse)
from quadnmr.dj import (_ORACLE_FILES, SEQUENCE_METHODS, _bundled_events, _ideal_state,
                        _oracle_state, _start_state)
from quadnmr.linalg import (ATOL, MAX_TWO_SPIN, expm_diagonal, expm_from_eigh, is_hermitian,
                            spin_operators)
from quadnmr.pulses import _generator_table, _unit_element, pulse_factors
from quadnmr.readout import (_NORMAL_MIN, MAX_POINTS, PEAK_WINDOW_LINEWIDTHS, _axis,
                             _best_phase, _bin_offset, _buffers, _expm1, _readout_plan,
                             _twiddles)
from quadnmr.relaxation import coherence_t2_table
from quadnmr.seqlang import QuadDelay, SystemDecl
from quadnmr.system import (H_ROW, QUAD_ROW, SPIN_32_LABELS, Z_ROW, _z_orientation,
                            cphase_delay_s, evolution_coefficient)


def propagator(event, sys: SpinSystem) -> np.ndarray:
    """The compiled propagator of one unitary event on sys."""
    return compile_unitary(SequenceIR(SystemDecl(sys.spin, sys.splitting_hz), (event,)), sys)


def matrices_close(a, b, atol: float = ATOL) -> bool:
    """Entrywise comparison with an absolute tolerance."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= atol)


def expm_hermitian(hermitian: np.ndarray, scale: float, atol: float = ATOL) -> np.ndarray:
    """Return exp(i * scale * H) for Hermitian H via eigendecomposition.

    Raises ValueError if H is not Hermitian within ``atol``.
    """
    hermitian = np.asarray(hermitian, dtype=complex)
    if not is_hermitian(hermitian, atol=atol):
        raise ValueError("generator is not Hermitian within tolerance")
    eigvals, eigvecs = np.linalg.eigh(hermitian)
    return expm_from_eigh(eigvals, eigvecs, eigvecs.conj().T, scale)


# One observable line (i, i+1) of a system; upper is the higher-m
# (lower-index) level and ix_element is |<upper|Ix|lower>|.
Line = namedtuple("Line", "label upper_label lower_label upper_index lower_index "
                          "frequency_hz ix_element")


def line_table(sys: SpinSystem) -> list[Line]:
    """The observable lines (i, i+1) of sys in index order, read from
    sys._freqs and sys._levels."""
    labels, levels = sys.labels, sys._levels
    return [Line(levels.line_labels[i], labels[i], labels[i + 1], i, i + 1, f, levels.ix[i])
            for i, f in enumerate(sys._freqs)]


def line_of(sys: SpinSystem, pair: str) -> Line:
    """The line a 'label-label' pair names; raises as SpinSystem._line."""
    return line_table(sys)[sys._line(pair)]


def global_phase(u_target: np.ndarray, v: np.ndarray) -> complex:
    """Phase factor c with v ~ c * u_target, from the normalized overlap trace."""
    u_target, v = np.asarray(u_target), np.asarray(v)
    tr = np.trace(u_target.conj().T @ v) / u_target.shape[0]
    return complex(tr / abs(tr)) if abs(tr) > 0 else complex(0)


def _angle_for_bloch(tr: Line, bloch_rad: float) -> float:
    if _unit_element(tr.ix_element):
        return bloch_rad
    return bloch_rad / (2.0 * tr.ix_element)


def selective_z_pulse(sys: SpinSystem, transition: str, phi_rad: float) -> np.ndarray:
    """Composite z-rotation on one transition: y / x / -y selective pulses.

    Applies e^{-i phi} to the block level with the smaller binary label and
    e^{+i phi} to the other (identity elsewhere), matching the compiled
    z-pulse to roundoff. The x pulse carries a Bloch angle of 2*phi and the
    two y pulses Bloch angles of pi/2.
    """
    tr = line_of(sys, transition)
    quarter = _angle_for_bloch(tr, np.pi / 2.0)
    x_axis = "x" if _z_orientation(tr.upper_label, tr.lower_label) > 0 else "-x"
    return (selective_pulse(sys, transition, "y", quarter)
            @ selective_pulse(sys, transition, x_axis, _angle_for_bloch(tr, 2.0 * phi_rad))
            @ selective_pulse(sys, transition, "-y", quarter))


def hamiltonian(sys: SpinSystem) -> np.ndarray:
    """Rotating-frame Hamiltonian in rad/s, diagonal in the m basis.

    H = -2*pi*offset * Iz + 2*pi*lambda * (3 Iz^2 - I(I+1) 1); both terms are
    traceless.
    """
    return np.diag(sys._h_diag).astype(complex)


def free_evolution(sys: SpinSystem, tau_s: float) -> np.ndarray:
    """Propagator exp(-i H tau) under the full Hamiltonian, offset included."""
    return expm_diagonal(-1j * tau_s * sys._h_diag)


def ideal_state_after_oracle(oracle_id: str) -> np.ndarray:
    """The oracle applied to (1, -r3, r3, -1)/(2 r2), the hard 90 about -y of |00>."""
    r3 = np.sqrt(3.0)
    return oracle_matrix(oracle_id) @ (np.array([1.0, -r3, r3, -1.0]) / (2.0 * np.sqrt(2.0)))


def ideal_density_after_oracle(oracle_id: str) -> np.ndarray:
    """Pure-state density matrix of the post-oracle state (trace one)."""
    psi = ideal_state_after_oracle(oracle_id)
    return np.outer(psi, psi.conj())


def spin_system_reference(spin: float, offset_hz: float, lambda_hz: float):
    """labels, the Iz, quadrupolar and H diagonals, the line frequencies,
    the Ix elements and the exponent rows of a SpinSystem, by the numpy
    formulas its build had; the same ValueError when they overflow."""
    ops = spin_operators(spin)
    m = np.diag(ops.iz).real
    with np.errstate(over="ignore", invalid="ignore"):
        quad = 2.0 * np.pi * lambda_hz * (3.0 * m * m - spin * (spin + 1.0))
        h_diag = -2.0 * np.pi * offset_hz * m + quad
        freq_hz = (h_diag[:-1] - h_diag[1:]) / (2.0 * np.pi)
    if not (np.isfinite(h_diag).all() and np.isfinite(freq_hz).all()):
        raise ValueError(
            f"offset_hz={offset_hz:g} and lambda_hz={lambda_hz:g} put the "
            "Hamiltonian or a line frequency beyond the float range")
    dim = ops.dim
    labels = SPIN_32_LABELS if dim == 4 else tuple(
        format(k, f"0{max(1, int(np.ceil(np.log2(dim))))}b") for k in range(dim))
    rows = np.zeros((Z_ROW + dim - 1, dim), dtype=complex)
    rows[QUAD_ROW], rows[H_ROW] = quad, h_diag
    for i in range(dim - 1):
        s = 1 if int(labels[i], 2) < int(labels[i + 1], 2) else -1
        rows[Z_ROW + i, i], rows[Z_ROW + i, i + 1] = -1j * s, +1j * s
    ix = [float(abs(ops.ix[i, i + 1])) for i in range(dim - 1)]
    return labels, m, quad, h_diag, freq_hz.tolist(), ix, rows


def best_phase_reference(integrals: np.ndarray) -> float:
    """The zero-order phase by the complex arithmetic readout._best_phase had."""
    values = integrals.tolist()
    top = max((abs(p) for v in values for p in (v.real, v.imag)), default=0.0)
    if not top:
        return 0.0
    e = math.frexp(top)[1]
    z = [complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e)) for v in values]
    crossings = sorted((math.pi / 2 - math.atan2(v.imag, v.real)) % math.pi for v in z if v)
    best = 0j
    for a, b in zip(crossings, crossings[1:] + [crossings[0] + math.pi]):
        turn = cmath.exp(0.5j * (a + b))
        total = sum(v if (turn * v).real > 0 else -v for v in z)
        if abs(total) > abs(best):
            best = total
    phase = -math.atan2(best.imag, best.real)
    if (cmath.exp(1j * phase) * z[int(np.argmax(np.abs(integrals)))]).real < 0:
        phase += math.pi
    phase %= 2.0 * math.pi
    return 0.0 if phase == 2.0 * math.pi else phase


def oracle_matrix_reference(oracle_id: str) -> np.ndarray:
    """The oracle matrix as the product of row swaps of the identity."""
    oracle_class(oracle_id)
    eye = np.eye(4, dtype=complex)
    swap_01 = eye[[1, 0, 2, 3]]
    swap_23 = eye[[0, 1, 3, 2]]
    return {"f1": eye, "f2": swap_01 @ swap_23,
            "f3": swap_23, "f4": swap_01}[oracle_id].copy()


def gradient_crush_reference(rho: np.ndarray) -> np.ndarray:
    """The crusher by numpy's diag twice."""
    rho = np.asarray(rho)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValueError("crusher input must be Hermitian")
    return np.diag(np.diag(rho)).astype(complex)


def expm_from_eigh_reference(eigvals: np.ndarray, eigvecs: np.ndarray, scale) -> np.ndarray:
    """linalg.expm_from_eigh as it conjugated V on every call and multiplied by @."""
    return (eigvecs * np.exp(1j * scale * eigvals)) @ eigvecs.conj().T


def conjugate_reference(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """linalg.conjugate by the @ operator."""
    rho, u = np.asarray(rho), np.asarray(u)
    if rho.shape != u.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {u.shape}")
    return u @ rho @ u.conj().T


def check_spin_reference(spin: float) -> int:
    """linalg._check_spin with a round() per test."""
    two_i = 2.0 * spin
    if two_i == math.inf:
        two_i = MAX_TWO_SPIN + 1.0
    if not math.isfinite(two_i) or abs(two_i - round(two_i)) > 1e-12 or round(two_i) < 1:
        raise ValueError(f"spin must be a positive half-integer, got {spin}")
    if round(two_i) > MAX_TWO_SPIN:
        raise ValueError(f"spin must be at most {MAX_TWO_SPIN}/2 "
                         f"({MAX_TWO_SPIN + 1} levels), got {spin}")
    return int(round(two_i)) + 1


def relax_step_reference(rho, t2_decay, t1_decay, eq):
    """relaxation.relax_step through np.fill_diagonal."""
    out = rho * t2_decay
    np.fill_diagonal(out, eq + (rho.diagonal().real - eq) * t1_decay)
    return out


def observable_amplitudes_reference(rho, sys: SpinSystem) -> np.ndarray:
    """readout.observable_amplitudes indexing rho once per line."""
    rho = np.asarray(rho)
    if rho.shape != (sys.dim, sys.dim):
        raise ValueError(f"state must be {sys.dim}x{sys.dim}, got {rho.shape}")
    return np.array([tr.ix_element * rho[tr.upper_index, tr.lower_index]
                     for tr in line_table(sys)], dtype=complex)


def synthesize_fid_reference(amplitudes, sys: SpinSystem, points: int, dwell_s: float,
                             lb_hz: float, relax) -> FID:
    """readout.synthesize_fid with its lines read from the Transitions, before
    it refused an axis beyond the float range."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (sys.dim - 1,):
        raise ValueError(f"expected {sys.dim - 1} amplitudes, got {amplitudes.shape}")
    if points < 2:
        raise ValueError("need at least two points")
    if points > MAX_POINTS:
        raise ValueError(f"at most {MAX_POINTS} points can be acquired, got {points}")
    if not (math.isfinite(dwell_s) and dwell_s > 0):
        raise ValueError(f"dwell time must be positive and finite, got {dwell_s}")
    if not math.isfinite(lb_hz) or lb_hz < 0:
        raise ValueError(f"line broadening must be finite and nonnegative, got {lb_hz}")
    nyquist = 1.0 / (2.0 * dwell_s)
    t2 = None if relax is None else coherence_t2_table(relax, sys.dim)
    table, lines, size = line_table(sys), [], 0.0
    for a, tr in zip(amplitudes.tolist(), table):
        if abs(tr.frequency_hz) >= nyquist:
            raise ValueError(
                f"transition {tr.label} at {tr.frequency_hz:g} Hz violates the "
                f"Nyquist limit {nyquist:g} Hz; decrease the dwell time")
        size += math.hypot(a.real, a.imag)
        lines.append((a, tr.frequency_hz,
                      math.inf if t2 is None else float(t2[tr.upper_index, tr.lower_index])))
    if not math.isfinite(points * size):
        for (a, _, _), tr in zip(lines, table):
            if not cmath.isfinite(a):
                raise ValueError(f"amplitude {a} of line {tr.label} is not finite")
        raise ValueError(f"{points} points times the summed amplitude magnitude "
                         "overflow the float range")
    return FID(points=points, dwell_s=dwell_s, lb_hz=lb_hz, lines=tuple(lines))


def windows_reference(freq: np.ndarray, span_s: float, lines: list[float],
                      half_width: float) -> list[slice]:
    """The readout windows as the edge search found them on every call,
    before one mask per line (readout._window_bins) replaced it: given the
    axis, a slice; where two lines nearly coincide, the slice from the
    first to the last bin that no rival is strictly nearer to."""
    points, centre, step = len(freq), len(freq) // 2, 1.0 / span_s
    windows = []
    for line in lines:
        guess = (line - half_width) * span_s + centre
        lo = 0 if guess <= 0 else points if not guess < points else int(guess)
        while lo > 0 and (lo - 1 - centre) * step - line >= -half_width:
            lo -= 1
        while lo < points and not (lo - centre) * step - line >= -half_width:
            lo += 1
        guess = (line + half_width) * span_s + centre
        hi = lo if guess <= lo else points if not guess < points else int(guess)
        while hi > lo and (hi - 1 - centre) * step - line > half_width:
            hi -= 1
        while hi < points and not (hi - centre) * step - line > half_width:
            hi += 1
        rivals = [f for f in lines if f != line and not abs(f - line) > 2.001 * half_width]
        if rivals and any([abs(f - line) <= 16 * math.ulp(half_width) for f in rivals]):
            dist = np.abs(freq[lo:hi] - line)
            nearer = np.zeros(hi - lo, dtype=bool)
            for f in rivals:
                nearer |= np.abs(freq[lo:hi] - f) < dist
            kept = lo + np.flatnonzero(~nearer)
            windows.append(slice(int(kept[0]), int(kept[-1]) + 1) if kept.size else slice(lo, lo))
            continue
        for f in rivals:
            above, guess = f > line, (line / 2 + f / 2) * span_s + centre
            i = lo if guess <= lo else hi if not guess < hi else int(guess)
            while i > lo and (abs((i - 1 - centre) * step - f)
                              < abs((i - 1 - centre) * step - line)) == above:
                i -= 1
            while i < hi and (abs((i - centre) * step - f)
                              < abs((i - centre) * step - line)) != above:
                i += 1
            lo, hi = (lo, i) if above else (i, hi)
        windows.append(slice(lo, hi))
    return windows


def spectrum_reference(fid: FID, sys: SpinSystem) -> Spectrum:
    """readout.spectrum with its bookkeeping on numpy scalars and Peak's
    __init__, before it refused a window integral that is not finite, and
    with the transform and the windows computed on every call."""
    freq, amp = _axis(fid.points, fid.dwell_s), line_spectrum_reference(fid)
    span_s = fid.points * fid.dwell_s
    half_width = PEAK_WINDOW_LINEWIDTHS * fid.lb_hz
    table = line_table(sys)
    lines = [tr.frequency_hz for tr in table]
    windows = windows_reference(freq, span_s, lines, half_width)
    bins = [freq[window] for window in windows]
    for tr, hz in zip(table, bins):
        if not hz.size:
            raise ValueError(
                f"readout window of line {tr.label} ({tr.frequency_hz:g} Hz "
                f"+- {half_width:g} Hz) holds no frequency bin; raise the line "
                "broadening or the acquisition time points * dwell")
    df = freq[1] - freq[0]
    raw = np.array([amp[window].sum() * df for window in windows])
    phase = _best_phase(raw)
    rot = np.exp(1j * phase)
    amp *= rot
    integrals = (raw * rot).real
    own = own_integrals_reference(fid, windows, float(df), complex(rot))
    peaks = [Peak(tr.label, hz.item(np.abs(amp[window]).argmax()), integral, int(sign) or 1,
                  mine)
             for tr, window, hz, integral, sign, mine in zip(
                 table, windows, bins, integrals.tolist(), np.sign(integrals).tolist(), own)]
    return Spectrum(freq_hz=freq, amplitude=amp, peaks=peaks, phase_rad=phase)


def clear_readout_caches():
    """Empty the readout's caches and this thread's workspaces."""
    for cache in (_readout_plan, _twiddles, _axis, _buffers.workspace):
        cache.cache_clear()


def clear_kept_states():
    """Empty quadnmr.dj's kept states: the start state, the ideal matrices'
    output states and the oracle sequences' output states."""
    for cache in (_start_state, _ideal_state, _oracle_state):
        cache.cache_clear()


def line_terms_reference(fid: FID, line) -> np.ndarray:
    """The terms a (1 - q^N) / (1 - q w^j) of one line (a, f, t2) of fid in
    a fresh array: its transform without its first-point constant -a/2."""
    a, f, t2 = line
    n, dwell_s = fid.points, fid.dwell_s
    d = (math.pi * fid.lb_hz + 1.0 / t2) * dwell_s
    m, ny = _bin_offset(f, n, dwell_s)
    numerator, den = -_expm1(-n * d, ny), -_expm1(-d, ny / n)
    j = (m + n // 2) % n
    start = (n - n // 2 - m) % n
    terms = np.empty(n, dtype=complex)
    np.multiply(-cmath.exp(complex(-d, ny / n)), _twiddles(n)[start:start + n], out=terms)
    terms += 1.0
    terms[j] = 1.0
    np.divide(a * numerator, terms, out=terms)
    terms[j] = a * (numerator / den) if abs(den) >= _NORMAL_MIN else n * a
    return terms


def line_spectrum_reference(fid: FID) -> np.ndarray:
    """readout._line_spectrum allocating a full-length array for each line's
    terms on every call."""
    constant = -0.5 * sum(a for a, _, _ in fid.lines)
    amp = None
    for line in fid.lines:
        terms = line_terms_reference(fid, line)
        if amp is None:
            amp = terms
            amp += constant
        else:
            amp += terms
    return np.full(fid.points, constant, dtype=complex) if amp is None else amp


def own_integrals_reference(fid: FID, windows, df: float, rot: complex) -> list[float]:
    """Each window's Peak.own_integral at the phase factor rot: the sum of
    FID line k's terms (line_terms_reference) over window k plus its
    constant -a/2 in each of the window's bins (0 for a window with no FID
    line of its index), times the bin width df."""
    own = []
    for k, window in enumerate(windows):
        total = 0j
        if k < len(fid.lines):
            a = fid.lines[k][0]
            terms = line_terms_reference(fid, fid.lines[k])[window]
            total = complex(terms.sum()) + -0.5 * a * terms.size
        own.append((total * df * rot).real)
    return own


def oracle_sequence_reference(oracle_id: str, method: str, sys: SpinSystem) -> SequenceIR:
    """dj.oracle_sequence through dataclasses.replace and the frozen __init__s."""
    oracle_class(oracle_id)
    if method not in SEQUENCE_METHODS:
        raise ValueError(f"method must be one of {SEQUENCE_METHODS}, got {method!r}")
    events = () if oracle_id == "f1" else tuple(
        dataclasses.replace(e, tau_s=cphase_delay_s(sys)) if isinstance(e, QuadDelay) else e
        for e in _bundled_events(_ORACLE_FILES[oracle_id, method]))
    return SequenceIR(system_decl=SystemDecl(spin=sys.spin, splitting_hz=sys.splitting_hz,
                                             offset_hz=sys.offset_hz), events=events)


def pulse_stack_reference(events, sys: SpinSystem) -> list[np.ndarray]:
    """The propagators of pulse events as compiler._plan built them with one
    stacked expm_from_eigh per generator, the shaped pulses of a generator in
    a stack of their own times their free evolution."""
    w, v, vh = _generator_table(sys.dim)
    groups, out = {}, [None] * len(events)
    for k, event in enumerate(events):
        shape = getattr(event, "shape", None)
        sign, row = pulse_factors(sys, event.axis, event.angle_rad,
                                  getattr(event, "transition", None))
        free = None if shape is None else evolution_coefficient(shape.duration_s)
        groups.setdefault((row, free is None), []).append((k, sign * event.angle_rad, free))
    for (row, _), members in groups.items():
        ks, scales, frees = zip(*members)
        us = expm_from_eigh(w[row], v[row], vh[row], np.array(scales).reshape(-1, 1, 1))
        if frees[0] is not None:
            us = expm_diagonal(np.array(frees)[:, None] * sys._h_diag) @ us
        for k, u in zip(ks, us):
            out[k] = u
    return out
