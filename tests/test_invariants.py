"""Property tests of the physical invariants, for spins 1/2 to 7/2.

Every event propagator is unitary; a trajectory keeps the deviation matrix
Hermitian and its trace unchanged, with and without relaxation; equilibrium
is the fixed point of relaxation; and the coherence T2 table gives the
central T2 to exactly the line at the middle of the spectrum.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quadnmr import (ForbiddenTransitionError, RelaxationParams, SpinSystem,
                     equilibrium_state, is_hermitian, is_unitary, run_trajectory)
from quadnmr.relaxation import coherence_t2_table
from quadnmr.seqlang import (Acquire, GaussianShape, Gradient, HardPulse, QuadDelay,
                             Refocus, SelPulse, SequenceIR, SystemDecl, ZPulse)

from helpers import line_of, line_table, propagator
from test_relaxation import relaxed

SPINS = st.integers(1, 7).map(lambda two_i: two_i / 2.0)
AXES = st.sampled_from(["x", "-x", "y", "-y"])
ANGLES = st.floats(-10.0, 10.0)
DURATIONS_S = st.floats(0.0, 1e-3)


@st.composite
def systems(draw):
    return SpinSystem(spin=draw(SPINS), offset_hz=draw(st.floats(-5e3, 5e3)),
                      lambda_hz=draw(st.floats(0.0, 5e3)))


@st.composite
def unitary_events(draw, sys):
    labels = [tr.label for tr in line_table(sys)]
    kind = draw(st.sampled_from(["hard", "sel", "shaped", "zpulse", "quad", "refocus"]))
    angle = draw(ANGLES)
    if kind == "hard":
        return HardPulse(axis=draw(AXES), angle_rad=angle, angle_text="a")
    if kind in ("sel", "shaped"):
        shape = None
        if kind == "shaped":
            shape = GaussianShape(duration_s=draw(st.floats(1e-7, 1e-3)),
                                  duration_text="d")
        return SelPulse(transition=draw(st.sampled_from(labels)), axis=draw(AXES),
                        angle_rad=angle, angle_text="a", shape=shape)
    if kind == "zpulse":
        return ZPulse(transition=draw(st.sampled_from(labels)), angle_rad=angle,
                      angle_text="a")
    event_type = QuadDelay if kind == "quad" else Refocus
    return event_type(tau_s=draw(DURATIONS_S), tau_text="d")


@st.composite
def sequences(draw):
    sys = draw(systems())
    events = draw(st.lists(st.one_of(unitary_events(sys), st.just(Gradient())),
                           max_size=8))
    if draw(st.booleans()):
        events.append(Acquire(points=256, dwell_s=1e-7, dwell_text="0.1us"))
    decl = SystemDecl(spin=sys.spin, splitting_hz=sys.splitting_hz,
                      offset_hz=sys.offset_hz)
    return sys, SequenceIR(system_decl=decl, events=tuple(events))


def random_deviation_matrix(dim, seed):
    """Hermitian and traceless, like every deviation density matrix."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a + a.conj().T
    return rho - np.trace(rho) / dim * np.eye(dim)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_event_propagator_is_unitary(data):
    sys = data.draw(systems())
    for event in data.draw(st.lists(unitary_events(sys), min_size=1, max_size=6)):
        assert is_unitary(propagator(event, sys), atol=1e-9), event


@settings(max_examples=60, deadline=None)
@given(seq=sequences(), seed=st.integers(0, 2**32 - 1),
       relax=st.sampled_from([None, RelaxationParams(),
                              RelaxationParams(t1_s=2e-3, t2_central_s=1e-3,
                                               t2_outer_s=5e-4)]))
def test_trajectory_keeps_state_hermitian_and_traceless(seq, seed, relax):
    sys, ir = seq
    rho0 = random_deviation_matrix(sys.dim, seed)
    for rho in run_trajectory(ir, sys, rho0, relax=relax).states:
        assert is_hermitian(rho, atol=1e-9)
        assert abs(np.trace(rho)) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(spin=SPINS, dt=st.floats(0.0, 1e300),
       t1=st.floats(1e-6, 10.0), t2=st.floats(1e-6, 10.0))
def test_equilibrium_is_the_relaxation_fixed_point(spin, dt, t1, t2):
    sys = SpinSystem(spin=spin)
    params = RelaxationParams(t1_s=t1, t2_central_s=t2, t2_outer_s=t2 / 2.0)
    eq = equilibrium_state(sys)
    assert np.array_equal(relaxed(eq, dt, params, sys), eq)


@settings(max_examples=40, deadline=None)
@given(spin=SPINS, lambda_hz=st.floats(1.0, 1e4))
def test_central_t2_goes_to_the_mid_spectrum_line_only(spin, lambda_hz):
    sys = SpinSystem(spin=spin, lambda_hz=lambda_hz)
    params = RelaxationParams(t2_central_s=14e-3, t2_outer_s=4e-3)
    t2 = coherence_t2_table(params, sys.dim)
    assert np.array_equal(t2, t2.T)
    central = []
    for i, j in itertools.combinations(range(sys.dim), 2):
        value = t2[i, j]
        try:
            tr = line_of(sys, f"{sys.labels[i]}-{sys.labels[j]}")
        except ForbiddenTransitionError:
            assert value == params.t2_outer_s
            continue
        if value == params.t2_central_s:
            central.append(tr)
        else:
            assert value == params.t2_outer_s
    # on resonance the middle line of a half-integer spin sits at exactly 0 Hz;
    # an integer spin has no such line
    if sys.dim % 2 == 0:
        assert len(central) == 1 and central[0].frequency_hz == 0.0
        assert central[0].upper_index == sys.dim // 2 - 1
    else:
        assert central == []
        assert all(tr.frequency_hz != 0.0 for tr in line_table(sys))
