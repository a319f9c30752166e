"""Stream engine: clock amplitudes, unitarity, pairs, congruence."""

import cmath
import math
import sys
import tracemalloc
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowsim import circuit as circuit_module
from shadowsim import experiments, streams
from shadowsim.angles import canonical_angle
from shadowsim.circuit import (
    REFLECTION_TURN,
    Circuit,
    Element,
    ElementType,
    compile_paths,
    parse_circuit,
)
from shadowsim.corpus import random_circuit
from shadowsim.experiments import (
    bghz_left_circuit,
    bghz_right_circuit,
    ifm_circuit,
    mach_zehnder_circuit,
    pair_amplitudes,
)
from shadowsim.checks import _congruence_deviations
from shadowsim.rng import make_rng
from shadowsim.streams import (
    INV_SQRT2,
    _table_amplitudes,
    initial_clocks,
    terminal_amplitudes,
    unitarity_defect,
)
from reference import (
    PathClock,
    bghz_streams,
    enumerate_paths,
    hilbert_amplitudes,
    pair_clock,
    path_amplitude,
    reshifted,
    row_amplitudes,
)

# Frozen from the closed forms (1/2)e^{i theta} i (e^{i alpha} + 1) and
# (1/2)e^{i theta}(e^{i alpha} - 1), evaluated independently of the engine.
MZ_AMP_ORACLE = [
    # (alpha, theta, amp_u, amp_d)
    (
        math.pi / 3,
        0.2,
        -0.573383275001593 + 0.6490235896702428j,
        -0.33104298817099886 + 0.3747139442065318j,
    ),
    (
        1.9,
        0.0,
        -0.47315004384370724 + 0.3383552165682483j,
        -0.6616447834317517 + 0.47315004384370724j,
    ),
]

# Frozen joint amplitudes of the pair bench at (alpha, beta) = (0.4, 1.5):
# (1/sqrt 2)(<x|a><y'|a'> + <x|b><y'|b'>) with the per-arm closed forms.
BGHZ_JOINT_ORACLE = {
    ("u", "u'"): -0.490347909896091 + 0.35065361486362745j,
    ("u", "d'"): -0.3006348598822344 + 0.21498755933122013j,
    ("d", "u'"): 0.3006348598822344 - 0.21498755933122013j,
    ("d", "d'"): -0.490347909896091 + 0.35065361486362745j,
}


def _probabilities(amplitudes):
    return {key: abs(amp) ** 2 for key, amp in amplitudes.items()}


def test_path_clock_stays_unit():
    clock = PathClock(0.3).advanced(5.0).advanced(-11.2).advanced(123.0)
    assert abs(abs(clock.amplitude()) - 1.0) == 0.0
    assert 0.0 <= clock.phase < 2 * math.pi


@pytest.mark.parametrize(("alpha", "theta", "amp_u", "amp_d"), MZ_AMP_ORACLE)
def test_mz_amplitudes_match_frozen_oracle(alpha, theta, amp_u, amp_d):
    (amps,) = terminal_amplitudes(mach_zehnder_circuit(alpha, theta), [({}, 0.0)])
    assert amps["u"] == pytest.approx(amp_u, abs=1e-12)
    assert amps["d"] == pytest.approx(amp_d, abs=1e-12)


def test_mz_amplitudes_up_to_global_phase():
    """A nonzero clock multiplies every amplitude by the same unit phase."""
    clocks = (0.4, 2.2, 5.9)
    plain, *turned = terminal_amplitudes(mach_zehnder_circuit(0.9, 0.1),
                                         [({}, clock) for clock in (0.0, *clocks)])
    for clock, rotated in zip(clocks, turned, strict=True):
        factor = cmath.exp(1j * clock)
        for key in plain:
            assert rotated[key] == pytest.approx(plain[key] * factor, abs=1e-12)


def test_path_amplitude_magnitude_counts_crossings():
    circuit = mach_zehnder_circuit(1.1)
    (clock,) = initial_clocks([0])
    for path, amp in zip(enumerate_paths(circuit), row_amplitudes(circuit, clock), strict=True):
        crossings = sum(1 for eid, _i, _o in path.steps if eid.startswith("bs"))
        assert abs(amp) == pytest.approx(INV_SQRT2**crossings, abs=1e-15)


def test_blocked_arm_splits_half_quarter_quarter():
    (clock,) = initial_clocks([1])
    (amps,) = terminal_amplitudes(ifm_circuit("a"), [({}, clock)])
    probs = _probabilities(amps)
    assert probs["absorbed"] == pytest.approx(0.5, abs=1e-12)
    assert probs["u"] == pytest.approx(0.25, abs=1e-12)
    assert probs["d"] == pytest.approx(0.25, abs=1e-12)
    assert unitarity_defect(amps) < 1e-12


def test_probabilities_independent_of_clock():
    clocks = [0.0, *np.linspace(0.0, 2 * math.pi, 100, endpoint=False).tolist()]
    reference, *rest = map(_probabilities, terminal_amplitudes(
        mach_zehnder_circuit(0.77, 0.3), [({}, clock) for clock in clocks]))
    for probs in rest:
        for key, value in reference.items():
            assert abs(probs[key] - value) < 1e-14


def test_stream_reproducible_from_seed():
    circuit = mach_zehnder_circuit(2.0)
    one, two = initial_clocks([99, 99])
    assert one == two
    assert row_amplitudes(circuit, one) == row_amplitudes(circuit, two)


# -- path table against the path-by-path reference ------------------------------

CLOCKS = (0.0, -0.0, 1.3, math.pi, 5.9, math.nextafter(2 * math.pi, 0.0), -3.0, 1e6)

TWO_ARM_TEXT = """\
element src source
element bs beamsplitter
element ps phaseshifter:0.7
element u detector:u
element d detector:d
link src:0 bs:0 phase=0.3
link src:1 ps:0 phase=2.1
link ps:0 bs:1
link bs:0 d:0
link bs:1 u:0
"""

# Both arms of the source enter one splitter, whose outputs both enter the
# next: two links into one element, twice.  Link phases are negative, -0.0,
# 0.0 and -2pi.
TWO_ARMS_INTO_ONE_SPLITTER_TEXT = """\
element src source
element a beamsplitter
element b beamsplitter
element ps phaseshifter:0.7
element u detector:u
element d detector:d
link src:0 a:1 phase=-0.4
link src:1 a:0 phase=-0.0
link a:0 b:1 phase=-2pi
link a:1 b:0 phase=0.0
link b:0 ps:0 phase=0.3
link ps:0 d:0
link b:1 u:0 phase=-2.5
"""

# Three arms: 0 and 2 enter one splitter, 1 reaches the other by a mirror.
THREE_ARM_TEXT = """\
element s source
element m mirror
element x beamsplitter
element y beamsplitter
element p phaseshifter:5.5
element u detector:u
element d detector:d
element k blocker
link s:0 x:0 phase=1.2
link s:1 m:0 phase=-0.0
link s:2 x:1 phase=-2pi
link m:0 y:1 phase=0.0
link x:0 y:0
link x:1 p:0 phase=-3.1
link p:0 k:0
link y:0 d:0
link y:1 u:0 phase=-1e-300
"""


def _mz_with_link_phases(phase: float) -> Circuit:
    """A Mach-Zehnder interferometer whose every link carries ``phase``."""
    mz = mach_zehnder_circuit(0.9)
    return Circuit(mz.elements, [replace(link, phase=phase) for link in mz.links])


def _bits(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def _decoded_advances(table):
    """Each row's advances as element ids, None for a splitter reflection."""
    ids = table.element_ids + (None,)
    return ([ids[ord(code)] for code in table.advance_strings[index]] for index in table.advances)


def _rows(table):
    """Each row of a path table as one tuple, its phase under float.hex."""
    phases = [v.hex() for v in table.geometric_phases]
    strings = [table.advance_strings[index] for index in table.advances]
    return list(zip(phases, strings, table.crossings, table.terminals, strict=True))


def _assert_reference_bits(circuit):
    """Every column of the path table, and every amplitude under each of
    CLOCKS, equals the reference walk's, compared under float.hex so that
    signed zeros count.  Each Circuit.arm view's table holds the rows that
    leave the source through that arm, in the whole table's order."""
    kinds = {eid: el.kind for eid, el in circuit.elements.items()}
    table = compile_paths(circuit)
    paths = enumerate_paths(circuit)
    assert table.source == circuit.sole_source()
    assert table.element_ids == tuple(sorted(circuit.elements))
    assert [v.hex() for v in table.geometric_phases] == [
        p.geometric_phase.hex() for p in paths
    ]
    assert type(table.advances) is array and table.advances.typecode == "I"
    assert all(type(string) is str for string in table.advance_strings)
    assert len(table.advance_strings) == len(set(table.advance_strings))
    assert list(_decoded_advances(table)) == list(
        list(
            None if kinds[eid] is ElementType.BEAMSPLITTER else eid
            for eid, in_port, out_port in p.steps
            if kinds[eid] is ElementType.PHASESHIFTER
            or (kinds[eid] is ElementType.BEAMSPLITTER and in_port != out_port)
        )
        for p in paths
    )
    assert table.crossings == tuple(
        [kinds[eid] for eid in p.element_ids].count(ElementType.BEAMSPLITTER) for p in paths
    )
    assert table.terminals == tuple(p.terminal for p in paths)
    for clock in CLOCKS:
        assert _bits(row_amplitudes(circuit, clock)) == _bits(
            path_amplitude(p, circuit, clock) for p in paths
        )
    for k in range(circuit.source_fanout(table.source)):
        assert _rows(compile_paths(circuit.arm(k))) == [
            row for row, p in zip(_rows(table), paths) if p.steps[0][2] == k
        ]


def test_table_amplitudes_equal_reference_on_the_corpus():
    for seed in range(2000):
        _assert_reference_bits(random_circuit(seed))


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_circuit(TWO_ARM_TEXT),
        lambda: parse_circuit(TWO_ARMS_INTO_ONE_SPLITTER_TEXT),
        lambda: parse_circuit(THREE_ARM_TEXT),
        lambda: bghz_left_circuit(0.4),
        lambda: bghz_right_circuit(1.5, arm_phase=0.3),
        lambda: mach_zehnder_circuit(2.0, 0.25),
    ]
    + [lambda phase=phase: _mz_with_link_phases(phase) for phase in (-0.7, -0.0, 0.0, -2 * math.pi)],
    ids=["two-arm", "two-arms-one-splitter", "three-arm", "bghz-left", "bghz-right", "mz",
         "mz-links-negative", "mz-links-minus-zero", "mz-links-zero", "mz-links-minus-2pi"],
)
def test_table_amplitudes_equal_reference(build):
    _assert_reference_bits(build())


@pytest.mark.parametrize("k", range(1, 13))
def test_table_amplitudes_equal_reference_on_a_ladder(ladder_text, k):
    _assert_reference_bits(parse_circuit(ladder_text(k)))


@pytest.mark.parametrize("steps", range(1, 13))
def test_table_amplitudes_equal_reference_on_a_walk(walk_text, steps):
    """Every walk route has its own element sequence, so the table is built
    from bundles of one row; both engines agree on every terminal."""
    circuit = parse_circuit(walk_text(steps))
    _assert_reference_bits(circuit)
    (amps,) = terminal_amplitudes(circuit, [({}, 0.0)])
    matrix_amps = hilbert_amplitudes(circuit)
    assert set(amps) == set(matrix_amps)
    assert max(abs(amps[key] - amp) for key, amp in matrix_amps.items()) < 1e-13


def _advance(clock, turn):
    """The table evaluation's reduction after one advance."""
    clock += turn
    if clock >= 2 * math.pi:
        clock -= 2 * math.pi
    return clock


CLOCK_EDGES = (0.0, 5e-324, math.pi / 2, math.nextafter(2 * math.pi, 0.0))


@pytest.mark.parametrize("clock", CLOCK_EDGES)
@pytest.mark.parametrize("turn", CLOCK_EDGES)
def test_one_subtraction_reduces_an_advance_as_fmod_does(clock, turn):
    assert _advance(clock, turn).hex() == math.fmod(clock + turn, 2 * math.pi).hex()


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 2 * math.pi, exclude_max=True), st.floats(0.0, 2 * math.pi, exclude_max=True))
def test_one_subtraction_reduces_any_advance_as_fmod_does(clock, turn):
    reduced = _advance(clock, turn)
    assert reduced.hex() == math.fmod(clock + turn, 2 * math.pi).hex()
    assert 0.0 <= reduced < 2 * math.pi


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.sampled_from(CLOCK_EDGES), st.floats(0.0, 2 * math.pi, exclude_max=True)),
       st.sampled_from([INV_SQRT2**k for k in range(21)]))
def test_rect_equals_cos_sin_times_magnitude(clock, magnitude):
    assert _bits([cmath.rect(magnitude, clock)]) == _bits(
        [complex(math.cos(clock), math.sin(clock)) * magnitude]
    )


def test_rect_at_a_zero_clock_has_a_positive_zero_imaginary_part():
    for magnitude in (1.0, INV_SQRT2, INV_SQRT2**20):
        assert _bits([cmath.rect(magnitude, 0.0)]) == _bits([complex(magnitude, 0.0)])
        assert _bits([cmath.rect(magnitude, 0.0)]) == _bits([complex(1.0, 0.0) * magnitude])


# Shifts at the edges of canonical_angle: each reduces to a turn in [0, 2pi).
SHIFT_EDGES = (-0.0, -1e-300, math.nextafter(2 * math.pi, 0.0), 1e300)

TWO_SHIFTER_TEXT = """\
element s source
element b1 beamsplitter
element b2 beamsplitter
element p phaseshifter:0
element q phaseshifter:0
element u detector:u
element d detector:d
link s:0 b1:0 phase=0.25
link b1:0 p:0
link p:0 b2:0 phase=1.5
link b1:1 q:0 phase=6.0
link q:0 b2:1
link b2:0 d:0
link b2:1 u:0 phase=0.0
"""


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from(SHIFT_EDGES), st.floats(-1e300, 1e300)),
             min_size=2, max_size=2),
    st.one_of(st.sampled_from(CLOCKS), st.floats(-1e6, 1e6)),
)
def test_turns_lie_in_one_turn_and_no_row_starts_at_negative_zero(shifts, clock):
    """What lets the table evaluation reduce the clock after an advance by
    one subtraction of 2pi: every turn it adds lies in [0, 2pi), and the
    reduction that starts a row (canonical_angle's steps on the reduced
    clock plus non-negative link phases) never returns -0.0."""
    circuit = reshifted(parse_circuit(TWO_SHIFTER_TEXT), {"p": shifts[0], "q": shifts[1]})
    table = compile_paths(circuit)
    for advances in _decoded_advances(table):
        for advance in advances:
            turn = REFLECTION_TURN if advance is None else circuit.elements[advance].shift
            assert 0.0 <= turn < 2 * math.pi
    rows = [canonical_angle(canonical_angle(clock) + phase) for phase in table.geometric_phases]
    assert len(rows) == len(table)
    assert all(0.0 <= r < 2 * math.pi and math.copysign(1.0, r) == 1.0 for r in rows)
    reference = (path_amplitude(p, circuit, clock) for p in enumerate_paths(circuit))
    assert _bits(row_amplitudes(circuit, clock)) == _bits(reference)


def test_terminal_sums_follow_table_order(ladder_text):
    """Each terminal sum adds its rows one by one in table order."""
    circuit = parse_circuit(ladder_text(10))
    sums = {key: 0.0 + 0.0j for key in circuit.terminal_keys()}
    for path, amp in zip(enumerate_paths(circuit), row_amplitudes(circuit, 2.5), strict=True):
        sums[circuit.terminal_key(path.terminal)] += amp
    (got,) = terminal_amplitudes(circuit, [({}, 2.5)])
    assert list(got) == list(sums)
    assert _bits(got.values()) == _bits(sums.values())


@pytest.mark.parametrize("port", [None, 0])
def test_one_setting_holds_no_list_of_row_amplitudes(ladder_text, port):
    """Each row's amplitude is folded into its terminal's sum as it is made:
    past the compiled table, one setting peaks below 8 bytes a row, where a
    list of the row amplitudes alone takes 40."""
    circuit = parse_circuit(ladder_text(14))
    view = circuit if port is None else circuit.arm(port)
    compile_paths(view)
    tracemalloc.start()
    try:
        (sums,) = terminal_amplitudes(view, [({}, 2.5)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert unitarity_defect(sums) < 1e-12
    assert peak < 8 * 2**14


# -- row and column routes ------------------------------------------------------


def _route_bits(monkeypatch, build, column, settings):
    """Under streams thresholds that send every table down one route, each
    setting's row amplitudes and terminal sums (keys in order, values under
    float.hex) of a circuit ``build()`` makes afresh."""
    monkeypatch.setattr(streams, "COLUMN_MIN_ROWS", 0 if column else math.inf)
    monkeypatch.setattr(streams, "COLUMN_ROWS_PER_ADVANCE", 0)
    circuit = build()
    table = compile_paths(circuit)
    assert streams._route(table) is (streams._block_amplitudes if column else streams._row_amplitudes)
    rows = [_bits(amplitudes) for amplitudes in _table_amplitudes(circuit, table, settings)]
    sums = [(list(amps), _bits(amps.values())) for amps in terminal_amplitudes(circuit, settings)]
    return rows, sums


def _assert_routes_agree(monkeypatch, build):
    """Both routes give every row amplitude and every terminal sum bit for
    bit, over settings read in one call: clocks of 0.0, -0.0, 1e6 and one
    drawn from no seed, and the circuit's phase shifters moved off their own
    values."""
    shifters = sorted(eid for eid, el in build().elements.items()
                      if el.kind is ElementType.PHASESHIFTER)
    (drawn,) = initial_clocks([None])
    settings = [({}, 0.0), ({}, drawn),
                ({eid: 0.5 + 1.7 * i for i, eid in enumerate(shifters)}, -0.0), ({}, 1e6)]
    assert _route_bits(monkeypatch, build, False, settings) == _route_bits(
        monkeypatch, build, True, settings)


def _with_link_phases(circuit: Circuit, phase) -> Circuit:
    """``circuit`` with each link's phase replaced by ``phase(link.phase)``."""
    return Circuit(circuit.elements, [replace(link, phase=phase(link.phase)) for link in circuit.links])


def _shifter_ladder(ladder_text, k: int) -> Circuit:
    """A k-splitter ladder with a phase shifter on each arm from one
    splitter's port 0 to the next splitter's: the shifters a route passes
    name its port choices, so every route has its own advance string."""
    ladder = parse_circuit(ladder_text(k))
    elements, links = dict(ladder.elements), []
    for link in ladder.links:
        if link.src_port == 0 and link.dst.startswith("bs"):
            shifter = f"ps{link.src[2:]}"
            elements[shifter] = Element(ElementType.PHASESHIFTER, shift=0.1 * len(elements))
            links += [replace(link, dst=shifter), replace(link, src=shifter, phase=0.0)]
        else:
            links.append(link)
    return Circuit(elements, links)


def _past_surrogates(circuit: Circuit) -> Circuit:
    """``circuit`` beside 0xD800 unfed detectors whose ids sort before its
    own, so that its advance codes, ranks among the element ids, lie in the
    surrogate range, which only "surrogatepass" encodes."""
    spares = {f"a{i:05}": Element(ElementType.DETECTOR, label=f"a{i:05}") for i in range(0xD800)}
    return Circuit({**spares, **circuit.elements}, circuit.links)


def test_routes_agree_on_the_corpus(monkeypatch):
    for seed in range(500):
        _assert_routes_agree(monkeypatch, lambda: random_circuit(seed))


# Tables of 512 to 65,536 rows, Circuit.arm views compiled as circuits of
# their own, a ladder whose every link carries a negative phase, so that rows
# start below 0 and the column route's first fix-up adds 2pi, and a ladder
# with a phase shifter on its arms, also with advance codes past 0xD7FF.
ROUTE_CASES = {
    **{f"ladder-{k}": lambda ladder, walk, k=k: parse_circuit(ladder(k)) for k in (9, 10, 14, 16)},
    **{f"walk-{t}": lambda ladder, walk, t=t: parse_circuit(walk(t)) for t in (12, 16)},
    "two-arm-0": lambda ladder, walk: parse_circuit(TWO_ARM_TEXT).arm(0),
    "two-arm-1": lambda ladder, walk: parse_circuit(TWO_ARM_TEXT).arm(1),
    "three-arm-1": lambda ladder, walk: parse_circuit(THREE_ARM_TEXT).arm(1),
    "ladder-10-negative-links": lambda ladder, walk: _with_link_phases(
        parse_circuit(ladder(10)), lambda phase: -3.0 - phase),
    "shifter-ladder-10": lambda ladder, walk: _shifter_ladder(ladder, 10),
    "shifter-ladder-10-surrogates": lambda ladder, walk: _past_surrogates(_shifter_ladder(ladder, 10)),
}


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_routes_agree(monkeypatch, ladder_text, walk_text, case):
    _assert_routes_agree(monkeypatch, lambda: ROUTE_CASES[case](ladder_text, walk_text))


def test_negative_link_phases_start_rows_below_zero(ladder_text):
    """The case above does reach the first fix-up: fmod keeps the sign."""
    circuit = _with_link_phases(parse_circuit(ladder_text(10)), lambda phase: -3.0 - phase)
    assert all(math.fmod(0.0 + phase, 2 * math.pi) < 0.0
               for phase in compile_paths(circuit).geometric_phases)


# -- list and array bundles -----------------------------------------------------


def _walked(monkeypatch, build, arrays):
    """The path table of a circuit ``build()`` makes afresh, walked with every
    bundle held as numpy columns or none, as comparable values: the phase
    bytes, each row's advance string, crossings and terminal."""
    calls = []
    column_children = circuit_module._column_children

    def counted(*args):
        calls.append(len(args[0]))
        return column_children(*args)

    with monkeypatch.context() as patch:
        patch.setattr(circuit_module, "COLUMN_MIN_ROWS", 0 if arrays else math.inf)
        patch.setattr(circuit_module, "_column_children", counted)
        table = compile_paths(build())
    assert bool(calls) is arrays
    assert len(table.advance_strings) == len(set(table.advance_strings))
    strings = [table.advance_strings[index] for index in table.advances]
    return table.geometric_phases.tobytes(), strings, table.crossings, table.terminals


def _assert_bundles_agree(monkeypatch, build):
    assert _walked(monkeypatch, build, False) == _walked(monkeypatch, build, True)


def test_array_bundles_walk_the_list_table_on_the_corpus(monkeypatch):
    for seed in range(500):
        _assert_bundles_agree(monkeypatch, lambda: random_circuit(seed))


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_array_bundles_walk_the_list_table(monkeypatch, ladder_text, walk_text, case):
    _assert_bundles_agree(monkeypatch, lambda: ROUTE_CASES[case](ladder_text, walk_text))


def test_short_tables_compile_without_numpy(monkeypatch, ladder_text):
    """A table whose bundles all stay below COLUMN_MIN_ROWS is walked with no
    numpy, however long: a 10-splitter ladder's last bundle has 512 rows.
    An 11-splitter ladder's last has 1,024, and its walk imports numpy."""
    circuits = [random_circuit(seed) for seed in range(500)]
    circuits += [parse_circuit(ladder_text(k)) for k in (9, 10)]
    longer = parse_circuit(ladder_text(11))
    monkeypatch.setitem(sys.modules, "numpy", None)
    for circuit in circuits:
        compile_paths(circuit)
    with pytest.raises(ImportError):
        compile_paths(longer)


@pytest.mark.parametrize("k", [16, 18])
def test_compiling_a_long_ladder_peaks_below_the_list_walk(ladder_text, k):
    """The walk with every bundle held in Python lists peaked at 65.2 and
    65.6 bytes a row (tracemalloc, 16 and 18 splitters); numpy columns must
    not peak higher, within 1%.  They peak at about 39 bytes a row."""
    circuit = parse_circuit(ladder_text(k))
    compile_paths(parse_circuit(ladder_text(12)))  # numpy's first-use allocations
    tracemalloc.start()
    try:
        table = compile_paths(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert type(table.advances) is array and table.advances.typecode == "I"
    assert peak < 66.0 * 2**k


def test_a_table_takes_the_column_route_when_long_and_shared(ladder_text):
    """streams evaluates 512 rows on the row route and 1,024 on the column
    route; a 16-splitter ladder whose 65,536 routes each have their own
    advance string stays on the row route, where the column route would
    cost more memory than it saves time."""
    def route(circuit):
        return streams._route(compile_paths(circuit))

    assert route(parse_circuit(ladder_text(9))) is streams._row_amplitudes
    assert route(parse_circuit(ladder_text(10))) is streams._block_amplitudes
    shifted = compile_paths(_shifter_ladder(ladder_text, 16))
    assert len(shifted) == len(set(shifted.advances)) == 2**16
    assert streams._route(shifted) is streams._row_amplitudes


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_unitarity_on_random_circuits(seed):
    (clock,) = initial_clocks([seed])
    (amps,) = terminal_amplitudes(random_circuit(seed), [({}, clock)])
    assert unitarity_defect(amps) < 1e-12


# -- stream pairs ---------------------------------------------------------------


def test_pair_daughters_share_one_clock(monkeypatch):
    """bghz_points evaluates both daughters, arm by arm, under the one clock
    each point's seed draws, one point or several."""
    clocks = []

    def recording(circuit, pairs, *args, **kwargs):
        pairs = list(pairs)
        clocks.append([clock for _, clock in pairs])
        return terminal_amplitudes(circuit, pairs, *args, **kwargs)

    monkeypatch.setattr(streams, "terminal_amplitudes", recording)
    experiments.bghz_points([(0.2, 1.0, 5)], "streams")
    drawn = [float(make_rng(seed).uniform(0.0, 2.0 * math.pi)) for seed in (5, 6)]
    assert clocks == [drawn[:1]] * 4  # two sides, two arms each
    clocks.clear()
    experiments.bghz_points([(0.2, 1.0, 5), (0.4, 0.3, 6)], "streams")
    assert clocks == [drawn] * 4
    clocks.clear()
    experiments.bghz_points([(0.2, 1.0, None)], "streams")  # one fresh draw, shared
    assert len(clocks) == 4 and all(c == clocks[0] for c in clocks)


def test_joint_amplitudes_match_frozen_oracle():
    joint = pair_amplitudes(*bghz_streams(0.4, 1.5, seed=11))
    rotation = cmath.exp(2j * pair_clock(11))
    for key, want in BGHZ_JOINT_ORACLE.items():
        assert joint[key] == pytest.approx(want * rotation, abs=1e-12)


def _joint_probabilities(pair):
    return _probabilities(pair_amplitudes(*pair))


def test_joint_probabilities_normalized_and_correct():
    for alpha, beta in [(0.0, 0.0), (0.4, 1.5), (3.0, 0.7)]:
        pair = bghz_streams(alpha, beta, seed=3)
        probs = _joint_probabilities(pair)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        half = 0.5 * (beta - alpha)
        assert probs[("u", "u'")] == pytest.approx(0.5 * math.cos(half) ** 2, abs=1e-12)
        assert probs[("u", "d'")] == pytest.approx(0.5 * math.sin(half) ** 2, abs=1e-12)


def test_perfect_correlation_at_equal_shifts():
    pair = bghz_streams(1.234, 1.234, seed=8)
    probs = _joint_probabilities(pair)
    assert probs[("u", "u'")] == pytest.approx(0.5, abs=1e-12)
    assert probs[("d", "d'")] == pytest.approx(0.5, abs=1e-12)
    assert probs[("u", "d'")] == pytest.approx(0.0, abs=1e-12)
    assert probs[("d", "u'")] == pytest.approx(0.0, abs=1e-12)


# -- congruence ------------------------------------------------------------------


def test_congruence_holds_on_symmetric_bench():
    for alpha in np.linspace(0, 2 * math.pi, 8):
        for beta in np.linspace(0, 2 * math.pi, 8):
            identity, refactoring = _congruence_deviations(
                *bghz_streams(float(alpha), float(beta), seed=2))
            assert identity < 1e-12
            assert refactoring < 1e-12


def test_congruence_cross_term_value_at_zero_shifts():
    """At alpha = beta = 0 the u-u' sum of products is exactly i (before
    the pairing weight 1/sqrt 2), up to the shared clock rotation."""
    joint = pair_amplitudes(*bghz_streams(0.0, 0.0, seed=4))
    rotation = cmath.exp(2j * pair_clock(4))
    assert joint[("u", "u'")] * math.sqrt(2) / rotation == pytest.approx(1j, abs=1e-12)


def test_congruence_detects_desymmetrized_geometry():
    identity, refactoring = _congruence_deviations(*bghz_streams(0.8, 2.1, seed=5, arm_phase=0.3))
    # the plain arms now differ by e^{0.3i}, so |1 - e^{0.3i}|/sqrt(2)
    expected = abs(1 - cmath.exp(0.3j)) / math.sqrt(2)
    assert identity == pytest.approx(expected, rel=1e-9)
    assert refactoring > 0.01


def test_refactored_terms_use_single_side_products():
    """The rewritten form must equal the cross form term by term, which is
    the numerical content of the locality rearrangement: the refactoring
    deviation is the largest of the per-term differences."""
    _, refactoring = _congruence_deviations(*bghz_streams(1.1, 0.3, seed=9))
    assert refactoring < 1e-12
