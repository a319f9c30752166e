"""Circuit model: validation rules, text format, path enumeration."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowsim import circuit as circuit_module
from shadowsim.angles import canonical_angle, parse_angle
from shadowsim.circuit import (
    Circuit,
    CircuitParseError,
    CircuitValidationError,
    Element,
    ElementType,
    MAX_PATHS,
    Link,
    compile_paths,
    count_paths,
    parse_circuit,
)
from shadowsim.corpus import random_circuit
from shadowsim.experiments import (
    bghz_left_circuit,
    bghz_right_circuit,
    ifm_circuit,
    mach_zehnder_circuit,
)
from shadowsim.streams import terminal_amplitudes
from reference import Path, circuits_equal, enumerate_paths, render_circuit, reshifted

# -- angles -------------------------------------------------------------------


@pytest.mark.parametrize(
    ("text", "value"),
    [
        ("0", 0.0),
        ("1.25", 1.25),
        ("-2", -2.0),
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("pi/2", math.pi / 2),
        ("3pi/4", 3 * math.pi / 4),
        ("0.5pi", 0.5 * math.pi),
        ("2pi/3", 2 * math.pi / 3),
        ("1e-3", 1e-3),
    ],
)
def test_parse_angle(text, value):
    assert parse_angle(text) == pytest.approx(value, abs=0.0)


@pytest.mark.parametrize("text", ["banana", "pi*2", "2*pi", "", "pi/0", "1/2"])
def test_parse_angle_rejects(text):
    with pytest.raises(ValueError, match="pi-expression|denominator"):
        parse_angle(text)


def test_canonical_angle_range():
    for value in (-7.0, -1e-9, 0.0, 2 * math.pi, 2 * math.pi - 1e-16, 123.456):
        reduced = canonical_angle(value)
        assert 0.0 <= reduced < 2 * math.pi


def test_canonical_angle_rejects_nonfinite():
    with pytest.raises(ValueError):
        canonical_angle(float("nan"))


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_canonical_angle_is_idempotent(value):
    reduced = canonical_angle(value)
    assert canonical_angle(reduced) == reduced


# -- element and link validation ------------------------------------------------


def test_detector_requires_label():
    with pytest.raises(CircuitValidationError):
        Element(ElementType.DETECTOR)


def test_only_shifters_take_shift():
    with pytest.raises(CircuitValidationError):
        Element(ElementType.MIRROR, shift=0.5)
    assert Element(ElementType.PHASESHIFTER, shift=2 * math.pi + 0.5).shift == pytest.approx(0.5)


def _two_detector_splitter() -> dict[str, Element]:
    return {
        "s": Element(ElementType.SOURCE),
        "b": Element(ElementType.BEAMSPLITTER),
        "x": Element(ElementType.DETECTOR, label="x"),
        "y": Element(ElementType.DETECTOR, label="y"),
    }


def test_valid_minimal_circuit():
    circuit = Circuit(
        _two_detector_splitter(),
        [Link("s", 0, "b", 0), Link("b", 0, "x", 0), Link("b", 1, "y", 0)],
    )
    assert circuit.terminal_keys() == ("x", "y")
    assert len(compile_paths(circuit)) == 2


@pytest.mark.parametrize(
    ("links", "message"),
    [
        ([Link("s", 0, "b", 0), Link("b", 0, "x", 0)], "output"),
        ([Link("s", 0, "b", 0), Link("b", 0, "x", 0), Link("b", 1, "x", 0)], "fed twice"),
        (
            [Link("s", 0, "b", 0), Link("s", 0, "b", 1), Link("b", 0, "x", 0), Link("b", 1, "y", 0)],
            "linked twice",
        ),
        (
            [Link("s", 0, "b", 5), Link("b", 0, "x", 0), Link("b", 1, "y", 0)],
            "port",
        ),
        (
            [Link("s", 0, "nope", 0), Link("b", 0, "x", 0), Link("b", 1, "y", 0)],
            "unknown element",
        ),
    ],
)
def test_bad_wiring_rejected(links, message):
    with pytest.raises(CircuitValidationError, match=message):
        Circuit(_two_detector_splitter(), links)


def test_duplicate_detector_labels_rejected():
    elements = _two_detector_splitter()
    elements["y"] = Element(ElementType.DETECTOR, label="x")
    with pytest.raises(CircuitValidationError, match="label"):
        Circuit(
            elements,
            [Link("s", 0, "b", 0), Link("b", 0, "x", 0), Link("b", 1, "y", 0)],
        )


def test_cycle_rejected():
    elements = {
        "s": Element(ElementType.SOURCE),
        "b": Element(ElementType.BEAMSPLITTER),
        "m": Element(ElementType.MIRROR),
        "x": Element(ElementType.DETECTOR, label="x"),
    }
    links = [
        Link("s", 0, "b", 0),
        Link("b", 0, "m", 0),
        Link("m", 0, "b", 1),
        Link("b", 1, "x", 0),
    ]
    with pytest.raises(CircuitValidationError, match="cycle"):
        Circuit(elements, links)


def _mirror_line(phases) -> tuple[dict, list]:
    elements = {
        "s": Element(ElementType.SOURCE),
        "m": Element(ElementType.MIRROR),
        "x": Element(ElementType.DETECTOR, label="x"),
    }
    return elements, [Link("s", 0, "m", 0, phases[0]), Link("m", 0, "x", 0, phases[1])]


@pytest.mark.parametrize(
    "phases", [(math.nan, 0.0), (math.inf, 0.0), (1e308, 1e308), (-1e308, 1e308)]
)
def test_link_phases_that_can_sum_past_the_float_range_are_rejected(phases):
    with pytest.raises(CircuitValidationError, match="float range"):
        Circuit(*_mirror_line(phases))


def test_one_huge_finite_link_phase_is_accepted():
    assert list(compile_paths(Circuit(*_mirror_line((1e308, 0.0)))).geometric_phases) == [1e308]


def test_source_required():
    with pytest.raises(CircuitValidationError, match="source"):
        Circuit({"x": Element(ElementType.DETECTOR, label="x")}, [])


# -- text format ----------------------------------------------------------------


MZ_TEXT = """
# two-splitter bench
element src source
element bs1 beamsplitter
element ps phaseshifter:pi/3
element bs2 beamsplitter
element u detector:u
element d detector:d
link src:0 bs1:0
link bs1:0 ps:0 phase=0.25
link ps:0 bs2:0
link bs1:1 bs2:1 phase=0.25
link bs2:1 u:0
link bs2:0 d:0
"""


def test_parse_circuit_text():
    circuit = parse_circuit(MZ_TEXT)
    assert circuit.elements["ps"].shift == pytest.approx(math.pi / 3)
    assert circuit.terminal_keys() == ("u", "d")
    assert len(compile_paths(circuit)) == 4


def test_render_parse_round_trip():
    circuit = parse_circuit(MZ_TEXT)
    assert circuits_equal(parse_circuit(render_circuit(circuit)), circuit)


def test_render_round_trips_programmatic_circuits():
    for builder in (lambda: mach_zehnder_circuit(0.7, 0.3), lambda: ifm_circuit("b")):
        circuit = builder()
        assert circuits_equal(parse_circuit(render_circuit(circuit)), circuit)


def test_render_keeps_a_negative_zero_link_phase():
    circuit = parse_circuit(
        "element src source\nelement m mirror\nelement u detector:u\n"
        "link src:0 m:0 phase=-0.0\nlink m:0 u:0\n"
    )
    assert math.copysign(1.0, circuit.links[0].phase) < 0
    again = parse_circuit(render_circuit(circuit))
    assert math.copysign(1.0, again.links[0].phase) < 0
    assert circuits_equal(again, circuit)
    assert not circuits_equal(again, parse_circuit(render_circuit(circuit).replace("-0.0", "0.0")))


def test_circuits_equal_tells_a_negative_zero_shift_apart():
    text = ("element src source\nelement ps phaseshifter:{}\nelement u detector:u\n"
            "link src:0 ps:0\nlink ps:0 u:0\n")
    negative, positive = (parse_circuit(text.format(shift)) for shift in ("-0.0", "0.0"))
    assert math.copysign(1.0, negative.elements["ps"].shift) < 0
    assert circuits_equal(parse_circuit(render_circuit(negative)), negative)
    assert not circuits_equal(negative, positive)


@pytest.mark.parametrize(
    ("text", "line", "fragment"),
    [
        ("element x widget", 1, "unknown element kind"),
        ("element src source\nlink src:0", 2, "link"),
        ("element src source\nlink src:zero d:0", 2, "port"),
        ("element src source\nelement src source", 2, "duplicate"),
        ("element d detector", 1, "label"),
        ("element ps phaseshifter:banana", 1, "pi-expression"),
        ("element src source\nelement d detector:d\nlink src:0 d:0 phase=oops", 3, "pi-expression"),
        ("wibble", 1, "unknown statement"),
    ],
)
def test_parse_errors_carry_position(text, line, fragment):
    with pytest.raises(CircuitParseError, match=fragment) as err:
        parse_circuit(text)
    assert err.value.line == line
    assert err.value.column >= 1


# Every refusal of circuit.py that an element or a circuit text can reach, with
# its whole message; a parse error's names its line and column.
_SOURCE_TO_U = "element src source\nelement u detector:u\nlink src:0 u:0\n"
REFUSALS = {
    "label": (lambda: Element(ElementType.MIRROR, label="x"), "mirror takes no label"),
    "empty": (lambda: parse_circuit(""), "no source: circuit has no elements"),
    "blocker-label": (
        lambda: parse_circuit("element src source\nelement bs beamsplitter\nelement u blocker\n"
                              "element d detector:u\nlink src:0 bs:0\nlink bs:0 u:0\n"
                              "link bs:1 d:0"),
        "blocker id 'u' collides with a detector label"),
    "terminal-output": (
        lambda: parse_circuit(_SOURCE_TO_U + "element d detector:d\nlink u:0 d:0"),
        "port arity violation: u (detector) has no outputs"),
    "output-port": (
        lambda: parse_circuit("element src source\nelement m mirror\nelement u detector:u\n"
                              "link src:0 m:0\nlink m:1 u:0"),
        "port arity violation: m has no output port 1"),
    "source-input": (
        lambda: parse_circuit("element src source\nelement s2 source\nelement m mirror\n"
                              "link src:0 m:0\nlink m:0 s2:0"),
        "port arity violation: s2 (source) has no inputs"),
    "source-ports": (
        lambda: parse_circuit(_SOURCE_TO_U + "element d detector:d\nlink src:2 d:0"),
        "source src output ports must be contiguous from 0, got [0, 2]"),
    "element-statement": (lambda: parse_circuit("element a"),
                          "line 1, column 1: expected: element <id> <kind>"),
    "element-id": (lambda: parse_circuit("element a-b mirror"),
                   "line 1, column 9: bad element id 'a-b'"),
    "destination-port": (lambda: parse_circuit("element src source\nlink src:0 u"),
                         "line 2, column 12: bad port reference 'u'"),
    "phase-keyword": (lambda: parse_circuit(_SOURCE_TO_U.rstrip("\n") + " angle=1"),
                      "line 3, column 16: expected phase=<radians>, got 'angle=1'"),
    "dangling": (lambda: parse_circuit("element src source\nlink src:0 u:0"),
                 "line 2, column 12: dangling link: unknown element 'u'"),
    "shifter-angle": (lambda: parse_circuit("element p phaseshifter"),
                      "line 1, column 11: phaseshifter needs an angle: phaseshifter:<radians>"),
    "argument": (lambda: parse_circuit("element m mirror:1"),
                 "line 1, column 11: mirror takes no argument"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_reachable_refusal_gives_its_message(case):
    build, message = REFUSALS[case]
    with pytest.raises((CircuitParseError, CircuitValidationError)) as err:
        build()
    assert str(err.value) == message


# -- path enumeration -------------------------------------------------------------


def _mirror_chain() -> Circuit:
    return parse_circuit(
        "element s source\nelement m1 mirror\nelement m2 mirror\n"
        "element t detector:t\nlink s:0 m1:0\nlink m1:0 m2:0\nlink m2:0 t:0"
    )


def _cascade() -> Circuit:
    text = ["element s source", "element b0 beamsplitter",
            "element ba beamsplitter", "element bb beamsplitter"]
    links = ["link s:0 b0:0", "link b0:0 ba:0", "link b0:1 bb:0"]
    for i, (bs, port) in enumerate([("ba", 0), ("ba", 1), ("bb", 0), ("bb", 1)]):
        text.append(f"element t{i} detector:t{i}")
        links.append(f"link {bs}:{port} t{i}:0")
    return parse_circuit("\n".join(text + links))


def _double_mz() -> Circuit:
    return parse_circuit(
        "\n".join(
            [
                "element s source",
                "element b1 beamsplitter",
                "element b2 beamsplitter",
                "element b3 beamsplitter",
                "element m mirror",
                "element u detector:u",
                "element d detector:d",
                "link s:0 b1:0",
                "link b1:0 b2:0",
                "link b1:1 b2:1",
                "link b2:1 b3:0",
                "link b2:0 m:0",
                "link m:0 b3:1",
                "link b3:0 u:0",
                "link b3:1 d:0",
            ]
        )
    )


def _partial_recombine() -> Circuit:
    return parse_circuit(
        "\n".join(
            [
                "element s source",
                "element b1 beamsplitter",
                "element b2 beamsplitter",
                "element early detector:early",
                "element u detector:u",
                "element d detector:d",
                "link s:0 b1:0",
                "link b1:0 b2:0",
                "link b1:1 early:0",
                "link b2:0 u:0",
                "link b2:1 d:0",
            ]
        )
    )


def _blocker_only() -> Circuit:
    return parse_circuit("element s source\nelement blk blocker\nlink s:0 blk:0")


@pytest.mark.parametrize(
    ("build", "count"),
    [
        (lambda: mach_zehnder_circuit(0.7), 4),
        (lambda: ifm_circuit("a"), 3),
        (lambda: ifm_circuit("b"), 3),
        (_mirror_chain, 1),
        (
            lambda: parse_circuit(
                "element s source\nelement b beamsplitter\nelement x detector:x\n"
                "element y detector:y\nlink s:0 b:0\nlink b:0 x:0\nlink b:1 y:0"
            ),
            2,
        ),
        (_cascade, 4),
        (lambda: bghz_left_circuit(0.3), 4),
        (_double_mz, 8),
        (_partial_recombine, 3),
        (_blocker_only, 1),
    ],
)
def test_path_counts(build, count):
    circuit = build()
    table = compile_paths(circuit)
    assert len(table) == count
    assert table.source in circuit.sources
    for terminal in table.terminals:
        assert circuit.elements[terminal].kind.value in ("detector", "blocker")


def test_paths_collect_link_phase():
    circuit = parse_circuit(MZ_TEXT)
    for phase in compile_paths(circuit).geometric_phases:
        assert phase == pytest.approx(0.25)


def test_paths_are_deterministically_ordered():
    """The rows run in the order of their element-id sequences: that of the
    reference walk, which the table's columns follow row by row."""
    circuit = _double_mz()
    paths = enumerate_paths(circuit)
    sequences = [path.element_ids for path in paths]
    assert sequences == sorted(sequences)
    table = compile_paths(circuit)
    assert table.terminals == tuple(path.terminal for path in paths)
    assert list(table.geometric_phases) == [path.geometric_phase for path in paths]
    assert table.crossings == tuple(
        sum(circuit.elements[eid].kind is ElementType.BEAMSPLITTER for eid in sequence)
        for sequence in sequences
    )


def test_a_walk_table_holds_less_than_64_bytes_a_row(walk_text):
    """A 14-step walk's 16,384 routes each have their own element sequence,
    so a column of per-row strings would cost about a hundred bytes a row;
    the table holds 8 B a row of phases and shared advance strings, the
    rest being tuple slots and small ints."""
    circuit = parse_circuit(walk_text(14))
    tracemalloc.start()
    try:
        table = compile_paths(circuit)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 2**14
    assert held < 64 * len(table)


# Path tuples listed by the walker before the path-table compile; the
# reference walk must hand back the same routes, in the same order, with the
# same phases, and the table's columns must agree with it row by row.
FROZEN_PATHS = {
    "mz": [
        ("src", (("src", None, 0), ("bs1", 0, 0), ("m_a", 0, 0), ("shift_a", 0, 0), ("bs2", 0, 0), ("det_d", 0, None)), "det_d", 0.0),
        ("src", (("src", None, 0), ("bs1", 0, 0), ("m_a", 0, 0), ("shift_a", 0, 0), ("bs2", 0, 1), ("det_u", 0, None)), "det_u", 0.0),
        ("src", (("src", None, 0), ("bs1", 0, 1), ("m_b", 0, 0), ("bs2", 1, 0), ("det_d", 0, None)), "det_d", 0.0),
        ("src", (("src", None, 0), ("bs1", 0, 1), ("m_b", 0, 0), ("bs2", 1, 1), ("det_u", 0, None)), "det_u", 0.0),
    ],
    "ifm_a": [
        ("src", (("src", None, 0), ("bs1", 0, 0), ("absorbed", 0, None)), "absorbed", 0.0),
        ("src", (("src", None, 0), ("bs1", 0, 1), ("m_b", 0, 0), ("bs2", 1, 0), ("det_d", 0, None)), "det_d", 0.0),
        ("src", (("src", None, 0), ("bs1", 0, 1), ("m_b", 0, 0), ("bs2", 1, 1), ("det_u", 0, None)), "det_u", 0.0),
    ],
    "ifm_b": [
        ("src", (("src", None, 0), ("bs1", 0, 1), ("absorbed", 0, None)), "absorbed", 0.0),
        ("src", (("src", None, 0), ("bs1", 0, 0), ("m_a", 0, 0), ("bs2", 0, 0), ("det_d", 0, None)), "det_d", 0.0),
        ("src", (("src", None, 0), ("bs1", 0, 0), ("m_a", 0, 0), ("bs2", 0, 1), ("det_u", 0, None)), "det_u", 0.0),
    ],
    "corpus_17": [
        ("src", (("src", None, 0), ("bs0", 1, 0), ("bs1", 0, 0), ("bs2", 1, 1), ("m0", 0, 0), ("bs3", 1, 1), ("det1", 0, None)), "det1", 16.430502407659493),
        ("src", (("src", None, 0), ("bs0", 1, 1), ("bs1", 1, 0), ("bs2", 1, 1), ("m0", 0, 0), ("bs3", 1, 1), ("det1", 0, None)), "det1", 14.834316270695105),
        ("src", (("src", None, 0), ("bs0", 1, 0), ("bs1", 0, 0), ("bs2", 1, 1), ("m0", 0, 0), ("bs3", 1, 0), ("det2", 0, None)), "det2", 20.53523709063776),
        ("src", (("src", None, 0), ("bs0", 1, 1), ("bs1", 1, 0), ("bs2", 1, 1), ("m0", 0, 0), ("bs3", 1, 0), ("det2", 0, None)), "det2", 18.939050953673373),
        ("src", (("src", None, 0), ("bs0", 1, 0), ("bs1", 0, 0), ("bs2", 1, 0), ("ps0", 0, 0), ("det0", 0, None)), "det0", 9.800326727169281),
        ("src", (("src", None, 0), ("bs0", 1, 1), ("bs1", 1, 0), ("bs2", 1, 0), ("ps0", 0, 0), ("det0", 0, None)), "det0", 8.204140590204895),
        ("src", (("src", None, 0), ("bs0", 1, 0), ("bs1", 0, 1), ("det3", 0, None)), "det3", 8.656475736178576),
        ("src", (("src", None, 0), ("bs0", 1, 1), ("bs1", 1, 1), ("det3", 0, None)), "det3", 7.06028959921419),
    ],
}


@pytest.mark.parametrize(
    ("name", "build"),
    [
        ("mz", lambda: mach_zehnder_circuit(0.7)),
        ("ifm_a", lambda: ifm_circuit("a")),
        ("ifm_b", lambda: ifm_circuit("b")),
        ("corpus_17", lambda: random_circuit(17)),
    ],
)
def test_enumerate_paths_matches_frozen_routes(name, build):
    circuit = build()
    paths = [Path(*fields) for fields in FROZEN_PATHS[name]]
    assert enumerate_paths(circuit) == paths
    table = compile_paths(circuit)
    assert list(table.terminals) == [path.terminal for path in paths]
    assert list(table.geometric_phases) == [path.geometric_phase for path in paths]


def _reference_circuits() -> list[Circuit]:
    circuits = [random_circuit(seed) for seed in range(200)]
    return circuits + [mach_zehnder_circuit(0.4, 0.1), bghz_left_circuit(1.0),
                       bghz_right_circuit(2.0), ifm_circuit("a"), _double_mz()]


def test_path_table_columns_agree_with_the_steps():
    """Terminal, geometric phase and crossings of every row equal those of
    the reference walk's route in the same place."""
    for circuit in _reference_circuits():
        table = compile_paths(circuit)
        paths = enumerate_paths(circuit)
        assert len(table) == len(paths)
        for row, path in enumerate(paths):
            kinds = [circuit.elements[eid].kind for eid in path.element_ids]
            assert table.terminals[row] == path.terminal
            assert table.geometric_phases[row] == path.geometric_phase
            assert table.crossings[row] == kinds.count(ElementType.BEAMSPLITTER)


def test_count_paths_on_ladders_is_two_to_the_k(ladder_text):
    for k in range(1, 41):
        assert count_paths(parse_circuit(ladder_text(k))) == 2**k


def test_count_paths_matches_enumeration():
    for seed in range(50):
        circuit = random_circuit(seed)
        assert count_paths(circuit) == len(enumerate_paths(circuit)) == len(compile_paths(circuit))


def test_compile_refuses_circuits_past_the_path_limit(ladder_text):
    k = MAX_PATHS.bit_length()  # 2**k is twice the limit
    with pytest.raises(CircuitValidationError, match=f"{2**k} paths"):
        compile_paths(parse_circuit(ladder_text(k)))


# -- structure shared across shift values ------------------------------------------


def test_a_builder_writes_its_shift_into_the_structure():
    """A bench built at a shift is the bench built at another with that one
    phase shifter replaced: same links, same order, only the shift moved."""
    base = mach_zehnder_circuit(0.3, 0.2)
    derived = reshifted(base, {"shift_a": 7.0})
    assert derived.elements["shift_a"].shift == canonical_angle(7.0)
    assert base.elements["shift_a"].shift == 0.3
    assert derived.topo_order == base.topo_order
    assert circuits_equal(derived, mach_zehnder_circuit(7.0, 0.2))
    assert not circuits_equal(derived, base)
    assert circuits_equal(parse_circuit(render_circuit(derived)), derived)


@pytest.mark.parametrize("eid", ["src", "bs1", "m_a", "det_u", "nowhere"])
def test_with_shifts_refuses_an_element_that_is_not_a_shifter(eid):
    """A circuit run with shifts given as a setting takes them only for its
    phase shifters: any other element, or an id it lacks, is refused."""
    with pytest.raises(CircuitValidationError, match="is not a phase shifter"):
        mach_zehnder_circuit(0.3).shift_values({eid: 1.0})


def test_compile_paths_walks_once_per_structure(monkeypatch):
    walks = []
    walk = circuit_module._walk_paths

    def counted_walk(circuit, source):
        walks.append(source)
        return walk(circuit, source)

    monkeypatch.setattr(circuit_module, "_walk_paths", counted_walk)
    circuit = bghz_right_circuit(0.4, arm_phase=0.9)
    circuit = Circuit(dict(circuit.elements), circuit.links)
    table = compile_paths(circuit)
    assert compile_paths(circuit) is table
    list(terminal_amplitudes(circuit, [({"shift_b": s}, 0.0) for s in (0.1, 2.0, 5.0)]))
    assert walks == ["srcR"]
    mz = mach_zehnder_circuit(0.0)
    mz = Circuit(dict(mz.elements), mz.links)
    for shifts in ([{"shift_a": 0.1}], [{"shift_a": 2.5}, {"shift_a": 4.0}]):
        list(terminal_amplitudes(mz, [(s, 0.0) for s in shifts]))
    assert walks == ["srcR", "src"]


def test_every_advance_names_a_shifter_on_its_route_or_a_reflection():
    shifters_seen = 0
    for circuit in _reference_circuits():
        table = compile_paths(circuit)
        ids = table.element_ids + (None,)  # the last code is a reflection
        for path, index in zip(enumerate_paths(circuit), table.advances, strict=True):
            kinds = {eid: circuit.elements[eid].kind for eid in path.element_ids}
            expected = [
                None if kinds[eid] is ElementType.BEAMSPLITTER else eid
                for eid, in_port, out_port in path.steps
                if kinds[eid] is ElementType.PHASESHIFTER
                or (kinds[eid] is ElementType.BEAMSPLITTER and in_port != out_port)
            ]
            assert [ids[ord(code)] for code in table.advance_strings[index]] == expected
            shifters_seen += len(expected) - expected.count(None)
    assert shifters_seen > 0


# A three-arm source: arm 1 carries a -0.0 link phase, arms 0 and 2 enter one
# splitter, and arm 1 ends at a blocker.
ARMS_TEXT = """\
element s source
element m mirror
element b beamsplitter
element u detector:u
element d detector:d
element k blocker
link s:0 b:0 phase=1.2
link s:1 m:0 phase=-0.0
link s:2 b:1 phase=-2pi
link m:0 k:0
link b:0 d:0
link b:1 u:0
"""


def test_an_arm_view_keeps_every_element_and_moves_its_link_to_port_0():
    circuit = parse_circuit(ARMS_TEXT)
    rest = [link for link in circuit.links if link.src != "s"]
    for k in range(circuit.source_fanout("s")):
        link = circuit.out_link("s", k)
        arm = circuit.arm(k)
        assert arm.elements == circuit.elements
        (moved,) = [out for out in arm.links if out.src == "s"]
        assert (moved.src_port, moved.dst, moved.dst_port) == (0, link.dst, link.dst_port)
        assert moved.phase.hex() == link.phase.hex()
        assert [out for out in arm.links if out.src != "s"] == rest
        assert circuit.arm(k) is arm


def test_an_arm_the_source_lacks_is_refused():
    circuit = parse_circuit(ARMS_TEXT)
    with pytest.raises(CircuitValidationError, match="emits into nothing"):
        circuit.arm(circuit.source_fanout("s"))


# -- generated corpus properties ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_circuits_are_valid_dags(seed):
    circuit = random_circuit(seed)
    paths = enumerate_paths(circuit)
    assert paths, "every circuit must route the source somewhere"
    assert len(compile_paths(circuit)) == len(paths)
    splitters = sum(
        1 for el in circuit.elements.values() if el.kind is ElementType.BEAMSPLITTER
    )
    assert len(paths) <= 2 ** max(splitters, 1)
    for path in paths:
        # a DAG route never revisits an element
        assert len(set(path.element_ids)) == len(path.element_ids)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_circuits_round_trip_through_text(seed):
    circuit = random_circuit(seed)
    assert circuits_equal(parse_circuit(render_circuit(circuit)), circuit)
