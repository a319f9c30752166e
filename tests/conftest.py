"""Shared test inputs."""

import math

import pytest


def _ladder_text(k: int) -> str:
    """Source, k cascaded balanced splitters whose two outputs both feed the
    next one, two detectors: 2**k paths.  Link j carries a fixed phase."""
    lines = ["element src source"]
    lines += [f"element bs{j} beamsplitter" for j in range(k)]
    lines += ["element u detector:u", "element d detector:d"]
    links = [("src:0", "bs0:0")]
    for j in range(k - 1):
        links += [(f"bs{j}:0", f"bs{j + 1}:0"), (f"bs{j}:1", f"bs{j + 1}:1")]
    links += [(f"bs{k - 1}:0", "d:0"), (f"bs{k - 1}:1", "u:0")]
    for j, (src, dst) in enumerate(links):
        phase = math.fmod(0.37 + 1.13 * j, 2.0 * math.pi)
        lines.append(f"link {src} {dst} phase={phase!r}")
    return "\n".join(lines) + "\n"


def _shifted_ladder_text(k: int) -> str:
    """_ladder_text(k) with a phase shifter of pi/4 on the source link and one
    of 3pi/4 on the bs0:0 -> bs1:0 arm, each after its link's phase: a long
    table whose rows share a few advance strings that name shifters."""
    text = _ladder_text(k).replace("link src:0 bs0:0", "link src:0 ps0:0")
    text = text.replace("link bs0:0 bs1:0", "link bs0:0 ps1:0")
    text = text.replace("element u detector:u\n", "element u detector:u\n"
                        "element ps0 phaseshifter:pi/4\nelement ps1 phaseshifter:3pi/4\n")
    return text + "link ps0:0 bs0:0\nlink ps1:0 bs1:0\n"


def _walk_text(steps: int) -> str:
    """A ``steps``-step discrete-time quantum walk: a triangle of
    steps(steps+1)/2 splitters, 2**steps paths, each with its own element
    sequence.  Splitter (t, x) takes the right-mover from (t-1, x-1) output 0
    on port 0 and the left-mover from (t-1, x+1) output 1 on port 1; edge
    splitters leave one input unfed.  The source feeds (1, 0) on port 0, and
    each last-layer output goes to its own detector.  Link j carries a fixed
    phase."""
    def bs(t: int, x: int) -> str:
        return f"bs{t}_{x + t}"

    layers = [range(1 - t, t, 2) for t in range(1, steps + 1)]
    lines = ["element src source"]
    lines += [f"element {bs(t, x)} beamsplitter" for t, xs in enumerate(layers, 1) for x in xs]
    links = [("src:0", f"{bs(1, 0)}:0")]
    for t, xs in enumerate(layers[:-1], 1):
        for x in xs:
            links += [(f"{bs(t, x)}:0", f"{bs(t + 1, x + 1)}:0"),
                      (f"{bs(t, x)}:1", f"{bs(t + 1, x - 1)}:1")]
    for x in layers[-1]:
        for port in (0, 1):
            detector = f"out{x + steps}_{port}"
            lines.append(f"element {detector} detector:{detector}")
            links.append((f"{bs(steps, x)}:{port}", f"{detector}:0"))
    for j, (src, dst) in enumerate(links):
        phase = math.fmod(0.37 + 1.13 * j, 2.0 * math.pi)
        lines.append(f"link {src} {dst} phase={phase!r}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def ladder_text():
    """Text of a k-splitter ladder circuit, as a function of k."""
    return _ladder_text


@pytest.fixture
def walk_text():
    """Text of a T-step quantum walk circuit, as a function of T."""
    return _walk_text
