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


@pytest.fixture
def ladder_text():
    """Text of a k-splitter ladder circuit, as a function of k."""
    return _ladder_text
