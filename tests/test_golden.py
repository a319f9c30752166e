"""Golden CLI outputs: seeded runs and sweeps must reproduce their frozen
stdout and CSV data files byte for byte.

The files under ``tests/golden`` were written by this module's cases;
``python tests/test_golden.py`` writes them again from the installed package
and prints the sha256 of each ``DIGESTS`` sweep and ``CIRCUIT_DIGESTS`` run,
whose data files are too large to commit, and of the check corpus.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from shadowsim import cli
from shadowsim.corpus import random_circuit
from conftest import _ladder_text, _walk_text
from reference import render_circuit

GOLDEN = Path(__file__).with_name("golden")

BOTH = ["--engine", "both", "--format", "csv"]
CASES = {
    "run-mz": ["run", "mz", "--alpha", "0.7", "--theta", "0.3", "--shots", "1000",
               "--seed", "4"] + BOTH,
    "run-wheeler": ["run", "wheeler", "--alpha", "0.8", "--seed", "4"] + BOTH,
    "run-wheeler-peek": ["run", "wheeler", "--alpha", "0.8", "--peek", "--seed", "4"] + BOTH,
    "run-ifm-a": ["run", "ifm", "--blocked-arm", "a", "--seed", "4"] + BOTH,
    "run-ifm-b": ["run", "ifm", "--blocked-arm", "b", "--seed", "4"] + BOTH,
    "run-ifm-none": ["run", "ifm", "--blocked-arm", "none", "--seed", "4"] + BOTH,
    "run-bghz": ["run", "bghz", "--alpha", "0.3", "--beta", "1.1", "--seed", "4"] + BOTH,
    "run-chsh": ["run", "chsh", "--angles", "0,pi/2,pi/4,3pi/4", "--seed", "4"] + BOTH,
    "run-chsh-shots": ["run", "chsh", "--angles", "0,pi/2,pi/4,3pi/4", "--shots", "2000",
                       "--seed", "4"] + BOTH,
    "run-pathintegral": ["run", "pathintegral", "--grid-n", "64", "--xmin", "-10",
                         "--xmax", "10", "--eps", "1.5", "--steps", "2", "--seed", "4"],
    "sweep-mz": ["sweep", "mz", "--grid", "0:2pi:5", "--seed", "7"] + BOTH,
    "sweep-mz-shots": ["sweep", "mz", "--grid", "0:2pi:5", "--shots", "300", "--seed", "7"] + BOTH,
    "sweep-wheeler": ["sweep", "wheeler", "--grid", "0:pi:4", "--seed", "7"] + BOTH,
    "sweep-wheeler-peek": ["sweep", "wheeler", "--grid", "0:pi:4", "--peek", "--seed", "7"] + BOTH,
    "sweep-chsh": ["sweep", "chsh", "--grid", "0:pi:5", "--seed", "7"] + BOTH,
    "sweep-chsh-shots": ["sweep", "chsh", "--grid", "0:pi:3", "--shots", "500", "--seed", "7"] + BOTH,
    "sweep-bghz": ["sweep", "bghz", "--grid", "0:pi:4", "--seed", "7"] + BOTH,
    "run-config": ["run"],
    "sweep-config": ["sweep"],
    "sweep-stdout": ["sweep", "bghz", "--grid", "0:pi:3", "--shots", "100", "--seed", "3"],
    # Shots past one sampling chunk (experiments.SHOT_CHUNK = 2**16).
    "run-chsh-many-shots": ["run", "chsh", "--angles", "0,pi/2,pi/4,3pi/4", "--shots",
                            "200000", "--seed", "4"] + BOTH,
    "sweep-mz-many-shots": ["sweep", "mz", "--grid", "0:2pi:9", "--shots", "100000",
                            "--seed", "7"] + BOTH,
    "check": ["check", "--seed", "5"],
    # The propagator at several snapshot times, in a potential, and from a file.
    "propagate-harmonic-json": ["propagate", "--grid-n", "64", "--xmin", "-10", "--xmax", "10",
                                "--k0", "0.5", "--eps", "1.5", "--times", "1.5,3,6",
                                "--potential", "harmonic", "--omega", "0.15", "--format", "json"],
    "propagate-potential-file": ["propagate", "--grid-n", "64", "--xmin", "-10", "--xmax", "10",
                                 "--k0", "0.4", "--eps", "1.5", "--steps", "3",
                                 "--potential", "file", "--potential-file", "barrier.txt"],
}
# The same runs with JSON results, whose per-engine parameters are pinned too.
CASES.update({f"{name}-json": CASES[name][:-1] + ["json"] for name in (
    "run-mz", "run-wheeler", "run-wheeler-peek", "run-ifm-none", "run-bghz")})
# Cases that write no data file: their whole output is stdout.
STDOUT_ONLY = {"sweep-stdout", "check"}
CONFIGS = {
    "run-config": {"experiment": "bghz", "alpha": "pi/4", "beta": 0.5, "engine": "both",
                   "seed": 9, "format": "csv", "shots": 300},
    "sweep-config": {"experiment": "wheeler", "grid": "0:pi:3", "peek": True, "seed": 3,
                     "shots": 200},
}
# Input files a case reads, written to the directory it runs in, so that the
# relative path its meta block names is the same on every machine.
FILES = {
    "propagate-potential-file": {"barrier.txt": "# x V\n-10 0\n3 0\n4 0.6\n5 0.6\n6 0\n10 0\n"},
}
# Benchmark-sized seeded sweeps on both engines: the sha256 of the data file.
DIGESTS = {
    "sweep-mz-501": (
        ["sweep", "mz", "--grid", "0:2pi:501", "--engine", "both", "--seed", "7"],
        "ed13412b45e15eecb0dc7082c797ae61b2cd485a2e4b2fca5b814011b49ffced",
    ),
    "sweep-bghz-181": (
        ["sweep", "bghz", "--grid", "0:2pi:181", "--engine", "both", "--seed", "7"],
        "fefce74e5fda6fade7ea0f1ef67e05931a0d98a7c3d2643a10e14c146a93ba50",
    ),
    "sweep-wheeler-peek-65": (
        ["sweep", "wheeler", "--peek", "--grid", "0:2pi:65", "--engine", "both", "--seed", "7"],
        "56c5b96492f53b8322bd5e92e01b267b227dd54999feb9aeff57ec2dc703f276",
    ),
    # JSON carries repr floats: these freeze the joint amplitudes bit for bit.
    "sweep-bghz-181-json": (
        ["sweep", "bghz", "--grid", "0:2pi:181", "--engine", "both", "--seed", "7",
         "--format", "json"],
        "c73bc72903e28b8f6be237ccbbec9532390811dd6a625f2a1ccb0be890c214c9",
    ),
    "sweep-chsh-61-json": (
        ["sweep", "chsh", "--grid", "0:2pi:61", "--engine", "both", "--seed", "7",
         "--format", "json"],
        "4d080889671a8ab9dd65f0426e8553c9d2066861f5409e81e806561156958126",
    ),
}
# Circuits with tens of thousands of table rows, each run from a file on both
# engines: the sha256 of the JSON results, their parameters without the file's
# path, which the results and the meta block name.
CIRCUIT_DIGESTS = {
    "run-circuit-ladder-14": (
        _ladder_text(14),
        "a5eaf6f3a59abccc6580972035e744fbf04480c358f489b52eae0a68a8ce1880",
    ),
    "run-circuit-walk-12": (
        _walk_text(12),
        "4ff37e2eb352ab6ce95d59cd86de529cdf1596acbf1f7ba91ad2429bb8e0fd02",
    ),
}
CIRCUIT_ARGV = ["run", "circuit", "--engine", "both", "--format", "json", "--seed", "7"]
# The check corpus: the sha256 over the text of random_circuit(i), i < CORPUS_SEEDS.
CORPUS_SEEDS = 2000
CORPUS_DIGEST = "8953749873b1d15737763a771311c97b7692f39fe4844d0d7f8c7869ae9b5615"


def _corpus_digest():
    digest = hashlib.sha256()
    for i in range(CORPUS_SEEDS):
        digest.update(render_circuit(random_circuit(i)).encode())
    return digest.hexdigest()


def _run(name, argv, tmp):
    """stdout and data file bytes (None without --out) of one in-process call,
    run in ``tmp``."""
    for file_name, text in FILES.get(name, {}).items():
        (tmp / file_name).write_text(text)
    if name in CONFIGS:
        cfg = tmp / f"{name}.json"
        cfg.write_text(json.dumps(CONFIGS[name]))
        argv = argv + ["--config", str(cfg)]
    data = None if name in STDOUT_ONLY else tmp / f"{name}.csv"
    if data is not None:
        argv = argv + ["--out", str(data)]
    out = io.StringIO()
    with contextlib.chdir(tmp), contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue().encode(), None if data is None else data.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    stdout, data = _run(name, CASES[name], tmp_path)
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    if data is not None:
        assert data == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_sweep_digest_matches_golden(name, tmp_path):
    argv, digest = DIGESTS[name]
    _, data = _run(name, argv, tmp_path)
    assert hashlib.sha256(data).hexdigest() == digest


def _circuit_digest(name, text, tmp):
    circuit_file = tmp / f"{name}.txt"
    circuit_file.write_text(text)
    _, data = _run(name, CIRCUIT_ARGV + ["--circuit-file", str(circuit_file)], tmp)
    results = json.loads(data)["results"]
    for result in results:
        del result["parameters"]["circuit_file"]
    return hashlib.sha256(json.dumps(results).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CIRCUIT_DIGESTS))
def test_circuit_digest_matches_golden(name, tmp_path):
    text, digest = CIRCUIT_DIGESTS[name]
    assert _circuit_digest(name, text, tmp_path) == digest


def test_corpus_digest_matches_golden():
    assert _corpus_digest() == CORPUS_DIGEST


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            stdout, data = _run(name, argv, Path(tmp))
            (GOLDEN / f"{name}.out").write_bytes(stdout)
            if data is not None:
                (GOLDEN / f"{name}.csv").write_bytes(data)
        for name, (argv, _) in DIGESTS.items():
            print(name, hashlib.sha256(_run(name, argv, Path(tmp))[1]).hexdigest())
        for name, (text, _) in CIRCUIT_DIGESTS.items():
            print(name, _circuit_digest(name, text, Path(tmp)))
    print("corpus", _corpus_digest())
