"""Command-line surface: exit codes, file formats, reproducibility."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shadowsim
from shadowsim import checks, cli, pathintegral
from shadowsim.experiments import ifm_circuit, mach_zehnder_circuit
from reference import render_circuit

MZ_TEXT = """\
# balanced interferometer, one shifter in the upper arm
element src source
element bs1 beamsplitter
element ps phaseshifter:pi/3
element ma mirror
element mb mirror
element bs2 beamsplitter
element u detector:u
element d detector:d
link src:0 bs1:0
link bs1:0 ma:0
link ma:0 ps:0
link ps:0 bs2:0
link bs1:1 mb:0
link mb:0 bs2:1
link bs2:0 d:0
link bs2:1 u:0
"""


TWO_ARM_TEXT = """\
# two-arm source whose arms meet at one splitter
element src source
element bs beamsplitter
element u detector:u
element d detector:d
link src:0 bs:0 phase=0.3
link src:1 bs:1 phase=2.1
link bs:0 d:0
link bs:1 u:0
"""


def _rows(path):
    with open(path, newline="") as fh:
        meta_line = fh.readline()
        assert meta_line.startswith("# ")
        meta = json.loads(meta_line[2:])
        reader = csv.DictReader(fh)
        return meta, list(reader)


# -- exit codes -----------------------------------------------------------------


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "shadowsim.cli", "--version"],
        capture_output=True, text=True, check=True,
    )
    assert shadowsim.__version__ in proc.stdout


def test_package_version_matches_the_project_metadata():
    """Every data file's meta records __version__, so a drift from the
    packaged version would change every golden file."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert shadowsim.__version__ == tomllib.load(fh)["project"]["version"]


def test_package_exports_resolve():
    for module in (shadowsim, pathintegral, shadowsim.circuit):
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)


def test_cli_and_check_import_no_scipy():
    script = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import shadowsim.cli\n"
        "print('import', loaded())\n"
        "code = shadowsim.cli.main(['check', '--corpus-cases', '1', '--shots', '1000'])\n"
        "print('check', code, loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(shadowsim.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "import []"
    assert lines[-1] == "check 0 []"


def test_only_generator_draws_load_numpy_random_or_hashlib(tmp_path, ladder_text):
    ladder = tmp_path / "ladder4.circuit"
    ladder.write_text(ladder_text(4))
    runs = [
        ["run", "mz", "--alpha", "1"],  # unseeded: fresh OS entropy
        ["sweep", "mz", "--grid", "0:2pi:5", "--engine", "both", "--seed", "7"],
        ["run", "circuit", "--circuit-file", str(ladder), "--seed", "3"],
        ["propagate", "--grid-n", "1024", "--steps", "2", "--eps", "0.5"],
        ["run", "mz", "--alpha", "1", "--shots", "1000", "--seed", "7"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return [m for m in ('numpy.random', 'secrets', 'hashlib', '_hashlib')"
        " if m in sys.modules]\n"
        "import shadowsim.cli\n"
        "report = [['import', 0, loaded()]]\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = shadowsim.cli.main(argv)\n"
        "    report.append([argv[0], code, loaded()])\n"
        "print(json.dumps(report))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(shadowsim.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    *quiet, shots = json.loads(proc.stdout.splitlines()[-1])
    assert quiet == [["import", 0, []], ["run", 0, []], ["sweep", 0, []], ["run", 0, []],
                     ["propagate", 0, []]]
    # the guard is not vacuous: sampling shots draws from a numpy Generator
    assert shots[:2] == ["run", 0] and "numpy.random" in shots[2]


def test_bad_angle_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "mz", "--alpha", "banana"])
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err


def test_missing_config_file_is_a_config_error(capsys):
    assert cli.main(["run", "mz", "--config", "/no/such/file.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_broken_circuit_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.circuit"
    bad.write_text("element src source\nwibble\n")
    assert cli.main(["run", "circuit", "--circuit-file", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "circuit error" in err
    assert "line 2" in err


TWO_SOURCES_TEXT = (
    "element s1 source\nelement s2 source\nelement a detector:a\n"
    "element b detector:b\nlink s1:0 a:0\nlink s2:0 b:0\n"
)


def test_several_sources_is_a_circuit_error_on_either_engine(tmp_path, capsys):
    path = tmp_path / "two-sources.circuit"
    path.write_text(TWO_SOURCES_TEXT)
    for engine in ("streams", "hilbert"):
        argv = ["run", "circuit", "--circuit-file", str(path), "--engine", engine]
        assert cli.main(argv) == 3
        assert "2 sources" in capsys.readouterr().err


def test_several_sources_message_says_what_to_change_in_the_file(tmp_path, capsys):
    """No flag names a source, so the message names the sources and asks for
    one to be kept."""
    path = tmp_path / "two-sources.circuit"
    path.write_text(TWO_SOURCES_TEXT)
    assert cli.main(["run", "circuit", "--circuit-file", str(path)]) == 3
    assert capsys.readouterr().err == (
        "circuit error: circuit has 2 sources (s1, s2); only a circuit with exactly"
        " one source can run, so remove all but one\n"
    )


def test_circuit_past_the_path_limit_exits_three_without_walking(tmp_path, ladder_text, capsys):
    path = tmp_path / "ladder40.circuit"
    path.write_text(ladder_text(40))
    start = time.perf_counter()
    code = cli.main(["run", "circuit", "--circuit-file", str(path), "--engine", "both"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert f"{2**40} paths" in err
    assert "Traceback" not in err
    assert elapsed < 1.0


def test_non_finite_angle_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "mz", "--alpha", "1e999"])
    assert exc.value.code == 2
    assert "not finite" in capsys.readouterr().err


def test_unstable_step_exits_four(capsys):
    code = cli.main(["propagate", "--eps", "0.05", "--steps", "1"])
    assert code == 4
    assert "instability" in capsys.readouterr().err


def test_fractional_snapshot_time_is_a_config_error(capsys):
    assert cli.main(["propagate", "--eps", "0.5", "--times", "0.7"]) == 2
    assert "whole number" in capsys.readouterr().err


@pytest.mark.parametrize("time", ["-0.5", "-1", "-0.2"])
def test_snapshot_time_before_the_start_is_a_config_error(time, capsys):
    """-0.5 is a whole number of steps of 0.5, but before the packet's start;
    -0.2, though off the grid, is named as before the start too."""
    assert cli.main(["propagate", "--eps", "0.5", f"--times={time}"]) == 2
    err = capsys.readouterr().err
    assert f"snapshot time {float(time)} is before the start at t = 0" in err
    assert "whole number" not in err and "Traceback" not in err


def test_zero_eps_is_a_config_error(capsys):
    assert cli.main(["propagate", "--eps", "0", "--steps", "2"]) == 2
    err = capsys.readouterr().err
    assert "eps must be positive" in err
    assert "Traceback" not in err


def test_negative_step_count_is_a_config_error(capsys):
    assert cli.main(["propagate", "--eps", "0.5", "--steps", "-2"]) == 2
    err = capsys.readouterr().err
    assert "steps must be a whole number >= 0, got -2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("steps", [2.5, -1, "3", True])
def test_config_step_count_must_be_a_whole_number(tmp_path, steps, capsys):
    cfg = tmp_path / "steps.json"
    cfg.write_text(json.dumps({"eps": 0.5, "steps": steps}))
    assert cli.main(["propagate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"steps must be a whole number >= 0, got {steps!r}" in err
    assert "Traceback" not in err


def test_whole_float_config_step_count_runs(tmp_path, capsys):
    cfg = tmp_path / "steps.json"
    cfg.write_text(json.dumps({"eps": 0.5, "steps": 2.0}))
    assert cli.main(["propagate", "--config", str(cfg)]) == 0
    assert "t = 1:" in capsys.readouterr().out


def test_snapshot_time_past_float_range_is_a_config_error(capsys):
    assert cli.main(["propagate", "--eps", "1e308", "--steps", "2"]) == 2
    err = capsys.readouterr().err
    assert "not a finite number of steps" in err
    assert "Traceback" not in err


def _exit_code(argv):
    """Exit code and stderr of one in-process CLI call.  Warnings are written
    into stderr as a plain run would print them (the test runner otherwise
    collects them out of sight)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, err.getvalue()


_NON_NUMBERS = ["nan", "inf", "-inf", "1e999", "abc", ""]


def _one_in(n, rare, common):
    """``rare`` with probability 1/n, else ``common``."""
    return st.integers(1, n).flatmap(lambda i: rare if i == 1 else common)


def _number_text(finite):
    """A flag value: usually a finite number's repr, else text that is not one."""
    return _one_in(5, st.sampled_from(_NON_NUMBERS), finite.map(repr))


# Tabulated potentials the propagate property test draws from: a finite
# well, one whose V * eps overflows, and one whose x column runs backwards.
_POTENTIAL_TABLES = {
    "finite": [[-30.0 + 6.0 * i, 0.01 * (-30.0 + 6.0 * i) ** 2] for i in range(11)],
    "steep": [[-30.0 + 6.0 * i, 1e308 if i == 5 else 0.0] for i in range(11)],
    "descending": [[30.0 - 6.0 * i, 0.0] for i in range(11)],
}


def _extreme_or(common):
    """A flag value that is 1e300, 1e-300, the least subnormal or their
    negatives one time in three."""
    extremes = [1e300, 1e-300, 5e-324, -1e300, -1e-300]
    return _number_text(_one_in(3, st.sampled_from(extremes), common))


@st.composite
def _propagate_argv(draw):
    """propagate argument vectors, each flag as one --flag=value word so that
    values such as -inf reach the flag's parser.  Step counts stay below a
    few hundred so each run is short: |eps| >= 0.05 or eps <= 0, and each
    time is k * eps with k <= 20 or lies in [-10, 10].  The potential is
    free, harmonic with omega up to 1e308 (past where omega**2 and the
    kernel phase leave the float range) or one of ``_POTENTIAL_TABLES``,
    named by a ``--potential-file=<name>`` word the test replaces with a
    path.  Packet width, mass, hbar and the grid's right edge reach
    1e+-300 and the least subnormal."""
    eps = draw(_one_in(
        4,
        st.one_of(st.floats(50.0, 1e308), st.floats(-1e308, 0.0)),
        st.floats(0.05, 50.0),
    ))
    argv = ["propagate"]
    if draw(_one_in(10, st.just(False), st.just(True))):
        argv.append(f"--eps={draw(_number_text(st.just(eps)))}")
    potential = draw(st.sampled_from(["free", "harmonic", "file"]))
    if potential == "harmonic":
        omega = draw(_number_text(_one_in(2, st.floats(1e154, 1e308), st.floats(0.0, 1.0))))
        argv += ["--potential=harmonic", f"--omega={omega}"]
    elif potential == "file":
        table = draw(st.sampled_from(sorted(_POTENTIAL_TABLES)))
        argv += ["--potential=file", f"--potential-file={table}"]
    optional = {
        "--grid-n": _number_text(_one_in(4, st.floats(-4.0, 64.0), st.integers(-4, 64))),
        "--steps": _number_text(_one_in(
            4, st.one_of(st.floats(-5.0, 40.0), st.just(10**400)), st.integers(-5, 40)
        )),
        "--times": st.lists(
            _number_text(_one_in(
                3, st.floats(-10.0, 10.0), st.integers(-3, 20).map(lambda k: k * eps)
            )),
            min_size=1, max_size=3,
        ).map(",".join),
        "--sigma0": _extreme_or(st.floats(0.2, 5.0)),
        "--mass": _extreme_or(st.floats(0.1, 10.0)),
        "--hbar": _extreme_or(st.floats(0.1, 10.0)),
        "--xmax": _extreme_or(st.floats(-40.0, 100.0)),
    }
    for flag, values in optional.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


@pytest.fixture(scope="module")
def potential_words(tmp_path_factory):
    """Each ``--potential-file=<name>`` word mapped to one naming a written file."""
    root = tmp_path_factory.mktemp("potentials")
    return {
        f"--potential-file={name}": f"--potential-file={_table_file(root / name, rows)}"
        for name, rows in _POTENTIAL_TABLES.items()
    }


@settings(max_examples=150, deadline=None)
@given(_propagate_argv())
@example(["propagate", "--eps=10", "--steps=2", "--grid-n=64", "--potential=harmonic",
          "--omega=1e155"])
@example(["propagate", "--grid-n=64", "--eps=10", "--steps=2", "--xmax=1e300"])
@example(["propagate", "--sigma0=1e-300", "--eps=0.5", "--steps=2"])
@example(["propagate", "--mass=5e-324", "--eps=0.5", "--steps=2"])
@example(["propagate", "--eps=10", "--steps=2", "--grid-n=64", "--potential=file",
          "--potential-file=steep"])
def test_propagate_flags_exit_cleanly(potential_words, argv):
    argv = [potential_words.get(word, word) for word in argv]
    code, err = _exit_code(argv)
    assert code in (0, 2, 4), (argv, code, err)
    assert "Traceback" not in err
    assert "Warning" not in err, (argv, err)


def _assert_clean_exit(argv, code, err):
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert code != 1 or argv[0] == "check", (argv, err)


_ANGLE_TEXTS = st.one_of(
    st.sampled_from(["0", "pi", "-pi/2", "3pi/4", "2pi", "pi/0", "1e308", "-1e308",
                     "nan", "banana", ""]),
    st.floats(-10.0, 10.0).map(repr),
)
_INT_TEXTS = _one_in(5, st.sampled_from(["x", "1.5", "", "-0"]), st.integers(-3, 300).map(str))
_RUN_EXPERIMENTS = [e for e in cli.EXPERIMENTS if e != "pathintegral"]


@st.composite
def _run_sweep_check_argv(draw):
    """run, sweep and check argument vectors, one --flag=value word each.
    Sizes stay small: grids of at most 9 points, a few hundred shots, and
    check at --corpus-cases 1 --shots 1000 when its values are valid.  Each
    flag the chosen experiment reads is drawn one time in two, and one time
    in four one flag it does not read (refused with exit 2) is added.
    --format without --out is refused with exit 2 as well."""
    command = draw(st.sampled_from(["run", "sweep", "check"]))
    if command == "check":
        argv = [
            "check",
            f"--corpus-cases={draw(st.sampled_from(['1', '0', '-1', 'x']))}",
            f"--shots={draw(st.sampled_from(['1000', '999', '0', 'x']))}",
        ]
        if draw(st.booleans()):
            argv.append(f"--seed={draw(_INT_TEXTS)}")
        return argv
    if command == "run":
        experiment = draw(st.sampled_from(_RUN_EXPERIMENTS))
        argv, reads = ["run", experiment], cli.REGISTRY[experiment].keys
    else:
        grid = draw(st.one_of(
            st.tuples(_ANGLE_TEXTS, _ANGLE_TEXTS, st.integers(-1, 9).map(str)).map(":".join),
            st.sampled_from(["0:pi", "pi:0:3", "0:pi:x", ""]),
        ))
        experiment = draw(st.sampled_from(cli.SWEEPABLE))
        argv, reads = ["sweep", experiment, f"--grid={grid}"], cli.REGISTRY[experiment].sweep_keys
    optional = {
        "--alpha": _ANGLE_TEXTS,
        "--beta": _ANGLE_TEXTS,
        "--theta": _ANGLE_TEXTS,
        "--blocked-arm": st.sampled_from(["a", "b", "none", "c"]),
        "--angles": st.lists(_ANGLE_TEXTS, min_size=1, max_size=5).map(",".join),
        "--shots": _INT_TEXTS,
        "--engine": st.sampled_from(["streams", "hilbert", "both", "quantum"]),
        "--seed": _INT_TEXTS,
        "--format": st.sampled_from(["json", "csv", "xml"]),
        "--circuit-file": st.just("/nonexistent/mz.circuit"),
        "--out": st.just("/nonexistent/out.csv"),
        "--corpus-cases": st.sampled_from(["1", "x"]),
        "--eps": st.sampled_from(["0.5", "nan"]),
        "--grid-n": st.sampled_from(["64", "-1"]),
    }
    for flag, values in optional.items():
        if flag[2:] in reads and draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    if "peek" in reads and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--peek", "--no-peek"])))
    if draw(_one_in(4, st.just(True), st.just(False))):
        flag = draw(st.sampled_from([f for f in [*optional, "--peek"] if f[2:] not in reads]))
        argv.append(flag if flag == "--peek" else f"{flag}={draw(optional[flag])}")
    return argv


@settings(max_examples=200, deadline=None)
@given(_run_sweep_check_argv())
def test_run_sweep_check_flags_exit_cleanly(argv):
    code, err = _exit_code(argv)
    _assert_clean_exit(argv, code, err)
    flags = {word.split("=", 1)[0] for word in argv}
    if "--format" in flags and "--out" not in flags:
        assert code == 2, (argv, err)


_RUN_KEYS = ("experiment", "engine", "seed", "out", "format", "shots", "angles",
             "circuit-file", "alpha", "beta", "theta", "peek", "blocked-arm")
_SWEEP_KEYS = ("experiment", "grid", "engine", "seed", "out", "format", "shots", "peek")
_CHECK_KEYS = ("seed", "corpus-cases", "shots")
_CHECK_FLAGS = {"corpus-cases": ["--corpus-cases", "1"], "shots": ["--shots", "1000"]}
_JSON_VALUES = st.one_of(
    st.sampled_from(["", "x", "no", "pi", "none", "a", "json", "streams", "0:pi:3"]),
    st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(["x", "pi"])), max_size=4),
    st.booleans(),
    st.none(),
    st.integers(-3, 3),
    st.floats(-3.0, 3.0),
)


@st.composite
def _config_case(draw):
    """(argv, config) with one key of a run, sweep or check config file set
    to a JSON value of any type; the key is left off the command line so
    that the file's value is the one read."""
    command = draw(st.sampled_from(["run", "sweep", "check"]))
    if command == "check":
        key = draw(st.sampled_from(_CHECK_KEYS))
        argv = ["check"]
        for other, flag in _CHECK_FLAGS.items():
            if other != key:
                argv += flag
    else:
        keys, experiments = {
            "run": (_RUN_KEYS, _RUN_EXPERIMENTS), "sweep": (_SWEEP_KEYS, cli.SWEEPABLE)
        }[command]
        key = draw(st.sampled_from(keys))
        argv = [command]
        if key != "experiment":
            argv.append(draw(st.sampled_from(experiments)))
        if command == "sweep" and key != "grid":
            argv.append("--grid=0:pi:3")
    return argv, {key: draw(_JSON_VALUES)}


@settings(max_examples=200, deadline=None)
@given(_config_case())
def test_config_values_of_any_type_exit_cleanly(case):
    argv, config = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        os.chdir(tmp)  # a string "out" value writes here
        try:
            code, err = _exit_code(argv + ["--config", str(cfg)])
        finally:
            os.chdir(cwd)
    _assert_clean_exit(argv, code, err)


@pytest.mark.parametrize("argv", [
    ["run", "mz", "--format", "json"],
    ["run", "pathintegral", "--eps", "0.5", "--steps", "1", "--format", "csv"],
    ["sweep", "bghz", "--grid", "0:2pi:5", "--format", "json", "--seed", "7"],
    ["propagate", "--eps", "0.5", "--steps", "1", "--format", "json"],
], ids=["run", "run-pathintegral", "sweep", "propagate"])
def test_format_without_out_is_refused(argv, capsys):
    """--format says how the --out file is written; with no file it would be
    ignored and the results printed, so it is refused as an unread flag is."""
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--format needs --out" in err


def test_format_with_out_from_the_config_file_is_read(tmp_path):
    out = tmp_path / "mz.json"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"out": str(out)}))
    assert cli.main(["run", "mz", "--format", "json", "--config", str(cfg)]) == 0
    assert "results" in json.loads(out.read_text())


def test_propagate_requires_a_time_axis(capsys):
    assert cli.main(["propagate", "--eps", "0.5"]) == 2
    assert "--steps or --times" in capsys.readouterr().err


@pytest.mark.parametrize("in_config", [[], ["steps"], ["times"], ["steps", "times"]],
                         ids=["flags", "steps-in-config", "times-in-config", "both-in-config"])
def test_propagate_refuses_steps_and_times_together(tmp_path, in_config, capsys):
    """Given both, as flags or in the config file, --times would silently
    override --steps; the run is refused with a message naming both."""
    given = {"steps": 3, "times": [1.0]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({key: given[key] for key in in_config}))
    flags = {"steps": ["--steps", "3"], "times": ["--times", "1"]}
    argv = ["propagate", "--eps", "0.5", "--config", str(cfg)]
    argv += [flag for key in given if key not in in_config for flag in flags[key]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--steps" in err and "--times" in err


def test_one_row_wavefunction_file_is_a_config_error(tmp_path, capsys):
    psi = tmp_path / "one-row.psi"
    psi.write_text("0.0 1.0 0.0\n")
    assert cli.main(["propagate", "--eps", "0.5", "--steps", "1", "--psi-file", str(psi)]) == 2
    err = capsys.readouterr().err
    assert "two rows" in err
    assert "Traceback" not in err


def test_non_uniform_wavefunction_grid_is_a_config_error(tmp_path, capsys):
    x = [-10.0 + 20.0 * i / 63 for i in range(64)]
    x[5] += 0.01
    psi = tmp_path / "bent.psi"
    psi.write_text("".join(f"{v!r} {math.exp(-v * v)!r} 0.0\n" for v in x))
    assert cli.main(["propagate", "--eps", "0.5", "--steps", "1", "--psi-file", str(psi)]) == 2
    err = capsys.readouterr().err
    assert "uniform" in err
    assert "Traceback" not in err


def _refused(argv, out, code):
    """stderr of a run that exits ``code`` with no traceback and without
    writing its ``--out`` file."""
    got, err = _exit_code(argv + ["--out", str(out)])
    assert got == code, err
    assert "Traceback" not in err
    assert "Warning" not in err
    assert not out.exists()
    return err


def _table_file(path, rows):
    path.write_text("".join(" ".join(repr(v) for v in row) + "\n" for row in rows))
    return str(path)


def test_harmonic_omega_past_the_float_range_is_a_config_error(tmp_path):
    argv = ["propagate", "--potential", "harmonic", "--omega", "1e155", "--grid-n", "64",
            "--eps", "10", "--steps", "2"]
    assert "one-step kernel at eps = 10.0 is past the float range" in _refused(
        argv, tmp_path / "out.csv", 2
    )


def test_grid_whose_squared_span_overflows_is_a_config_error(tmp_path):
    argv = ["propagate", "--grid-n", "64", "--eps", "10", "--steps", "2", "--xmax=1e300"]
    assert "squared is past the float range" in _refused(argv, tmp_path / "out.csv", 2)


def test_packet_that_underflows_to_zero_is_a_config_error(tmp_path):
    argv = ["propagate", "--eps", "0.5", "--steps", "2", "--sigma0=1e-300"]
    assert "underflow to zero" in _refused(argv, tmp_path / "out.csv", 2)


@pytest.mark.parametrize("mass", ["1e-322", "1e-310", "5e-324"])
def test_kernel_whose_prefactor_underflows_is_a_config_error(tmp_path, mass):
    """A step would square amplitudes of about the prefactor, sqrt(m / (2 pi
    hbar eps)) dx, below the float range: refused before any step, not
    reported as aliasing."""
    argv = ["propagate", "--eps", "0.5", "--steps", "2", f"--mass={mass}"]
    err = _refused(argv, tmp_path / "out.csv", 2)
    assert "one-step kernel at eps = 0.5 underflows" in err
    assert "aliasing" not in err


@pytest.mark.parametrize("when", [["--times", "0"], ["--steps", "0"]])
def test_a_run_of_no_step_builds_no_kernel(when, capsys):
    """The kernel at omega = 1e155 is past the float range, but a run of no
    step never applies it."""
    argv = ["propagate", "--eps", "0.5", "--potential", "harmonic", "--omega", "1e155", *when]
    assert cli.main(argv) == 0
    assert "t = 0: <x> = 0.000000, sigma = 1.500000, <v> = 0.000000" in capsys.readouterr().out


@pytest.mark.parametrize("when", [["--times", "0"], ["--steps", "0"]])
def test_mean_velocity_past_the_float_range_is_a_config_error(when, tmp_path):
    """hbar/m = 1/1e-322 overflows, so <v> would print as nan."""
    argv = ["propagate", "--eps", "0.5", "--mass=1e-322", *when]
    err = _refused(argv, tmp_path / "out.csv", 2)
    assert "the mean velocity is nan: its factor hbar/mass = inf is too large" in err
    assert "kernel" not in err


def test_a_kernel_that_spreads_the_packet_off_the_grid_is_not_called_aliasing(tmp_path):
    """At m = 1e-5 one step of eps = 0.5 spreads the packet far past the
    60-unit grid, although eps meets the aliasing bound: still exit 4."""
    err = _refused(["propagate", "--eps", "0.5", "--steps", "2", "--mass=1e-5"],
                   tmp_path / "out.csv", 4)
    assert "eps = 0.5 meets the aliasing bound eps >= 5.6e-06, but the kernel spreads the " \
        "packet past the grid in one step; use a larger mass, a smaller eps or a wider grid" in err
    assert "ghost" not in err


def test_an_aliased_kernel_is_called_aliasing(tmp_path):
    err = _refused(["propagate", "--eps", "0.05", "--steps", "1"], tmp_path / "out.csv", 4)
    assert "kernel aliasing puts ghost copies every 5.36 units on a grid spanning 60 " \
        "(stable when the shift exceeds the span, i.e. eps >= 0.56)" in err
    assert "spreads" not in err


@pytest.mark.parametrize(("column", "value"), [(1, math.nan), (0, math.inf)])
def test_non_finite_wavefunction_file_is_a_config_error(tmp_path, column, value):
    rows = [[x, math.exp(-x * x), 0.0] for x in (-10.0 + 20.0 * i / 63 for i in range(64))]
    rows[63 if column == 0 else 5][column] = value
    psi = _table_file(tmp_path / "bad.psi", rows)
    argv = ["propagate", "--eps", "0.5", "--steps", "2", "--psi-file", psi]
    err = _refused(argv, tmp_path / "out.csv", 2)
    assert "wavefunction file holds a non-finite number" in err


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_wavefunction_file_past_the_float_range_of_its_squares_runs(tmp_path, scale):
    """Squares of 1e200 overflow and squares of 1e-170 underflow; the file
    still normalises, to the packet of the same file at scale 1."""
    argv = ["propagate", "--eps", "1.5", "--steps", "2", "--psi-file"]
    printed = []
    for factor in (scale, 1.0):
        rows = [[x, factor * math.exp(-x * x / 4), factor * 0.5 * math.exp(-x * x / 4)]
                for x in (-10.0 + 20.0 * i / 63 for i in range(64))]
        psi = _table_file(tmp_path / f"{factor!r}.psi", rows)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv + [psi])
        assert code == 0, err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        printed.append([line for line in out.getvalue().splitlines() if line.startswith("t =")])
    assert printed[0] == printed[1] != []


@pytest.mark.parametrize("order", ["repeated", "descending"])
def test_wavefunction_grid_that_does_not_increase_is_a_config_error(tmp_path, order):
    x = [-10.0 + 20.0 * i / 63 for i in range(64)]
    if order == "repeated":
        x[1] = x[0]
    else:
        x.reverse()
    psi = _table_file(tmp_path / f"{order}.psi", [[v, math.exp(-v * v / 4), 0.0] for v in x])
    argv = ["propagate", "--eps", "1.5", "--steps", "2", "--psi-file", psi]
    assert "grid must be uniform and increasing" in _refused(argv, tmp_path / "out.csv", 2)


def test_all_zero_wavefunction_file_is_a_config_error(tmp_path):
    psi = _table_file(tmp_path / "zero.psi", [[-10.0 + 20.0 * i / 63, 0.0, 0.0] for i in range(64)])
    argv = ["propagate", "--eps", "1.5", "--steps", "2", "--psi-file", psi]
    assert "identically zero" in _refused(argv, tmp_path / "out.csv", 2)


POTENTIAL_ARGV = ["propagate", "--potential", "file", "--grid-n", "64", "--eps", "10",
                  "--steps", "2", "--potential-file"]


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_potential_file_is_a_config_error(tmp_path, value):
    rows = [[-30.0 + 6.0 * i, 0.0] for i in range(11)]
    rows[5][1] = value
    table = _table_file(tmp_path / "bad.pot", rows)
    err = _refused(POTENTIAL_ARGV + [table], tmp_path / "out.csv", 2)
    assert "potential file holds a non-finite number" in err


def test_potential_whose_action_overflows_is_a_config_error(tmp_path):
    rows = [[-30.0 + 6.0 * i, 0.0] for i in range(11)]
    rows[5][1] = 1e308  # finite, but V * eps is not
    table = _table_file(tmp_path / "steep.pot", rows)
    err = _refused(POTENTIAL_ARGV + [table], tmp_path / "out.csv", 2)
    assert "one-step kernel at eps = 10.0 is past the float range" in err


@pytest.mark.parametrize(
    "rows", [[[30.0, 0.0], [0.0, 5.0], [-30.0, 0.0]], [[-30.0, 0.0], [0.0, 5.0], [0.0, 1.0]]]
)
def test_potential_file_whose_x_column_does_not_increase_is_a_config_error(tmp_path, rows):
    table = _table_file(tmp_path / "backwards.pot", rows)
    err = _refused(POTENTIAL_ARGV + [table], tmp_path / "out.csv", 2)
    assert "potential file x column must be strictly increasing" in err


@pytest.mark.parametrize("text", ["", "# x V\n# nothing else\n"])
@pytest.mark.parametrize(("flag", "what"), [("--potential-file", "potential"),
                                            ("--psi-file", "wavefunction")])
def test_table_file_without_rows_is_a_config_error(tmp_path, text, flag, what):
    table = tmp_path / "empty.txt"
    table.write_text(text)
    argv = ["propagate", "--eps", "0.5", "--steps", "2", f"{flag}={table}"]
    if what == "potential":
        argv.append("--potential=file")
    assert f"{what} file holds no rows" in _refused(argv, tmp_path / "out.csv", 2)


def test_non_finite_eps_is_rejected_where_flags_are_parsed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["propagate", "--eps", "nan", "--steps", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--eps: must be finite" in err
    assert "Traceback" not in err


def test_packet_against_the_wall_is_a_config_error(capsys):
    code = cli.main(["propagate", "--eps", "0.5", "--steps", "1", "--x0", "29"])
    assert code == 2
    assert "walls" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"eps": NaN, "steps": 2}',
        '{"eps": Infinity, "steps": 2}',
        '{"eps": 0.5, "steps": 2, "x0": -Infinity}',
        '{"eps": 1e999, "steps": 2}',
    ],
)
def test_non_finite_config_value_is_a_config_error(tmp_path, text, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert cli.main(["propagate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config file holds a non-finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    ("argv", "key"),
    [(["propagate", "--steps", "2"], "eps"), (["run", "mz"], "alpha"), (["run", "bghz"], "beta")],
)
def test_config_integer_past_the_float_range_is_a_config_error(tmp_path, argv, key, capsys):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({key: 10**400}))
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ")
    assert "Traceback" not in err


def test_fft_grid_past_its_budget_exits_two_quickly(capsys):
    start = time.perf_counter()
    code = cli.main(["propagate", "--eps", "0.5", "--steps", "1", "--grid-n", "100000000000"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert "N = 100000000000" in err and f"{pathintegral.FFT_MAX_BYTES}-byte budget" in err
    assert "Traceback" not in err
    assert elapsed < 2.0


def test_step_count_past_its_budget_exits_two_quickly(capsys):
    start = time.perf_counter()
    code = cli.main([
        "propagate", "--potential", "harmonic", "--omega", "0.15", "--xmin", "-16",
        "--xmax", "16", "--eps", "0.25", "--times", "1e300",
    ])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert f"{pathintegral.MAX_STEPS}-step budget" in err
    assert "Traceback" not in err
    assert elapsed < 2.0


def test_snapshots_past_the_memory_budget_exit_two(monkeypatch, tmp_path):
    # Room for the grid and two snapshot states of 256 points, but not three.
    budget = (pathintegral._FFT_BYTES_PER_POINT + 2 * 24) * 256
    monkeypatch.setattr(pathintegral, "FFT_MAX_BYTES", budget)
    argv = ["propagate", "--grid-n", "256", "--xmin", "-10", "--xmax", "10", "--eps", "0.5"]
    err = _refused(argv + ["--times", "0.5,1,1.5"], tmp_path / "out.csv", 2)
    assert err.startswith("error: 3 snapshots of N = 256 grid points")
    assert cli.main(argv + ["--times", "0.5,1,1,0.5"]) == 0


@pytest.mark.parametrize(("flag", "value", "count"), [
    ("--times", "1e308", "1.00e+308"), ("--steps", "100000000000000000000000", "1.00e+23"),
])
def test_a_step_count_past_the_budget_is_reported_short(capsys, flag, value, count):
    assert cli.main(["propagate", "--eps", "1", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"{count} steps exceed the {pathintegral.MAX_STEPS}-step budget" in err
    assert len(err) < 120


def test_propagate_refuses_steps_past_the_budget():
    wf = pathintegral.gaussian_packet(pathintegral.uniform_grid(64, -30.0, 30.0), 0.0, 1.5)
    with pytest.raises(ValueError, match="step budget"):
        pathintegral.propagate_snapshots(wf, 0.5, [(pathintegral.MAX_STEPS + 1) * 0.5])


def test_tabulated_propagation_stays_within_the_fft_budget(tmp_path, capsys):
    """A tabulated run at N = 16384, far past where an N x N kernel would fit
    the budget, peaks within the per-point figure FFT_MAX_BYTES is set from."""
    n = 16384
    table = tmp_path / "well.pot"
    table.write_text("".join(f"{x} {0.01 * x * x + 0.05 * math.sin(x)}\n" for x in range(-30, 31)))
    argv = ["propagate", "--grid-n", str(n), "--steps", "20", "--eps", "0.5",
            "--potential", "file", "--potential-file", str(table)]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "t = 10:" in capsys.readouterr().out
    assert peak <= pathintegral._FFT_BYTES_PER_POINT * n


def test_propagation_csv_is_written_within_the_fft_budget(tmp_path, capsys):
    """The CSV rows are formatted and written one at a time, so writing them
    stays within the per-point figure FFT_MAX_BYTES is set from."""
    n = 16384
    out = tmp_path / "free.csv"
    argv = ["propagate", "--grid-n", str(n), "--steps", "20", "--eps", "0.5",
            "--out", str(out)]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "t = 10:" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == n + 2
    assert peak <= pathintegral._FFT_BYTES_PER_POINT * n


def test_propagation_json_is_written_within_the_fft_budget(tmp_path, capsys):
    """The JSON arrays are read and written one element at a time, so the
    JSON file stays within the same per-point figure as the CSV."""
    n = 16384
    out = tmp_path / "free.json"
    argv = ["propagate", "--grid-n", str(n), "--steps", "20", "--eps", "0.5",
            "--format", "json", "--out", str(out)]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "t = 10:" in capsys.readouterr().out
    (result,) = json.loads(out.read_text())["results"]
    assert len(result["x"]) == len(result["re"]) == len(result["im"]) == n
    assert peak <= pathintegral._FFT_BYTES_PER_POINT * n


def test_propagation_json_equals_one_json_dumps(tmp_path, monkeypatch):
    """The streamed file holds the bytes of one json.dumps of its payload with
    every array written as a list of floats."""
    written = []
    write_json = cli._write_json

    def recording(path, meta, results):
        written.append((meta, results))
        write_json(path, meta, results)

    monkeypatch.setattr(cli, "_write_json", recording)
    out = tmp_path / "small.json"
    argv = ["propagate", "--grid-n", "64", "--xmin", "-10", "--xmax", "10", "--eps", "1.5",
            "--times", "0,1.5,3", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    ((meta, results),) = written
    lists = [{key: np.asarray(v).tolist() for key, v in r.items()} for r in results]
    text = json.dumps({"meta": meta, "results": lists}, indent=2, sort_keys=True) + "\n"
    assert len(lists) == 3 and len(lists[2]["re"]) == 64
    assert out.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize(
    "value",
    [[], {}, {"b": [], "a": {}, "c": [[]]}, [1, 2.5, -0.0, None, True, "\u03c0\"x"],
     (3, [4, (5,)]), np.array([]), np.array([0.1, -2.0, 1e300]),
     np.array([-0.0, 5e-324, 1e-300, -1e300, math.nan, -math.inf] * 400)],
)
def test_json_lines_equal_json_dumps(value):
    plain = value.tolist() if isinstance(value, np.ndarray) else value
    assert "\n".join(cli._json_lines(value)) == json.dumps(plain, indent=2, sort_keys=True)


def test_propagation_csv_at_a_partial_block_is_written_within_the_fft_budget(tmp_path, capsys):
    """A table whose last block is short streams within the same figure."""
    n = 2**14 + 7
    assert n % cli._WRITE_BLOCK
    out = tmp_path / "free.csv"
    tracemalloc.start()
    try:
        code = cli.main(["propagate", "--grid-n", str(n), "--steps", "20", "--eps", "0.5",
                         "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "t = 10:" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == n + 2
    assert peak <= pathintegral._FFT_BYTES_PER_POINT * n


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(t=_FLOATS, rows=st.lists(st.tuples(_FLOATS, _FLOATS, _FLOATS, _FLOATS), min_size=1,
                                max_size=3 * cli._WRITE_BLOCK))
@example(t=0.0, rows=[(-0.0, 5e-324, 1e300, -1e300), (1e-300, -1e-300, 0.0, -5e-324)])
def test_snapshot_lines_equal_csv_rows(t, rows):
    """Block formatting from Python floats gives _csv_row's text, row by row."""
    columns = [np.array(column) for column in zip(*rows)]
    lines = "\n".join(cli._snapshot_lines(t, columns)).split("\n")
    assert lines == [cli._csv_row([t, *row]) for row in rows]


@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 3)])
def test_propagation_csv_rows_equal_csv_row_of_each_snapshot(tmp_path, blocks, extra, capsys):
    """At N around one and two blocks, every row of the file is _csv_row of
    the snapshot arrays, in order."""
    n = blocks * cli._WRITE_BLOCK + extra
    out = tmp_path / "snap.csv"
    packet = ["--grid-n", str(n), "--xmin", "-10", "--xmax", "10", "--x0", "-1", "--k0", "0.4"]
    assert cli.main(["propagate", *packet, "--eps", "1.5", "--times", "0,1.5,3",
                     "--out", str(out)]) == 0
    x = pathintegral.uniform_grid(n, -10.0, 10.0)
    wf = pathintegral.gaussian_packet(x, -1.0, 1.5, 0.4)
    snapshots, _ = pathintegral.propagate_snapshots(wf, 1.5, [0.0, 1.5, 3.0])
    want = ["t,x,density,re,im"] + [
        cli._csv_row([t, *map(float, row)]) for t, snap in snapshots
        for row in zip(snap.x, snap.probability_density(), snap.values.real, snap.values.imag)
    ]
    assert out.read_text().splitlines()[1:] == want
    assert len(want) == 3 * n + 1


# -- run ------------------------------------------------------------------------


def test_run_mz_prints_both_engine_columns(capsys):
    assert cli.main(["run", "mz", "--alpha", "0.9", "--engine", "both"]) == 0
    out = capsys.readouterr().out
    assert "streams" in out and "hilbert" in out
    assert "0.810805" in out  # cos^2(0.45)


def test_run_chsh_reports_violation(capsys):
    code = cli.main(["run", "chsh", "--angles", "0,pi/2,pi/4,3pi/4"])
    assert code == 0
    assert "S = 2.828427, VIOLATION" in capsys.readouterr().out


def test_run_circuit_file(tmp_path, capsys):
    path = tmp_path / "mz.circuit"
    path.write_text(MZ_TEXT)
    assert cli.main(["run", "circuit", "--circuit-file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0.750000" in out  # cos^2(pi/6) at the u port
    assert "0.250000" in out


@pytest.mark.parametrize("engine", ["streams", "hilbert", "both"])
def test_link_phases_past_the_float_range_are_a_circuit_error(tmp_path, engine):
    path = tmp_path / "huge.circuit"
    path.write_text(
        "element src source\nelement m1 mirror\nelement m2 mirror\n"
        "element u detector:u\nlink src:0 m1:0 phase=1e308\n"
        "link m1:0 m2:0 phase=1e308\nlink m2:0 u:0\n"
    )
    argv = ["run", "circuit", "--circuit-file", str(path), "--engine", engine]
    assert "float range" in _refused(argv, tmp_path / "out.json", 3)


@pytest.mark.parametrize("in_config", [False, True])
def test_theta_past_the_float_range_is_a_config_error(tmp_path, in_config):
    """run mz reads no circuit file, so a theta whose two arm phases sum past
    the float range is a configuration error naming theta, not exit 3."""
    argv = ["run", "mz", "--theta", "1e308"]
    if in_config:
        cfg = tmp_path / "mz.json"
        cfg.write_text(json.dumps({"theta": 1e308}))
        argv = ["run", "mz", "--config", str(cfg)]
    err = _refused(argv, tmp_path / "out.json", 2)
    assert "theta = 1e+308" in err and "float range" in err


def test_run_circuit_parses_the_file_once_for_both_engines(tmp_path, monkeypatch, capsys):
    path = tmp_path / "mz.circuit"
    path.write_text(MZ_TEXT)
    parse, parsed = cli.parse_circuit, []
    monkeypatch.setattr(cli, "parse_circuit", lambda text: parsed.append(text) or parse(text))
    argv = ["run", "circuit", "--circuit-file", str(path), "--engine", "both"]
    assert cli.main(argv) == 0
    assert len(parsed) == 1
    assert "streams" in capsys.readouterr().out


def test_run_circuit_with_two_arm_source(tmp_path, capsys):
    path = tmp_path / "two-arm.circuit"
    path.write_text(TWO_ARM_TEXT)
    out = tmp_path / "two-arm.json"
    argv = ["run", "circuit", "--circuit-file", str(path), "--engine", "both",
            "--seed", "3", "--out", str(out)]
    assert cli.main(argv) == 0
    results = json.loads(out.read_text())["results"]
    probs = {
        r["engine"]: {row["outcome"]: row["probability"] for row in r["outcomes"]}
        for r in results
    }
    for engine in ("streams", "hilbert"):
        assert sum(probs[engine].values()) == pytest.approx(1.0, abs=1e-12)
    for key, p in probs["hilbert"].items():
        assert probs["streams"][key] == pytest.approx(p, abs=1e-12)


def test_run_circuit_records_each_engines_parameters(tmp_path):
    path = tmp_path / "mz.circuit"
    path.write_text(MZ_TEXT)
    out = tmp_path / "mz.json"
    argv = ["run", "circuit", "--circuit-file", str(path), "--engine", "both",
            "--seed", "3", "--out", str(out)]
    assert cli.main(argv) == 0
    blob = json.loads(out.read_text())
    common = {"experiment": "circuit", "circuit_file": str(path), "seed": 3}
    assert blob["meta"]["config"] == {**common, "engine": "both"}
    assert [r["parameters"] for r in blob["results"]] == [
        {**common, "engine": engine, "rng": "numpy-pcg64"} for engine in ("streams", "hilbert")
    ]


def _probabilities(argv, out):
    assert cli.main(argv + ["--engine", "both", "--format", "json", "--seed", "4",
                            "--out", str(out)]) == 0
    return [(r["engine"], row["outcome"], row["probability"].hex())
            for r in json.loads(out.read_text())["results"] for row in r["outcomes"]]


@pytest.mark.parametrize(("circuit", "argv"), [
    (lambda: mach_zehnder_circuit(0.7, 0.3), ["run", "mz", "--alpha", "0.7", "--theta", "0.3"]),
    (lambda: ifm_circuit("a"), ["run", "ifm", "--blocked-arm", "a"]),
    (lambda: ifm_circuit("b"), ["run", "ifm", "--blocked-arm", "b"]),
])
def test_a_canned_bench_is_a_circuit_file(tmp_path, capsys, circuit, argv):
    """A canned bench written out as circuit text and run as a file gives
    both engines' probabilities bit for bit as the bench itself does."""
    path = tmp_path / "bench.circuit"
    path.write_text(render_circuit(circuit()))
    from_file = _probabilities(["run", "circuit", "--circuit-file", str(path)],
                               tmp_path / "file.json")
    assert from_file == _probabilities(argv, tmp_path / "bench.json")


# Captured from the path-by-path engine before the path-table compile: the
# table evaluation must reproduce every probability bit for bit.
LADDER10_SEED17 = [
    ("streams", "u", 0.010599671577299326),
    ("streams", "d", 0.9894003284227028),
    ("hilbert", "u", 0.010599671577298846),
    ("hilbert", "d", 0.9894003284226992),
]


def test_ladder_circuit_output_is_frozen(tmp_path, ladder_text, capsys):
    path = tmp_path / "ladder10.circuit"
    path.write_text(ladder_text(10))
    out = tmp_path / "ladder10.json"
    argv = ["run", "circuit", "--circuit-file", str(path), "--engine", "both",
            "--seed", "17", "--out", str(out)]
    assert cli.main(argv) == 0
    results = json.loads(out.read_text())["results"]
    got = [(r["engine"], row["outcome"], row["probability"])
           for r in results for row in r["outcomes"]]
    assert got == LADDER10_SEED17


def test_unknown_engine_in_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "mz.circuit"
    path.write_text(MZ_TEXT)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"engine": "quantum"}))
    assert cli.main(["run", "circuit", "--circuit-file", str(path), "--config", str(cfg)]) == 2
    assert "engine" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "mz", "--shots", "-5"],
        ["sweep", "mz", "--grid", "0:pi:3", "--shots", "-5"],
        ["run", "chsh", "--angles", "0,pi/2,pi/4,3pi/4", "--shots", "0"],
    ],
)
def test_shots_below_one_is_a_config_error(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "shots" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    ("argv", "config", "key"),
    [
        (["propagate"], {"eps": "abc", "steps": 2}, "eps"),
        (["propagate"], {"eps": 0.5, "times": 3}, "times"),
        (["sweep", "mz"], {"grid": 5}, "grid"),
        (["check"], {"corpus-cases": "x"}, "corpus-cases"),
        (["run", "mz", "--shots", "10"], {"seed": "x"}, "seed"),
        (["run", "mz"], {"seed": -1}, "seed"),
        (["run", "wheeler"], {"peek": "no"}, "peek"),
        (["run", "mz"], {"alpha": True}, "alpha"),
        (["run", "chsh"], {"angles": 5}, "angles"),
        (["run", "mz"], {"format": "xml"}, "format"),
    ],
)
def test_config_value_of_the_wrong_type_names_its_key(tmp_path, argv, config, key, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ")
    assert "Traceback" not in err


def test_config_null_means_absent(tmp_path, capsys):
    cfg = tmp_path / "null.json"
    cfg.write_text(json.dumps({"alpha": None, "seed": None, "blocked-arm": None}))
    assert cli.main(["run", "mz", "--config", str(cfg)]) == 0
    assert "1.000000" in capsys.readouterr().out


def test_config_peek_must_be_a_json_boolean(tmp_path, capsys):
    cfg = tmp_path / "peek.json"
    cfg.write_text(json.dumps({"peek": True}))
    assert cli.main(["run", "wheeler", "--alpha", "pi", "--config", str(cfg)]) == 0
    assert "0.500000" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_flag_is_a_usage_error(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "mz", f"--seed={seed}"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "mz", "--grid=-1e308:1e308:3"],
        ["sweep", "chsh", "--grid=-1e308:0:1"],
    ],
)
def test_sweep_grid_past_the_float_range_is_refused(argv):
    code, err = _exit_code(argv)
    assert code == 2
    assert "grid" in err
    assert "Traceback" not in err


def test_a_negative_pi_expression_is_given_in_the_equals_form(capsys):
    """A value that starts with '-' and is no plain number reads as a flag,
    so it is written --alpha=-pi/2, as the README says."""
    assert cli.main(["run", "mz", "--alpha=-pi/2"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["u", "0.500000"]
    code, err = _exit_code(["run", "mz", "--alpha", "-pi/2"])
    assert code == 2
    assert "expected one argument" in err


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["check", "--corpus-cases", "1", "--shots", "1000", "--out", "c.json"], "--out"),
        (["check", "--corpus-cases", "1", "--shots", "1000", "--engine", "both"], "--engine"),
        (["propagate", "--eps", "0.5", "--steps", "1", "--engine", "both"], "--engine"),
        (["run", "mz", "--beta", "2", "--out", "mz.json"], "--beta"),
        (["run", "mz", "--eps", "0.5", "--out", "mz.json"], "--eps"),
        (["run", "pathintegral", "--eps", "0.5", "--steps", "1", "--alpha", "1",
          "--out", "p.csv"], "--alpha"),
        (["sweep", "mz", "--grid", "0:pi:3", "--theta", "1.3", "--out", "s.csv"], "--theta"),
        (["sweep", "mz", "--grid", "0:pi:3", "--peek", "--out", "s.csv"], "--peek"),
        (["sweep", "mz", "--grid", "0:pi:3", "--threads", "2", "--out", "s.csv"], "--threads"),
    ],
)
def test_flag_the_experiment_does_not_read_is_refused(argv, flag, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err = _exit_code(argv)
    assert code == 2, err
    assert flag in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def _refuse_work(*args, **kwargs):
    raise AssertionError("work started before the size was checked")


@pytest.mark.parametrize(
    ("argv", "config", "bound"),
    [
        (["run", "mz", f"--shots={cli.MAX_SHOTS + 1}"], {}, cli.MAX_SHOTS),
        (["run", "mz"], {"shots": cli.MAX_SHOTS + 1}, cli.MAX_SHOTS),
        (["sweep", "mz", "--grid", "0:pi:3", f"--shots={cli.MAX_SHOTS + 1}"], {}, cli.MAX_SHOTS),
        (["check", f"--shots={cli.MAX_SHOTS + 1}"], {}, cli.MAX_SHOTS),
        (["sweep", "mz", f"--grid=0:pi:{cli.MAX_GRID_POINTS + 1}"], {}, cli.MAX_GRID_POINTS),
        (["sweep", "mz"], {"grid": f"0:pi:{cli.MAX_GRID_POINTS + 1}"}, cli.MAX_GRID_POINTS),
        (["check", f"--corpus-cases={cli.MAX_CORPUS_CASES + 1}"], {}, cli.MAX_CORPUS_CASES),
        (["check"], {"corpus-cases": cli.MAX_CORPUS_CASES + 1}, cli.MAX_CORPUS_CASES),
    ],
)
def test_size_past_its_cap_exits_two_before_any_work(argv, config, bound, tmp_path, monkeypatch):
    for name in ("mach_zehnder_points", "sample", "child_seeds"):
        monkeypatch.setattr(cli, name, _refuse_work)
    monkeypatch.setattr(cli.checks, "run_all", _refuse_work)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, err = _exit_code(argv + ["--config", str(cfg)])
    assert code == 2, err
    assert f"and {bound}, got {bound + 1}" in err
    assert "Traceback" not in err


class _Started(Exception):
    """Raised by a patched runner: the sweep got past its size checks."""


def _start(*args, **kwargs):
    raise _Started


@pytest.mark.parametrize(
    ("argv", "draws"),
    [
        # 13,325 points x 80,581 shots on one engine is MAX_SWEEP_DRAWS + 1.
        (["sweep", "mz", "--grid", "0:pi:13325", "--shots", "80581"], cli.MAX_SWEEP_DRAWS + 1),
        # chsh samples four settings per point.
        (["sweep", "chsh", "--grid", "0:pi:4096", "--shots", "65537"], 4 * 4096 * 65537),
    ],
)
def test_sweep_past_the_draw_cap_exits_two_before_any_work(argv, draws, monkeypatch):
    assert cli.MAX_SWEEP_DRAWS + 1 == 13325 * 80581
    for name in ("mach_zehnder_points", "chsh_points", "sample", "child_seeds"):
        monkeypatch.setattr(cli, name, _refuse_work)
    code, err = _exit_code(argv + ["--seed", "3"])
    assert code == 2, err
    assert f"would draw {draws} shots" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "mz", "--grid", "0:pi:8192", "--engine", "both", "--shots", "65536"],
        ["sweep", "chsh", "--grid", "0:pi:4096", "--shots", "65536"],
        ["sweep", "mz", "--grid", "0:pi:4096", "--shots", "65537"],
    ],
)
def test_sweep_at_the_draw_cap_starts(argv, monkeypatch):
    for name in ("mach_zehnder_points", "chsh_points"):
        monkeypatch.setattr(cli, name, _start)
    with pytest.raises(_Started):
        cli.main(argv)


@pytest.mark.parametrize(
    ("flag", "what"), [("--circuit-file", "circuit"), ("--config", "config")]
)
def test_file_that_is_not_utf8_is_a_config_error(flag, what, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe" + "element src source\n".encode("utf-16-le"))
    argv = ["run", "circuit" if what == "circuit" else "mz", flag, str(bad)]
    code, err = _exit_code(argv)
    assert code == 2, err
    assert f"cannot read {what} file" in err
    assert "Traceback" not in err


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "mz.json"
    assert cli.main(["run", "mz", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot write output file" in err
    assert "Traceback" not in err


def test_run_pathintegral_is_propagate(capsys):
    code = cli.main(["run", "pathintegral", "--eps", "0.5", "--steps", "2"])
    assert code == 0
    assert "t = 1" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["propagate"], ["run", "pathintegral"]])
def test_window_flag_is_a_usage_error(command, capsys):
    """The kernel truncation radius is gone: --window is an unknown flag."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--eps", "0.5", "--steps", "2", "--window", "40"])
    assert exc.value.code == 2
    assert "--window" in capsys.readouterr().err


def test_config_window_key_is_ignored_like_any_unread_key(tmp_path, capsys):
    argv = ["propagate", "--eps", "0.5", "--steps", "2"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    cfg = tmp_path / "window.json"
    cfg.write_text(json.dumps({"window": 5.0}))
    assert cli.main([*argv, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == plain


def test_config_file_supplies_values_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 0.9}))
    assert cli.main(["run", "mz", "--config", str(cfg)]) == 0
    assert "0.810805" in capsys.readouterr().out
    assert cli.main(["run", "mz", "--config", str(cfg), "--alpha", "0"]) == 0
    assert "1.000000" in capsys.readouterr().out


# -- sweep ----------------------------------------------------------------------


def test_sweep_csv_matches_interferometer_law(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep", "mz", "--grid", "0:pi:9", "--engine", "streams",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    meta, rows = _rows(out)
    assert meta["rng"] == "numpy-pcg64"
    assert meta["config"]["experiment"] == "mz"
    assert meta["engine_versions"]["package"] == shadowsim.__version__
    seen = 0
    for row in rows:
        if row["outcome"] != "u":
            continue
        alpha = float(row["alpha"])
        assert float(row["probability"]) == pytest.approx(
            math.cos(alpha / 2) ** 2, abs=1e-9
        )
        seen += 1
    assert seen == 9


def test_sweep_reruns_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert cli.main([
            "sweep", "mz", "--grid", "0:pi:5", "--seed", "7",
            "--shots", "400", "--out", str(path),
        ]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_chsh_traces_the_standard_curve(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "chsh", "--grid", "0:pi:7", "--out", str(out)]) == 0
    _, rows = _rows(out)
    assert len(rows) == 7
    for row in rows:
        phi = float(row["phi"])
        want = 3 * math.cos(phi) - math.cos(3 * phi)
        assert float(row["value"]) == pytest.approx(want, abs=1e-9)
        assert row["quantity"] == "S"


def test_sweep_chsh_pairs_each_point_as_its_settings_arrive(tmp_path):
    """Each point's four settings are paired and reduced to its report as
    they are evaluated, so a chsh sweep on both engines peaks at under 3 kB
    a grid point: what it keeps (points, reports, rows), not every
    setting's per-arm amplitudes."""
    g = 1024
    out = tmp_path / "s.csv"
    argv = ["sweep", "chsh", "--grid", f"0:pi:{g}", "--engine", "both", "--seed", "7",
            "--out", str(out)]
    assert cli.main(argv[:3] + ["0:pi:3"] + argv[4:]) == 0  # fills the per-process caches
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(_rows(out)[1]) == 2 * g
    assert peak <= 3000 * g


def test_sweep_without_grid_is_a_config_error(capsys):
    assert cli.main(["sweep", "mz"]) == 2
    assert "--grid" in capsys.readouterr().err


def test_sweep_json_output(tmp_path):
    out = tmp_path / "sweep.json"
    code = cli.main([
        "sweep", "wheeler", "--grid", "0:pi:4", "--peek",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    blob = json.loads(out.read_text())
    assert set(blob) == {"meta", "results"}
    assert blob["meta"]["config"]["peek"] is True
    for entry in blob["results"]:
        assert entry["probability"] == pytest.approx(0.5, abs=1e-12)


def _run_flags(name, x):
    """The run flags that set what sweep ``name`` sets at grid value ``x``."""
    sets = cli.REGISTRY[name].axis[1](x)
    if name == "chsh":
        return ["--angles", ",".join(repr(angle) for angle in sets["angles"])]
    return [f"--{key}={value!r}" for key, value in sets.items()]


@pytest.mark.parametrize(
    ("name", "extra"),
    [("mz", []), ("wheeler", []), ("wheeler", ["--peek"]), ("bghz", []), ("chsh", []),
     ("chsh", ["--shots", "2000"])],
)
def test_every_sweep_row_equals_run_at_its_point(name, extra, tmp_path):
    """A sweep evaluates the grid once per engine; each row still holds what
    run gives at that grid point under the row's seed, bit for bit."""
    swept = tmp_path / "sweep.json"
    argv = ["sweep", name, "--grid", "0:2pi:5", "--engine", "both", "--seed", "7", *extra]
    assert cli.main(argv + ["--format", "json", "--out", str(swept)]) == 0
    column = cli.REGISTRY[name].axis[0]
    rows: dict = {}
    for row in json.loads(swept.read_text())["results"]:
        rows.setdefault((row[column], row["seed"]), {}).setdefault(row["engine"], []).append(row)
    assert len(rows) == 5
    for i, ((x, seed), by_engine) in enumerate(rows.items()):
        ran = tmp_path / f"run{i}.json"
        run_argv = ["run", name, *_run_flags(name, x), "--engine", "both", "--seed", seed, *extra]
        assert cli.main(run_argv + ["--out", str(ran)]) == 0
        for result in json.loads(ran.read_text())["results"]:
            got = by_engine[result["engine"]]
            if name == "chsh":
                assert got == [{column: x, "quantity": "S", "value": result["S"],
                                "engine": result["engine"], "seed": seed}]
            else:
                want = [{column: x, "outcome": "|".join(o["outcome"]) if isinstance(
                    o["outcome"], list) else o["outcome"], "probability": o["probability"],
                    "engine": result["engine"], "seed": seed} for o in result["outcomes"]]
                assert got == want


# -- propagate outputs ------------------------------------------------------------


def test_propagate_csv_density_is_normalized(tmp_path, capsys):
    out = tmp_path / "packet.csv"
    code = cli.main([
        "propagate", "--eps", "0.5", "--steps", "4", "--out", str(out),
    ])
    assert code == 0
    assert "max one-step norm drift" in capsys.readouterr().out
    with open(out, newline="") as fh:
        assert fh.readline().startswith("# ")
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert list(rows[0]) == ["t", "x", "density", "re", "im"]
    xs = sorted({float(r["x"]) for r in rows})
    dx = xs[1] - xs[0]
    total = sum(float(r["density"]) for r in rows) * dx
    assert total == pytest.approx(1.0, abs=1e-9)


def test_propagate_json_snapshots(tmp_path):
    out = tmp_path / "packet.json"
    code = cli.main([
        "propagate", "--eps", "0.5", "--times", "0.5,1.5",
        "--grid-n", "1024", "--xmin", "-16", "--xmax", "16",
        "--potential", "harmonic", "--omega", "0.15",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    blob = json.loads(out.read_text())
    assert [entry["t"] for entry in blob["results"]] == [0.5, 1.5]
    for entry in blob["results"]:
        assert len(entry["x"]) == len(entry["re"]) == len(entry["im"]) == 1024


# -- check ------------------------------------------------------------------------


def test_check_command_all_green(capsys):
    code = cli.main(["check", "--corpus-cases", "3", "--shots", "5000"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines[-1].endswith("checks passed")
    assert all(line.startswith("PASS") for line in lines[:-1])


@pytest.mark.parametrize(
    ("argv", "field"),
    [
        (["--corpus-cases", "0", "--shots", "10"], "corpus-cases"),
        (["--corpus-cases", "0"], "corpus-cases"),
        (["--shots", "999"], "shots"),
    ],
)
def test_check_refuses_vacuous_power(argv, field, monkeypatch, capsys):
    monkeypatch.setattr(cli.checks, "run_all", lambda **kw: pytest.fail("ran the checks"))
    assert cli.main(["check"] + argv) == 2
    assert field in capsys.readouterr().err


def test_chsh_exact_check_is_reproducible_for_one_seed():
    first = checks.check_chsh_exact(seed=11)
    assert first.passed
    assert checks.check_chsh_exact(seed=11).detail == first.detail


def test_check_failure_flips_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        cli.checks, "run_all",
        lambda **kw: [checks.CheckResult("doom", False, "boom")],
    )
    assert cli.main(["check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  doom: boom" in out
    assert "0/1 checks passed" in out
