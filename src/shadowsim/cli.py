"""Command-line front end: run experiments and sweeps, emit tables and data.

Exit codes: 0 success, 1 failed invariant checks, 2 configuration errors
(argparse uses the same code), 3 circuit file errors, 4 numerical
instability during propagation.

Output files are byte-identical for identical (config, seed) pairs: no
timestamps, sorted config keys, fixed float formatting.  CSV files start
with ``#`` metadata lines embedding the config, seed, and engine versions;
JSON files carry the same block as a ``meta`` object.  CSV floats use 12
significant digits.  A run's config records the experiment, engine, seed
and every other key the bench read, and each JSON result's ``parameters``
is that record with the result's own engine and the rng.

Two tables drive every subcommand: ``KEYS`` describes each flag once and
``REGISTRY`` each experiment once.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when the first parser is built; import it
# here so that its cost falls in start-up, not in main.
import locale  # noqa: F401
import math
import sys
import warnings
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, checks, hilbert, pathintegral, streams
from .angles import parse_angle
from .circuit import CircuitError, parse_circuit
from .experiments import (
    bghz_points,
    chsh_points,
    mach_zehnder_circuit,
    mach_zehnder_points,
    run_circuit,
    run_ifm,
    sample,
    wheeler_points,
)
from .outcomes import OutcomeDistribution
from .rng import RNG_NAME, child_seeds

# Bounds on the sizes a run may ask for, checked where each value is read and
# before any work.  sample() counts shots in chunks, so they bound its time, not
# its memory: about 6.4 ms per 10**6 (hilbert MZ, min of 3x3, 2-core x86 VM).
MAX_SHOTS = 2**26
# A sweep's memory peaks at about 4.2 kB per grid point (tracemalloc, 4096 seeded
# points to CSV on both engines: bghz, four joint rows a point; chsh 2.4 kB, mz
# 2.1 kB), so MAX_GRID_POINTS points stay under 2**30 bytes.
MAX_GRID_POINTS = 2**16
# Time bound on a sweep's draws, summed over points, engines and settings:
# about 7 s at that rate.
MAX_SWEEP_DRAWS = 2**30
# Time bound: the cross-engine and unitarity checks take about 0.41 ms per
# corpus case; the cap matches pathintegral.MAX_STEPS.
MAX_CORPUS_CASES = 2**20


class ConfigError(Exception):
    """Bad or incomplete run configuration; message names the field."""


# -- flag types and value conversions -------------------------------------------

def _angle_flag(text: str) -> float:
    try:
        return parse_angle(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite_float(part) for part in text.split(",")]


def _seed_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _angle(value) -> float:
    """Angles may be numbers or pi-expression strings."""
    return parse_angle(value) if isinstance(value, str) else float(value)


def _angles(value) -> list[float]:
    """chsh settings a,a',b,b' from a comma-separated string or a list."""
    parts = value.split(",") if isinstance(value, str) else value
    angles = [_angle(part) for part in parts]
    if len(angles) != 4:
        raise ValueError(f"chsh needs exactly four angles a,a',b,b', got {len(angles)}")
    return angles


def _grid_spec(text: str) -> list:
    """start:stop:count, pi-expressions allowed, as [start, stop, count]."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:stop:count, got {text!r}")
    start, stop = parse_angle(parts[0]), parse_angle(parts[1])
    count = int(parts[2])
    if not 1 <= count <= MAX_GRID_POINTS:
        raise ValueError(f"grid count must be between 1 and {MAX_GRID_POINTS}, got {count}")
    if start > stop:
        raise ValueError("grid start must be <= stop")
    if not math.isfinite(stop - start):
        raise ValueError("grid span stop - start must be finite")
    return [start, stop, count]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_number(value) and value >= 0 and value == int(value)


def _is_angle(value) -> bool:
    return isinstance(value, str) or _is_number(value)


# The JSON value a config-file key accepts, as (description, test, conversion).
# Flags are typed where argparse parses them; config values are tested in
# _values, and JSON null means the key is absent.  The conversion applies to
# every value, so a runner sees one form whether it came from a flag, the
# config file or the default.
_TEXT = ("a string", lambda value: isinstance(value, str), str)
_NUMBER = ("a number", _is_number, float)
_COUNT = ("a whole number >= 0", _is_count, int)
_ANGLE = ("a number or a pi-expression string", _is_angle, _angle)
_BOOL = ("true or false", lambda value: isinstance(value, bool), bool)
_ARM = (
    "a, b or none",
    lambda value: value in ("a", "b", "none", "None"),
    lambda value: None if value in ("none", "None") else value,
)
_GRID = ("a start:stop:count string", lambda value: isinstance(value, str), _grid_spec)
_ANGLES = (
    "a comma-separated string or a list of angles",
    lambda value: isinstance(value, str)
    or (isinstance(value, list) and all(map(_is_angle, value))),
    _angles,
)
_TIMES = (
    "a list of numbers",
    lambda value: isinstance(value, list) and all(map(_is_number, value)),
    lambda times: [float(t) for t in times],
)


def _key(kind: tuple, default=None, **flag) -> tuple:
    """One flag as (config-file kind, default, argparse keywords)."""
    return kind, default, flag


def _choice_key(choices: tuple, default=None, **flag) -> tuple:
    """A flag whose value, on the command line or in the file, is one of ``choices``."""
    kind = (f"one of {', '.join(choices)}", lambda value: value in choices, str)
    return _key(kind, default, choices=list(choices), **flag)


KEYS = {
    "seed": _key(_COUNT, type=_seed_flag, help="master RNG seed"),
    "out": _key(_TEXT, help="output file path"),
    "format": _choice_key(("json", "csv"), "csv", help="output format"),
    "engine": _choice_key(("streams", "hilbert", "both"), "streams",
                          help="which engine(s) to run"),
    "shots": _key(_COUNT, type=int,
                  help="Monte Carlo shots (run and sweep: omit for exact probabilities)"),
    "alpha": _key(_ANGLE, 0.0, type=_angle_flag,
                  help="phase shift (radians or pi-expression)"),
    "beta": _key(_ANGLE, 0.0, type=_angle_flag, help="right-side phase shift"),
    "theta": _key(_ANGLE, 0.0, type=_angle_flag, help="common arm pathlength phase"),
    "peek": _key(_BOOL, False, action=argparse.BooleanOptionalAction,
                 help="which-path marking after the first splitter"),
    "blocked-arm": _key(_ARM, "none", choices=["a", "b", "none"]),
    "angles": _key(_ANGLES, help="chsh settings a,a',b,b' (pi-expressions allowed)"),
    "circuit-file": _key(_TEXT, help="circuit description file for 'run circuit'"),
    "grid": _key(_GRID, help="start:stop:count, pi-expressions allowed"),
    "corpus-cases": _key(_COUNT, 500, type=int,
                         help="randomized circuits for the cross-engine check"),
    "grid-n": _key(_COUNT, 1024, type=int, help="grid points"),
    "xmin": _key(_NUMBER, -30.0, type=_finite_float),
    "xmax": _key(_NUMBER, 30.0, type=_finite_float),
    "x0": _key(_NUMBER, 0.0, type=_finite_float, help="packet centre"),
    "sigma0": _key(_NUMBER, 1.5, type=_finite_float, help="packet width"),
    "k0": _key(_NUMBER, 0.0, type=_finite_float, help="packet wavenumber"),
    "mass": _key(_NUMBER, 1.0, type=_finite_float),
    "hbar": _key(_NUMBER, 1.0, type=_finite_float),
    "eps": _key(_NUMBER, type=_finite_float, help="time step"),
    "steps": _key(_COUNT, type=int, help="number of steps"),
    "times": _key(_TIMES, type=_float_list,
                  help="snapshot times, comma separated, multiples of eps"),
    "potential": _choice_key(("free", "harmonic", "file"), "free"),
    "omega": _key(_NUMBER, type=_finite_float, help="harmonic angular frequency"),
    "potential-file": _key(_TEXT, help="two-column x, V table"),
    "psi-file": _key(_TEXT, help="three-column x, re, im initial wavefunction"),
}
# Keys a data file's config block leaves out: the meta block records the
# seed, and out and format only say where and how the results are written.
OUTPUT_KEYS = ("seed", "out", "format")


def _values(args: argparse.Namespace, config: dict, keys, **defaults) -> dict:
    """Each key's flag value if given, else its config-file value, else its
    default (``defaults`` overrides the table's), converted.

    A config-file value of the wrong JSON type is a ConfigError naming the
    key, and so is a value its conversion refuses.  The --format flag with
    no out to write is a flag nothing reads, refused as any other is.
    """
    values = {}
    for key in keys:
        (kind, accepts, convert), default, _ = KEYS[key]
        value = getattr(args, key.replace("-", "_"))
        if value is None:
            value = config.get(key)
            if value is not None and not accepts(value):
                raise ConfigError(f"{key} must be {kind}, got {value!r}")
        if value is None:
            value = defaults.get(key, default)
        try:
            values[key] = None if value is None else convert(value)
        except (ValueError, OverflowError) as exc:  # OverflowError: a JSON int past float range
            raise ConfigError(f"{key}: {exc}") from exc
    if "format" in keys and args.format is not None and values["out"] is None:
        raise ConfigError("--format needs --out: without a file the results are printed")
    return values


def _refuse_unread(args: argparse.Namespace, keys, what: str) -> None:
    """A flag given for a key that ``what`` does not read is a ConfigError."""
    for key in KEYS:
        if key not in keys and getattr(args, key.replace("-", "_"), None) is not None:
            raise ConfigError(f"{what} does not read --{key}")


def _bounded(values: dict, key: str, minimum: int, maximum: int) -> None:
    """Refuse a count outside [minimum, maximum]; an unset count passes."""
    value = values[key]
    if value is not None and not minimum <= value <= maximum:
        raise ConfigError(f"{key} must be between {minimum} and {maximum}, got {value!r}")


def _experiment(args: argparse.Namespace, config: dict, names: tuple) -> str:
    """The experiment named on the command line, else in the config file."""
    name = args.experiment or config.get("experiment")
    if name not in names:
        raise ConfigError(f"{args.command} needs an experiment (argument or config key), "
                          f"one of {', '.join(names)}; got {name!r}")
    return name


def _finite_json_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config file holds a non-finite number: {text}")
    return value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # NaN, Infinity and -Infinity reach parse_constant; 1e999 reaches parse_float.
            config = json.load(
                fh, parse_float=_finite_json_number, parse_constant=_finite_json_number
            )
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    return config


# -- output writers -----------------------------------------------------------

# The one float format of every data file: 12 significant digits.
_FLOAT = ".12g"
# Grid points per written block of a snapshot's arrays, CSV or JSON: a block's
# floats and text (~0.1 MB) stay small beside _FFT_BYTES_PER_POINT a point.
_WRITE_BLOCK = 2**8


def _fmt(value: float) -> str:
    return format(value, _FLOAT)


def _csv_row(row: list) -> str:
    return ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)


def _meta_block(config: dict, seed) -> dict:
    return {
        "config": config,
        "seed": seed,
        "rng": RNG_NAME,
        "engine_versions": {
            "streams": streams.ENGINE_VERSION,
            "hilbert": hilbert.ENGINE_VERSION,
            "package": __version__,
        },
    }


def _run_config(name: str, values: dict) -> dict:
    """The experiment and every value read but the output settings."""
    return {"experiment": name, **{k: v for k, v in values.items() if k not in OUTPUT_KEYS}}


def _snapshot_lines(t: float, columns: list[np.ndarray]) -> Iterator[str]:
    """``_csv_row([t, *row])`` for each row of the float ``columns``, joined a
    block of _WRITE_BLOCK rows at a time: t is formatted once, and each row
    from Python floats by one ``%``, which gives ``_fmt``'s text."""
    form = ",".join([_fmt(t)] + ["%" + _FLOAT] * len(columns))
    for start in range(0, len(columns[0]), _WRITE_BLOCK):
        block = zip(*(column[start:start + _WRITE_BLOCK].tolist() for column in columns))
        yield "\n".join([form % row for row in block])


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line, or block of lines, as it comes, so no whole file is
    held in memory: the output is the same bytes however it is blocked."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


def _write_csv(path: str, meta: dict, columns: list[str], lines: Iterable[str]) -> None:
    """The ``# meta`` line, the column names, then ``lines``: rows from
    ``_csv_row``, or snapshot rows from ``_snapshot_lines`` a block at a time."""
    header = [f"# {json.dumps(meta, sort_keys=True)}", ",".join(columns)]
    _write_lines(path, chain(header, lines))


def _json_lines(value, head: str = "", tail: str = "", indent: str = "") -> Iterator[str]:
    """The lines of ``json.dumps(value, indent=2, sort_keys=True)``, the first
    led by ``head``, the last closed by ``tail`` and the rest indented by
    ``indent``, made one at a time: a long list is read element by element
    and a 1-D float array a block of _WRITE_BLOCK lines at a time, neither
    held whole as Python floats or text."""
    if isinstance(value, dict):
        items: Iterable = [(json.dumps(key) + ": ", value[key]) for key in sorted(value)]
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = (("", item) for item in value)
    else:
        yield head + json.dumps(value) + tail
        return
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    if len(value) == 0:
        yield head + opening + closing + tail
        return
    yield head + opening
    inner = indent + "  "
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
        # One block's lines at a time; json.dumps spells each float (NaN and
        # Infinity too) in a list as it does alone, and no float holds ", ".
        for start in range(0, len(value), _WRITE_BLOCK):
            cells = json.dumps(value[start:start + _WRITE_BLOCK].tolist())[1:-1]
            comma = "," if start + _WRITE_BLOCK < len(value) else ""
            yield inner + cells.replace(", ", ",\n" + inner) + comma
    else:
        for i, (key, item) in enumerate(items, start=1):
            yield from _json_lines(item, inner + key, "," if i < len(value) else "", inner)
    yield indent + closing + tail


def _write_json(path: str, meta: dict, results) -> None:
    _write_lines(path, _json_lines({"meta": meta, "results": results}))


def _outcome_str(outcome) -> str:
    if isinstance(outcome, tuple):
        return "|".join(outcome)
    return str(outcome)


def _seed_str(seed) -> str:
    return "" if seed is None else str(seed)


# -- experiment outputs -----------------------------------------------------------

def _engines(engine: str) -> list[str]:
    return ["streams", "hilbert"] if engine == "both" else [engine]


def _print_distribution_table(dists: list[OutcomeDistribution]) -> None:
    labels = dict.fromkeys(outcome for dist in dists for outcome in dist.outcomes)
    header = "outcome".ljust(14) + "".join(d.engine.rjust(16) for d in dists)
    print(header)
    for outcome in labels:
        cells = "".join(f"{d.probability(outcome):16.6f}" for d in dists)
        print(_outcome_str(outcome).ljust(14) + cells)


def _report_distributions(name: str, values: dict, dists: list[OutcomeDistribution]) -> None:
    """Print the outcome table, sampled frequencies with shots, and write the file."""
    _print_distribution_table(dists)
    shots = values["shots"]
    seed = values["seed"]
    if shots:
        result = sample(dists[0], shots, seed)
        print(f"\nfrequencies from {shots} shots (engine {dists[0].engine}):")
        for outcome, freq in result.frequencies.items():
            print(f"{_outcome_str(outcome).ljust(14)}{freq:16.6f}")
    if values["out"] is None:
        return
    config = {"experiment": name, "engine": values["engine"], "seed": seed,
              **{key.replace("-", "_"): value for key, value in values.items()
                 if key in KEYS and key not in BENCH_KEYS}}
    meta = _meta_block(config, seed)
    if values["format"] == "json":
        _write_json(values["out"], meta, [
            {"engine": d.engine, "parameters": {**config, "engine": d.engine, "rng": RNG_NAME},
             "outcomes": [{"outcome": o, "probability": p} for o, p in d.outcomes.items()]}
            for d in dists])
        return
    rows = []
    for dist in dists:
        for outcome, p in dist.outcomes.items():
            rows.append([_outcome_str(outcome), float(p), dist.engine, _seed_str(seed)])
    _write_csv(values["out"], meta, ["outcome", "probability", "engine", "seed"],
               map(_csv_row, rows))


def _distribution_cells(values: dict, dist: OutcomeDistribution) -> list[dict]:
    """One sweep point: its probabilities, or with shots its sampled frequencies."""
    column, found = "probability", dist.outcomes
    if values["shots"]:
        column, found = "frequency", sample(dist, values["shots"], values["seed"]).frequencies
    return [{"outcome": _outcome_str(o), column: float(v)} for o, v in found.items()]


def _report_chsh(name: str, values: dict, reports: list) -> None:
    """Print each engine's correlators and S, and write the file."""
    for report in reports:
        for (x, y), e in report.correlations.items():
            print(f"E({_fmt(x)}, {_fmt(y)}) = {e:9.6f}   [{report.engine}]")
        verdict = "VIOLATION" if report.violation else "no violation"
        print(f"S = {report.s_value:.6f}, {verdict}   [{report.engine}]")
    if values["out"] is None:
        return
    meta = _meta_block(_run_config(name, values), values["seed"])
    if values["format"] == "json":
        results = [
            {
                "engine": r.engine,
                "S": r.s_value,
                "violation": r.violation,
                "correlations": [
                    {"x": x, "y": y, "E": e} for (x, y), e in r.correlations.items()
                ],
                "shots": r.shots,
            }
            for r in reports
        ]
        _write_json(values["out"], meta, results)
        return
    rows = []
    for r in reports:
        for (x, y), e in r.correlations.items():
            rows.append(["E", float(x), float(y), float(e), r.engine])
        rows.append(["S", "", "", float(r.s_value), r.engine])
    _write_csv(values["out"], meta, ["quantity", "x", "y", "value", "engine"], map(_csv_row, rows))


# -- experiment registry ----------------------------------------------------------

def _run_chsh(points: list[dict], engine: str) -> list:
    if points[0]["angles"] is None:
        raise ConfigError("chsh needs --angles a,a',b,b'")
    return chsh_points([(p["angles"], p["seed"]) for p in points], engine, shots=points[0]["shots"])


def _read_circuit_file(values: dict) -> dict:
    """The values with the circuit file parsed, once for every engine."""
    path = values["circuit-file"]
    if path is None:
        raise ConfigError("run circuit needs --circuit-file")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return {**values, "circuit": parse_circuit(fh.read())}
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read circuit file: {exc}") from exc


def _check_theta(values: dict) -> dict:
    """The values, once the Mach-Zehnder built at their ``theta`` is valid."""
    try:
        mach_zehnder_circuit(0.0, values["theta"])
    except CircuitError as exc:
        raise ConfigError(f"theta = {values['theta']!r}: {exc}") from None
    return values


class Experiment(NamedTuple):
    """One bench: the keys it reads, its runner and its sweep axis.

    ``run`` maps a list of points (each the values read) and one engine to
    its results, evaluating each circuit structure once for all.  ``axis`` is
    the swept column's name and a map from a grid value to the keys it sets;
    an experiment without one cannot be swept.  ``report`` prints and writes
    a run's results, one per engine, and ``cells`` gives the sweep columns of
    one engine's result at one grid point.  ``load`` maps a run's values to
    those its engines read, once per run; a ``KEYS`` value it adds is recorded
    in the run's config as one read."""

    keys: tuple[str, ...]
    run: Callable | None
    axis: tuple[str, Callable] | None = None
    report: Callable = _report_distributions
    cells: Callable = _distribution_cells
    settings: int = 1  # distributions a sweep point samples per engine, with shots
    load: Callable = dict

    @property
    def sweep_keys(self) -> tuple[str, ...]:
        """The keys a sweep reads: those the axis leaves alone, and the grid."""
        swept = self.axis[1](0.0)
        return tuple(key for key in self.keys if key not in swept) + ("grid",)


BENCH_KEYS = OUTPUT_KEYS + ("engine", "shots")
PROPAGATE_KEYS = OUTPUT_KEYS + (
    "grid-n", "xmin", "xmax", "x0", "sigma0", "k0", "mass", "hbar", "eps", "steps",
    "times", "potential", "omega", "potential-file", "psi-file",
)
CHECK_KEYS = ("seed", "corpus-cases", "shots")

REGISTRY = {
    "mz": Experiment(
        BENCH_KEYS + ("alpha", "theta"),
        lambda points, engine: mach_zehnder_points(
            [(p["alpha"], p["seed"]) for p in points], engine, theta=points[0]["theta"]),
        ("alpha", lambda x: {"alpha": x, "theta": 0.0}),
        load=_check_theta,
    ),
    "wheeler": Experiment(
        BENCH_KEYS + ("alpha", "peek"),
        lambda points, engine: wheeler_points(
            [(p["alpha"], p["seed"]) for p in points], points[0]["peek"], engine),
        ("alpha", lambda x: {"alpha": x}),
        # Unpeeked, the bench is the Mach-Zehnder at theta 0, which its run records.
        load=lambda values: values if values["peek"] else {**values, "theta": 0.0},
    ),
    "ifm": Experiment(
        BENCH_KEYS + ("blocked-arm",),
        lambda points, engine: [run_ifm(p["blocked-arm"], engine, seed=p["seed"]) for p in points],
    ),
    "bghz": Experiment(
        BENCH_KEYS + ("alpha", "beta"),
        lambda points, engine: bghz_points(
            [(p["alpha"], p["beta"], p["seed"]) for p in points], engine),
        ("delta", lambda x: {"alpha": 0.0, "beta": x}),
    ),
    "chsh": Experiment(
        BENCH_KEYS + ("angles",),
        _run_chsh,
        ("phi", lambda x: {"angles": [0.0, 2 * x, x, 3 * x]}),
        _report_chsh,
        lambda values, report: [{"quantity": "S", "value": float(report.s_value)}],
        settings=4,
    ),
    # run pathintegral is the propagate command.
    "pathintegral": Experiment(PROPAGATE_KEYS, None),
    "circuit": Experiment(BENCH_KEYS + ("circuit-file",), lambda points, engine: [
        run_circuit(p["circuit"], engine, seed=p["seed"]) for p in points],
        load=_read_circuit_file),
}
EXPERIMENTS = tuple(REGISTRY)
SWEEPABLE = tuple(name for name, experiment in REGISTRY.items() if experiment.axis)


# -- run ----------------------------------------------------------------------

def _cmd_run(args: argparse.Namespace, config: dict) -> int:
    name = _experiment(args, config, EXPERIMENTS)
    experiment = REGISTRY[name]
    _refuse_unread(args, experiment.keys, f"run {name}")
    if experiment.run is None:
        return _cmd_propagate(args, config)
    values = _values(args, config, experiment.keys, format="json")
    _bounded(values, "shots", 1, MAX_SHOTS)
    values = experiment.load(values)
    results = [experiment.run([values], engine)[0] for engine in _engines(values["engine"])]
    experiment.report(name, values, results)
    return 0


# -- sweep ----------------------------------------------------------------------

def _cmd_sweep(args: argparse.Namespace, config: dict) -> int:
    """Run an experiment over a grid: one call per engine evaluates every
    point, then the rows are laid out point by point, engines in turn."""
    name = _experiment(args, config, SWEEPABLE)
    experiment = REGISTRY[name]
    column, sets = experiment.axis
    _refuse_unread(args, experiment.sweep_keys, f"sweep {name}")
    values = _values(args, config, experiment.sweep_keys)
    if values["grid"] is None:
        raise ConfigError("sweep needs --grid start:stop:count")
    _bounded(values, "shots", 1, MAX_SHOTS)
    start, stop, count = values["grid"]
    for x in (start, stop):
        if not np.isfinite(np.hstack(list(sets(x).values()))).all():
            raise ConfigError(f"grid: sweep {name} at {column} = {x:g} sets a non-finite angle")
    engines = _engines(values["engine"])
    draws = count * len(engines) * experiment.settings * (values["shots"] or 0)
    if draws > MAX_SWEEP_DRAWS:
        raise ConfigError(f"sweep {name} would draw {draws} shots (points x engines x settings"
                          f" x shots), more than {MAX_SWEEP_DRAWS}")

    master = values["seed"]
    grid = np.linspace(start, stop, count).tolist()
    seeds = [None] * count if master is None else child_seeds([(master, i) for i in range(count)])
    points = [{**values, **sets(x), "seed": seed} for x, seed in zip(grid, seeds)]
    results = [experiment.run(points, engine) for engine in engines]
    rows = [{column: x, **cells, "engine": engine, "seed": _seed_str(point["seed"])}
            for x, point, *per_engine in zip(grid, points, *results)
            for engine, result in zip(engines, per_engine)
            for cells in experiment.cells(point, result)]

    columns = list(rows[0])
    meta = _meta_block(_run_config(name, values), master)
    if values["out"] is None:
        print(",".join(columns))
        for row in rows:
            print(_csv_row(row.values()))
    elif values["format"] == "json":
        _write_json(values["out"], meta, rows)
    else:
        _write_csv(values["out"], meta, columns, (_csv_row(row.values()) for row in rows))
    return 0


# -- check ----------------------------------------------------------------------

def _cmd_check(args: argparse.Namespace, config: dict) -> int:
    values = _values(args, config, CHECK_KEYS, seed=20260814, shots=1_000_000)
    _bounded(values, "corpus-cases", checks.MIN_CORPUS_CASES, MAX_CORPUS_CASES)
    _bounded(values, "shots", checks.MIN_SHOTS, MAX_SHOTS)
    results = checks.run_all(
        corpus_cases=values["corpus-cases"], shots=values["shots"], seed=values["seed"]
    )
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failed += 0 if result.passed else 1
        print(f"{status}  {result.name}: {result.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# -- propagate --------------------------------------------------------------------

def _read_table(path: str, what: str, columns: tuple[str, ...]) -> np.ndarray:
    """The rows of a whitespace-separated table file, refusing an empty
    file, a wrong column count and a non-finite number."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns when a file has no rows
            table = np.loadtxt(path, comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc
    if table.size == 0:
        raise ConfigError(f"{what} file holds no rows")
    if table.shape[1] != len(columns):
        raise ConfigError(f"{what} file needs {len(columns)} columns: {', '.join(columns)}")
    if not np.isfinite(table).all():
        raise ConfigError(f"{what} file holds a non-finite number")
    return table


def _build_potential(values: dict):
    kind = values["potential"]
    if kind == "free":
        return pathintegral.FREE, {"potential": "free"}
    if kind == "harmonic":
        omega = values["omega"]
        if omega is None:
            raise ConfigError("harmonic potential needs --omega")
        return (
            pathintegral.HarmonicPotential(omega),
            {"potential": "harmonic", "omega": omega},
        )
    path = values["potential-file"]
    if path is None:
        raise ConfigError("potential file mode needs --potential-file")
    table = _read_table(path, "potential", ("x", "V"))
    if not (np.diff(table[:, 0]) > 0).all():
        raise ConfigError("potential file x column must be strictly increasing")
    return (
        pathintegral.TabulatedPotential(table[:, 0], table[:, 1]),
        {"potential": "file", "potential_file": path},
    )


def _initial_wavefunction(values: dict):
    psi_file = values["psi-file"]
    units = {"mass": values["mass"], "hbar": values["hbar"]}
    if psi_file is not None:
        table = _read_table(psi_file, "wavefunction", ("x", "re", "im"))
        if table.shape[0] < 2:
            raise ConfigError("wavefunction file needs at least two rows")
        x = table[:, 0]
        amplitudes = table[:, 1] + 1j * table[:, 2]
        dx = x[1] - x[0]
        if not dx > 0.0:
            raise ConfigError("wavefunction file: grid must be uniform and increasing")
        with np.errstate(over="ignore"):
            norm = float(np.sqrt(np.sum(np.abs(amplitudes) ** 2) * dx))
        if not 0.0 < norm < math.inf:
            # The squares left the float range: scale by the largest component first.
            peak = np.abs(table[:, 1:]).max()
            if peak == 0.0:
                raise ConfigError("wavefunction file is identically zero")
            amplitudes = amplitudes / peak
            norm = float(np.sqrt(np.sum(np.abs(amplitudes) ** 2) * dx))
        try:
            wf = pathintegral.LatticeWavefunction(x=x, values=amplitudes / norm, **units)
        except ValueError as exc:
            raise ConfigError(f"wavefunction file: {exc}") from exc
        return wf, {"psi_file": psi_file, **units}
    packet = {key.replace("-", "_"): values[key]
              for key in ("grid-n", "xmin", "xmax", "x0", "sigma0", "k0")}
    try:
        x = pathintegral.uniform_grid(values["grid-n"], values["xmin"], values["xmax"])
        wf = pathintegral.gaussian_packet(
            x, values["x0"], values["sigma0"], values["k0"], **units
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return wf, {**packet, **units}


def _cmd_propagate(args: argparse.Namespace, config: dict) -> int:
    values = _values(args, config, PROPAGATE_KEYS)
    eps = values["eps"]
    steps = values["steps"]
    times = values["times"]
    if eps is None:
        raise ConfigError("propagate needs --eps")
    if (steps is None) == (times is None):
        raise ConfigError("propagate needs --steps or --times, but not both")
    if steps is not None and steps < 0:
        raise ConfigError(f"steps must be a whole number >= 0, got {steps!r}")

    wf, packet_config = _initial_wavefunction(values)
    potential, pot_config = _build_potential(values)
    run_config = {"experiment": "pathintegral", "eps": eps, **packet_config, **pot_config}

    if times is None:
        try:
            times = [steps * eps]
        except OverflowError:
            raise ConfigError(f"steps = {steps} is past the float range") from None
    run_config["times"] = times
    try:
        snapshots, max_drift = pathintegral.propagate_snapshots(wf, eps, times, potential)
        velocities = [pathintegral.mean_velocity(snap) for _, snap in snapshots]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    densities = [snap.probability_density() for _, snap in snapshots]
    for (t, snap), density, velocity in zip(snapshots, densities, velocities):
        mean = pathintegral.expectation_x(snap, density)
        var = float(np.sum((snap.x - mean) ** 2 * density) * snap.dx)
        print(f"t = {t:g}: <x> = {mean:.6f}, sigma = {math.sqrt(var):.6f}, <v> = {velocity:.6f}")
    print(f"max one-step norm drift: {max_drift:.3e}")

    if values["out"] is not None:
        meta = _meta_block(run_config, values["seed"])
        if values["format"] == "json":
            results = [
                {"t": t, "x": snap.x, "re": snap.values.real, "im": snap.values.imag}
                for t, snap in snapshots
            ]
            _write_json(values["out"], meta, results)
        else:
            lines = (line for (t, snap), density in zip(snapshots, densities)
                     for line in _snapshot_lines(
                         t, [snap.x, density, snap.values.real, snap.values.imag]))
            _write_csv(values["out"], meta, ["t", "x", "density", "re", "im"], lines)
    return 0


# -- parser ---------------------------------------------------------------------

RUN_KEYS = tuple(dict.fromkeys(key for e in REGISTRY.values() for key in e.keys))
SWEEP_KEYS = tuple(dict.fromkeys(key for name in SWEEPABLE for key in REGISTRY[name].sweep_keys))

# Each subcommand: its handler, help line, experiment choices and the keys
# that become its flags.
COMMANDS = {
    "run": (_cmd_run, "run one experiment and print its table", EXPERIMENTS, RUN_KEYS),
    "sweep": (_cmd_sweep, "run an experiment over a parameter grid", SWEEPABLE, SWEEP_KEYS),
    "check": (_cmd_check, "run the full invariant suite", (), CHECK_KEYS),
    "propagate": (_cmd_propagate, "lattice propagation of a wavepacket", (), PROPAGATE_KEYS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowsim",
        description="Stream and state-vector simulators for optical circuits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, experiments, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if experiments:
            p.add_argument("experiment", nargs="?", choices=list(experiments))
        for key in keys:
            _, _, flag = KEYS[key]
            p.add_argument(f"--{key}", **flag)
        p.add_argument("--config", help="JSON config file; explicit flags override its values")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command][0](args, _load_config(args.config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CircuitError as exc:
        print(f"circuit error: {exc}", file=sys.stderr)
        return 3
    except pathintegral.PropagationUnstableError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
