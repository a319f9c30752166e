"""Command-line front end: run experiments and sweeps, emit tables and data.

Exit codes: 0 success, 1 failed invariant checks, 2 configuration errors
(argparse uses the same code), 3 circuit file errors, 4 numerical
instability during propagation.

Output files are byte-identical for identical (config, seed) pairs: no
timestamps, sorted config keys, fixed float formatting.  CSV files start
with ``#`` metadata lines embedding the config, seed, and engine versions;
JSON files carry the same block as a ``meta`` object.  CSV floats use 12
significant digits.
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale when the first parser is built; import it
# here so that its cost falls in start-up, not in main.
import locale  # noqa: F401
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, checks, hilbert, pathintegral, streams
from .angles import parse_angle
from .circuit import CircuitError, parse_circuit
from .experiments import (
    chsh,
    run_bghz,
    run_circuit,
    run_ifm,
    run_mach_zehnder,
    run_wheeler,
    sample,
)
from .outcomes import OutcomeDistribution
from .rng import RNG_NAME, substream

EXPERIMENTS = ("mz", "wheeler", "ifm", "bghz", "chsh", "pathintegral", "circuit")
SWEEPABLE = ("mz", "wheeler", "bghz", "chsh")


class ConfigError(Exception):
    """Bad or incomplete run configuration; message names the field."""


# -- flag plumbing ------------------------------------------------------------

def _angle_flag(text: str) -> float:
    try:
        return parse_angle(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _angle_list(text: str) -> list[float]:
    try:
        return [parse_angle(part) for part in text.split(",")]
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


def _grid_spec(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid spec must be start:stop:count, got {text!r}"
        )
    try:
        start, stop = parse_angle(parts[0]), parse_angle(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    if start > stop:
        raise argparse.ArgumentTypeError("grid start must be <= stop")
    if not math.isfinite(stop - start):
        raise argparse.ArgumentTypeError("grid span stop - start must be finite")
    return start, stop, count


def _coerce_angle(value, field: str) -> float:
    """Angles may be numbers or pi-expression strings."""
    if isinstance(value, str):
        try:
            return parse_angle(value)
        except ValueError as exc:
            raise ConfigError(f"{field}: {exc}") from exc
    return float(value)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_number(value) and value >= 0 and value == int(value)


def _is_angle(value) -> bool:
    return isinstance(value, str) or _is_number(value)


_TEXT = ("a string", lambda value: isinstance(value, str))
_NUMBER = ("a number", _is_number)
_COUNT = ("a whole number >= 0", _is_count)
_ANGLE = ("a number or a pi-expression string", _is_angle)

# The JSON value each config-file key accepts, as (description, test).  Flags
# are typed where argparse parses them; config values are checked in _merge.
# JSON null means the key is absent.
_CONFIG_KINDS = {
    **dict.fromkeys(("experiment", "engine", "out", "circuit-file", "blocked-arm", "grid",
                     "potential", "potential-file", "psi-file"), _TEXT),
    **dict.fromkeys(("seed", "shots", "threads", "corpus-cases", "grid-n", "steps"), _COUNT),
    **dict.fromkeys(("eps", "window", "omega", "mass", "hbar", "xmin", "xmax", "x0",
                     "sigma0", "k0"), _NUMBER),
    **dict.fromkeys(("alpha", "beta", "theta"), _ANGLE),
    "format": ("json or csv", lambda value: value in ("json", "csv")),
    "peek": ("true or false", lambda value: isinstance(value, bool)),
    "angles": ("a comma-separated string or a list of angles",
               lambda value: isinstance(value, str)
               or (isinstance(value, list) and all(map(_is_angle, value)))),
    "times": ("a list of numbers",
              lambda value: isinstance(value, list) and all(map(_is_number, value))),
}


def _merge(args: argparse.Namespace, config: dict, key: str, default=None):
    """Flag value if given, else config-file value, else default.

    A config-file value of the wrong JSON type is a ConfigError naming the
    key; whole numbers come back as int.
    """
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    value = config.get(key)
    if value is None:
        return default
    kind, accepts = _CONFIG_KINDS[key]
    if not accepts(value):
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return int(value) if accepts is _is_count else value


def _shots(args: argparse.Namespace, config: dict, default=None, minimum: int = 1):
    """Monte Carlo shot count; None (exact probabilities) when unset."""
    shots = _merge(args, config, "shots", default)
    if shots is not None and shots < minimum:
        raise ConfigError(f"shots must be at least {minimum}, got {shots!r}")
    return shots


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
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    return config


# -- output writers -----------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.12g}"


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


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


def _write_csv(path: str, meta: dict, columns: list[str], rows: list[list]) -> None:
    lines = [f"# {json.dumps(meta, sort_keys=True)}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: str, meta: dict, results) -> None:
    payload = {"meta": meta, "results": results}
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _outcome_str(outcome) -> str:
    if isinstance(outcome, tuple):
        return "|".join(outcome)
    return str(outcome)


def _write_distributions(
    out: str | None,
    fmt: str,
    config: dict,
    seed,
    dists: list[OutcomeDistribution],
) -> None:
    if out is None:
        return
    meta = _meta_block(config, seed)
    if fmt == "json":
        _write_json(out, meta, [d.to_jsonable() for d in dists])
        return
    rows = []
    for dist in dists:
        for outcome, p in dist.outcomes.items():
            rows.append([_outcome_str(outcome), float(p), dist.engine, _seed_str(seed)])
    _write_csv(out, meta, ["outcome", "probability", "engine", "seed"], rows)


def _seed_str(seed) -> str:
    return "" if seed is None else str(seed)


# -- run ----------------------------------------------------------------------

def _engines(engine: str) -> list[str]:
    if engine not in ("streams", "hilbert", "both"):
        raise ConfigError(f"engine must be streams, hilbert or both, got {engine!r}")
    return ["streams", "hilbert"] if engine == "both" else [engine]


def _print_distribution_table(dists: list[OutcomeDistribution]) -> None:
    labels: list = []
    for dist in dists:
        for outcome in dist.outcomes:
            if outcome not in labels:
                labels.append(outcome)
    header = "outcome".ljust(14) + "".join(d.engine.rjust(16) for d in dists)
    print(header)
    for outcome in labels:
        cells = "".join(f"{d.probability(outcome):16.6f}" for d in dists)
        print(_outcome_str(outcome).ljust(14) + cells)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    experiment = _merge(args, config, "experiment")
    if experiment is None:
        raise ConfigError("no experiment named; pass one or set it in the config file")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}, expected one of {EXPERIMENTS}")
    if experiment == "pathintegral":
        return _cmd_propagate(args)

    engine = _merge(args, config, "engine", "streams")
    seed = _merge(args, config, "seed")
    out = _merge(args, config, "out")
    fmt = _merge(args, config, "format", "json")
    shots = _shots(args, config)
    run_config = {"experiment": experiment, "engine": engine}

    if experiment == "chsh":
        angles = _merge(args, config, "angles")
        if angles is None:
            raise ConfigError("chsh needs --angles a,a',b,b'")
        if isinstance(angles, str):
            angles = [_coerce_angle(part, "angles") for part in angles.split(",")]
        angles = [_coerce_angle(a, "angles") for a in angles]
        if len(angles) != 4:
            raise ConfigError("chsh needs exactly four angles a,a',b,b'")
        run_config["angles"] = angles
        run_config["shots"] = shots
        reports = []
        for eng in _engines(engine):
            reports.append(chsh(*angles, eng, shots=shots, seed=seed))
        for report in reports:
            for (x, y), e in report.correlations.items():
                print(f"E({_fmt(x)}, {_fmt(y)}) = {e:9.6f}   [{report.engine}]")
            verdict = "VIOLATION" if report.violation else "no violation"
            print(f"S = {report.s_value:.6f}, {verdict}   [{report.engine}]")
        if out is not None:
            meta = _meta_block(run_config, seed)
            if fmt == "json":
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
                _write_json(out, meta, results)
            else:
                rows = []
                for r in reports:
                    for (x, y), e in r.correlations.items():
                        rows.append(["E", float(x), float(y), float(e), r.engine])
                    rows.append(["S", "", "", float(r.s_value), r.engine])
                _write_csv(out, meta, ["quantity", "x", "y", "value", "engine"], rows)
        return 0

    if experiment == "circuit":
        circuit_file = _merge(args, config, "circuit-file")
        if circuit_file is None:
            raise ConfigError("run circuit needs --circuit-file")
        try:
            with open(circuit_file, "r", encoding="utf-8") as fh:
                circuit = parse_circuit(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read circuit file: {exc}") from exc
        run_config["circuit_file"] = circuit_file
        dists = [run_circuit(circuit, eng, run_config, seed=seed) for eng in _engines(engine)]
    else:
        runners = {
            "mz": lambda eng: run_mach_zehnder(
                _coerce_angle(_merge(args, config, "alpha", 0.0), "alpha"),
                eng,
                theta=_coerce_angle(_merge(args, config, "theta", 0.0), "theta"),
                seed=seed,
            ),
            "wheeler": lambda eng: run_wheeler(
                _coerce_angle(_merge(args, config, "alpha", 0.0), "alpha"),
                _merge(args, config, "peek", False),
                eng,
                seed=seed,
            ),
            "ifm": lambda eng: run_ifm(
                _blocked_arm(_merge(args, config, "blocked-arm", "none")),
                eng,
                seed=seed,
            ),
            "bghz": lambda eng: run_bghz(
                _coerce_angle(_merge(args, config, "alpha", 0.0), "alpha"),
                _coerce_angle(_merge(args, config, "beta", 0.0), "beta"),
                eng,
                seed=seed,
            ),
        }
        dists = [runners[experiment](eng) for eng in _engines(engine)]
        run_config.update(
            {k: v for k, v in dists[0].parameters.items() if k not in ("engine", "rng")}
        )

    _print_distribution_table(dists)
    if shots:
        result = sample(dists[0], shots, seed)
        print(f"\nfrequencies from {shots} shots (engine {dists[0].engine}):")
        for outcome, freq in result.frequencies.items():
            print(f"{_outcome_str(outcome).ljust(14)}{freq:16.6f}")
    _write_distributions(out, fmt, run_config, seed, dists)
    return 0


def _blocked_arm(value) -> str | None:
    if value in (None, "none", "None"):
        return None
    if value in ("a", "b"):
        return value
    raise ConfigError(f"blocked-arm must be a, b, or none, got {value!r}")


# -- sweep ----------------------------------------------------------------------

def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    experiment = _merge(args, config, "experiment")
    if experiment not in SWEEPABLE:
        raise ConfigError(f"sweep supports {SWEEPABLE}, got {experiment!r}")
    grid_spec = _merge(args, config, "grid")
    if grid_spec is None:
        raise ConfigError("sweep needs --grid start:stop:count")
    if isinstance(grid_spec, str):
        try:
            grid_spec = _grid_spec(grid_spec)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"grid: {exc}") from exc
    start, stop, count = grid_spec
    if experiment == "chsh" and not math.isfinite(3.0 * max(abs(start), abs(stop))):
        raise ConfigError("grid: sweep chsh sets angles up to 3*phi, which must be finite")
    grid = np.linspace(start, stop, count)

    engine = _merge(args, config, "engine", "streams")
    seed = _merge(args, config, "seed")
    out = _merge(args, config, "out")
    fmt = _merge(args, config, "format", "csv")
    threads = _merge(args, config, "threads", 1)
    shots = _shots(args, config)
    peek = _merge(args, config, "peek", False)
    run_config = {
        "experiment": experiment,
        "engine": engine,
        "grid": [start, stop, count],
        "shots": shots,
    }
    if experiment == "wheeler":
        run_config["peek"] = peek

    def point(task: tuple[int, float, str]) -> list[list]:
        index, value, eng = task
        point_seed = None if seed is None else int(substream(seed, index).integers(2**63))
        if experiment == "chsh":
            report = chsh(
                0.0, 2 * value, value, 3 * value, eng, shots=shots, seed=point_seed
            )
            return [[float(value), "S", float(report.s_value), eng, _seed_str(point_seed)]]
        if experiment == "mz":
            dist = run_mach_zehnder(float(value), eng, seed=point_seed)
        elif experiment == "wheeler":
            dist = run_wheeler(float(value), peek, eng, seed=point_seed)
        else:
            dist = run_bghz(0.0, float(value), eng, seed=point_seed)
        rows = []
        if shots:
            freqs = sample(dist, shots, point_seed).frequencies
            for outcome, freq in freqs.items():
                rows.append(
                    [float(value), _outcome_str(outcome), float(freq), eng, _seed_str(point_seed)]
                )
        else:
            for outcome, p in dist.outcomes.items():
                rows.append(
                    [float(value), _outcome_str(outcome), float(p), eng, _seed_str(point_seed)]
                )
        return rows

    tasks = [
        (i, float(value), eng)
        for i, value in enumerate(grid)
        for eng in _engines(engine)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(point, tasks))
    else:
        chunks = [point(task) for task in tasks]
    rows = [row for chunk in chunks for row in chunk]

    parameter = {"mz": "alpha", "wheeler": "alpha", "bghz": "delta", "chsh": "phi"}[experiment]
    value_name = "frequency" if shots else "probability"
    columns = [parameter, "outcome", value_name, "engine", "seed"]
    if experiment == "chsh":
        columns = [parameter, "quantity", "value", "engine", "seed"]
    meta = _meta_block(run_config, seed)
    if out is not None:
        if fmt == "json":
            _write_json(
                out,
                meta,
                [dict(zip(columns, row)) for row in rows],
            )
        else:
            _write_csv(out, meta, columns, rows)
    else:
        print(",".join(columns))
        for row in rows:
            print(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return 0


# -- check ----------------------------------------------------------------------

def _cmd_check(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    seed = _merge(args, config, "seed", 20260814)
    corpus = _merge(args, config, "corpus-cases", 500)
    if corpus < checks.MIN_CORPUS_CASES:
        raise ConfigError(f"corpus-cases must be at least {checks.MIN_CORPUS_CASES}, got {corpus}")
    shots = _shots(args, config, 1_000_000, minimum=checks.MIN_SHOTS)
    results = checks.run_all(corpus_cases=corpus, shots=shots, seed=seed)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failed += 0 if result.passed else 1
        print(f"{status}  {result.name}: {result.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# -- propagate --------------------------------------------------------------------

def _build_potential(args: argparse.Namespace, config: dict):
    kind = _merge(args, config, "potential", "free")
    if kind == "free":
        return pathintegral.FREE, {"potential": "free"}
    if kind == "harmonic":
        omega = _merge(args, config, "omega")
        if omega is None:
            raise ConfigError("harmonic potential needs --omega")
        return (
            pathintegral.HarmonicPotential(float(omega)),
            {"potential": "harmonic", "omega": float(omega)},
        )
    if kind == "file":
        path = _merge(args, config, "potential-file")
        if path is None:
            raise ConfigError("potential file mode needs --potential-file")
        try:
            table = np.loadtxt(path, comments="#", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read potential file: {exc}") from exc
        if table.shape[1] != 2:
            raise ConfigError("potential file needs two columns: x, V")
        return (
            pathintegral.TabulatedPotential(table[:, 0], table[:, 1]),
            {"potential": "file", "potential_file": path},
        )
    raise ConfigError(f"unknown potential {kind!r}, expected free, harmonic, or file")


def _initial_wavefunction(args: argparse.Namespace, config: dict):
    psi_file = _merge(args, config, "psi-file")
    mass = float(_merge(args, config, "mass", 1.0))
    hbar = float(_merge(args, config, "hbar", 1.0))
    if psi_file is not None:
        try:
            table = np.loadtxt(psi_file, comments="#", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read wavefunction file: {exc}") from exc
        if table.shape[1] != 3:
            raise ConfigError("wavefunction file needs three columns: x, re, im")
        if table.shape[0] < 2:
            raise ConfigError("wavefunction file needs at least two rows")
        x = table[:, 0]
        values = table[:, 1] + 1j * table[:, 2]
        dx = x[1] - x[0]
        norm = float(np.sqrt(np.sum(np.abs(values) ** 2) * dx))
        if norm == 0.0:
            raise ConfigError("wavefunction file is identically zero")
        try:
            wf = pathintegral.LatticeWavefunction(
                x=x, values=values / norm, mass=mass, hbar=hbar
            )
        except ValueError as exc:
            raise ConfigError(f"wavefunction file: {exc}") from exc
        return wf, {"psi_file": psi_file, "mass": mass, "hbar": hbar}
    n = _merge(args, config, "grid-n", 1024)
    xmin = float(_merge(args, config, "xmin", -30.0))
    xmax = float(_merge(args, config, "xmax", 30.0))
    x0 = float(_merge(args, config, "x0", 0.0))
    sigma0 = float(_merge(args, config, "sigma0", 1.5))
    k0 = float(_merge(args, config, "k0", 0.0))
    try:
        x = pathintegral.uniform_grid(n, xmin, xmax)
        wf = pathintegral.gaussian_packet(x, x0, sigma0, k0, mass=mass, hbar=hbar)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return wf, {
        "grid_n": n, "xmin": xmin, "xmax": xmax, "x0": x0,
        "sigma0": sigma0, "k0": k0, "mass": mass, "hbar": hbar,
    }


def _cmd_propagate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    seed = _merge(args, config, "seed")
    out = _merge(args, config, "out")
    fmt = _merge(args, config, "format", "csv")
    eps = _merge(args, config, "eps")
    if eps is None:
        raise ConfigError("propagate needs --eps")
    eps = float(eps)
    steps = _merge(args, config, "steps")
    times = _merge(args, config, "times")
    if steps is None and times is None:
        raise ConfigError("propagate needs --steps or --times")
    if steps is not None and steps < 0:
        raise ConfigError(f"steps must be a whole number >= 0, got {steps!r}")
    window = _merge(args, config, "window")

    wf, packet_config = _initial_wavefunction(args, config)
    potential, pot_config = _build_potential(args, config)
    run_config = {"experiment": "pathintegral", "eps": eps, **packet_config, **pot_config}
    if window is not None:
        window = float(window)
        run_config["window"] = window

    if times is None:
        try:
            times = [int(steps) * eps]
        except OverflowError:
            raise ConfigError(f"steps = {steps} is past the float range") from None
    times = [float(t) for t in times]
    run_config["times"] = times
    try:
        snapshots, max_drift = pathintegral.propagate_snapshots(
            wf, eps, times, potential, window
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    for t, snap in snapshots:
        mean = pathintegral.expectation_x(snap)
        var = float(
            np.sum((snap.x - mean) ** 2 * snap.probability_density()) * snap.dx
        )
        print(
            f"t = {t:g}: <x> = {mean:.6f}, sigma = {math.sqrt(var):.6f}, "
            f"<v> = {pathintegral.mean_velocity(snap):.6f}"
        )
    print(f"max one-step norm drift: {max_drift:.3e}")

    if out is not None:
        meta = _meta_block(run_config, seed)
        if fmt == "json":
            results = [
                {
                    "t": t,
                    "x": [float(v) for v in snap.x],
                    "re": [float(v) for v in snap.values.real],
                    "im": [float(v) for v in snap.values.imag],
                }
                for t, snap in snapshots
            ]
            _write_json(out, meta, results)
        else:
            rows = []
            for t, snap in snapshots:
                density = snap.probability_density()
                for i in range(snap.n):
                    rows.append(
                        [
                            float(t),
                            float(snap.x[i]),
                            float(density[i]),
                            float(snap.values[i].real),
                            float(snap.values[i].imag),
                        ]
                    )
            _write_csv(out, meta, ["t", "x", "density", "re", "im"], rows)
    return 0


# -- parser ---------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed_flag, default=None, help="master RNG seed")
    parser.add_argument(
        "--engine", choices=["streams", "hilbert", "both"], default=None,
        help="which engine(s) to run",
    )
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument(
        "--format", choices=["json", "csv"], default=None, help="output format"
    )
    parser.add_argument(
        "--threads", type=int, default=None, help="worker cap for sweeps"
    )
    parser.add_argument(
        "--config", default=None,
        help="JSON config file; explicit flags override its values",
    )


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=_angle_flag, default=None,
                        help="phase shift (radians or pi-expression)")
    parser.add_argument("--beta", type=_angle_flag, default=None,
                        help="right-side phase shift")
    parser.add_argument("--theta", type=_angle_flag, default=None,
                        help="common arm pathlength phase")
    parser.add_argument("--peek", action=argparse.BooleanOptionalAction, default=None,
                        help="which-path marking after the first splitter")
    parser.add_argument("--blocked-arm", choices=["a", "b", "none"], default=None)
    parser.add_argument("--angles", type=str, default=None,
                        help="chsh settings a,a',b,b' (pi-expressions allowed)")
    parser.add_argument("--shots", type=int, default=None,
                        help="Monte Carlo shots (omit for exact probabilities)")
    parser.add_argument("--circuit-file", default=None,
                        help="circuit description file for 'run circuit'")


def _add_propagate_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-n", type=int, default=None, help="grid points")
    parser.add_argument("--xmin", type=_finite_float, default=None)
    parser.add_argument("--xmax", type=_finite_float, default=None)
    parser.add_argument("--x0", type=_finite_float, default=None, help="packet centre")
    parser.add_argument("--sigma0", type=_finite_float, default=None, help="packet width")
    parser.add_argument("--k0", type=_finite_float, default=None, help="packet wavenumber")
    parser.add_argument("--mass", type=_finite_float, default=None)
    parser.add_argument("--hbar", type=_finite_float, default=None)
    parser.add_argument("--eps", type=_finite_float, default=None, help="time step")
    parser.add_argument("--steps", type=int, default=None, help="number of steps")
    parser.add_argument("--times", type=_float_list, default=None,
                        help="snapshot times, comma separated, multiples of eps")
    parser.add_argument("--potential", choices=["free", "harmonic", "file"], default=None)
    parser.add_argument("--omega", type=_finite_float, default=None,
                        help="harmonic angular frequency")
    parser.add_argument("--potential-file", default=None,
                        help="two-column x, V table")
    parser.add_argument("--psi-file", default=None,
                        help="three-column x, re, im initial wavefunction")
    parser.add_argument("--window", type=_finite_float, default=None,
                        help="kernel truncation radius (default: untruncated kernel)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowsim",
        description="Stream and state-vector simulators for optical circuits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and print its table")
    p_run.add_argument("experiment", nargs="?", choices=list(EXPERIMENTS))
    _add_common(p_run)
    _add_experiment_args(p_run)
    _add_propagate_args(p_run)

    p_sweep = sub.add_parser("sweep", help="run an experiment over a parameter grid")
    p_sweep.add_argument("experiment", nargs="?", choices=list(SWEEPABLE))
    p_sweep.add_argument("--grid", type=_grid_spec, default=None,
                         help="start:stop:count, pi-expressions allowed")
    _add_common(p_sweep)
    _add_experiment_args(p_sweep)

    p_check = sub.add_parser("check", help="run the full invariant suite")
    _add_common(p_check)
    p_check.add_argument("--corpus-cases", type=int, default=None,
                         help="randomized circuits for the cross-engine check")
    p_check.add_argument("--shots", type=int, default=None,
                         help="Monte Carlo shots for the statistical checks")

    p_prop = sub.add_parser("propagate", help="lattice propagation of a wavepacket")
    _add_common(p_prop)
    _add_propagate_args(p_prop)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "check": _cmd_check,
        "propagate": _cmd_propagate,
    }
    try:
        return handlers[args.command](args)
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
