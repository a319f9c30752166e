"""Benchmark of the shadowsim command line, driven from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` there.  The benchmark is a closed loop with one client; it starts
one program process at a time and waits for it to exit.  No ``--threads``
flag is passed, so the program runs with its defaults (one sweep thread,
OpenBLAS at its own thread count).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each a
median over the invocations of one run of ``--seconds`` seconds:

* ``setup_s``: wall time of ``python3 -m shadowsim.cli --version`` from
  spawn to exit (imports and parser build), sampled before every
  SETUP_EVERY-th workload invocation;
* ``wall_s``: wall time of one workload invocation from spawn to exit.  The
  process does what the ``shadowsim`` entry point does, importing
  ``shadowsim.cli`` and calling ``main(argv)`` (through tracer.py, untraced,
  so that it can also report the time spent inside ``main``);
* ``peak_rss_mb``: the invocation's peak resident set, from ``os.wait4``;
* ``work_per_s``: the workload's work units per second of ``main``, so
  start-up is excluded; the unit is grid points x engines (sweep-mz),
  enumerated paths (ladder), grid sites x steps (lattice) or checks (check).

``--trace 1`` repeats, for the same time, one ``python -X importtime``
start-up breakdown and one traced plus one untraced in-process run of the
same argv (see tracer.py).  It reports the per-layer metrics of
BENCHMARK.json as medians over the repetitions; a layer the workload
leaves idle reads 0, as do percentiles of functions called fewer than 20
times.

Every invocation's output is checked against the workload's tolerance; one
that exits non-zero, prints a traceback or falls outside the tolerance
counts as failed.  Inputs are generated from ``--seed`` alone.  Samples,
the sha256 of every data file, and (traced) the environment and the spans
are written under ``perfbench/out/``.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = BENCH / "out"

RUN_LIMIT_S = 165.0  # every run must end within 180 s
MIN_REPEATS = 3  # workload invocations per untraced run, at least
SETUP_EVERY = 2  # one --version start-up sample per this many invocations
TWO_PI = 2.0 * math.pi


# -- workloads ------------------------------------------------------------------

@dataclass
class Invocation:
    """One workload's CLI call, its size and its correctness check."""

    argv: list[str]
    out: Path | None  # data file written by the CLI; None when it writes none
    units: float  # work done by one invocation, in `unit`
    unit: str  # name of the rate this workload's work_per_s stands for
    check: Callable[[str, Path | None], list[str]]  # (stdout, out) -> problems
    inputs: dict


SWEEP_GRID = 501  # seeded: rng.substream makes the sweep O(G^2), ~2.5 s here
LADDER_SPLITTERS = 16  # 2**16 = 65,536 paths
LATTICE_N, LATTICE_STEPS, LATTICE_EPS, LATTICE_SIGMA0 = 4096, 20, 0.5, 1.5
LATTICE_X = (-30.0, 30.0)  # the CLI's default grid span
CHECKS_AT_SEED = 17


def rel(path: Path) -> str:
    """Path as passed to the CLI: relative to the checkout root, so that the
    files it writes do not depend on where the checkout lives."""
    return str(path.relative_to(ROOT))


def sweep_mz(rng: random.Random, work: Path) -> Invocation:
    """Seeded MZ sweep over G points, both engines."""
    g = SWEEP_GRID
    out = work / "sweep-mz.csv"
    seed = rng.randrange(1, 2**31)
    step = TWO_PI / (g - 1)

    def check(stdout: str, path: Path | None) -> list[str]:
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith("# "):
            return ["missing metadata line"]
        if lines[1:2] != ["alpha,outcome,probability,engine,seed"]:
            return [f"unexpected header {lines[1:2]}"]
        seen, problems = set(), []
        for alpha_s, outcome, p_s, engine, point_seed in csv.reader(lines[2:]):
            alpha, p = float(alpha_s), float(p_s)
            i = round(alpha / step)
            exact = i * step  # numpy.linspace computes the grid the same way
            if i == g - 1:
                exact = TWO_PI
            if abs(alpha - exact) > 1e-9 or not point_seed:
                problems.append(f"row alpha={alpha_s} seed={point_seed!r} off the seeded grid")
                continue
            want = {"u": math.cos(exact / 2) ** 2, "d": math.sin(exact / 2) ** 2}.get(outcome)
            if want is None or abs(p - want) > 1e-12:
                problems.append(f"P({outcome}) = {p_s} at alpha={alpha_s} [{engine}]")
            seen.add((i, engine, outcome))
        if len(seen) != 4 * g:
            problems.append(f"{len(seen)} distinct rows, want {4 * g}")
        return problems[:5]

    argv = ["sweep", "mz", "--grid", f"0:2pi:{g}", "--engine", "both",
            "--seed", str(seed), "--out", rel(out)]
    return Invocation(argv, out, 2.0 * g, "points_per_s", check, {"seed": seed, "grid": g})


def ladder_circuit(k: int, phases: list[float]) -> str:
    """Source, k cascaded balanced splitters (both outputs feed the next),
    two detectors; one pathlength phase per link."""
    lines = ["element src source"]
    lines += [f"element bs{j} beamsplitter" for j in range(k)]
    lines += ["element u detector:u", "element d detector:d"]
    links = [("src:0", "bs0:0")]
    for j in range(k - 1):
        links += [(f"bs{j}:0", f"bs{j + 1}:0"), (f"bs{j}:1", f"bs{j + 1}:1")]
    links += [(f"bs{k - 1}:0", "d:0"), (f"bs{k - 1}:1", "u:0")]
    for (src, dst), phase in zip(links, phases):
        lines.append(f"link {src} {dst} phase={phase!r}")
    return "\n".join(lines) + "\n"


def ladder(rng: random.Random, work: Path) -> Invocation:
    """k-splitter ladder through both engines: scale is path count."""
    k = LADDER_SPLITTERS
    phases = [rng.uniform(0.0, TWO_PI) for _ in range(2 * k + 1)]
    circuit = work / "ladder.circuit"
    circuit.write_text(ladder_circuit(k, phases), encoding="utf-8")
    out = work / "ladder.json"
    seed = rng.randrange(1, 2**31)

    def check(stdout: str, path: Path | None) -> list[str]:
        results = json.loads(path.read_text(encoding="utf-8"))["results"]
        probs = {
            r["engine"]: {row["outcome"]: row["probability"] for row in r["outcomes"]}
            for r in results
        }
        if set(probs) != {"streams", "hilbert"}:
            return [f"engines {sorted(probs)}"]
        problems = []
        for engine, table in probs.items():
            if set(table) != {"u", "d"}:
                problems.append(f"{engine} terminals {sorted(table)}")
            elif abs(sum(table.values()) - 1.0) > 1e-12:
                problems.append(f"{engine} probabilities sum to {sum(table.values())!r}")
        for key in ("u", "d"):
            dp = abs(probs["streams"].get(key, 0.0) - probs["hilbert"].get(key, 0.0))
            if dp > 1e-12:
                problems.append(f"engines differ by {dp:.3e} at {key}")
        return problems

    argv = ["run", "circuit", "--circuit-file", rel(circuit), "--engine", "both",
            "--seed", str(seed), "--out", rel(out)]
    return Invocation(argv, out, float(2**k), "paths_per_s", check,
                      {"seed": seed, "splitters": k, "link_phases": phases})


def lattice(rng: random.Random, work: Path) -> Invocation:
    """Dense-kernel free-packet propagation at N = 4096."""
    n, steps, eps, sigma0 = LATTICE_N, LATTICE_STEPS, LATTICE_EPS, LATTICE_SIGMA0
    t = steps * eps
    sigma_t = sigma0 * math.sqrt(1.0 + (t / (2.0 * sigma0**2)) ** 2)  # m = hbar = 1
    x0 = round(rng.uniform(-4.0, 4.0), 6)
    k0 = round(rng.uniform(-0.3, 0.3), 6)
    if abs(x0 + k0 * t) + 6.0 * sigma_t > LATTICE_X[1]:
        raise ValueError("the packet must end 6 sigma(t) clear of the hard walls")
    out = work / "lattice.csv"

    def check(stdout: str, path: Path | None) -> list[str]:
        match = re.search(r"max one-step norm drift: (\S+)", stdout)
        if match is None:
            return ["no norm drift line on stdout"]
        problems = []
        if not float(match.group(1)) < 1e-3:
            problems.append(f"norm drift {match.group(1)}")
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[1:2] != ["t,x,density,re,im"]:
            return problems + [f"unexpected header {lines[1:2]}"]
        rows = [[float(v) for v in row] for row in csv.reader(lines[2:])]
        if len(rows) != n or any(abs(r[0] - t) > 1e-9 for r in rows):
            return problems + [f"{len(rows)} rows, want {n} at t = {t}"]
        dx = (rows[-1][1] - rows[0][1]) / (n - 1)  # 12-digit x: a span, not a difference
        norm = sum(r[2] for r in rows) * dx
        mean = sum(r[1] * r[2] for r in rows) * dx / norm
        var = sum((r[1] - mean) ** 2 * r[2] for r in rows) * dx / norm
        rel = abs(math.sqrt(var) - sigma_t) / sigma_t
        if abs(norm - 1.0) > 1e-6:
            problems.append(f"norm {norm!r}")
        if rel > 1e-3:
            problems.append(f"sigma(t) off the spreading law by {rel:.3e}")
        return problems

    argv = ["propagate", "--grid-n", str(n), "--steps", str(steps), "--eps", str(eps),
            "--x0", repr(x0), "--k0", repr(k0), "--out", rel(out)]
    return Invocation(argv, out, float(n * steps), "site_steps_per_s", check,
                      {"x0": x0, "k0": k0, "sigma_t": sigma_t})


def check_suite(rng: random.Random, work: Path) -> Invocation:
    """The invariant suite at default power (500 circuits, 10**6 shots)."""
    seed = rng.randrange(1, 2**31)

    def check(stdout: str, path: Path | None) -> list[str]:
        lines = stdout.strip().splitlines()
        match = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1] if lines else "")
        if match is None:
            return ["no summary line"]
        passed, total = int(match.group(1)), int(match.group(2))
        if passed != total or total < CHECKS_AT_SEED:
            return [line for line in lines if line.startswith("FAIL")] or [lines[-1]]
        return []

    return Invocation(["check", "--seed", str(seed)], None, float(CHECKS_AT_SEED),
                      "checks_per_s", check, {"seed": seed})


WORKLOADS = {
    "sweep-mz": sweep_mz,
    "ladder": ladder,
    "lattice": lattice,
    "check": check_suite,
}


# -- running the program --------------------------------------------------------

ENV = dict(os.environ, PYTHONPATH=str(SRC))
VERSION = [sys.executable, "-m", "shadowsim.cli", "--version"]
IMPORTTIME = [sys.executable, "-X", "importtime", "-c", "import shadowsim.cli"]


@dataclass
class Exit:
    rc: int
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(cmd: list[str], work: Path, tag: str, deadline: float) -> Exit:
    """Run ``cmd`` to completion; wall time from spawn to exit, peak RSS."""
    out_path, err_path = work / f"{tag}.stdout", work / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        rc=proc.returncode,
        seconds=seconds,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def problems_of(result: Exit, inv: Invocation, stdout: str) -> list[str]:
    problems = []
    if result.rc != 0:
        problems.append(f"exit code {result.rc}")
    if "Traceback" in result.stderr:
        problems.append("traceback on stderr")
    if not problems:
        try:
            problems += inv.check(stdout, inv.out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return problems


def digest(inv: Invocation, stdout: str) -> str:
    data = inv.out.read_bytes() if inv.out is not None and inv.out.exists() else stdout.encode()
    return hashlib.sha256(data).hexdigest()


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per package from ``-X importtime`` output.

    A package counts once, at the outermost place it appears: an entry is
    summed only when the entry that imported it is not the same package.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative) / 1e6))
    packages = {
        "import.shadowsim_s": "shadowsim",
        "import.numpy_s": "numpy",
        "import.scipy_stats_s": "scipy.stats",
        "import.scipy_linalg_s": "scipy.linalg",
    }
    times = {}
    for metric, package in packages.items():
        def inside(name: str) -> bool:
            return name == package or name.startswith(package + ".")

        total = 0.0
        for i, (indent, name, cumulative) in enumerate(entries):
            # importtime prints an import after everything it imported, so
            # the importer is the next entry with a smaller indent.
            parent = next((e[1] for e in entries[i + 1:] if e[0] < indent), "")
            if inside(name) and not inside(parent):
                total += cumulative
        times[metric] = total
    return times


# -- the two kinds of run -------------------------------------------------------

def call_main(inv: Invocation, work: Path, traced: bool, deadline: float):
    """One process that imports the program and calls ``cli.main(argv)``,
    as the ``shadowsim`` entry point does (see tracer.py).

    Returns the process exit, its record (None on failure) and its problems.
    """
    record, stdout_file = work / "record.json", work / "main.stdout"
    for stale in (inv.out, record, stdout_file):
        if stale is not None:
            stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "tracer.py"), "--src", str(SRC),
           "--record", str(record), "--stdout", str(stdout_file)]
    cmd += ["--trace"] if traced else []
    result = spawn(cmd + ["--"] + inv.argv, work, "main", deadline)
    stdout = stdout_file.read_text(encoding="utf-8") if stdout_file.exists() else ""
    problems = problems_of(result, inv, stdout)
    if not problems and not record.exists():
        problems = ["no record written"]
    if problems:
        return result, None, problems
    data = json.loads(record.read_text(encoding="utf-8"))
    data["sha256"] = digest(inv, stdout)
    return result, data, []


def run_untraced(inv: Invocation, work: Path, seconds: float, deadline: float) -> dict:
    setup, wall, main_s, rss, digests, failures = [], [], [], [], [], []
    start = time.monotonic()
    while True:
        if len(wall) % SETUP_EVERY == 0:
            version = spawn(VERSION, work, "version", deadline)
            if version.rc != 0 or not version.stdout.startswith("shadowsim "):
                failures.append(f"--version: exit {version.rc}, {version.stdout.strip()!r}")
            setup.append(version.seconds)
        result, data, problems = call_main(inv, work, False, deadline)
        wall.append(result.seconds)
        rss.append(result.rss_mb)
        if problems:
            failures.append("workload: " + "; ".join(problems))
        else:
            main_s.append(data["main_s"])
            digests.append(data["sha256"])
        n, elapsed = len(wall), time.monotonic() - start
        if n >= MIN_REPEATS and elapsed * (n + 1) / n > seconds:
            break
        if time.monotonic() + 2 * elapsed / n > deadline:
            break
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(wall),
        "peak_rss_mb": statistics.median(rss),
        "work_per_s": inv.units / statistics.median(main_s or wall),
    }
    return {
        "metrics": metrics,
        "attempted": len(setup) + len(wall),
        "failures": failures,
        "samples": {"setup_s": setup, "wall_s": wall, "main_s": main_s, "peak_rss_mb": rss},
        "digests": digests,
    }


def run_traced(inv: Invocation, work: Path, seconds: float, deadline: float) -> dict:
    reps, digests, failures, overhead, attempted = [], [], [], [], 0
    environment, tails = None, {}
    start = time.monotonic()
    while True:
        imports = spawn(IMPORTTIME, work, "importtime", deadline)
        attempted += 1
        if imports.rc != 0:
            failures.append(f"importtime: exit {imports.rc}")
        rep = import_times(imports.stderr)
        main_s = {}
        for traced in (True, False):
            _, data, problems = call_main(inv, work, traced, deadline)
            attempted += 1
            if problems:
                failures.append(f"{'traced' if traced else 'untraced'}: " + "; ".join(problems))
                continue
            main_s[traced] = data["main_s"]
            digests.append(data["sha256"])
            if traced:
                rep.update(data["metrics"])
                environment, tails = data["environment"], data["tail_percentile"]
                (work / "spans.json").write_text(json.dumps(data["spans"]), encoding="utf-8")
        if len(main_s) == 2:
            overhead.append(main_s[True] - main_s[False])
            rep["trace.overhead_s"] = overhead[-1]
            reps.append(rep)
        n, elapsed = len(reps), time.monotonic() - start
        if n >= 1 and elapsed * (n + 1) / n > seconds:
            break
        if n == 0 or time.monotonic() + 2 * elapsed / n > deadline:
            break
    names = set().union(*reps) if reps else set()
    metrics = {name: statistics.median(rep.get(name, 0.0) for rep in reps) for name in names}
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "samples": {"repetitions": len(reps), "trace.overhead_s": overhead},
        "digests": digests,
        "environment": environment,
        "tail_percentile": tails,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "shadowsim" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/shadowsim", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + RUN_LIMIT_S
    work = OUT / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    inv = WORKLOADS[args.workload](random.Random(f"{args.workload}/{args.seed}"), work)
    run = (run_traced if args.trace else run_untraced)(inv, work, args.seconds, deadline)

    metrics = {name: run["metrics"].get(name, 0.0) for name in units}
    failed = len(run["failures"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "argv": inv.argv,
        "inputs": inv.inputs,
        "sha256": sorted(set(run["digests"])),
        **run,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )

    print(f"workload {args.workload}, seed {args.seed}: shadowsim {' '.join(inv.argv)}")
    tails = run.get("tail_percentile", {})
    for name, value in metrics.items():
        note = ""
        if name in run["samples"]:
            note = f"median of {len(run['samples'][name])}"
        if name == "work_per_s":
            note = f"{inv.unit}, excludes start-up"
        if name.endswith(".tail_us") and name[: -len(".tail_us")] in tails:
            note = f"p{tails[name[: -len('.tail_us')]]:.4g}"
        print(f"  {name:44s} {value:14.6g} {units[name]:6s} {note}")
    print(f"  {'fail_ratio':44s} {failed / run['attempted']:14.6g} ratio  "
          f"{failed}/{run['attempted']} invocations")
    for problem in run["failures"][:10]:
        print(f"  FAILED: {problem}")
    for sha in record["sha256"]:
        print(f"  sha256 {sha}  {inv.out.name if inv.out else 'stdout'}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
