"""Run one shadowsim CLI argument vector in-process, traced or untraced.

    python3 perfbench/tracer.py --src SRC --record REC.json --stdout OUT.txt \
        [--trace] -- <cli argv ...>

The program is imported from SRC and ``shadowsim.cli.main(argv)`` is called
once, with its standard output sent to OUT.txt.  The record holds the exit
code and the in-process time of ``main``.

With ``--trace`` every public function of the package's layer modules is
wrapped before ``main`` runs, in every namespace that binds it by name (the
package uses from-imports, so rebinding the defining module alone would miss
most calls).  Each wrapped call leaves a span (id, name, start, end, parent)
in memory; spans are written to the record at the end together with the
per-layer metrics derived from them and a record of the environment.  The
program's own files are not touched.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import importlib
import inspect
import json
import math
import os
import platform
import statistics
import sys
import time

LAYERS = (
    "cli", "rng", "circuit", "corpus", "streams",
    "hilbert", "experiments", "pathintegral", "checks",
)
# build_parser stays inside cli.main's self time, which is defined to cover
# argparse as well as config merging, printing and the writers.
UNWRAPPED = {"cli.build_parser"}
# Functions whose self time is one lattice propagation step per counted step.
STEPPERS = ("pathintegral.propagate", "pathintegral.propagate_snapshots", "pathintegral.step")
MIN_CALLS_FOR_PERCENTILES = 20
TAIL_SAMPLES = 10


class Tracer:
    """Spans and counts for one traced call of ``cli.main``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.stack: list[list] = []  # [span id, time covered by children]
        self.next_id = 0
        self.durations: dict[str, list[float]] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.health: dict[str, float] = {}
        self.streams: list = []

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def worst(self, key: str, value: float, pick=max) -> None:
        self.health[key] = value if key not in self.health else pick(self.health[key], value)

    def wrap(self, name: str, fn, observe=None):
        perf = time.perf_counter
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            frame = [self.next_id, 0.0]
            self.next_id += 1
            self.stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                self.stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.spans.append(
                    (frame[0], name, start, end, None if parent is None else parent[0])
                )
                self.durations.setdefault(name, []).append(duration)
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, result, bound.arguments)
            return result

        return traced


# -- counts taken from return values ------------------------------------------

def _paths(tr: Tracer, result, args) -> None:
    tr.add("circuit.paths", len(result))


def _shots(tr: Tracer, result, args) -> None:
    tr.add("experiments.shots", result.shots)


def _kernel(tr: Tracer, result, args) -> None:
    wf, eps = args["wf"], args["eps"]
    tr.add("pathintegral.kernel_bytes", result.nbytes)
    ghost = 2.0 * math.pi * wf.hbar * eps / (wf.mass * wf.dx)
    tr.worst("pathintegral.aliasing_margin", ghost / float(wf.x[-1] - wf.x[0]), min)


def _stepped(tr: Tracer, steps: int, wf) -> None:
    tr.add("pathintegral.steps", steps)
    tr.add("pathintegral.matvec_bytes", steps * 16.0 * wf.n * wf.n)


def _propagate(tr: Tracer, result, args) -> None:
    _stepped(tr, result.steps, args["wf"])
    tr.worst("pathintegral.max_step_drift", result.max_step_drift)


def _propagate_snapshots(tr: Tracer, result, args) -> None:
    snapshots, drift = result
    wf = args["wf"]
    last = max((t for t, _ in snapshots), default=wf.t)
    _stepped(tr, round((last - wf.t) / args["eps"]), wf)
    tr.worst("pathintegral.max_step_drift", drift)


def _step(tr: Tracer, result, args) -> None:
    _stepped(tr, 1, args["wf"])


def _evolution(tr: Tracer, result, args) -> None:
    tr.worst("hilbert.max_norm_drift", result.max_norm_drift)


def _defect(tr: Tracer, result, args) -> None:
    tr.worst("streams.unitarity_defect.max", result)


def _stream(tr: Tracer, result, args) -> None:
    # Unitarity is defined per side only for one-arm sources; the defect is
    # computed after main returns so that it adds nothing to the spans.
    if result.circuit.source_fanout(result.source) == 1:
        tr.streams.append(result)


OBSERVERS = {
    "circuit.enumerate_paths": _paths,
    "experiments.sample": _shots,
    "pathintegral.kernel_matrix": _kernel,
    "pathintegral.propagate": _propagate,
    "pathintegral.propagate_snapshots": _propagate_snapshots,
    "pathintegral.step": _step,
    "hilbert.evolve_circuit": _evolution,
    "streams.unitarity_defect": _defect,
    "streams.build_stream": _stream,
}


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap every public layer function and rebind it wherever it is bound.

    Returns the unwrapped functions by span name.
    """
    originals: dict[str, object] = {}
    wrapped: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"shadowsim.{layer}")
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNWRAPPED
            ):
                originals[name] = obj
                wrapped[id(obj)] = (obj, tracer.wrap(name, obj, OBSERVERS.get(name)))
    circuit_cls = importlib.import_module("shadowsim.circuit").Circuit
    circuit_cls.__init__ = tracer.wrap("circuit.Circuit", circuit_cls.__init__)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "shadowsim" and not mod_name.startswith("shadowsim."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return originals


def layer_metrics(tracer: Tracer, originals: dict[str, object]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus the tail percentile of each
    function that has one."""
    metrics: dict[str, float] = {}
    tail_pct: dict[str, float] = {}
    module_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for name, durations in tracer.durations.items():
        metrics[f"{name}.calls"] = len(durations)
        metrics[f"{name}.self_s"] = tracer.self_s[name]
        module_self[name.split(".", 1)[0]] += tracer.self_s[name]
        if name.startswith("checks.check_"):
            metrics[f"{name}.s"] = sum(durations)
        n = len(durations)
        if n >= MIN_CALLS_FOR_PERCENTILES:
            ordered = sorted(durations)
            metrics[f"{name}.p50_us"] = statistics.median(ordered) * 1e6
            # Highest percentile that still has TAIL_SAMPLES samples above it.
            metrics[f"{name}.tail_us"] = ordered[n - TAIL_SAMPLES - 1] * 1e6
            tail_pct[name] = 100.0 * (n - TAIL_SAMPLES) / n
    for layer, total in module_self.items():
        metrics[f"{layer}.self_s"] = total
    metrics.update(tracer.counts)

    defect = originals["streams.unitarity_defect"]
    for stream in tracer.streams:
        tracer.worst("streams.unitarity_defect.max", defect(stream))
    metrics.update(tracer.health)

    steps = tracer.counts.get("pathintegral.steps", 0.0)
    step_self = sum(tracer.self_s.get(name, 0.0) for name in STEPPERS)
    if steps:
        metrics["pathintegral.step_s"] = step_self / steps
        metrics["pathintegral.matvec_gbs_computed"] = (
            tracer.counts["pathintegral.matvec_bytes"] / step_self / 1e9
        )
    metrics["trace.spans"] = len(tracer.spans)
    return metrics, tail_pct


# -- environment -----------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches: dict[str, str] = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return caches
    for entry in entries:
        try:
            with open(f"{base}/{entry}/level", encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/type", encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{entry}/size", encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
        },
    }


# -- entry point -----------------------------------------------------------------

def _out_path(argv: list[str]) -> str | None:
    for i, arg in enumerate(argv):
        if arg == "--out" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--out="):
            return arg[len("--out="):]
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the shadowsim package")
    parser.add_argument("--record", required=True, help="JSON record to write")
    parser.add_argument("--stdout", required=True, help="file that receives the CLI's stdout")
    parser.add_argument("--trace", action="store_true", help="wrap layer functions in spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    src = os.path.realpath(opts.src)
    sys.path.insert(0, src)
    import shadowsim.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"shadowsim was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = originals = None
    if opts.trace:
        tracer = Tracer()
        originals = install(tracer)
    with open(opts.stdout, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)  # looked up now, so the traced main when wrapped
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        main_s = time.perf_counter() - start

    record: dict = {"argv": argv, "rc": rc, "main_s": main_s, "traced": opts.trace}
    if tracer is not None:
        metrics, tail_pct = layer_metrics(tracer, originals)
        out_path = _out_path(argv)
        out_bytes = os.path.getsize(opts.stdout)
        if out_path is not None and os.path.exists(out_path):
            out_bytes += os.path.getsize(out_path)
        metrics["cli.out_bytes"] = out_bytes
        record.update(
            metrics=metrics,
            tail_percentile=tail_pct,
            environment=environment(),
            spans={
                "fields": ["id", "name", "start", "end", "parent"],
                "rows": tracer.spans,
            },
        )
    with open(opts.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
