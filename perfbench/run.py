#!/usr/bin/env python3
"""Benchmark for protfit.

Runs one workload, or all four one after another (each in a child process
of its own, so that peak memory and set-up time belong to one workload),
through the public protfit API imported from this checkout's ``src/``;
checks every output and prints each metric by name with its unit. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload surface-mixed --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20
    python3 perfbench/run.py --workload score-sat --trace 1

``--trace 0`` measures the end-to-end metrics: ops run back to back until
``--seconds`` have passed. ``setup_s`` is the time to import protfit and its
command-line module, each import timed in a fresh child process, plus the
time of the workload's set-up, each taken as the mean of the middle samples
(see ``middle_mean``); the samples are spread over the timed phase, so that
one slow spell of the host does not set the figure. ``--trace 1`` gives the
per-layer metrics instead: it runs a fixed schedule of ops on two
identically set-up instances of the workload, alternating each untraced op
with its traced twin, so counts repeat exactly and the two sides' summed
times give the tracing overhead. Per-layer self times cover the traced set-up and the
traced schedule. Spans and a result record with the machine description
are written under ``perfbench/out/``. BLAS threads are pinned to one before
numpy is imported.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
IMPORT_PROBE = ("import time; began = time.perf_counter(); import protfit.cli; "
                "print(time.perf_counter() - began)")


def import_program():
    """Import protfit (and its command-line module) from ``src/`` of this
    checkout, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "protfit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no protfit sources under {src}")
    sys.path.insert(0, str(src))
    import protfit
    import protfit.cli  # noqa: F401  (fails here, not mid-run, if the entry point breaks)
    if Path(protfit.__file__).resolve().parent != src / "protfit":
        sys.exit(f"perfbench: imported protfit from {protfit.__file__}, not {src}")


def import_seconds() -> float:
    """Seconds to import protfit and its command-line module, timed inside a
    fresh child process so that the import starts from nothing."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout)


def machine_info() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_version,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


@dataclass
class Phase:
    outputs: list      # op outputs, or the exception an op raised
    durations: list    # seconds per op
    tail: object       # finish() result, or the exception it raised
    wall: float        # seconds of the timed phase, closing step included


def _timed(call):
    """(result or the exception raised, seconds taken)."""
    began = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failing op is counted and the run goes on
        result = exc
    return result, time.perf_counter() - began


def run_ops(workload, seconds: float, pauses=()) -> Phase:
    """Run ops back to back until ``seconds`` of op time have passed and at
    least ``workload.min_ops`` are done, then the workload's closing step.
    Each of ``pauses`` is called once between two ops, evenly spread over
    the phase; the time they take is left out of the phase."""
    outputs, durations = [], []
    pending = list(pauses)
    start = time.perf_counter()
    paused = 0.0
    while True:
        output, took = _timed(lambda: workload.op(len(outputs)))
        outputs.append(output)
        durations.append(took)
        elapsed = time.perf_counter() - start - paused
        if pending and elapsed >= seconds * (1 - len(pending) / (len(pauses) + 1)):
            began = time.perf_counter()
            pending.pop(0)()
            paused += time.perf_counter() - began
        if len(outputs) >= workload.min_ops and elapsed >= seconds:
            break
    began = time.perf_counter()
    for pause in pending:  # ops too long for every pause to fit between them
        pause()
    paused += time.perf_counter() - began
    tail, _ = _timed(lambda: workload.finish(outputs))
    return Phase(outputs, durations, tail, time.perf_counter() - start - paused)


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def check_phase(workload, phase: Phase) -> dict:
    """Failure messages per op index; run-level failures go to the last op."""
    failures = {}
    for i, output in enumerate(phase.outputs):
        if isinstance(output, Exception):
            messages = [f"op raised {_describe(output)}"]
        else:
            try:
                messages = workload.check(i, output) + workload.check_reference(i, output)
            except Exception as exc:
                messages = [f"check raised {_describe(exc)}"]
        if messages:
            failures[i] = messages
    if isinstance(phase.tail, Exception):
        messages = [f"finish raised {_describe(phase.tail)}"]
    else:
        try:
            messages = workload.check_run(phase.tail)
        except Exception as exc:
            messages = [f"run check raised {_describe(exc)}"]
    if messages:
        failures.setdefault(len(phase.outputs) - 1, []).extend(messages)
    return failures


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def middle_mean(values) -> float:
    """Mean of the values left after dropping the lowest and the highest
    quarter. Short timings on a shared host fall into a fast and a slow
    band; the median of a handful jumps between the bands from run to run,
    while this moves smoothly with the share of slow samples and still
    ignores stray outliers."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def measure(workload, spare, seconds: float) -> dict:
    """End-to-end metrics of one workload. ``setup_s`` is taken from
    SETUP_SAMPLES samples, each one child-process import plus one set-up:
    the first sets up ``workload`` before the timed phase, the others set up
    ``spare`` (an identical instance, so the ops' state is untouched) in
    pauses spread over the timed phase, so that the samples see the same
    spells of host speed as the ops do."""
    imports, setups, errors = [], [], []

    def sample(instance):
        try:
            imports.append(import_seconds())
            began = time.perf_counter()
            instance.setup()
            setups.append(time.perf_counter() - began)
        except Exception as exc:
            errors.append(f"set-up raised {_describe(exc)}")

    sample(workload)
    if errors:
        return {"attempted": 1, "failed": 1, "metrics": {}, "failures": {0: errors}}
    phase = run_ops(workload, seconds, [lambda: sample(spare)] * (SETUP_SAMPLES - 1))
    failures = check_phase(workload, phase)
    if errors:
        failures.setdefault(len(phase.outputs) - 1, []).extend(errors)
    n = len(phase.outputs)
    durations = sorted(phase.durations)
    metrics = {
        "setup_s": (middle_mean(imports) + middle_mean(setups),
                    "middle mean of imports " + ", ".join(f"{s:.3f}" for s in imports)
                    + " s + of set-ups " + ", ".join(f"{s:.3f}" for s in setups) + " s"),
        "ops_per_s": (n / phase.wall, f"{n} ops in {phase.wall:.3f} s"),
        "op_p50_ms": (1000.0 * statistics.median(durations), f"median of {n} ops"),
    }
    if n > TAIL_BEYOND:
        rank = n - 1 - TAIL_BEYOND
        metrics["op_tail_ms"] = (1000.0 * durations[rank],
                                 f"p{100.0 * (rank + 1) / n:.1f}, {n} ops, "
                                 f"{TAIL_BEYOND} beyond")
    if workload.variants_per_op:
        variants = n * workload.variants_per_op
        metrics["variants_per_s"] = (variants / phase.wall,
                                     f"{variants} variants incl. wild type "
                                     f"in {phase.wall:.3f} s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "ru_maxrss of the benchmark process")
    metrics["failed_frac"] = (len(failures) / n, f"{len(failures)} failed of {n} attempted")
    return {"attempted": n, "failed": len(failures), "failures": failures,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, overhead: float) -> dict:
    self_s, calls = tracer.self_times()
    counters, samples = tracer.counters, tracer.samples
    forwards = calls.get("gvp.forward_logits", 0)
    passes = tracer.count_nested("gvp.forward_logits", "scoring.score_assay")
    variants = int(counters["scoring.variants"])
    clips = calls.get("training.clip_gradients", 0)
    kept, seen = counters["surface.excise.points_kept"], counters["surface.excise.points_in"]
    points = samples["surface.points"]
    special = {
        "geometry.cross_knn.queries": (int(counters["geometry.cross_knn.queries"]), ""),
        "surface.cloud_io.bytes": (int(counters["surface.cloud_io.bytes"]), ""),
        "surface.points": (statistics.mean(points) if points else 0.0,
                           f"mean over {len(points)} generated clouds"),
        "surface.excise.kept_frac": (_ratio(kept, seen), f"{kept:.0f} of {seen:.0f} points"),
        "gvp.structure_edges": (_ratio(counters["gvp.structure_edges"], forwards),
                                f"per forward, {forwards} forwards"),
        "gvp.surface_edges": (_ratio(counters["gvp.surface_edges"], forwards),
                              f"per forward, {forwards} forwards"),
        "autodiff.tape_nodes": (_ratio(sum(samples["autodiff.tape_nodes"]), forwards),
                                f"per forward, {forwards} forwards"),
        "training.clip_rate": (_ratio(counters["training.clipped"], clips),
                               f"{counters['training.clipped']:.0f} of {clips} steps"),
        "training.grad_norm_p50": (statistics.median(samples["training.grad_norm"])
                                   if clips else 0.0, f"{clips} steps"),
        "scoring.forward_passes": (passes, "forward_logits inside score_assay"),
        "scoring.variants": (variants, "non-wild-type variants scored"),
        "scoring.passes_per_variant": (_ratio(passes, variants),
                                       f"{passes} passes / {variants} variants"),
        "scoring.baseline_fallbacks": (int(counters["scoring.baseline_fallbacks"]),
                                       "variants tagged baseline or mixed"),
        "trace.overhead_frac": (overhead, "traced / untraced schedule wall time - 1"),
    }
    out = {}
    for name in spec.PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".self_s"):
            out[name] = (self_s.get(name[:-len(".self_s")], 0.0), "")
        elif name.endswith(".calls"):
            out[name] = (calls.get(name[:-len(".calls")], 0), "")
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return out


def trace(plain, traced, run_id: str, spans_path: Path) -> dict:
    """Run the same op schedule on two identically set-up instances of one
    workload, alternating an untraced op with its traced twin so that both
    sides see the same machine conditions."""
    from tracing import Tracer
    tracer = Tracer(run_id)
    count = plain.trace_ops
    phases = {plain: Phase([], [], None, 0.0), traced: Phase([], [], None, 0.0)}

    def step(workload, call):
        if workload is traced:
            tracer.install()
        try:
            return _timed(call)
        finally:
            tracer.uninstall()

    try:
        plain.setup()
        plain.op(0)  # warm the allocator and lazy caches before either side is timed
        plain.setup()
        tracer.install()
        try:
            traced.setup()
        finally:
            tracer.uninstall()
    except Exception as exc:
        return {"attempted": 1, "failed": 1, "metrics": {},
                "failures": {0: [f"set-up raised {_describe(exc)}"]}}
    for i in range(count):
        for workload, phase in phases.items():
            output, took = step(workload, lambda: workload.op(i))
            phase.outputs.append(output)
            phase.durations.append(took)
    for workload, phase in phases.items():
        phase.tail, took = step(workload, lambda: workload.finish(phase.outputs))
        phase.wall = sum(phase.durations) + took
    spans_path.write_text(json.dumps({"run": run_id, "absent": tracer.absent,
                                      "spans": tracer.dump()}))
    failures = check_phase(plain, phases[plain])
    for i, messages in check_phase(traced, phases[traced]).items():
        failures[count + i] = ["traced: " + m for m in messages]
    metrics = layer_metrics(tracer, phases[traced].wall / phases[plain].wall - 1.0)
    if tracer.absent:
        print(f"# {plain.name}: absent (reported as 0): {', '.join(tracer.absent)}")
    return {"attempted": 2 * count, "failed": len(failures), "failures": failures,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs and model, for the smoke test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def unit_of(name: str) -> str:
    if name in spec.REPORTED:
        return spec.REPORTED[name]
    return (spec.END_TO_END.get(name) or spec.PER_LAYER[name])["unit"]


def run_workload(args) -> dict:
    """Run one workload in this process; print its metrics and failures and
    return the contract's summary."""
    import_program()
    from workloads import WORKLOADS

    name = args.workload
    machine = machine_info()
    print("# machine: " + json.dumps(machine, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        twins = [WORKLOADS[name](seed=args.seed, scale=args.scale, workdir=workdir / side)
                 for side in ("plain", "twin")]
        for workload in twins:
            workload.workdir.mkdir(parents=True)
        tag = f"{name}-seed{args.seed}" + ("" if args.scale == "full" else f"-{args.scale}")
        if args.trace:
            result = trace(*twins, f"{tag}-pid{os.getpid()}", OUT / f"spans-{tag}.json")
        else:
            result = measure(*twins, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for metric, (value, note) in result["metrics"].items():
        print(f"{name:<20} {metric:<38} {value!r} {unit_of(metric)}"
              + (f"  ({note})" if note else ""))
    for i, messages in sorted(result["failures"].items()):
        for message in messages:
            print(f"# {name} FAILED op {i}: {message}")
    record = {"workload": name, "seed": args.seed, "scale": args.scale,
              "trace": args.trace, "seconds": args.seconds, "machine": machine,
              "attempted": result["attempted"], "failed": result["failed"],
              "failures": {str(k): v for k, v in result["failures"].items()},
              "metrics": {k: {"value": v, "unit": unit_of(k), "note": note}
                          for k, (v, note) in result["metrics"].items()}}
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    emitted = spec.PER_LAYER if args.trace else spec.END_TO_END
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: {"value": result["metrics"][m][0], "unit": unit_of(m)}
                        for m in emitted if m in result["metrics"]}}


def run_all(args) -> dict:
    """Run every workload in a child process of its own, relay what each
    prints, and merge their summaries with metric names prefixed by the
    workload. A child that fails counts as one failed op of its workload and
    the others still run."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--scale", args.scale],
                              capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode or not isinstance(result, dict):
            print(f"# {name} FAILED: exit code {proc.returncode}")
            for line in proc.stderr.strip().splitlines()[-5:]:
                print(f"# {name}   {line}")
            result = {"attempted": 1, "failed": 1, "metrics": {}}
        else:
            print("\n".join(lines[:-1]))
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    summary["correct"] = summary["failed"] == 0
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        import_program()  # fail at once, before any child, if the sources are missing
        summary = run_all(args)
    else:
        summary = run_workload(args)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
