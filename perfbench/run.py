"""bsradar benchmark: per-scene latency, CPU and memory, with a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload a1-scene --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs one workload as a closed loop with a single caller: the
operations of the workload's cycle run one after another, whole cycles at
a time, while the next cycle is expected to end within ``--seconds`` (at
least one cycle always runs).  numpy and scipy keep their default thread
pools.  Every operation's outputs are checked (``checks.py``); an
operation that raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
warm-up cycle, then spends half the time untraced and half with the layer
functions wrapped (``spans.py``), and reports the per-layer metrics, each
per operation.

The environment, every operation and every metric go to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``; a traced run
also writes its spans next to it.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` as JSON.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import envinfo  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 7
# Start no cycle expected to end later than this after start-up; a run
# must finish within 180 s.
HARD_LIMIT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "scene_s": "s",
    "scene_cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (name, unit, what it sums).  Times are span self
# times, "calls" count spans, "*_mults" are the operation's stage_mults.
PER_LAYER = (
    ("simulate.self_s", "s", ("self", "simulate")),
    ("simulate.bytes_computed", "B", ("bytes", "simulate")),
    ("channelizer.channelize_s", "s", ("fn", "channelizer.channelize")),
    ("channelizer.synthesize_s", "s", ("fn", "channelizer.synthesize")),
    ("channelizer.channelize_mults", "count", ("mults", "channelize")),
    ("channelizer.synthesize_mults", "count", ("mults", "synthesize")),
    ("beamspace.self_s", "s", ("self", "beamspace")),
    ("beamspace.calls", "count", ("calls", "beamspace")),
    ("beamspace.beamspace_fft_mults", "count", ("mults", "beamspace_fft")),
    ("beamspace.windowed_steering_mults", "count", ("mults", "windowed_steering")),
    ("mvdr.self_s", "s", ("self", "mvdr")),
    ("mvdr.calls", "count", ("calls", "mvdr")),
    ("mvdr.covariance_s", "s", ("fn", "mvdr.estimate_covariance")),
    ("mvdr.solve_s", "s", ("fn", "mvdr.mvdr_correlator", "mvdr.reduced_mvdr")),
    ("mvdr.apply_s", "s", ("fn", "mvdr.apply_correlator")),
    ("mvdr.covariance_mults", "count", ("mults", "covariance")),
    ("mvdr.solve_mults", "count", ("mults", "solve")),
    ("mvdr.apply_mults", "count", ("mults", "apply")),
    ("geometry.self_s", "s", ("self", "geometry")),
    ("geometry.calls", "count", ("calls", "geometry")),
    ("detection.range_doppler_s", "s", ("fn", "detection.range_doppler_map")),
    ("detection.cfar_s", "s", ("fn", "detection.cfar_detect")),
    ("detection.cfar_floor_s", "s", ("fn", "detection.cfar_noise_floor")),
    ("detection.score_s", "s", ("fn", "detection.score_detections")),
    ("detection.range_doppler_mults", "count", ("mults", "range_doppler")),
    ("detection.hit_ratio", "ratio", ("op", "hit_ratio")),
    ("pipeline.self_s", "s", ("self", "pipeline")),
    ("cubeio.save_s", "s", ("fn", "cubeio.save_cube")),
    ("cubeio.load_s", "s", ("fn", "cubeio.load_cube")),
    ("cubeio.bytes_written", "B", ("op", "bytes_written")),
    ("trace.overhead_s", "s", ("overhead",)),
    ("trace.unattributed_s", "s", ("glue",)),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="scenario seed (>= 0)")
    parser.add_argument("--seconds", type=int, default=20, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def probe_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        check=True, capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_op(wl, kind: str, refs, tracer) -> dict:
    """One timed operation, then its output check (outside the timing)."""
    gc.collect()
    record = {"kind": kind, "root": None}
    cpu0, t0 = _cpu_s(), perf_counter()
    try:
        if tracer is None:
            out = wl.run(kind)
        else:
            with tracer.root() as record["root"]:
                out = wl.run(kind)
    except Exception as exc:  # an operation that raises counts as failed
        record.update(wall_s=perf_counter() - t0, cpu_s=_cpu_s() - cpu0)
        traceback.print_exc()
        record["errors"] = [f"raised {exc!r}"]
        return record
    record.update(wall_s=perf_counter() - t0, cpu_s=_cpu_s() - cpu0)
    record["errors"] = checks.check(kind, out, *refs)
    if kind == "e2-cube":
        record.update(mults={}, hit_ratio=0.0, bytes_written=out[2])
    else:
        scores = out.scores
        record.update(
            mults=dict(out.complexity.stage_mults),
            hit_ratio=sum(s.detected for s in scores) / len(scores),
            bytes_written=0,
        )
    record["threads"] = envinfo.process_threads()
    return record


def measure(wl, budget_s: float, refs, tracer=None) -> list[dict]:
    """Whole cycles while the next one is expected to fit in ``budget_s``."""
    records: list[dict] = []
    start = perf_counter()
    while True:
        for kind in wl.cycle:
            records.append(run_op(wl, kind, refs, tracer))
            rec = records[-1]
            status = "ok" if not rec["errors"] else "FAILED: " + "; ".join(rec["errors"])
            print(f"# op {len(records)} {kind}: {rec['wall_s']:.3f} s wall, "
                  f"{rec['cpu_s']:.3f} s cpu, {status}", flush=True)
        now = perf_counter()
        cycle_s = (now - start) * len(wl.cycle) / len(records)
        if now - start + cycle_s > budget_s or now - _T0 + cycle_s > HARD_LIMIT_S:
            return records


def layer_values(tracer, plain: list[dict], traced: list[dict]) -> dict:
    """Every per-layer metric, per traced operation."""
    agg = spans.aggregate(tracer.spans, [op["root"] for op in traced])
    zero = (0.0, 0, 0)
    columns = {"self": 0, "calls": 1, "bytes": 2}
    values = {}
    for name, _unit, (source, *keys) in PER_LAYER:
        if source in columns:
            total = agg["layer"].get(keys[0], zero)[columns[source]]
        elif source == "fn":
            total = sum(agg["fn"].get(k, zero)[0] for k in keys)
        elif source == "mults":
            total = sum(op.get("mults", {}).get(keys[0], 0) for op in traced)
        elif source == "op":
            total = sum(op.get(keys[0], 0) for op in traced)
        elif source == "glue":
            total = agg["glue_s"]
        else:  # overhead: traced minus untraced median operation time
            total = len(traced) * (
                statistics.median(op["wall_s"] for op in traced)
                - statistics.median(op["wall_s"] for op in plain)
            )
        values[name] = total / len(traced)
    values["traced_op_s"] = agg["op_s"] / len(traced)
    return values


def run_workload(args) -> int:
    try:
        bsradar = workloads.import_bsradar(ROOT)
    except workloads.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scenario = workloads.build_scenario(bsradar, args.workload, args.seed)
    refs = checks.load_refs(args.seed)
    probes = [] if args.trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    tracer = None
    try:
        wl = workloads.Workload(bsradar, args.workload, scenario, workdir)
        t = perf_counter()
        wl.prepare()
        prepare_s = perf_counter() - t
        if args.trace:
            # one untimed cycle first, so neither half pays first-call costs
            print("# warm-up")
            warmup = measure(wl, 0, refs)
            print("# untraced")
            plain = measure(wl, args.seconds / 2, refs)
            tracer = spans.Tracer()
            tracer.install(bsradar)
            print("# traced")
            try:
                traced = measure(wl, args.seconds / 2, refs, tracer)
            finally:
                tracer.remove()
            ops = warmup + plain + traced
        else:
            ops = measure(wl, args.seconds, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = envinfo.environment(ROOT, args.seed)
    flags = envinfo.thread_flags(env, max(op.get("threads", 0) for op in ops))
    failed = sum(1 for op in ops if op["errors"])
    walls = [op["wall_s"] for op in ops]
    by_kind = None
    if args.trace:
        values = layer_values(tracer, plain, traced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        by_kind = {
            kind: layer_values(
                tracer,
                [op for op in plain if op["kind"] == kind],
                [op for op in traced if op["kind"] == kind],
            )
            for kind in wl.cycle
        }
    else:
        metrics = {
            "setup_s": statistics.median(probes) + prepare_s,
            "scene_s": statistics.median(walls),
            "scene_cpu_s": statistics.median(op["cpu_s"] for op in ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "threads": flags,
        "setup": {"probes_s": probes, "prepare_s": prepare_s},
        "operations": [{k: v for k, v in op.items() if k != "root"} for op in ops],
        "failed_frac": failed / len(ops),
        "metrics": metrics,
        "per_kind": by_kind,
        "references": "seed" if refs[1] is not None else "seed-independent only",
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "bytes"], "spans": tracer.spans})
        )

    blas = ", ".join(f"{p['library']} {p['threads']}" for p in env["blas_threads"])
    print(f"# env: rev {env['git_rev'] or env['source_sha256'][:12]}, {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS threads [{blas}], "
          f"nproc {env['nproc']}, {env['mem_total_mb']:.0f} MB, seed {args.seed}")
    if flags["over_nproc"]:
        print(f"# threads: {flags['max_process_threads']} process threads, more than "
              f"nproc {env['nproc']} (flagged)")
    print(f"# references: {record['references']}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"# scene_s and scene_cpu_s are medians over {len(ops)} operation(s); "
              f"setup_s is the median of {len(probes)} fresh set-ups"
              + (f" plus {prepare_s:.3f} s of cube synthesis" if wl.cube is not None else ""))
    print(f"failed_frac {failed / len(ops):.6g} fraction ({failed} of {len(ops)} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so each peak RSS is its own."""
    worst = 0
    for name in workloads.WORKLOADS:
        print(f"## {name}", flush=True)
        code = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        ).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
