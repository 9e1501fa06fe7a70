"""Benchmark runner for sliceseg.

    python3 perfbench/run.py --workload train_step --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Builds the workload's inputs from ``--seed``, sets the workload up several
times, runs whole cycles of operations for ``--seconds`` and checks every
output. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the same cycles
are run a second time under the tracer and the metrics are the per-layer
ones. ``--workload all`` runs every workload in its own process and
prints a summary table. The exit code is 1 when any check failed.
"""
import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKLOAD_NAMES = ("train_step", "predict_volume", "grid_run")
# BLAS runs single-threaded: on a 2-vCPU virtual machine shared with other
# guests, one thread gave the steadiest figures.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "slices_per_s": "1/s", "op_ms_p50": "ms",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sliceseg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import sliceseg from this checkout's ``src`` and nowhere else."""
    init = os.path.join(SRC, "sliceseg", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: sliceseg sources not found at {init}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import sliceseg
    if os.path.realpath(sliceseg.__file__) != os.path.realpath(init):
        sys.exit(f"error: imported sliceseg from {sliceseg.__file__}, expected {init}")
    return sliceseg


def git_commit() -> str:
    """Commit of the checkout read from ``.git``, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, workload: str) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": seed, "git_commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def measure(workload, calibration=None, seconds=None, cycles=None):
    """Run whole cycles until ``seconds`` have passed or ``cycles`` ran,
    with a block of the reference kernel on ``calibration``, if given,
    after every operation. Returns the operations and each cycle's
    (slices, timed seconds)."""
    import calibrate
    ops, per_cycle = [], []
    if calibration is not None:
        calibration.block(calibrate.WARMUP_S)
        calibration.reset()

    def pause(op_seconds):
        if calibration is None:
            return 0.0
        return calibration.block(calibrate.BLOCK_SHARE * op_seconds)

    start = time.perf_counter()
    while True:
        cycle_ops, cycle_seconds = workload.run_cycle(pause)
        ops += cycle_ops
        per_cycle.append((sum(op.slices for op in cycle_ops), cycle_seconds))
        if (len(per_cycle) >= cycles) if cycles is not None \
                else (time.perf_counter() - start >= seconds):
            return ops, per_cycle


def by_cell(ops) -> dict[str, list[float]]:
    cells: dict[str, list[float]] = {}
    for op in ops:
        cells.setdefault(op.cell, []).append(op.seconds)
    return cells


def end_to_end(ops, per_cycle, scale, setup_s, import_s, setup_times, setup_scale):
    """End-to-end metrics; times are wall times multiplied by the scale of
    the calibration blocks run alongside them (``calibrate``)."""
    samples = by_cell(ops)
    slices = sum(n for n, _ in per_cycle)
    timed = sum(t for _, t in per_cycle)
    rate = slices / timed
    p50 = 1000.0 * stats.cell_median_geomean(samples)
    pooled_tail = stats.tail([op.seconds for op in ops])
    metrics = {
        "setup_s": setup_s * setup_scale,
        "slices_per_s": rate / scale,
        "op_ms_p50": p50 * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"wall {setup_s:.3f} s x {setup_scale:.4f}; imports {import_s:.3f} s + "
                   "median of set-ups " + ", ".join(f"{t:.3f}" for t in setup_times) + " s",
        "slices_per_s": f"wall {rate:.4f}/s / {scale:.4f}; {slices} slices in {timed:.3f} s "
                        f"over {len(per_cycle)} cycles",
        "op_ms_p50": f"wall {p50:.2f} ms x {scale:.4f}; geometric mean of {len(samples)} "
                     f"cell medians, n={len(ops)}"
                     + (f"; pooled wall p{pooled_tail[1]:.1f}={1000 * pooled_tail[0]:.1f} ms"
                        if pooled_tail else ""),
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, notes


def run_workload(args) -> int:
    sliceseg = import_program()
    import_s = time.perf_counter() - PROCESS_START
    import calibrate
    import workloads
    from tracer import Tracer
    env = environment(args.seed, args.workload)
    print("env " + json.dumps(env, sort_keys=True))

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        failures, attempted_checks = [], 0
        setup_tracer = Tracer(sliceseg)
        setup_times = []
        setup_calibration = calibrate.Calibration()
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            with setup_tracer if args.trace else contextlib.nullcontext():
                failures += workload.setup()
            setup_times.append(time.perf_counter() - t0)
            setup_calibration.block(calibrate.SETUP_BLOCK_S)
            attempted_checks += workload.SETUP_CHECKS
        for msg in failures:
            print(f"check failed: {msg}")

        calibration = calibrate.Calibration()
        ops, per_cycle = measure(workload, calibration, seconds=args.seconds)
        print_calibration("set-up", setup_calibration)
        print_calibration("run", calibration)
        if args.trace:
            # No kernel blocks here: in grid_run they would run inside the
            # cli.run_grid span. The untraced run just before gives the scale.
            tracer = Tracer(sliceseg)
            with tracer:
                traced_ops, traced_cycles = measure(workload, cycles=len(per_cycle))
            timed = sum(t for _, t in per_cycle)
            traced_timed = sum(t for _, t in traced_cycles)
            metrics, notes = layer_metrics(
                tracer, traced_ops, traced_timed, setup_tracer, setup_calibration.scale,
                ops, timed, calibration.scale, workloads.all_cell_names())
            print_tracer_table(tracer, traced_timed)
            all_ops = ops + traced_ops
        else:
            setup_s = import_s + statistics.median(setup_times)
            metrics, notes = end_to_end(ops, per_cycle, calibration.scale, setup_s, import_s,
                                        setup_times, setup_calibration.scale)
            all_ops = ops
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    attempted = len(all_ops) + attempted_checks
    failed = sum(not op.ok for op in all_ops) + len(failures)
    for cell, xs in by_cell(ops).items():
        print(f"cell {cell:<39} n={len(xs):<4} p50={1000 * statistics.median(xs):.1f} ms"
              f" min={1000 * min(xs):.1f} ms")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']:<8} {notes.get(name, '')}")
    print(f"{'failed_frac':<44} {failed / attempted:>14.6g} {'frac':<8} {failed}/{attempted}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


def print_calibration(name: str, calibration) -> None:
    q = statistics.quantiles(calibration.blocks, n=4) if len(calibration.blocks) > 1 else []
    print(f"calibration {name}: {len(calibration.blocks)} blocks, median "
          f"{1000 * calibration.rep_s:.3f} ms per repetition"
          + (f" (quartiles {1000 * q[0]:.3f}, {1000 * q[2]:.3f})" if q else "")
          + f", scale {calibration.scale:.4f}")


def layer_metrics(tracer, traced_ops, traced_timed, setup_tracer, setup_scale,
                  ops, timed, scale, cells):
    """Per-layer metrics: times in ms and counts per traced operation, set-up
    times per set-up, per-cell latencies from the untraced operations.
    Set-up times are multiplied by the set-up calibration's scale, the
    others by the untraced run's."""
    n = len(traced_ops)
    busy = tracer.busy

    def ms(*spans):
        return 1000.0 * scale * sum(busy.get(s, 0.0) for s in spans) / n

    resample = [f"ops.{op}_{part}" for op in ("maxpool_with_indices", "max_unpool",
                                              "upsample_nearest") for part in ("fwd", "bwd")]
    conv_fwd_s = busy.get("ops.conv2d_fwd", 0.0) + busy.get("ops.conv3d_fwd", 0.0)
    op_bwd = ["ops.conv2d_bwd", "ops.conv3d_bwd", "ops.batch_norm_bwd"] + resample[1::2]
    values = {
        "ops.conv2d_fwd_ms": (ms("ops.conv2d_fwd"), "ms/op"),
        "ops.conv3d_fwd_ms": (ms("ops.conv3d_fwd"), "ms/op"),
        "ops.conv2d_bwd_ms": (ms("ops.conv2d_bwd"), "ms/op"),
        "ops.conv3d_bwd_ms": (ms("ops.conv3d_bwd"), "ms/op"),
        "ops.conv_calls": ((tracer.calls["ops.conv2d_fwd"] + tracer.calls["ops.conv3d_fwd"]) / n,
                           "count/op"),
        "ops.conv_macs": (tracer.counts["conv_macs"] / n, "count/op"),
        "ops.conv_gmac_per_s": (tracer.counts["conv_macs"] / (conv_fwd_s * scale) / 1e9
                                if conv_fwd_s else 0.0, "GMAC/s"),
        "ops.batch_norm_fwd_ms": (ms("ops.batch_norm_fwd"), "ms/op"),
        "ops.batch_norm_bwd_ms": (ms("ops.batch_norm_bwd"), "ms/op"),
        "ops.resample_ms": (ms(*resample), "ms/op"),
        "autodiff.backward_ms": (ms("autodiff.backward"), "ms/op"),
        "autodiff.backward_self_ms": (ms("autodiff.backward") - ms(*op_bwd), "ms/op"),
        "autodiff.graph_nodes": (tracer.counts["graph_nodes"] / n, "count/op"),
        "models.forward_ms": (ms("models.forward"), "ms/op"),
        "models.transition_fwd_ms": (ms("models.transition_fwd"), "ms/op"),
        "models.backbone_fwd_ms": (ms("models.backbone_fwd"), "ms/op"),
        "losses.loss_ms": (ms("losses.combined_loss"), "ms/op"),
        "training.adam_step_ms": (ms("training.adam_step"), "ms/op"),
        "data.augment_ms": (ms("data.augment"), "ms/op"),
        "data.augment_calls": (tracer.calls["data.augment"] / n, "count/op"),
        "training.validate_ms": (ms("training.validate"), "ms/op"),
        "training.evaluate_ms": (ms("training.evaluate"), "ms/op"),
        "training.predict_volume_ms": (ms("training.predict_volume"), "ms/op"),
        "analysis.cost_report_ms": (ms("analysis.cost_report"), "ms/op"),
        "cli.load_source_ms": (ms("cli.load_source"), "ms/op"),
        "cli.source_fingerprint_ms": (ms("cli.source_fingerprint"), "ms/op"),
        "volio.load_case_ms": (ms("volio.load_case"), "ms/op"),
        "phantom.generate_cohort_ms": (
            1000.0 * setup_scale * setup_tracer.busy["phantom.generate_cohort"], "ms/setup"),
        "volio.save_case_ms": (1000.0 * setup_scale * setup_tracer.busy["volio.save_case"],
                               "ms/setup"),
    }
    notes = {}
    samples = by_cell(ops)
    for cell in cells:
        xs = [scale * x for x in samples.get(cell, [])]
        tail = stats.tail(xs)
        values[f"cell.{cell}.op_ms_p50"] = (1000.0 * statistics.median(xs) if xs else 0.0, "ms")
        values[f"cell.{cell}.op_ms_tail"] = (1000.0 * tail[0] if tail else 0.0, "ms")
        notes[f"cell.{cell}.op_ms_p50"] = f"n={len(xs)}" if xs else "not in this workload"
        notes[f"cell.{cell}.op_ms_tail"] = (f"p{tail[1]:.1f}, n={len(xs)}" if tail else
                                            f"undefined: n={len(xs)} < {2 * stats.TAIL_BEYOND}")
    values["trace.overhead_frac"] = (traced_timed / timed - 1.0, "frac")
    values["trace.coverage_frac"] = (tracer.total_self_time() / traced_timed, "frac")
    notes["trace.overhead_frac"] = f"traced {traced_timed:.3f} s / untraced {timed:.3f} s - 1"
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, notes


def print_tracer_table(tracer, traced_timed: float) -> None:
    """Every span's busy and self time, as a share of traced wall time."""
    print(f"{'span':<32} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'self_share':>10}")
    for name in sorted(tracer.busy, key=lambda k: -tracer.self_time[k]):
        print(f"{name:<32} {tracer.calls[name]:>8} {tracer.busy[name]:>10.4f} "
              f"{tracer.self_time[name]:>10.4f} {tracer.self_time[name] / traced_timed:>10.4f}")


def run_all(args) -> int:
    """Run every workload in its own process and print a summary table."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})")
            status = 1
            continue
        status = status or proc.returncode
        failed_frac = result["failed"] / result["attempted"]
        rows.append((name, "failed_frac", failed_frac, "frac"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    print()
    print(f"{'workload':<16} {'metric':<44} {'value':>14} unit")
    for name, metric, value, unit in rows:
        print(f"{name:<16} {metric:<44} {value:>14.6g} {unit}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # Fixed before numpy is imported, here or in a workload process.
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
