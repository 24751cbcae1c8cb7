"""vblast benchmark: one closed loop, one client, one workload per run.

Usage::

    python3 perfbench/run.py --workload {equiv_grid,ber_sweep,detect_m64} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` times units for S seconds and reports the end-to-end metrics.
``--trace 1`` times S/2 seconds untraced, then S/2 seconds with spans at
every layer boundary, and reports the per-layer metrics plus the tracing
overhead.  End-to-end times are reported at reference speed (see
perfbench/reference.py), wall times alongside.  Outputs are verified after
the timed window; the last line of standard output is the JSON result.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from time import perf_counter

import bootstrap

bootstrap.pin_environment()     # before reference imports numpy
import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 15       # fresh processes timed for setup_s
MIN_UNITS_FOR_P90 = 100
BLOCK_S = 0.25          # units timed between two reference slices


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def measure_setup(workload, seed):
    """Seconds from spawning a fresh probe process until it is ready, as
    (wall, at reference speed) pairs; each probe sits between two slices."""
    samples = []
    before = reference.time_slice()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                              stdout=subprocess.PIPE, text=True, cwd=bootstrap.ROOT) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
        after = reference.time_slice()
        samples.append((t1 - t0, (t1 - t0) * reference.scale(before, after)))
        before = after
    return samples


# one timed unit: latency_s is wall time, scaled_s the same at reference
# speed; counted = (mul+add, div, peak words) of its detector calls; detail
# (traced runs only) holds per-detector wall time and counted work and the
# unit's span totals
Unit = namedtuple("Unit", "index latency_s scaled_s counted detail")


def run_phase(wl, meter, seconds, first_unit, *, detail=False, tracer=None):
    """Closed loop over units for ``seconds``, with a reference slice before
    and after every block of about BLOCK_S; returns (units, kept outputs,
    errors, reference slice times)."""
    from vblast.errors import ContractViolationError, SingularMatrixError

    units, outputs, errors = [], [], []
    slices = [reference.time_slice()]
    block = []          # (index, wall seconds, counted, detail) since the last slice

    def close_block():
        slices.append(reference.time_slice())
        k = reference.scale(slices[-2], slices[-1])
        units.extend(Unit(i, dt, dt * k, counted, info) for i, dt, counted, info in block)
        block.clear()

    u = first_unit
    start = block_start = perf_counter()
    end = start
    while end - start < seconds:
        meter.reset()
        if tracer is not None:
            tracer.unit = u
        t0 = perf_counter()
        try:
            out = wl.run_unit(u)
        except (SingularMatrixError, ContractViolationError) as exc:
            out = None
            errors.append((u, f"{wl.name}: {type(exc).__name__}: {exc}"))
        end = perf_counter()
        info = None
        if detail:
            info = {"det_s": dict(meter.det_s), "det_muladd": dict(meter.det_muladd),
                    "layers": tracer.close_unit() if tracer is not None else {}}
        block.append((u, end - t0, (meter.muladd, meter.cdiv, meter.peak_words), info))
        if out is not None:
            outputs.append((u, wl.keep(u, out)))
        u += 1
        if end - block_start >= BLOCK_S:
            close_block()
            block_start = perf_counter()
    if block:
        close_block()
    return units, outputs, errors, slices


def self_check(units, expected, label):
    """Counted work of every unit must equal the harness's own ledgers."""
    return [
        (r.index, f"self-check ({label}): counted (mul+add, div, peak words) "
                  f"{r.counted} != harness.detector_ledger/detector_mem {expected}")
        for r in units if r.counted != expected
    ]


def git_commit():
    # the ceiling keeps git from reporting a repository that merely encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(bootstrap.ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def manifest(args, wl, vb, n_units, elapsed):
    from importlib import metadata

    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_commit": git_commit(), "vblast": vb.__version__,
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy_version,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {k: os.environ.get(k) for k in bootstrap.PINNED_ENV},
        "nproc": os.cpu_count(), "loop": "closed, 1 client",
        "units": n_units, "trials_per_unit": wl.trials_per_unit,
        "run_seconds": args.seconds, "measured_seconds": round(elapsed, 6),
        "setup_probes": SETUP_PROBES,
    }


def paper_vs_wall(values, vb_harness, wl):
    """The paper's ratios as counted here, by ``harness.run_flops``, and in wall time."""
    m = getattr(wl, "M", None)
    ref = {}
    if m:
        _rows, ratio_rows = vb_harness.run_flops(vb_harness.SweepConfig(m_list=[m]))
        ref = {label: value for _m, _n, label, value in ratio_rows}
    lines = ["paper-vs-wall" + (f" (M=N={m})" if m else " (workload mix)")
             + ": ratio, flop here, flop run_flops, wall"]
    prefix = "metering.flop_ratio."
    for name in (n for n in values if n.startswith(prefix)):
        suffix = name[len(prefix):]
        label = suffix.replace("_over_", "/")
        r = f"{ref[label]:.4f}" if label in ref else "-"
        lines.append(f"  {suffix:30s} {values[name]:.4f}  {r:>7s}"
                     f"  {values['metering.wall_ratio.' + suffix]:.4f}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    try:
        vb = bootstrap.import_vblast()
    except bootstrap.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import metrics
    from instrument import Meter, Tracer
    from vblast import harness
    from workloads import WORKLOADS

    if args.workload not in metrics.WORKLOADS or args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    setup_samples = measure_setup(args.workload, args.seed)
    out_dir = bootstrap.OUT_DIR
    wl = WORKLOADS[args.workload](args.seed, out_dir)
    try:
        wl.setup()
        wl.warm_up()
        with Meter() as meter:
            if args.trace:
                plain, p_out, p_err, slices = run_phase(wl, meter, args.seconds / 2, 0,
                                                        detail=True)
                with Tracer() as tracer:
                    traced, t_out, t_err, _ = run_phase(wl, meter, args.seconds / 2, len(plain),
                                                        detail=True, tracer=tracer)
            else:
                plain, p_out, p_err, slices = run_phase(wl, meter, args.seconds, 0)
                traced, t_out, t_err = [], [], []
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # everything below is outside the timed window
        bad, verified = wl.verify(p_out + t_out)
        bad = p_err + t_err + bad
        expected = wl.expected_counts()
        bad += self_check(plain, expected, "untraced")
        if args.trace:
            bad += self_check(traced, expected, "traced")
            if {r.counted for r in plain} != {r.counted for r in traced}:
                bad.append((None, "self-check: traced and untraced units counted different work"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    records = plain + traced
    elapsed = sum(r.latency_s for r in records)
    failed_units = {u for u, _reason in bad}
    attempted = len(records)
    failed = len(failed_units - {None})
    correct = not bad

    print(f"perfbench {args.workload}: seed={args.seed} trace={args.trace} "
          f"units={attempted} ({len(plain)} untraced, {len(traced)} traced)")
    print("manifest " + json.dumps(manifest(args, wl, vb, attempted, elapsed), sort_keys=True))
    print(f"verified: {verified}")
    print("self-check: counted work per unit "
          + ("matches" if not any("self-check" in r for _u, r in bad) else "DIFFERS from")
          + f" harness.detector_ledger/detector_mem {expected}"
          + ("; traced == untraced" if args.trace and not failed_units & {None} else ""))
    print("setup_s samples (wall/at reference speed): "
          + ", ".join(f"{wall:.4f}/{scaled:.4f}" for wall, scaled in setup_samples))
    if len(plain) < MIN_UNITS_FOR_P90:
        print(f"warning: {len(plain)} untraced units, fewer than {MIN_UNITS_FOR_P90} for p90")
    print(f"failures: {len(bad)} in {failed} of {attempted} units")
    for u, reason in bad:
        print(f"  FAIL unit={u}: {reason}")

    timings = metrics.timings(plain, wl.trials_per_unit, setup_samples, slices)
    print("wall time: " + ", ".join(f"{k[len('bench.wall.'):]}={v:.6g}"
                                    for k, v in timings.items() if k.startswith("bench.wall."))
          + f"; host speed {timings['bench.host_speed']:.4f} of nominal")
    if args.trace:
        values = metrics.per_layer(plain, traced, {**timings, "bench.failed_ratio": failed / attempted})
        spec = metrics.PER_LAYER
        for line in paper_vs_wall(values, harness, wl):
            print(line)
    else:
        values = metrics.end_to_end(plain, timings, rss_mib)
        spec = metrics.END_TO_END
    for name, unit in spec:
        print(f"  {name:48s} {values[name]:.6g} {unit}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
