"""voxprop benchmark: time to refined labels, memory and accuracy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see WORKLOADS.md) as a closed loop from the root of a
checkout, using the voxprop in its ``src``. Set-up makes the inputs from
the seed, solves the reference outside every timed section (cached under
``.perfbench/cache``), and runs one untimed warm-up operation. Operations
then run one after another until ``--seconds`` have passed and at least
``MIN_OPS`` have run; every output is checked.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics; its
spans go to ``.perfbench/traces``. The last line of stdout is one JSON
object; every run also writes its samples and environment to
``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: fewest measured operations per run (per mode in a traced run)
MIN_OPS = 2
MIN_TRACED_OPS = 2
#: set-ups per run; set-up pieces are reported as medians
SETUP_REPEATS = 3

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "max_abs_err_digits": "digits",
    "dice_overall": "fraction",
}


@dataclass
class Op:
    seconds: float
    peak_mb: float
    ok: bool
    max_abs_err: float = 0.0
    dice_overall: float = 0.0
    error: str = ""


def environment(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # the config layout differs across numpy versions
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def reference_handles(wl, seed, workdir: Path, cache: Path):
    """(voxels, values) memory maps of the reference for each propagation.

    Solved by ``reference.py`` in a child process, outside every timed
    section, and cached per workload, seed and digest of the inputs and
    of ``reference.py`` itself.
    """
    import numpy as np

    from workloads import BETA, LABEL_IDS

    cache.mkdir(parents=True, exist_ok=True)
    stems, infos = [], []
    for i, (guidance, mask, seeds) in enumerate(wl.reference_inputs()):
        h = hashlib.sha256((HERE / "reference.py").read_bytes())
        for a in (guidance, mask, seeds):
            h.update(np.ascontiguousarray(a).tobytes())
        stem = cache / f"{wl.name}-{seed}-{i}-{h.hexdigest()[:16]}"
        meta = Path(f"{stem}.json")
        if not meta.exists():
            inputs = workdir / f"reference-{i}.npz"
            np.savez(inputs, guidance=guidance, mask=mask, seeds=seeds,
                     label_ids=np.asarray(LABEL_IDS), beta=BETA)
            subprocess.run([sys.executable, str(HERE / "reference.py"), str(inputs), str(stem)],
                           check=True, stdout=subprocess.DEVNULL)
            inputs.unlink()
        stems.append(stem)
        infos.append(json.loads(meta.read_text()))

    def load():
        return [
            (np.load(f"{s}.voxels.npy", mmap_mode="r"), np.load(f"{s}.values.npy", mmap_mode="r"))
            for s in stems
        ]

    return load, infos


def run_op(wl, k, refs_load, rec=None) -> Op:
    import spans

    out = None
    t0 = spans.now()
    try:
        if rec is None:
            out, peak = wl.operate(k, None)
        else:
            rec.op = k
            with spans.installed(rec), rec.span("bench.op"):
                out, peak = wl.operate(k, rec)
        seconds = spans.now() - t0
    except Exception:
        return Op(spans.now() - t0, 0.0, False, error=traceback.format_exc(limit=3))
    try:
        res = wl.check(out, refs_load())
    except Exception:
        return Op(seconds, peak / 2**20, False, error=traceback.format_exc(limit=3))
    finally:
        wl.release(out)
        del out
    return Op(seconds, peak / 2**20, res.ok, res.max_abs_err, res.dice_overall,
              "; ".join(res.problems))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "voxprop" / "__init__.py").is_file():
        print(f"error: no voxprop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import voxprop  # noqa: F401  (the warm-up pays no import in this process)

    if not Path(voxprop.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported voxprop from {voxprop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(SRC))
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, workloads.WORKLOADS[args.workload](args.seed, workdir, env))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl) -> int:
    import spans

    rec = spans.Recorder() if args.trace else None
    phases = {"start": spans.now()}
    pieces: dict[str, list[float]] = {}
    for _ in range(SETUP_REPEATS):
        for key, value in wl.setup_once(rec).items():
            pieces.setdefault(key, []).append(value)
    wl.derive()
    phases["setup"] = spans.now()
    refs_load, ref_info = reference_handles(wl, args.seed, wl.workdir, OUT / "cache")
    phases["reference"] = spans.now()

    ops: list[Op] = []
    warm = run_op(wl, "warmup", refs_load)
    ops.append(warm)
    setup_s = sum(statistics.median(v) for v in pieces.values()) + warm.seconds

    timed: list[Op] = []
    traced: list[Op] = []
    need = (MIN_TRACED_OPS, MIN_TRACED_OPS) if args.trace else (MIN_OPS, 0)
    start = spans.now()
    while spans.now() - start < args.seconds or len(timed) < need[0] or len(traced) < need[1]:
        k = len(timed) + len(traced)
        if args.trace and k % 2:
            traced.append(run_op(wl, k, refs_load, rec))
        else:
            timed.append(run_op(wl, k, refs_load))
    ops += timed + traced
    phases["ops"] = spans.now()
    t_start = phases.pop("start")
    phases = {k: round(v - t_start, 3) for k, v in phases.items()}
    failed = [o for o in ops if not o.ok]
    for o in failed:
        print(f"FAILED op ({o.seconds:.3f} s): {o.error}", file=sys.stderr)

    walls = [o.seconds for o in timed]
    if args.trace:
        metrics = spans.layer_report(rec.spans, [o.seconds for o in traced], walls)
        units = {k: u for k, (u, _) in spans.PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(o.peak_mb for o in timed),
            "setup_s": setup_s,
            # -log10 of the max error: the max error itself is heavy-tailed
            # across seeds (see WORKLOADS.md), its order of magnitude is not;
            # float64 probabilities resolve no more than 17 digits
            "max_abs_err_digits": -math.log10(max(1e-17, *(o.max_abs_err for o in ops))),
            "dice_overall": statistics.median(o.dice_overall for o in timed),
        }
        units = END_TO_END

    info = {
        "env": environment(args),
        "reference": ref_info,
        "setup_pieces_s": pieces,
        "warmup_s": warm.seconds,
        "phases_s": phases,
        "ops": [o.__dict__ for o in ops],
        "error_rate": len(failed) / len(ops),
        "max_abs_err": max(o.max_abs_err for o in ops),
    }
    print("env: " + json.dumps(info["env"]))
    print("reference: " + json.dumps(ref_info))
    print("phases (s since start): " + json.dumps(phases))
    print(f"ops: {len(walls)} untraced" + (f", {len(traced)} traced" if args.trace else "")
          + f"; error_rate {info['error_rate']:.3f} ({len(failed)}/{len(ops)})"
          + f"; max_abs_err {info['max_abs_err']:.4g}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    OUT.joinpath("results", f"{tag}.json").write_text(
        json.dumps(dict(info, metrics=metrics), indent=1, default=str)
    )
    if rec is not None:
        OUT.joinpath("traces").mkdir(parents=True, exist_ok=True)
        rec.dump(OUT / "traces" / f"{tag}.json")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
