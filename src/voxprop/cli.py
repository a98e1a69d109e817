"""Batch command-line front end.

Thin wrappers around the library: every subcommand is one library call plus
file i/o. Exit codes: 0 success, 2 input/validation failure, 3 numerical
failure. Diagnostics go to stderr, and so do the library's log records at
or above `--log-level` (default WARNING); INFO adds the solver's coarse
space and each label's CG steps and residual.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import nifti
from .errors import ConvergenceFailure, SeedlessComponent, VoxpropError
from .fusion import build_eval_mask, dice_report, majority_vote
from .phantom import PhantomSpec, make_phantom
from .volume import read_labelset, write_labelset

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def cmd_propagate(args) -> int:
    # the solver stack (scipy) loads here only: the other commands need numpy alone
    from .propagate import PropagationRequest, _propagate_roi

    labels = read_labelset(args.labels)
    guidance = nifti.read_volume(args.guidance, "intensity")
    roi = nifti.read_volume(args.roi, "mask")
    annotation = nifti.read_annotation(args.annotation, labels)
    req = PropagationRequest(
        guidance=guidance,
        roi=roi,
        annotation=annotation,
        beta=args.beta,
        seedless_policy=args.policy,
    )
    soft_volume, hard, report = _propagate_roi(req)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    nifti.write_volume(hard, out / "hard.nii")
    if args.soft:
        # each volume is built for its write and dropped after it, so one
        # float64 volume is alive at a time instead of one per label
        for k, name in enumerate(labels.names):
            nifti.write_volume(soft_volume(k), out / f"prob_{name}.nii")
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out / 'hard.nii'}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    maps = [nifti.read_volume(p, "label") for p in args.inputs]
    roi = nifti.read_volume(args.roi, "mask")
    fused = majority_vote(maps, roi)
    nifti.write_volume(fused, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    out = Path(args.out)
    if out.suffix == ".txt":  # the text twin would overwrite the JSON report
        return _fail(f"--out {out} ends in .txt, the text report's suffix", EXIT_INPUT)
    labels = read_labelset(args.labels)
    pred = nifti.read_volume(args.pred, "label")
    target = nifti.read_volume(args.target, "label")
    roi = nifti.read_volume(args.roi, "mask")
    if args.annotation:
        annotation = nifti.read_annotation(args.annotation, labels)
        eval_mask = build_eval_mask(annotation, roi)
    else:
        eval_mask = roi
    report = dice_report(pred, target, labels, eval_mask, roi=roi)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_json() + "\n")
    out.with_suffix(".txt").write_text(report.to_text() + "\n")
    print(f"{report.overall:.6f}")
    return EXIT_OK


def cmd_phantom(args) -> int:
    spec = PhantomSpec.from_json(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    phantom = make_phantom(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    nifti.write_volume(phantom.guidance, out / "guidance.nii")
    nifti.write_volume(phantom.roi, out / "roi.nii")
    nifti.write_volume(phantom.truth, out / "truth.nii")
    labels = phantom.labels
    for k, name in enumerate(labels.names):
        mask = phantom.roi.with_data(phantom.annotation.masks[k], "mask")
        nifti.write_volume(mask, out / f"annot_{name}.nii")
    write_labelset(labels, out / "labels.tsv")
    print(f"wrote phantom to {out}")
    return EXIT_OK


def cmd_info(args) -> int:
    hdr = nifti.read_header(args.input)
    # integer files are shown as labels (masks are just {0,1} labels here)
    kind = "label" if hdr.datatype in (nifti.DT_UINT8, nifti.DT_UINT16) else "intensity"
    vol = nifti.read_volume(args.input, kind)
    print(f"file:     {args.input}")
    print(f"dims:     {vol.dims[0]} x {vol.dims[1]} x {vol.dims[2]}")
    print(f"spacing:  {vol.spacing[0]:g} x {vol.spacing[1]:g} x {vol.spacing[2]:g} mm")
    print(f"datatype: {hdr.datatype} (read as {kind})")
    print(f"range:    [{vol.data.min():g}, {vol.data.max():g}]")
    if kind == "label":
        ids, counts = np.unique(vol.data, return_counts=True)
        print("labels:")
        for i, c in zip(ids, counts):
            print(f"  {int(i):5d}  {int(c)} voxels")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="voxprop",
        description="Random-walker label propagation for noisy 3D annotations.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level", default="WARNING", choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="lowest level of the log records written to stderr",
    )

    pp = sub.add_parser("propagate", parents=[common],
                        help="propagate annotation labels over a roi")
    pp.add_argument("--guidance", required=True, help="intensity NIfTI for edge weights")
    pp.add_argument("--roi", required=True, help="mask NIfTI bounding the solve")
    pp.add_argument("--labels", required=True, help="labelset file (id<TAB>name)")
    pp.add_argument(
        "--annotation", required=True, nargs="+",
        help="per-label binary mask NIfTIs, ordered like the labelset",
    )
    pp.add_argument("--beta", type=float, default=10_000.0)
    pp.add_argument("--out", required=True, help="output directory")
    pp.add_argument(
        "--policy", default="nearest_seed",
        choices=("nearest_seed", "background", "error"),
    )
    pp.add_argument("--soft", action="store_true", help="also write per-label prob_*.nii")
    pp.set_defaults(func=cmd_propagate)

    pf = sub.add_parser("fuse", parents=[common], help="majority-vote fusion of label maps")
    pf.add_argument("--in", dest="inputs", required=True, nargs="+")
    pf.add_argument("--roi", required=True)
    pf.add_argument("--out", required=True)
    pf.set_defaults(func=cmd_fuse)

    pe = sub.add_parser("evaluate", parents=[common], help="Dice report of prediction vs target")
    pe.add_argument("--pred", required=True)
    pe.add_argument("--target", required=True)
    pe.add_argument("--labels", required=True)
    pe.add_argument("--roi", required=True)
    pe.add_argument(
        "--annotation", nargs="+", default=None,
        help="per-label masks; ambiguous voxels are excluded from evaluation",
    )
    pe.add_argument("--out", required=True, help="report path (.json; .txt twin)")
    pe.set_defaults(func=cmd_evaluate)

    ph = sub.add_parser("phantom", parents=[common], help="generate a synthetic test phantom")
    ph.add_argument("--spec", required=True, help="phantom spec JSON")
    ph.add_argument("--seed", type=int, default=None, help="override the spec RNG seed")
    ph.add_argument("--out", required=True, help="output directory")
    ph.set_defaults(func=cmd_phantom)

    pi = sub.add_parser("info", parents=[common], help="print volume header summary")
    pi.add_argument("--in", dest="input", required=True)
    pi.set_defaults(func=cmd_info)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    # the package's records go to stderr for this run only, so a caller that
    # runs main more than once in a process is left no handler behind
    logger = logging.getLogger("voxprop")
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(args.log_level)
    try:
        return args.func(args)
    except (ConvergenceFailure, SeedlessComponent) as exc:
        return _fail(str(exc), EXIT_NUMERICAL)
    except (VoxpropError, OSError, ValueError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
