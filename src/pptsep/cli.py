"""Command-line interface.

Subcommands: check-ppt, decompose, generate, verify.  Every stdout payload is
a single JSON document; human-readable diagnostics go to stderr.  Exit codes:

    0  success / property verified
    1  verified negative (not PPT, or ensemble fails its check)
    2  input or usage error (unreadable/malformed files, bad flag values)
    3  precondition failure in the pipeline (the JSON carries the typed error
       name: RankMismatch, NoWitness, NotPptError, StructureViolation, ...)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .ensembles import decompose, verify_ensemble
from .errors import DimensionMismatch, PptSepError, PreconditionError
from .generate import (
    GenSpec,
    gen_canonical_state,
    gen_npt_control,
    identity_corner_state,
    qubit_corner_state,
    shifts_complement_state,
)
from .linalg import CERT_TOL, PPT_TOL, TripartiteDims
from .ppt import ppt_report
from .serialize import (
    load_ensemble,
    load_state,
    save_canonical_form,
    save_ensemble,
    save_state,
)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _fail_typed(err: PptSepError) -> int:
    _emit({"status": "error", "error": type(err).__name__, "message": str(err)})
    print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
    return 3


def _parse_complex_vector(text: str, name: str) -> np.ndarray:
    try:
        vals = [complex(tok.strip().replace(" ", "")) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{name}: could not parse {text!r} as comma-separated complex numbers")
    vec = np.asarray(vals, dtype=complex)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError(f"{name}: zero vector")
    return vec / norm


def cmd_check_ppt(args) -> int:
    try:
        state = load_state(args.state, allow_unnormalized=args.allow_unnormalized)
    except (OSError, ValueError, PptSepError) as e:
        return _fail_input(str(e))
    report = ppt_report(state, tol=args.tol)
    _emit(report.to_dict())
    return 0 if report.overall_ppt else 1


def cmd_decompose(args) -> int:
    try:
        state = load_state(args.state, allow_unnormalized=args.allow_unnormalized)
        e_a = f_b = None
        if args.witness == "explicit":
            if args.ea is None or args.fb is None:
                raise ValueError("--witness explicit requires --ea and --fb")
            e_a = _parse_complex_vector(args.ea, "--ea")
            f_b = _parse_complex_vector(args.fb, "--fb")
    except (OSError, ValueError, PptSepError) as e:
        return _fail_input(str(e))
    try:
        ensemble = decompose(
            state,
            tol=args.tol,
            witness=args.witness,
            seed=args.seed,
            samples=args.samples,
            e_a=e_a,
            f_b=f_b,
        )
    except PptSepError as e:
        return _fail_typed(e)
    residual, ok = verify_ensemble(state, ensemble, tol=args.tol)
    doc = {
        "status": "ok",
        "terms": len(ensemble.terms),
        "weights": [t.p for t in ensemble.terms],
        "residual": residual,
        "pass": ok,
    }
    if args.out:
        save_ensemble(ensemble, args.out)
        doc["out"] = str(args.out)
    _emit(doc)
    return 0


def _generate_state(args):
    metadata = {"generator": args.kind}
    truth = None
    if args.kind == "canonical":
        if args.dims is None:
            raise ValueError("--kind canonical requires --dims K M N")
        spec = GenSpec(
            dims=TripartiteDims(*args.dims),
            seed=args.seed,
            generator_scale=args.scale,
            f_condition_cap=args.cond_cap,
        )
        state, truth = gen_canonical_state(spec)
        metadata.update(
            seed=args.seed, generator_scale=args.scale, f_condition_cap=args.cond_cap
        )
    elif args.kind == "example-i":
        if args.dims is None:
            raise ValueError("--kind example-i requires --dims K M N")
        state = identity_corner_state(TripartiteDims(*args.dims))
    elif args.kind == "example-ii":
        state = qubit_corner_state(args.a)
        metadata.update(a=args.a)
    elif args.kind == "example-iii":
        state = shifts_complement_state(args.variant)
        metadata.update(variant=args.variant)
    else:  # "npt", the last of the kinds argparse admits
        if args.dims is None:
            raise ValueError("--kind npt requires --dims K M N")
        state = gen_npt_control(TripartiteDims(*args.dims), p=args.p, seed=args.seed)
        metadata.update(p=args.p, seed=args.seed)
    return state, truth, metadata


def cmd_generate(args) -> int:
    try:
        state, truth, metadata = _generate_state(args)
    except (ValueError, PreconditionError, DimensionMismatch) as e:
        return _fail_input(str(e))
    save_state(state, args.out, metadata=metadata)
    doc = {"status": "ok", "kind": args.kind, "dims": list(state.dims.as_tuple()), "out": str(args.out)}
    if truth is not None:
        truth_path = Path(args.out).with_suffix(".truth.json")
        save_canonical_form(truth, truth_path)
        doc["truth"] = str(truth_path)
    _emit(doc)
    return 0


def cmd_verify(args) -> int:
    try:
        state = load_state(args.state, allow_unnormalized=args.allow_unnormalized)
        ensemble = load_ensemble(args.ensemble)
    except (OSError, ValueError, PptSepError) as e:
        return _fail_input(str(e))
    try:
        residual, ok = verify_ensemble(state, ensemble, tol=args.tol)
    except DimensionMismatch as e:
        return _fail_input(str(e))
    _emit(
        {
            "residual": residual,
            "pass": ok,
            "terms": len(ensemble.terms),
            "total_weight": ensemble.total_weight(),
        }
    )
    if not ok:
        print("error: ensemble does not certify the state (see JSON report)", file=sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pptsep",
        description="PPT checks, canonical forms, and certified product decompositions "
        "for tripartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-ppt", help="evaluate every partial-transpose mask of a state")
    p.add_argument("state", help="StateFile (JSON) to check")
    p.add_argument("--tol", type=float, help=f"eigenvalue slack (default {PPT_TOL:g} * trace(rho))")
    p.add_argument(
        "--allow-unnormalized", action="store_true", help="rescale a non-unit trace on load"
    )
    p.set_defaults(func=cmd_check_ppt)

    p = sub.add_parser("decompose", help="extract a certified separable decomposition")
    p.add_argument("state", help="StateFile (JSON) to decompose")
    p.add_argument("--tol", type=float, default=CERT_TOL, help="certification tolerance")
    p.add_argument(
        "--witness",
        choices=["corner", "search", "explicit"],
        default="search",
        help="witness strategy (default: search)",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for the witness search")
    p.add_argument("--samples", type=int, default=256, help="random witness samples in search mode")
    p.add_argument("--ea", help="explicit witness on A: comma-separated complex components")
    p.add_argument("--fb", help="explicit witness on B: comma-separated complex components")
    p.add_argument("--out", help="write the EnsembleFile here")
    p.add_argument(
        "--allow-unnormalized", action="store_true", help="rescale a non-unit trace on load"
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("generate", help="write a reproducible test state to a StateFile")
    p.add_argument(
        "--kind",
        required=True,
        choices=["canonical", "example-i", "example-ii", "example-iii", "npt"],
        help="which family to generate",
    )
    p.add_argument("--dims", type=int, nargs=3, metavar=("K", "M", "N"), help="local dimensions")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--scale", type=float, default=1.0, help="generator eigenvalue scale (canonical)")
    p.add_argument(
        "--cond-cap", type=float, default=100.0, help="filter condition-number cap (canonical)"
    )
    p.add_argument("--a", type=float, default=0.3, help="corner coherence (example-ii)")
    p.add_argument(
        "--variant",
        choices=["corrected", "literal"],
        default="corrected",
        help="product-family variant (example-iii)",
    )
    p.add_argument("--p", type=float, default=0.5, help="white-noise weight (npt)")
    p.add_argument("--out", required=True, help="output StateFile path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check an EnsembleFile against a StateFile")
    p.add_argument("state", help="StateFile (JSON)")
    p.add_argument("ensemble", help="EnsembleFile (JSON)")
    p.add_argument("--tol", type=float, default=CERT_TOL, help="residual tolerance")
    p.add_argument(
        "--allow-unnormalized", action="store_true", help="rescale a non-unit trace on load"
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
