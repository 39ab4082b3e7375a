"""Command-line interface.

Subcommands: check-ppt, decompose, generate, verify.  Every stdout payload is
a single JSON document; human-readable diagnostics go to stderr.  Exit codes:

    0  success / property verified
    1  verified negative (not PPT, or ensemble fails its check)
    2  input or usage error (unreadable/malformed files, bad flag values,
       an --ea/--fb whose length does not fit the state's dims, or that is
       zero, non-finite or of an overflowing norm)
    3  precondition failure in the pipeline (the JSON carries the typed error
       name: RankMismatch, NoWitness, NotPptError, StructureViolation, ...)
"""

from __future__ import annotations

import argparse
import json
import math
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
    print(json.dumps(doc, indent=2, allow_nan=False))


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _fail_typed(err: PptSepError) -> int:
    _emit({"status": "error", "error": type(err).__name__, "message": str(err)})
    print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
    return 3


def _positive_float(text: str) -> float:
    """argparse type of a tolerance: a positive, finite float."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type of a seed or a sample count."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


# Upper bound of --samples.  The witness search holds a few (samples, N, N)
# complex arrays at once, so memory grows linearly with the count: at N = 8
# each is 64 MiB at this bound, 256 times the default sample count.
MAX_SAMPLES = 65536


def _sample_count(text: str) -> int:
    """argparse type of --samples: an integer in [0, MAX_SAMPLES]."""
    value = _non_negative_int(text)
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_SAMPLES}, got {text!r}")
    return value


# Upper bound of K*M*N for generate.  A state is one KMN x KMN complex matrix,
# 256 MiB at this bound, and generating a canonical one peaks at four such
# matrices (tracemalloc at K*M*N = 2048).
MAX_STATE_SIDE = 4096


def _parse_complex_vector(text: str, name: str, length: int) -> np.ndarray:
    """A unit vector of `length` components from comma-separated complex numbers."""
    try:
        vals = [complex(tok.strip().replace(" ", "")) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{name}: could not parse {text!r} as comma-separated complex numbers")
    if len(vals) != length:
        raise ValueError(f"{name}: the state's dims need {length} components, got {len(vals)}")
    vec = np.asarray(vals, dtype=complex)
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm = np.linalg.norm(vec)
    if not (np.all(np.isfinite(vec)) and norm < math.inf):
        raise ValueError(f"{name}: components and norm must be finite, got {text!r}")
    largest = np.abs(vec).max()
    if largest == 0:
        raise ValueError(f"{name}: zero vector")
    # Scaled first by the power of two just above the largest |component|, which
    # is exact, so a norm whose squares underflow (1e-200) is not taken for
    # zero and any other vector gives the same bits as vec / norm.
    exponent = -np.frexp(largest)[1]
    vec.real, vec.imag = np.ldexp(vec.real, exponent), np.ldexp(vec.imag, exponent)
    return vec / np.linalg.norm(vec)


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
            e_a = _parse_complex_vector(args.ea, "--ea", state.dims.k)
            f_b = _parse_complex_vector(args.fb, "--fb", state.dims.m)
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
    if args.kind in ("canonical", "example-i", "npt"):
        if args.dims is None:
            raise ValueError(f"--kind {args.kind} requires --dims K M N")
        dims = TripartiteDims(*args.dims)
        if dims.total > MAX_STATE_SIDE:
            raise ValueError(f"--dims: K*M*N = {dims.total} exceeds {MAX_STATE_SIDE}")
    if args.kind == "canonical":
        spec = GenSpec(
            dims=dims,
            seed=args.seed,
            generator_scale=args.scale,
            f_condition_cap=args.cond_cap,
        )
        state, truth = gen_canonical_state(spec)
        metadata.update(
            seed=args.seed, generator_scale=args.scale, f_condition_cap=args.cond_cap
        )
    elif args.kind == "example-i":
        state = identity_corner_state(dims)
    elif args.kind == "example-ii":
        state = qubit_corner_state(args.a)
        metadata.update(a=args.a)
    elif args.kind == "example-iii":
        state = shifts_complement_state(args.variant)
        metadata.update(variant=args.variant)
    else:  # "npt", the last of the kinds argparse admits
        state = gen_npt_control(dims, p=args.p, seed=args.seed)
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
    total_weight = ensemble.total_weight()
    if not (math.isfinite(residual) and math.isfinite(total_weight)):
        return _fail_input(
            f"{args.ensemble}: its values overflow (residual {residual:.3g}, "
            f"total weight {total_weight:.3g})"
        )
    _emit({"residual": residual, "pass": ok, "terms": len(ensemble.terms), "total_weight": total_weight})
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
    p.add_argument(
        "--tol",
        type=_positive_float,
        help=f"eigenvalue slack (default {PPT_TOL:g} * trace(rho))",
    )
    p.add_argument(
        "--allow-unnormalized", action="store_true", help="rescale a non-unit trace on load"
    )
    p.set_defaults(func=cmd_check_ppt)

    p = sub.add_parser("decompose", help="extract a certified separable decomposition")
    p.add_argument("state", help="StateFile (JSON) to decompose")
    p.add_argument("--tol", type=_positive_float, default=CERT_TOL, help="certification tolerance")
    p.add_argument(
        "--witness",
        choices=["corner", "search", "explicit"],
        default="search",
        help="witness strategy (default: search)",
    )
    p.add_argument("--seed", type=_non_negative_int, default=0, help="seed for the witness search")
    p.add_argument(
        "--samples",
        type=_sample_count,
        default=256,
        help=f"random witness samples in search mode (at most {MAX_SAMPLES})",
    )
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
    p.add_argument("--seed", type=_non_negative_int, default=0, help="generator seed")
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
    p.add_argument("--tol", type=_positive_float, default=CERT_TOL, help="residual tolerance")
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
