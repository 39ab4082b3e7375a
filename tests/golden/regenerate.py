"""Rebuild the golden files in this directory, or check that they are current.

Run from the repository root after an intentional format change:

    python3 tests/golden/regenerate.py

or, to compare without writing here (exit 1 names each file that drifted):

    python3 tests/golden/regenerate.py --check

The files are committed so the test suite can assert that load followed by
save reproduces them byte for byte.  Regenerate only when the on-disk format
itself is meant to change, or when a change to the generators' arithmetic is
meant to move the generated states' last bits; log either in CHANGES.md.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from pptsep import (
    GenSpec,
    TripartiteDims,
    decompose,
    gen_canonical_state,
    qubit_corner_state,
    save_canonical_form,
    save_ensemble,
    save_state,
)

HERE = Path(__file__).parent
NAMES = (
    "qubit_corner_a0p3.state.json",
    "qubit_corner_a0p3.ensemble.json",
    "canonical_332_seed0.state.json",
    "canonical_332_seed0.form.json",
)


def write_goldens(out: Path) -> None:
    qubit = qubit_corner_state(0.3)
    save_state(qubit, out / NAMES[0])
    save_ensemble(decompose(qubit), out / NAMES[1])

    state, truth = gen_canonical_state(GenSpec(dims=TripartiteDims(3, 3, 2), seed=0))
    save_state(state, out / NAMES[2])
    save_canonical_form(truth, out / NAMES[3])


def drifted(fresh: Path) -> list[str]:
    """The golden files whose committed bytes differ from those written under fresh."""
    return [
        name
        for name in NAMES
        if not (HERE / name).is_file() or (HERE / name).read_bytes() != (fresh / name).read_bytes()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="regenerate into a temporary directory and compare"
    )
    if not parser.parse_args(argv).check:
        write_goldens(HERE)
        print(f"wrote {len(NAMES)} golden files under {HERE}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        write_goldens(Path(tmp))
        stale = drifted(Path(tmp))
    for name in stale:
        print(f"drifted: {HERE / name}")
    if not stale:
        print(f"{len(NAMES)} golden files under {HERE} are current")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
