"""Check that a reproduce envelope does not depend on what ran before it in
the process.

Usage: python tools/check_reproduce_order.py CLI_DIR

CLI_DIR holds ID.json for every id of nalab.experiments.REPRODUCE_IDS, each
written by its own `nalab reproduce ID` process.  This script runs all the
ids through run_reproduce in one process three times: in REPRODUCE_IDS
order, reversed, and in order again after an AnnularGrid(DEFAULT_SPACE, 200)
has grown the space's shared tables to 200 annuli and its kernel stack to
every raw scale of that grid, so that every grid of the space reads slices
of tables and kernels built for a larger one.  It compares each envelope
with the one in CLI_DIR apart from its `created` stamp, prints one line per
pass and exits 1 when an envelope differs, when the third pass rebuilt
the grown stack, or unless that pass built the tables of indicator maxima
of the divergence sequences, (j_max, n_max) = (120, 42) and (120, 25), from
slices of it: growing the stack empties the space's tables, and the pass
must leave both.  Run it with src on PYTHONPATH; with
PYTHONWARNINGS=error::RuntimeWarning a numpy warning raises.
"""

import json
import os
import sys
import tempfile

from nalab.experiments import REPRODUCE_IDS, run_reproduce
from nalab.geometry import DEFAULT_SPACE, AnnularGrid, _geometry, product_kernel

GROWN_J_MAX = 200
# the (j_max, n_max) of the indicator maxima of ex-growthnec and thm-fs-failure
DIVERGENCE_TABLES = {(120, 42), (120, 25)}


def stable_text(path: str) -> str:
    with open(path) as fh:
        env = json.load(fh)
    return json.dumps({k: v for k, v in env.items() if k != "created"}, sort_keys=True)


def grow_shared_record():
    """Grow the space's tables and raw kernel stack; returns the stack."""
    product_kernel(AnnularGrid(DEFAULT_SPACE, GROWN_J_MAX), GROWN_J_MAX - 1, normalize=False)
    return _geometry(DEFAULT_SPACE).stack


def main(cli_dir: str) -> int:
    bad = 0
    passes = (
        ("in order", REPRODUCE_IDS, None),
        ("reversed", REPRODUCE_IDS[::-1], None),
        (f"in order from j_max {GROWN_J_MAX} slices", REPRODUCE_IDS, grow_shared_record),
    )
    for name, order, prepare in passes:
        grown = prepare() if prepare else None
        if grown is not None and _geometry(DEFAULT_SPACE).maxima:
            print(f"growing the stack to j_max {GROWN_J_MAX} kept older indicator tables")
            bad = 1
        with tempfile.TemporaryDirectory() as outdir:
            differ = [
                exp_id
                for exp_id in order
                if stable_text(run_reproduce(exp_id, outdir=outdir)[1])
                != stable_text(os.path.join(cli_dir, f"{exp_id}.json"))
            ]
        print(f"{name}: {len(order) - len(differ)} of {len(order)} envelopes equal", *differ)
        bad |= bool(differ)
        if grown is None:
            continue
        geo = _geometry(DEFAULT_SPACE)
        if geo.stack is not grown:
            print(f"the j_max {GROWN_J_MAX} stack was rebuilt during the pass")
            bad = 1
        missing = sorted(DIVERGENCE_TABLES - set(geo.maxima))
        if missing:
            print(f"the pass built no indicator table for (j_max, n_max) in {missing}")
            bad = 1
    return bad


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
