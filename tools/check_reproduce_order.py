"""Check that a reproduce envelope does not depend on what ran before it in
the process.

Usage: python tools/check_reproduce_order.py CLI_DIR

CLI_DIR holds ID.json for every id of nalab.experiments.REPRODUCE_IDS, each
written by its own `nalab reproduce ID` process.  This script runs all the
ids through run_reproduce in one process, first in REPRODUCE_IDS order and
then reversed, and compares each envelope with the one in CLI_DIR apart
from its `created` stamp.  It prints one line per order and exits 1 when an
envelope differs.  Run it with src on PYTHONPATH; with
PYTHONWARNINGS=error::RuntimeWarning a numpy warning raises.
"""

import json
import os
import sys
import tempfile

from nalab.experiments import REPRODUCE_IDS, run_reproduce


def stable_text(path: str) -> str:
    with open(path) as fh:
        env = json.load(fh)
    return json.dumps({k: v for k, v in env.items() if k != "created"}, sort_keys=True)


def main(cli_dir: str) -> int:
    bad = 0
    for name, order in (("in order", REPRODUCE_IDS), ("reversed", REPRODUCE_IDS[::-1])):
        with tempfile.TemporaryDirectory() as outdir:
            differ = [
                exp_id
                for exp_id in order
                if stable_text(run_reproduce(exp_id, outdir=outdir)[1])
                != stable_text(os.path.join(cli_dir, f"{exp_id}.json"))
            ]
        print(f"{name}: {len(order) - len(differ)} of {len(order)} envelopes equal", *differ)
        bad |= bool(differ)
    return bad


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
