#!/usr/bin/env python3
"""Record the exit code, verdicts and constants of every radial and sweep case.

Run from the repository root, once, on a commit whose outputs are trusted:

    python3 perfbench/capture_references.py

It rewrites perfbench/references.json, which the benchmark's correctness
gate compares against at the test suite's frozen tolerance.  Recapture only
when the benchmark's case list changes, never to absorb a changed output.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench_workloads as bw  # noqa: E402


def main() -> int:
    out = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        refs = {}
        for section, cls in (("radial", bw.RadialWorkload), ("sweep", bw.SweepWorkload)):
            wl = cls(seed=0, outdir=out, references={})
            wl.setup()
            refs[section] = {}
            for case in wl.cases(0):
                code, _, env = case.run()
                refs[section][case.kind] = bw.reference_record(code, wl.reports(env))
                print(section, case.kind, code, file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(bw.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
