#!/usr/bin/env python3
"""Write the reference outputs that `run.py` checks operations against.

    python3 perfbench/make_refs.py [--workload NAME ...]

Runs every input of each workload's panel once and stores its output in
`perfbench/refs/<workload>.json`.  Run it only on a commit whose outputs
are known good; the stored files are the benchmark's notion of correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from check import ATOL, RTOL, ref_key, ref_path, rounded
from run import environment, import_program
from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    import_program()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]()
        wl.begin(0)
        entries = {}
        for x in wl.panel:
            res = wl.run(x, wl.prepare(x))
            if res.failure:
                print(f"{name} {res.seed}/{res.key}: {res.failure}",
                      file=sys.stderr)
                return 1
            entries[ref_key(res.seed, res.key)] = rounded(res.output)
            print(f"{name} {res.seed}/{res.key} {res.wall_s:.3f} s "
                  f"inner_iterations={res.inner_iterations} "
                  f"backtrack_rounds={res.backtrack_rounds}", flush=True)
        doc = {"workload": name, "commit": commit, "rtol": RTOL,
               "atol": ATOL, "env": environment(), "entries": entries}
        path = ref_path(name)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            fh.write("{\n")
            head = {k: v for k, v in doc.items() if k != "entries"}
            for k, v in head.items():
                fh.write(f"{json.dumps(k)}: {json.dumps(v)},\n")
            fh.write('"entries": {\n')
            fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                for k, v in entries.items()))
            fh.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
