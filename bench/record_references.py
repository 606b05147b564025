"""Record the output digests that benchmark runs compare against.

    python3 bench/record_references.py --seconds 30 --seeds 0-10

For each workload and seed this builds the inputs that
``run.py --seconds <seconds> --seed <seed>`` builds, runs each input once
without timing, requires a clean pass (no violation, no exception, every
analyze report agreeing with the brute-force oracle) and stores the sha256
of the merged pass output (the verify table, or the analyze NDJSON) in
references.json under [workload][input count][seed].  Run it only at a
commit whose outputs are known to be right: a later run whose output
differs counts every input of its pass as failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-10")
    p.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    try:
        refs = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    except FileNotFoundError:
        refs = {}
    for name in args.workload or sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        size = workload.size(args.seconds)
        for seed in range(lo, hi + 1):
            kg, items = run.build(workload, seed, size)
            try:
                res = run.run_pass(workload, kg, items, list(range(len(items))), float("inf"))
                bad = res.failed + run.check_pass(workload, kg, items, res, None)
                text = workload.pass_output(kg, items, res.outputs)
            finally:
                workload.cleanup()
            if bad:
                print(f"{name} seed {seed}: {bad} failed inputs; nothing recorded",
                      file=sys.stderr)
                return 1
            digest = run.sha256(text)
            refs.setdefault(name, {}).setdefault(str(size), {})[str(seed)] = digest
            run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
            print(f"{name} size {size} seed {seed}: {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
