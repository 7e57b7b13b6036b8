"""Runs perfbench over several seeds and prints each metric's median and
quartile spread (interquartile range over median), the figure the
benchmark's bounds are checked against.

    python3 perfbench/spread.py --workloads fame-fleet,service-live \
        --seeds 1-10 --seconds 20 [--trace 1]

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    for wl in args.workloads.split(","):
        values, failed = {}, 0
        for s in seeds(args.seeds):
            out = subprocess.run(
                ["bash", "perfbench/run.sh", "--workload", wl, "--seed", str(s),
                 "--seconds", args.seconds, "--trace", args.trace],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                failed += 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {s}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
                file=sys.stderr, flush=True)
        print(f"\n{wl} ({len(seeds(args.seeds))} seeds, {failed} runs with failures)")
        print("| metric | median | spread |")
        print("|---|---|---|")
        for name, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {name} | {med:.6g} | {100 * spread:.1f}% |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
