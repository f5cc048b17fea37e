#!/usr/bin/env python3
"""Collect result sets of the repo benchmark and compare a change with its parent.

    python3 perfbench/compare.py collect DIR [--workloads a,b] [--seeds 1-10]
    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py pair DIR PARENT [--workloads a,b] [--seeds 1-10]
    python3 perfbench/compare.py diff DIR

collect  runs this checkout's perfbench/run.py once per (workload, seed)
         with the run_seconds of BENCHMARK.json and --trace 0, and stores
         each result line as DIR/<workload>/<seed>.json.
spread   prints, per workload and end-to-end metric, the median of a
         collected set and its spread: (third quartile - first quartile) /
         median, with quartiles from statistics.quantiles(values, n=4). A
         spread above a third of the metric's bound is flagged.
pair     compares this checkout (the change) with the checkout at PARENT.
         For every (seed, workload) it runs both sides back to back, and
         the side that runs first alternates from one pair to the next, so
         drift in the host's speed lands on both sides alike. Results go
         to DIR/parent and DIR/change; then it prints the comparison.
diff     prints the comparison of a DIR written by pair, per workload and
         end-to-end metric: both sides' quartiles and median, how many
         pairs each side won, and a verdict (choosing-metrics rules):
         "unresolved" when there are fewer than ten pairs, or when either
         side's spread exceeds the bound (unless every run of the change
         beats every run of the parent), "worse"
         when the change's median is worse than the parent's by more than
         the bound, "better" when the change wins at least 9/10 of the
         pairs and the medians differ by more than the parent's quartile
         distance, else "within bound". It refuses sets that pair did not
         write, because sets collected minutes apart carry the host's drift.

Exit code of pair and diff: 1 when any pairing is "worse", else 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAIRING = "pairing.json"


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def workloads_of(args, m):
    if args.workloads:
        return args.workloads.split(",")
    return [w["name"] for w in m["workloads"]]


def run_one(root, workload, seed, seconds, out_dir):
    """Run one workload in the checkout at `root`; store its result line."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"{root}: {workload} seed {seed}: FAILED (exit {proc.returncode})")
        return False
    os.makedirs(os.path.join(out_dir, workload), exist_ok=True)
    with open(os.path.join(out_dir, workload, f"{seed}.json"), "w") as f:
        f.write(lines[-1] + "\n")
    return True


def load_set(path):
    """{workload: {seed: result}} from DIR/<workload>/<seed>.json."""
    out = {}
    for workload in sorted(os.listdir(path)):
        wdir = os.path.join(path, workload)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            if name.endswith(".json"):
                with open(os.path.join(wdir, name)) as f:
                    out.setdefault(workload, {})[name[:-5]] = json.load(f)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def collect(args):
    m = manifest()
    for seed in parse_seeds(args.seeds):
        for w in workloads_of(args, m):
            if not run_one(ROOT, w, seed, m["run_seconds"], args.dir):
                return 1
            print(f"{w} seed {seed}: ok", flush=True)
    return show_spread(args.dir)


def show_spread(path):
    m = manifest()
    results = load_set(path)
    print(f"{'workload':14} {'metric':22} {'n':>3} {'median':>14} "
          f"{'spread':>8} {'bound':>6}")
    for w, runs in results.items():
        for metric in m["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs.values()]
            s = spread(values)
            flag = "" if name == "setup_s" or s <= metric["bound"] / 3 else "  <-- above bound/3"
            print(f"{w:14} {name:22} {len(values):3d} {statistics.median(values):14.6g} "
                  f"{s:8.4f} {metric['bound']:6.3f}{flag}")
    return 0


def pair(args):
    m = manifest()
    parent = os.path.abspath(args.parent)
    if not os.path.isfile(os.path.join(parent, "perfbench", "run.py")):
        print(f"{parent} has no perfbench/run.py to compare against")
        return 2
    sides = [("parent", parent), ("change", ROOT)]
    n = 0
    for seed in parse_seeds(args.seeds):
        for w in workloads_of(args, m):
            for name, root in (sides if n % 2 == 0 else sides[::-1]):
                if not run_one(root, w, seed, m["run_seconds"],
                               os.path.join(args.dir, name)):
                    return 1
            print(f"{w} seed {seed}: ok ({'parent' if n % 2 == 0 else 'change'} first)",
                  flush=True)
            n += 1
    with open(os.path.join(args.dir, PAIRING), "w") as f:
        json.dump({"parent": parent, "change": ROOT}, f)
        f.write("\n")
    return diff(args)


def diff(args):
    if not os.path.isfile(os.path.join(args.dir, PAIRING)):
        print(f"{args.dir} was not written by 'compare.py pair': only runs "
              "interleaved with the parent's can be compared")
        return 2
    m = manifest()
    parent = load_set(os.path.join(args.dir, "parent"))
    change = load_set(os.path.join(args.dir, "change"))
    worse = False
    print(f"{'workload':14} {'metric':22} {'parent q1/med/q3':>36} "
          f"{'change q1/med/q3':>36} {'wins p:c':>8}  verdict")
    for w in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[w]) & set(change[w]))
        for metric in m["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            a = [parent[w][s]["metrics"][name]["value"] for s in seeds]
            b = [change[w][s]["metrics"][name]["value"] for s in seeds]
            if not a:
                continue
            qa, qb = quartiles(a), quartiles(b)

            def better(x, y):  # x strictly better than y
                return x < y if lower else x > y

            wins_c = sum(better(y, x) for x, y in zip(a, b))
            wins_p = sum(better(x, y) for x, y in zip(a, b))
            worse_by = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            if not lower:
                worse_by = -worse_by
            if len(a) < 10:
                verdict = f"unresolved ({len(a)} pairs, fewer than 10)"
            elif all(better(y, x) for x in a for y in b):
                verdict = "better (every run)"
            elif max(spread(a), spread(b)) > bound:
                verdict = "unresolved (spread above bound)"
            elif worse_by > bound:
                verdict = f"worse by {worse_by:.1%} (bound {bound:.0%})"
                worse = True
            elif wins_c >= 0.9 * len(a) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = f"better by {-worse_by:.1%}"
            else:
                verdict = f"within bound ({worse_by:+.1%} worse)"
            print(f"{w:14} {name:22} {qa[0]:11.5g} {qa[1]:11.5g} {qa[2]:11.5g} "
                  f"{qb[0]:11.5g} {qb[1]:11.5g} {qb[2]:11.5g} "
                  f"{wins_p:3d}:{wins_c:<3d}  {verdict}")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    s = sub.add_parser("spread")
    s.add_argument("dir")
    pr = sub.add_parser("pair")
    pr.add_argument("dir")
    pr.add_argument("parent")
    pr.add_argument("--workloads", default="")
    pr.add_argument("--seeds", default="1-10")
    d = sub.add_parser("diff")
    d.add_argument("dir")
    args = p.parse_args()
    if args.cmd == "collect":
        return collect(args)
    if args.cmd == "spread":
        return show_spread(args.dir)
    if args.cmd == "pair":
        return pair(args)
    return diff(args)


if __name__ == "__main__":
    sys.exit(main())
