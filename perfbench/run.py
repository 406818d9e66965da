#!/usr/bin/env python3
"""Repository benchmark: build the library and its driver, run one workload.

    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (and the library, from
source, with its shipped defaults) into .bench_build/ or $CARGO_TARGET_DIR,
runs lfll_perfbench, stamps the report with provenance, saves it under
<build dir>/perfbench-out/, prints every metric with its unit and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. Exits non-zero
when any check failed, when an LFLL_* variable is set, or when the build
fails. `--stub wrong-value|lost-insert` runs a deliberately faulty store
(used by test_perfbench.py). See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv-read", "kv-churn", "list-walk")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds incrementally. Returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "lfll_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            log("build failed: %s" % e)
            return None
    return os.path.join(build_dir, "lfll_perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """sha256 over the library sources, the root build file and perfbench/,
    so a result can be tied to its code without a git checkout."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = [x for x in dirs if x != "__pycache__"]
            files += [os.path.join(d, n) for n in names if not n.endswith(".pyc")]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--stub", choices=("none", "wrong-value", "lost-insert"), default="none")
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("LFLL_"))
    if knobs:
        log("refusing to run with %s set: parent and change must both be measured on "
            "library defaults" % ", ".join(knobs))
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 3
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--stub", args.stub]
    if args.trace:
        cmd += ["--spans-out", os.path.join(out_dir, "spans-%s.json" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=60 + 3 * args.seconds)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 4
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("driver exited %d without a report" % proc.returncode)
        return 4

    prov = report["provenance"]
    prov["git_sha"] = git_sha()
    prov["source_sha256"] = source_digest()
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(report, f, indent=1)

    print("workload %s  seed %d  seconds %g  trace %d" % (args.workload, args.seed,
                                                          args.seconds, args.trace))
    for key, m in report["metrics"].items():
        print("  %-40s %14.6g %s" % (key, m["value"], m["unit"]))
    print("  %-40s %14.6g %s" % ("fail_ratio", report["fail_ratio"], "ratio"))
    for note in report["checks_failed"]:
        print("  CHECK FAILED: " + note)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0 if report["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
