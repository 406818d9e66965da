#!/usr/bin/env python3
"""Convert bench harness output (LFLL_BENCH_CSV=1 mode) to a JSON artifact.

The harness emits one `== title ==` banner per table followed by CSV rows
whose numeric cells use fmt_si suffixes (k/M/G). This script parses that
stream into a machine-readable document so CI runs accumulate a perf
trajectory:

    LFLL_BENCH_CSV=1 ./bench_e9_alloc | bench_to_json.py bench_e9_alloc > BENCH_alloc.json

Numeric-looking cells are emitted both raw (`"17.9M"`) and decoded
(`17900000.0`) under `<column>` and `<column>_value`. Percent cells
(bench_e11_rangequery's ratio columns) decode to their numeric part:
`"85.0%"` -> `85.0`.

Google-benchmark console output (bench_e7_saferead) is recognized in the
same stream: `BM_*` rows land in a table titled "google-benchmark" with
time/cpu in nanoseconds, iteration counts, and any UserCounters
(`items_per_second=34.2M/s` decodes to 34.2e6 under
`items_per_second_value`). The two formats can be concatenated:

    { LFLL_BENCH_CSV=1 ./bench_e1_vs_locks; ./bench_e7_saferead; } \\
        | bench_to_json.py bench_traverse > BENCH_traverse.json

Every document carries a "provenance" object: nproc, CPU model, compiler
and build type (read from the CMake build tree given by --build-dir,
default build/ at the repository root), the git SHA (with "-dirty" when
the work tree has changes) and the LFLL_* variables in this script's own
environment. A variable set only on the bench's side of the pipe
(`LFLL_BENCH_MS=400 ./bench | bench_to_json.py ...`) is not seen here;
export it to have it recorded. Fields that cannot be read are null.
"""
import argparse
import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SI = {"k": 1e3, "M": 1e6, "G": 1e9}
NUM_RE = re.compile(r"^(-?\d+(?:\.\d+)?)([kMG]?|%)$")

# One google-benchmark console row:
#   BM_Name      30357 ns        29887 ns         5800 counter=1.2M/s ...
GBENCH_RE = re.compile(
    r"^(BM_\S+)\s+(-?[\d.]+) (\w+)\s+(-?[\d.]+) (\w+)\s+(\d+)(?:\s+(\S.*))?$"
)
GBENCH_TITLE = "google-benchmark"


def decode(cell):
    m = NUM_RE.match(cell.strip())
    if not m:
        return None
    return float(m.group(1)) * SI.get(m.group(2), 1.0)  # "%" scales by 1


def gbench_row(m):
    row = {
        "benchmark": m.group(1),
        "time": m.group(2) + " " + m.group(3),
        "time_value": float(m.group(2)),
        "time_unit": m.group(3),
        "cpu": m.group(4) + " " + m.group(5),
        "cpu_value": float(m.group(4)),
        "iterations": m.group(6),
        "iterations_value": float(m.group(6)),
    }
    for counter in (m.group(7) or "").split():
        if "=" not in counter:
            continue
        key, val = counter.split("=", 1)
        row[key] = val
        value = decode(val[:-2] if val.endswith("/s") else val)
        if value is not None:
            row[key + "_value"] = value
    return row


def parse(stream):
    tables = []
    headers = None
    for raw in stream:
        line = raw.rstrip("\n")
        banner = re.match(r"^== (.*) ==$", line)
        if banner:
            tables.append({"title": banner.group(1), "rows": []})
            headers = None
            continue
        gbench = GBENCH_RE.match(line)
        if gbench:
            if not tables or tables[-1]["title"] != GBENCH_TITLE:
                tables.append({"title": GBENCH_TITLE, "rows": []})
                headers = None
            tables[-1]["rows"].append(gbench_row(gbench))
            continue
        if not tables or tables[-1]["title"] == GBENCH_TITLE or not line.strip():
            continue
        cells = line.split(",")
        if headers is None:
            headers = cells
            continue
        if len(cells) != len(headers):
            continue  # stray non-CSV output (exporter noise etc.)
        row = {}
        for key, cell in zip(headers, cells):
            row[key] = cell
            value = decode(cell)
            if value is not None:
                row[key + "_value"] = value
        tables[-1]["rows"].append(row)
    return tables


def cmake_cache(build_dir):
    out = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER|CMAKE_CXX_FLAGS):\w+=(.*)$",
                             line.rstrip("\n"))
                if m:
                    out[m.group(1)] = m.group(2)
    except OSError:
        pass
    return out


def compiler(build_dir, cache):
    """"<id> <version>" from the build tree's compiler probe, else the
    compiler path from the cache."""
    for path in glob.glob(os.path.join(build_dir, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if cid and ver:
            return "%s %s" % (cid.group(1), ver.group(1))
    return cache.get("CMAKE_CXX_COMPILER")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_sha():
    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        sha = git("rev-parse", "HEAD")
        return sha + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(build_dir):
    cache = cmake_cache(build_dir)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler(build_dir, cache),
        # CMakeLists.txt builds an empty CMAKE_BUILD_TYPE as RelWithDebInfo.
        "build_type": cache["CMAKE_BUILD_TYPE"] or "RelWithDebInfo"
        if "CMAKE_BUILD_TYPE" in cache else None,
        "cxx_flags": cache.get("CMAKE_CXX_FLAGS"),
        "git_sha": git_sha(),
        "lfll_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("LFLL_")},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("name", nargs="?", default="bench")
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build"),
                    help="CMake build tree the bench was built in (for compiler/build type)")
    args = ap.parse_args()
    doc = {"bench": args.name, "provenance": provenance(args.build_dir),
           "tables": parse(sys.stdin)}
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if not doc["tables"] or not any(t["rows"] for t in doc["tables"]):
        sys.stderr.write("bench_to_json: no tables parsed from input\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
