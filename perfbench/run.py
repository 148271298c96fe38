#!/usr/bin/env python3
"""Repository benchmark: builds the measuring program, runs it, checks it.

Run from the repository root:

    python3 perfbench/run.py --workload sor_sim64 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

The first run configures and builds perfbench/ (and the runtime under src/)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Each run
prints the program's tables, an environment fingerprint, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
The full result, fingerprint included, is kept in <build>/out/. Counts the
program determines are compared with earlier runs of the same binary on the
same inputs (<build>/ledger.json); a mismatch fails the run. See README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sor_sim64", "em3d_thr3", "churn_thr2"]
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures and builds the measuring program (a no-op once built);
    returns its path."""
    subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "perfbench")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest():
    """Digest of the sources the program is built from (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                h.update(sha256_file(path).encode())
    return h.hexdigest()


def commit():
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def check_ledger(bdir, binary, detail):
    """Compares this run's guarded counts with earlier runs of the same binary
    on the same inputs. Returns a failure message, or None."""
    path = os.path.join(bdir, "ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as f:
            ledger = json.load(f)
    key = "/".join([sha256_file(binary)[:16], detail["workload"], detail["input_key"]])
    counts = detail["counts"]
    if key not in ledger:
        ledger[key] = counts
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return None
    diff = sorted(k for k in set(counts) | set(ledger[key]) if counts.get(k) != ledger[key].get(k))
    if not diff:
        return None
    return "counts differ from an earlier run on the same inputs: " + ", ".join(
        "%s %s != %s" % (k, counts.get(k), ledger[key].get(k)) for k in diff)


def declared_metrics():
    """{name: unit} BENCHMARK.json declares, by trace mode (None without one)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {t: {m["name"]: m["unit"] for m in spec[key]}
            for t, key in ((0, "end_to_end"), (1, "per_layer"))}


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def run_one(binary, bdir, workload, seed, seconds, trace):
    """Runs one workload; prints its tables; returns (detail, env)."""
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    load_start = os.getloadavg()
    steal_start, total_start = cpu_ticks()
    proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace), "--out", out_dir],
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.stderr:
        log(proc.stderr.rstrip())
    try:
        detail = json.loads(lines[-1])
    except (ValueError, IndexError):
        raise SystemExit("perfbench exited with %d and no result" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    env = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "compiler": detail["compiler"],
        "build_type": detail["build_type"],
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }
    steal_end, total_end = cpu_ticks()
    # Share of the guest's CPU time the hypervisor gave to others during the
    # run; high values mark runs slowed by neighbours, not by the code.
    env["steal_frac"] = (steal_end - steal_start) / max(1, total_end - total_start)
    print("env: " + json.dumps(env))
    failure = check_ledger(bdir, binary, detail)
    if failure:
        print("FAILED: " + failure)
        detail["failures"].append(failure)
        detail["correct"] = False
        detail["failed"] = max(detail["failed"], 1)
    if proc.returncode not in (0, 1):
        raise SystemExit("perfbench exited with %d" % proc.returncode)
    declared = declared_metrics()
    metrics = detail["per_layer" if trace else "end_to_end"]
    if declared is not None:
        got = {k: v["unit"] for k, v in metrics.items()}
        if got != declared[trace]:
            raise SystemExit("metrics differ from BENCHMARK.json: %s" %
                             sorted(set(got.items()) ^ set(declared[trace].items())))
    name = "result-%s-seed%d-trace%d.json" % (workload, seed, trace)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump({"env": env, "result": detail}, f, indent=1)
    return detail


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 1

    if args.workload != "all":
        d = run_one(binary, bdir, args.workload, args.seed, args.seconds, args.trace)
        metrics = d["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({"correct": d["correct"], "attempted": d["attempted"],
                          "failed": d["failed"], "metrics": metrics}))
        return 0 if d["correct"] else 1

    # Every workload, untraced then traced; metric names gain a workload prefix.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        for trace in (0, 1):
            d = run_one(binary, bdir, w, args.seed, args.seconds, trace)
            summary["correct"] = summary["correct"] and d["correct"]
            summary["attempted"] += d["attempted"]
            summary["failed"] += d["failed"]
            for k, v in d["per_layer" if trace else "end_to_end"].items():
                summary["metrics"][w + "/" + k] = v
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
