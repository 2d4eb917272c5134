#!/usr/bin/env python3
"""The htnoc repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (which compiles the
htnoc libraries from src/) into .bench_build/perfbench, runs one workload in
one process, checks its simulated outputs, and prints one JSON object as the
last line of stdout: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.

--record stores the digests of the run as the expected ones for its seed
(for use after a deliberate change of simulated behaviour).
"""
import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "htnoc_perfbench"
EXPECTED = HERE / "expected_digests.json"
WORKLOADS = ("paper_grid", "mesh64_attacked", "campaign_audited")
RUN_TIMEOUT_S = 170  # a built run must finish within 180 s


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no htnoc sources under {ROOT / 'src'}; run from a repository checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "htnoc_perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")


def quantile(values, pct):
    """Inclusive (linearly interpolated) percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_unit(units, key, pct):
    """A percentile taken within each unit, averaged over the units. A unit
    lasts seconds and sees one state of a noisy host, so a slowdown over
    part of a run moves the figure by its share of the run."""
    return statistics.fmean(quantile(u[key], pct) for u in units)


def end_to_end(raw):
    units = raw["units"]
    seconds = sum(u["seconds"] for u in units)
    return {
        "sim_cycles_per_s": sum(u["cycles"] for u in units) / seconds,
        "runs_per_s": sum(len(u["run_ms"]) for u in units) / seconds,
        "run_p50_ms": per_unit(units, "run_ms", 50),
        "run_p90_ms": per_unit(units, "run_ms", 90),
        "step_p50_us": per_unit(units, "step_us", 50),
        "step_p95_us": per_unit(units, "step_us", 95),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}-{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out")
    if proc.returncode != 0:
        fail(f"benchmark binary exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    print("# fingerprint " + json.dumps(raw["fingerprint"], sort_keys=True))
    digests = [u["digest"] for u in raw["units"]]
    expected = (None if args.record else
                load_expected().get(args.workload, {}).get(str(args.seed)))
    digest_failures = 0
    for d in digests:
        if d != digests[0] or (expected is not None and d != expected):
            digest_failures += 1
    if digests:
        print(f"# digest {digests[0]} x{len(digests)} "
              f"(expected {expected or 'not recorded for this seed'})")
    bad_checks = [c for c in raw["checks"] if not c["ok"]]
    for c in bad_checks:
        print(f"# FAILED check: {c['name']} {c['detail']}".rstrip())
    print(f"# {len(raw['checks'])} consistency checks, "
          f"{raw['run_failures']} of {raw['run_attempts']} runs failed")

    if args.record:
        if digest_failures or bad_checks or raw["run_failures"] or not digests:
            fail("refusing to record digests of an inconsistent run")
        table = load_expected()
        table.setdefault(args.workload, {})[str(args.seed)] = digests[0]
        EXPECTED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

    attempted = raw["run_attempts"] + len(digests) + len(raw["checks"])
    failed = raw["run_failures"] + digest_failures + len(bad_checks)
    if args.trace:
        values, wanted = raw["layers"], spec["per_layer"]
    else:
        values, wanted = end_to_end(raw), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
