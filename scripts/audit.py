#!/usr/bin/env python3
"""Self-consistency auditor: docs vs recorded benchmarks vs source.

The repo makes quantitative claims in three places — README.md prose,
the annotations scripts/bench.sh bakes into BENCH_core.json, and
constants in the source tree. These drift independently (a re-run of
bench.sh, an edited README, a retuned constant), so CI runs this script
and fails on any contradiction between them.

Checks (see --list):
  * BENCH_core.json parses and contains the core benchmark families.
  * seed_baseline_ns annotations in BENCH_core.json equal the seed_ns
    table in scripts/bench.sh, and each recorded speedup_vs_seed is the
    recomputed baseline / real_time.
  * The sharded-scaling curve covers the shard counts the README
    documents (serial + 1/2/4/8 stripes).
  * The streaming-recording speedup recorded in BENCH_core.json meets
    the ">= 10x" target both it and the README state.
  * The coverage threshold in .github/workflows/ci.yml matches the
    README's stated gate.
  * A single-core benchmark run (context.num_cpus == 1) must carry a
    top-level "caveats" field — wall-clock parallel numbers from such a
    run are framework-overhead measurements, not scaling results.
  * The recorded disabled-telemetry overhead respects the <= 2% budget
    that README.md and src/obs/telemetry.h promise.
  * README.md's /metrics scrape-overhead claim equals the
    context.metrics_endpoint_overhead figure bench.sh recorded, which
    must stay inside its <= 2% budget.
  * README.md's bit-packed storage speedup claims equal the
    speedups over the last recorded byte-storage engine in
    BENCH_core.json.
  * README.md's adaptive-campaign replica-savings claim equals the
    context.adaptive_savings figure bench.sh recorded, which must meet
    its own >= 0.30 target.
  * README.md's torus-as-graph overhead factors equal the
    context.graph_overhead ratios bench.sh recorded, which must match
    the raw BM_FlipGraphTorus / BM_Flip rows they were derived from.
  * The histogram bucket count in src/obs/telemetry.h matches the
    README's description.

Usage: scripts/audit.py [--list] [--repo PATH]
Exit status 0 when every claim is consistent, 1 otherwise.
"""

import argparse
import json
import os
import re
import sys


def read_text(repo, rel):
    path = os.path.join(repo, rel)
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def check_bench_core(repo, bench):
    problems = []
    names = {b.get("name") for b in bench.get("benchmarks", [])}
    for required in ("BM_Flip/2", "BM_Flip/4", "BM_Flip/10"):
        if required not in names:
            problems.append(f"BENCH_core.json is missing {required}")
    return problems


def check_seed_baselines(repo, bench):
    """bench.sh's seed_ns table must equal the recorded annotations."""
    problems = []
    script = read_text(repo, "scripts/bench.sh")
    table = {}
    in_table = False
    for line in script.splitlines():
        if re.match(r"\s*seed_ns\s*=\s*{", line):
            in_table = True
            continue
        if in_table:
            if line.strip().startswith("}"):
                break
            m = re.match(r'\s*"([^"]+)":\s*([0-9.]+)', line)
            if m:
                table[m.group(1)] = float(m.group(2))
    if not table:
        return ["could not parse the seed_ns table out of scripts/bench.sh"]
    for b in bench.get("benchmarks", []):
        name = b.get("name")
        recorded = b.get("seed_baseline_ns")
        if recorded is None:
            continue
        expected = table.get(name)
        if expected is None:
            problems.append(
                f"{name} carries seed_baseline_ns={recorded} but "
                "scripts/bench.sh has no seed_ns entry for it")
        elif abs(recorded - expected) > 1e-9:
            problems.append(
                f"{name}: seed_baseline_ns={recorded} in BENCH_core.json, "
                f"but scripts/bench.sh says {expected}")
        real = b.get("real_time")
        speedup = b.get("speedup_vs_seed")
        if expected and real and speedup is not None:
            recomputed = round(expected / real, 2)
            if abs(recomputed - speedup) > 0.011:
                problems.append(
                    f"{name}: recorded speedup_vs_seed={speedup} but "
                    f"baseline/real_time = {recomputed}")
    return problems


def check_shard_coverage(repo, bench):
    """The scaling curve must cover the shard counts the README names."""
    problems = []
    documented = {0, 1, 2, 4, 8}  # serial + the 1/2/4/8 stripe curve
    seen = {}
    for b in bench.get("benchmarks", []):
        m = re.match(r"BM_GlauberSweep/(\d+)/(\d+)", b.get("name", ""))
        if m:
            seen.setdefault(int(m.group(1)), set()).add(int(m.group(2)))
    if not seen:
        return ["BENCH_core.json has no BM_GlauberSweep rows"]
    for n, shard_set in sorted(seen.items()):
        missing = documented - shard_set
        if missing:
            problems.append(
                f"BM_GlauberSweep at n={n} is missing shard counts "
                f"{sorted(missing)} (README documents serial + 1/2/4/8)")
    return problems


def check_streaming_speedup(repo, bench):
    problems = []
    readme = read_text(repo, "README.md")
    ctx = bench.get("context", {}).get("streaming_observables", {})
    target = ctx.get("target", "")
    m = re.search(r">=\s*(\d+)x", target)
    if not m:
        return ["BENCH_core.json streaming_observables has no '>= Nx' target"]
    floor = float(m.group(1))
    if not re.search(r"≥\s*10x|>=\s*10x", readme):
        problems.append(
            "README.md no longer states the >= 10x streaming recording "
            "target that BENCH_core.json declares")
    for n, speedup in ctx.get("speedup_vs_rescan", {}).items():
        if speedup < floor:
            problems.append(
                f"streaming recording speedup at n={n} is {speedup}x, below "
                f"the declared target {target!r}")
    return problems


def check_coverage_gate(repo, bench):
    problems = []
    ci = read_text(repo, os.path.join(".github", "workflows", "ci.yml"))
    readme = read_text(repo, "README.md")
    m = re.search(r"--fail-under-line\s+(\d+)", ci)
    if not m:
        return ["ci.yml has no --fail-under-line coverage gate"]
    gate = m.group(1)
    if not re.search(rf"below\s+{gate}%", readme):
        problems.append(
            f"ci.yml enforces --fail-under-line {gate} but README.md does "
            f"not describe a {gate}% gate")
    return problems


def check_single_core_caveats(repo, bench):
    if bench.get("context", {}).get("num_cpus") == 1:
        caveats = bench.get("caveats")
        if not caveats:
            return [
                "BENCH_core.json was recorded on a 1-CPU host but has no "
                "top-level 'caveats' field flagging the parallel numbers"]
    return []


def check_telemetry_budget(repo, bench):
    problems = []
    readme = read_text(repo, "README.md")
    header = read_text(repo, os.path.join("src", "obs", "telemetry.h"))
    for where, text in (("README.md", readme),
                        ("src/obs/telemetry.h", header)):
        if not re.search(r"(<=|≤)\s*2\s*%", text):
            problems.append(
                f"{where} no longer states the <= 2% disabled-telemetry "
                "budget the benchmark gate enforces")
    ctx = bench.get("context", {}).get("telemetry_overhead")
    if ctx is None:
        # Present only once bench.sh has rerun with BM_FlipTelemetry; its
        # absence is a stale-benchmarks problem, not an inconsistency.
        return problems
    m = re.search(r"(\d+(?:\.\d+)?)\s*%", ctx.get("budget", ""))
    if not m:
        problems.append(
            "BENCH_core.json telemetry_overhead has no parseable budget")
        return problems
    budget = float(m.group(1)) / 100.0
    disabled = ctx.get("disabled", {}).get("overhead_vs_BM_Flip_10")
    if disabled is None:
        problems.append(
            "BENCH_core.json telemetry_overhead records no disabled-mode "
            "measurement")
    elif disabled > budget:
        problems.append(
            f"recorded disabled-telemetry overhead {disabled:+.2%} exceeds "
            f"the {budget:.0%} budget stated alongside it")
    return problems


def check_metrics_endpoint_overhead(repo, bench):
    """README scrape-overhead claim == what bench.sh recorded, and <= 2%.

    BENCH_core.json's metrics_endpoint_overhead context carries the
    BM_GlauberRunScraped times with and without a live /metrics scraper
    plus the derived overhead fraction and its <= 2% budget. The README's
    observability section quotes that overhead; any drift (a re-run, an
    optimistic edit) is a contradiction, and the recorded overhead itself
    must stay inside the budget.
    """
    problems = []
    readme = read_text(repo, "README.md")
    ctx = bench.get("context", {}).get("metrics_endpoint_overhead")
    if ctx is None:
        # Present only once bench.sh has rerun with BM_GlauberRunScraped;
        # absence is a stale-benchmarks problem, not an inconsistency.
        return []
    unscraped = ctx.get("unscraped_ns")
    scraped = ctx.get("scraped_ns")
    overhead = ctx.get("overhead")
    if not unscraped or not scraped or overhead is None:
        return ["metrics_endpoint_overhead context is missing "
                "unscraped_ns / scraped_ns / overhead"]
    recomputed = round(scraped / unscraped - 1.0, 4)
    if abs(recomputed - overhead) > 0.00011:
        problems.append(
            f"metrics_endpoint_overhead records overhead={overhead} but "
            f"scraped/unscraped - 1 = {recomputed}")
    m = re.search(r"(\d+(?:\.\d+)?)\s*%", ctx.get("budget", ""))
    if not m:
        problems.append(
            "metrics_endpoint_overhead has no parseable '<= N%' budget")
        return problems
    budget = float(m.group(1)) / 100.0
    if overhead > budget:
        problems.append(
            f"recorded /metrics scrape overhead {overhead:+.2%} exceeds "
            f"the {budget:.0%} budget stated alongside it")
    line = next((ln for ln in readme.splitlines()
                 if "BM_GlauberRunScraped" in ln), None)
    if line is None:
        return problems + [
            "README.md never mentions BM_GlauberRunScraped, whose scrape "
            "overhead BENCH_core.json records"]
    pct = re.search(r"(-?\d+(?:\.\d+)?)\s*%", line)
    if not pct:
        problems.append(
            "README.md line naming BM_GlauberRunScraped quotes no 'N%' "
            f"overhead to check against the recorded {overhead}")
    elif abs(float(pct.group(1)) - 100.0 * overhead) > 0.06:
        problems.append(
            f"README.md claims {pct.group(1)}% scrape overhead but "
            f"BENCH_core.json records {100.0 * overhead:.2f}%")
    return problems


def check_packed_speedup(repo, bench):
    """README packed-storage speedup claims == what bench.sh recorded.

    BENCH_core.json's packed_storage context carries, per workload, the
    byte-engine time recorded before bit-packing and the packed engine's
    measured speedup over it. The README quotes those speedups; any
    drift (a re-run, an optimistic edit) is a contradiction.
    """
    problems = []
    readme = read_text(repo, "README.md")
    ctx = bench.get("context", {}).get("packed_storage")
    if ctx is None:
        return ["BENCH_core.json has no packed_storage context "
                "(re-run scripts/bench.sh)"]
    vs_prior = ctx.get("packed_vs_prior_recorded_byte", {})
    if not vs_prior:
        problems.append(
            "packed_storage context records no packed_vs_prior_recorded_byte "
            "workloads")
    for workload, row in sorted(vs_prior.items()):
        prior = row.get("prior_byte_ns")
        packed = row.get("packed_ns")
        speedup = row.get("speedup")
        if prior and packed and speedup is not None:
            recomputed = round(prior / packed, 2)
            if abs(recomputed - speedup) > 0.011:
                problems.append(
                    f"{workload}: recorded packed speedup {speedup}x but "
                    f"prior_byte_ns/packed_ns = {recomputed}x")
        # The README must quote this exact speedup on the line naming the
        # workload.
        line = next((ln for ln in readme.splitlines() if workload in ln),
                    None)
        if line is None:
            problems.append(
                f"README.md never mentions {workload}, whose packed "
                "speedup BENCH_core.json records")
            continue
        m = re.search(r"(\d+(?:\.\d+)?)\s*x", line)
        if not m:
            problems.append(
                f"README.md line naming {workload} quotes no 'Nx' speedup "
                f"to check against the recorded {speedup}x")
        elif abs(float(m.group(1)) - speedup) > 0.051:
            problems.append(
                f"README.md claims {m.group(1)}x on {workload} but "
                f"BENCH_core.json records {speedup}x")
    return problems


def check_adaptive_savings(repo, bench):
    """README adaptive replica-savings claim == what bench.sh recorded.

    BENCH_core.json's adaptive_savings context carries the replica counts
    the fixed and adaptive BM_AdaptiveCampaign modes scheduled plus the
    derived savings fraction and its >= 0.30 acceptance floor. The README
    quotes the savings percentage on the line naming the benchmark; any
    drift (a re-run, an optimistic edit) is a contradiction.
    """
    problems = []
    readme = read_text(repo, "README.md")
    ctx = bench.get("context", {}).get("adaptive_savings")
    if ctx is None:
        return ["BENCH_core.json has no adaptive_savings context "
                "(re-run scripts/bench.sh)"]
    fixed = ctx.get("fixed_replicas")
    adaptive = ctx.get("adaptive_replicas")
    savings = ctx.get("savings")
    if not fixed or adaptive is None or savings is None:
        return ["adaptive_savings context is missing fixed_replicas / "
                "adaptive_replicas / savings"]
    recomputed = round(1.0 - adaptive / fixed, 3)
    if abs(recomputed - savings) > 0.0011:
        problems.append(
            f"adaptive_savings records savings={savings} but "
            f"1 - adaptive/fixed = {recomputed}")
    m = re.search(r">=\s*(0\.\d+)", ctx.get("target", ""))
    if not m:
        problems.append(
            "adaptive_savings has no parseable '>= 0.NN' target")
    elif savings < float(m.group(1)):
        problems.append(
            f"recorded adaptive savings {savings} is below the declared "
            f"target {ctx['target']!r}")
    line = next((ln for ln in readme.splitlines()
                 if "BM_AdaptiveCampaign" in ln), None)
    if line is None:
        return problems + [
            "README.md never mentions BM_AdaptiveCampaign, whose replica "
            "savings BENCH_core.json records"]
    pct = re.search(r"(\d+(?:\.\d+)?)\s*%", line)
    if not pct:
        problems.append(
            "README.md line naming BM_AdaptiveCampaign quotes no 'N%' "
            f"savings to check against the recorded {savings}")
    elif abs(float(pct.group(1)) - 100.0 * savings) > 0.6:
        problems.append(
            f"README.md claims {pct.group(1)}% replica savings but "
            f"BENCH_core.json records {100.0 * savings:.1f}%")
    return problems


def check_graph_overhead(repo, bench):
    """README torus-as-graph overhead claims == what bench.sh recorded.

    BENCH_core.json's graph_overhead context carries, per neighborhood
    radius w, the BM_FlipGraphTorus/<w> : BM_Flip/<w> time ratio — what
    routing the torus through the generic CSR graph engine costs over the
    native span fast path. The README quotes those factors on the line
    naming BM_FlipGraphTorus; any drift (a re-run, an optimistic edit) is
    a contradiction.
    """
    problems = []
    readme = read_text(repo, "README.md")
    ctx = bench.get("context", {}).get("graph_overhead")
    if ctx is None:
        return ["BENCH_core.json has no graph_overhead context "
                "(re-run scripts/bench.sh)"]
    factors = ctx.get("overhead_factor_by_w", {})
    if not factors:
        return ["graph_overhead context records no overhead_factor_by_w"]
    for w, row in sorted(factors.items()):
        graph = row.get("graph_ns")
        native = row.get("native_ns")
        factor = row.get("factor")
        if not graph or not native or factor is None:
            problems.append(
                f"graph_overhead at w={w} is missing graph_ns / "
                "native_ns / factor")
            continue
        recomputed = round(graph / native, 2)
        if abs(recomputed - factor) > 0.011:
            problems.append(
                f"graph_overhead at w={w} records factor {factor}x but "
                f"graph_ns/native_ns = {recomputed}x")
    line = next((ln for ln in readme.splitlines()
                 if "BM_FlipGraphTorus" in ln), None)
    if line is None:
        return problems + [
            "README.md never mentions BM_FlipGraphTorus, whose "
            "torus-as-graph overhead BENCH_core.json records"]
    recorded = [row.get("factor") for row in factors.values()
                if row.get("factor") is not None]
    quoted = [float(x) for x in re.findall(r"(\d+(?:\.\d+)?)\s*x", line)]
    if not quoted:
        problems.append(
            "README.md line naming BM_FlipGraphTorus quotes no 'Nx' "
            "overhead to check against the recorded factors")
    for q in quoted:
        if not any(abs(q - f) <= 0.051 for f in recorded):
            problems.append(
                f"README.md quotes {q}x on the BM_FlipGraphTorus line but "
                f"BENCH_core.json records {sorted(recorded)}")
    return problems


def check_histogram_buckets(repo, bench):
    header = read_text(repo, os.path.join("src", "obs", "telemetry.h"))
    readme = read_text(repo, "README.md")
    m = re.search(r"kHistogramBuckets\s*=\s*(\d+)", header)
    if not m:
        return ["src/obs/telemetry.h no longer defines kHistogramBuckets"]
    buckets = m.group(1)
    if f"{buckets} log2 buckets" not in readme:
        return [
            f"src/obs/telemetry.h uses {buckets} histogram buckets but "
            f"README.md does not describe '{buckets} log2 buckets'"]
    return []


CHECKS = [
    ("bench-core-present", check_bench_core),
    ("seed-baselines", check_seed_baselines),
    ("shard-coverage", check_shard_coverage),
    ("streaming-speedup", check_streaming_speedup),
    ("coverage-gate", check_coverage_gate),
    ("single-core-caveats", check_single_core_caveats),
    ("telemetry-budget", check_telemetry_budget),
    ("metrics-endpoint-overhead", check_metrics_endpoint_overhead),
    ("packed-speedup", check_packed_speedup),
    ("adaptive-savings", check_adaptive_savings),
    ("graph-overhead", check_graph_overhead),
    ("histogram-buckets", check_histogram_buckets),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="list check names and exit")
    parser.add_argument("--repo", default=None,
                        help="repo root (default: parent of this script)")
    args = parser.parse_args()

    if args.list:
        for name, _ in CHECKS:
            print(name)
        return 0

    repo = args.repo or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    try:
        with open(os.path.join(repo, "BENCH_core.json"),
                  encoding="utf-8") as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"audit: FAIL: cannot load BENCH_core.json: {err}")
        return 1

    failures = 0
    for name, check in CHECKS:
        try:
            problems = check(repo, bench)
        except OSError as err:
            problems = [f"cannot read a file this check needs: {err}"]
        if problems:
            failures += len(problems)
            for problem in problems:
                print(f"audit: FAIL [{name}]: {problem}")
        else:
            print(f"audit: ok   [{name}]")

    if failures:
        print(f"audit: {failures} contradiction(s) between docs, "
              "BENCH_core.json, and source")
        return 1
    print("audit: all claims consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
