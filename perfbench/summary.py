"""Summary arithmetic for the end-to-end benchmark.

Turns the raw samples seg_e2e prints into the metrics BENCHMARK.json
declares: medians of repeated timings, replica-latency percentiles under
the "at least ten samples beyond it" rule, check accounting, and metric-name
validation. perfbench/test_summary.py tests every function here.
"""

import math
import re
import statistics

# Percentiles considered for a latency tail, in tenths of a percent.
PERCENTILE_LADDER_TENTHS = (500, 900, 950, 990, 999)
MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    """A metric or workload name: letters, digits, '_', '.', '-'; <= 64."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


def _rank(tenths, n):
    """1-based nearest rank of the percentile: ceil(q/100 * n)."""
    return (tenths * n + 999) // 1000


def samples_beyond(tenths, n):
    """How many of n samples rank above the nearest-rank percentile."""
    return n - _rank(tenths, n)


def highest_supported_percentile(n, min_beyond=MIN_BEYOND):
    """Highest ladder percentile (in tenths) with >= min_beyond samples
    beyond it, or None when even the median lacks them."""
    best = None
    for tenths in PERCENTILE_LADDER_TENTHS:
        if samples_beyond(tenths, n) >= min_beyond:
            best = tenths
    return best


def percentile(values, tenths):
    """Nearest-rank percentile of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[max(1, _rank(tenths, len(ordered))) - 1]


def fail_frac(attempted, failed):
    """Failed checks over attempted checks; both whole numbers."""
    for v in (attempted, failed):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError("check counts must be whole numbers")
    if attempted < 1:
        raise ValueError("no checks attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


class Checks:
    """Check accounting: every check attempted, every miss counted."""

    def __init__(self, attempted=0, failed=0, failures=()):
        self.attempted = attempted
        self.failed = failed
        self.failures = list(failures)

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def frac(self):
        return fail_frac(self.attempted, self.failed)


def median(values):
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def replica_latency(latencies_ms, checks, required_tenths=950):
    """p50, p95 and sample count of the pooled replica latencies. A campaign
    whose sample cannot support p95 fails a check; no latencies (a workload
    that is not a campaign) reads 0."""
    n = len(latencies_ms)
    if n == 0:
        return {"campaign.replica_p50_ms": 0.0, "campaign.replica_p95_ms": 0.0,
                "campaign.replica_samples": 0}
    top = highest_supported_percentile(n)
    checks.expect(top is not None and top >= required_tenths,
                  "replica sample of %d supports p95" % n)
    return {"campaign.replica_p50_ms": percentile(latencies_ms, 500),
            "campaign.replica_p95_ms": percentile(latencies_ms, required_tenths),
            "campaign.replica_samples": n}


def end_to_end(raw, checks):
    """End-to-end metrics of an untraced run: medians of the repeated
    samples, and the process's peak resident set."""
    out = {}
    for name in ("wall_s", "setup_s", "replicas_per_s", "flips_per_s"):
        samples = raw[name]
        checks.expect(len(samples) >= 1 and all(
            v is not None and math.isfinite(v) and v > 0 for v in samples),
            "%s samples positive and finite" % name)
        out[name] = median([v for v in samples if v is not None] or [0.0])
    out["peak_rss_mb"] = raw["peak_rss_mb"]
    return out


def per_layer(raw, checks):
    """Per-layer metrics of a traced run: the median over traced
    repetitions of each layer figure, the serial baseline, and replica
    latency."""
    layers = raw["layers"]
    checks.expect(len(layers) >= 1, "at least one traced repetition")
    out = {}
    for name in (layers[0] if layers else {}):
        values = [rep[name] for rep in layers]
        checks.expect(all(v is not None and math.isfinite(v) for v in values),
                      "layer metric %s finite" % name)
        out[name] = median([v for v in values if v is not None] or [0.0])
    serial = raw["serial_wall_s"]
    checks.expect(len(serial) >= 1, "serial baseline measured")
    out["baseline.serial_wall_s"] = median(serial) if serial else 0.0
    out.update(replica_latency(raw["replica_ms"], checks))
    return out


def summarize(raw, bench, trace):
    """The result line for one run: {"correct", "attempted", "failed",
    "metrics"} with every metric BENCHMARK.json declares for this mode."""
    checks = Checks(int(raw["attempted"]), int(raw["failed"]),
                    raw.get("failures", []))
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    values = per_layer(raw, checks) if trace else end_to_end(raw, checks)
    if trace:
        values["check.fail_frac"] = None  # set once every check is counted
    for entry in declared:
        checks.expect(valid_name(entry["name"]) and valid_unit(entry["unit"])
                      and entry["name"] in values,
                      "metric %s produced under a valid name and unit"
                      % entry["name"])
    if trace:
        values["check.fail_frac"] = checks.frac
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
               for e in declared if e["name"] in values}
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}, checks
