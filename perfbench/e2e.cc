// seg_e2e — the measuring half of the end-to-end benchmark (perfbench/run.py
// is the other half: it builds this program, summarizes its raw output and
// prints the result line).
//
//   seg_e2e --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   phase_grid     the phase_diagram built-in campaign
//   region_ladder  the region_size built-in campaign (+ a flips column)
//   fig1_giant     the Figure 1 trajectory (n = 1000, w = 10, tau = 0.42)
//                  on the sharded engine, with a serial-engine baseline
//   graph_mix      the graph_topologies built-in campaign at 4096 nodes
//
// --trace 0 repeats the workload until S seconds have passed and reports
// raw samples of the end-to-end timings. Telemetry stays off.
// --trace 1 alternates an untraced and a traced repetition. The traced one
// recomputes every result through the layers' public calls, wrapped in
// spans (name, start, end, parent; one id per replica), and checks each
// recomputed value bitwise against the untraced run. The spans of the
// first traced repetition are written to DIR at exit.
//
// Every mode checks its outputs and counts the checks; stdout is one JSON
// document (raw samples, per-layer sums, check counts, host facts),
// diagnostics go to stderr.
#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/regions.h"
#include "analysis/streaming.h"
#include "campaign/builtin.h"
#include "campaign/campaign.h"
#include "campaign/metrics.h"
#include "campaign/sinks.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "core/parallel_dynamics.h"
#include "graph/topology.h"
#include "lattice/engine.h"
#include "lattice/sharded.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rng/rng.h"
#include "rng/splitmix64.h"

namespace {

using Clock = std::chrono::steady_clock;
using seg::BuiltinCampaign;
using seg::CampaignResult;
using seg::ScenarioPoint;

// Campaigns run with this many workers and the sharded run uses this many
// threads: the host the benchmark was defined on has 4 cores.
constexpr std::size_t kThreads = 4;
constexpr int kFig1Shards = 4;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

// ---- minimal JSON emission --------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Builds one JSON object; keys keep insertion order.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + json_string(key) + ": " + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    std::string arr = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      arr += (i ? ", " : "") + json_number(v[i]);
    }
    return raw(key, arr + "]");
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- checks -----------------------------------------------------------------

// Every correctness check the run makes; main thread only.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  bool expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 32) failures.push_back(what);
      std::fprintf(stderr, "seg_e2e: check failed: %s\n", what.c_str());
    }
    return ok;
  }
};

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- spans ------------------------------------------------------------------

struct Span {
  const char* name;
  int parent;  // index in the same log, -1 for a root
  std::int64_t start_ns;
  std::int64_t end_ns;
  int thread;
};

// Spans of one replica (or one fig1 pipeline), recorded by one thread.
class SpanLog {
 public:
  int open(const char* name) {
    spans_.push_back({name, current_, now_ns(), 0, thread_index()});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  double close(int index) {
    Span& s = spans_[index];
    s.end_ns = now_ns();
    current_ = s.parent;
    return seconds_between(s.start_ns, s.end_ns);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

// Scoped span; adds its duration to *total when given.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, double* total = nullptr)
      : log_(log), index_(log.open(name)), total_(total) {}
  ~Scope() { stop(); }
  // Ends the span early; returns its duration.
  double stop() {
    if (index_ < 0) return 0.0;
    const double d = log_.close(index_);
    index_ = -1;
    if (total_) *total_ += d;
    return d;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int index_;
  double* total_;
};

// Spans of one repetition, keyed by replica id, for the file written at
// exit.
struct SpanDump {
  std::vector<std::pair<long long, const SpanLog*>> logs;

  std::string to_json() const {
    std::string out = "{\"time_unit\": \"us\", \"spans\": [\n";
    long long next_id = 0;
    bool first = true;
    for (const auto& [replica, log] : logs) {
      const long long base = next_id;
      for (const Span& s : log->spans()) {
        JsonObject o;
        o.num("id", static_cast<double>(next_id++))
            .num("parent", s.parent < 0 ? -1.0
                                        : static_cast<double>(base + s.parent))
            .num("replica", static_cast<double>(replica))
            .str("name", s.name)
            .num("thread", s.thread)
            .num("start_us", static_cast<double>(s.start_ns) * 1e-3)
            .num("end_us", static_cast<double>(s.end_ns) * 1e-3);
        out += (first ? "" : ",\n") + o.dump();
        first = false;
      }
    }
    return out + "\n]}\n";
  }
};

// ---- per-layer sums ---------------------------------------------------------

// Seconds (and counts) attributed to each layer over one traced
// repetition. `replica_s` is the time of the pipelines the layers ran in;
// `attributed_s` the part covered by a layer span.
struct LayerSums {
  double construct = 0, dynamics = 0, streaming = 0, measure = 0;
  double mono_field = 0, almost_field = 0, region_sample = 0;
  double graph_build = 0, replica_s = 0, attributed_s = 0;
  double flips = 0, graph_builds = 0;
  double sharded_dynamics = 0, sweeps = 0, deferred = 0, reconciled = 0;
  double sharded_flips = 0;
  double sink_s = 0, sink_bytes = 0;
  double worker_util = 0, overhead = 0;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string layer_json(const LayerSums& s) {
  const double speedup = ratio(s.dynamics, s.sharded_dynamics);
  JsonObject o;
  o.num("core.construct_s", s.construct)
      .num("core.construct_share", ratio(s.construct, s.replica_s))
      .num("core.dynamics_s", s.dynamics)
      .num("core.dynamics_share", ratio(s.dynamics, s.replica_s))
      .num("core.flips", s.flips)
      .num("core.ns_per_flip", ratio(s.dynamics * 1e9, s.flips))
      .num("sharded.dynamics_s", s.sharded_dynamics)
      .num("sharded.sweeps", s.sweeps)
      .num("sharded.deferred", s.deferred)
      .num("sharded.reconciled", s.reconciled)
      .num("sharded.flips_per_sweep", ratio(s.sharded_flips, s.sweeps))
      .num("sharded.reconcile_yield", ratio(s.reconciled, s.deferred))
      .num("sharded.speedup_vs_serial", s.sharded_dynamics > 0 ? speedup : 0)
      .num("sharded.parallel_efficiency",
           s.sharded_dynamics > 0 ? speedup / kFig1Shards : 0)
      .num("analysis.measure_s", s.measure)
      .num("analysis.measure_share", ratio(s.measure, s.replica_s))
      .num("analysis.mono_field_s", s.mono_field)
      .num("analysis.region_sample_s", s.region_sample)
      .num("analysis.almost_field_s", s.almost_field)
      .num("analysis.streaming_s", s.streaming)
      .num("campaign.worker_util", s.worker_util)
      .num("graph.build_s", s.graph_build)
      .num("graph.builds", s.graph_builds)
      .num("graph.build_share", ratio(s.graph_build, s.replica_s))
      .num("io.sink_s", s.sink_s)
      .num("io.sink_bytes", s.sink_bytes)
      .num("trace.coverage", ratio(s.attributed_s, s.replica_s))
      .num("trace.overhead", s.overhead);
  return o.dump();
}

// ---- campaign workloads -----------------------------------------------------

// Replica counts are sized so each campaign has >= 200 replicas (a p95
// replica latency with >= 10 samples beyond it) and one 4-worker
// repetition takes well under a second on a 4-core host.
constexpr std::size_t kPhaseGridReplicas = 6;     // 36 points -> 216
constexpr std::size_t kRegionLadderReplicas = 14;  // 15 points -> 210
constexpr std::size_t kGraphMixReplicas = 34;     // 6 points -> 204
constexpr int kGraphMixSide = 64;                 // small_world: 64 x 64
constexpr std::size_t kGraphMixNodes = 4096;      // random_regular nodes

bool is_campaign(const std::string& workload) {
  return workload == "phase_grid" || workload == "region_ladder" ||
         workload == "graph_mix";
}

// The campaign a workload runs, built through the public builtin API.
BuiltinCampaign make_campaign(const std::string& workload,
                              std::uint64_t seed) {
  seg::BuiltinOverrides overrides;
  std::string builtin;
  if (workload == "phase_grid") {
    builtin = "phase_diagram";
    overrides.replicas = kPhaseGridReplicas;
  } else if (workload == "region_ladder") {
    builtin = "region_size";
    overrides.replicas = kRegionLadderReplicas;
  } else {
    builtin = "graph_topologies";
    overrides.replicas = kGraphMixReplicas;
    overrides.n = kGraphMixSide;
    overrides.graph_nodes = kGraphMixNodes;
    // The graph inputs come from the seed too (nonzero: 0 keeps default).
    overrides.graph_seed = seg::mix_seed(seed, 0x67) | 1u;
  }
  BuiltinCampaign bc;
  seg::make_builtin_campaign(builtin, overrides, &bc);
  // flips_per_s needs each replica's flip count. region_size does not
  // report it, so append the column; "flips" reads the run result and
  // draws no randomness, so every other column is unchanged.
  if (seg::metric_index(bc.metric_names, "flips") == bc.metric_names.size()) {
    bc.spec.metrics.push_back("flips");
    bc.metric_names = seg::expand_metric_names(bc.spec.metrics);
    bc.replica = seg::make_schelling_replica(bc.spec);
  }
  return bc;
}

std::size_t replica_slots(const BuiltinCampaign& bc) {
  return bc.points.size() * bc.spec.layout_replicas();
}

std::size_t global_index(const BuiltinCampaign& bc, const ScenarioPoint& pt,
                         std::size_t replica) {
  return pt.index * bc.spec.layout_replicas() + replica;
}

// Order-sensitive digest of the aggregate: the CSV bytes plus the raw bits
// of every accumulator.
std::uint64_t aggregate_digest(const BuiltinCampaign& bc,
                               const CampaignResult& result) {
  const std::string csv = seg::CsvSink::render(bc.spec, result);
  std::uint64_t h = fnv1a(csv.data(), csv.size(), 1469598103934665603ull);
  for (const seg::PointResult& pr : result.points) {
    for (const seg::RunningStats& st : pr.stats) {
      const double v[] = {static_cast<double>(st.count()), st.mean(),
                          st.variance(), st.min(), st.max()};
      h = fnv1a(v, sizeof v, h);
    }
  }
  return h;
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<std::uint64_t>(f.tellg()) : 0;
}

// One untraced repetition: run_campaign + CSV/manifest write, with each
// replica's row and busy time captured through a thin wrapper.
struct CampaignRep {
  double wall_s = 0;      // run_campaign + write_all
  double campaign_s = 0;  // run_campaign only
  double sink_s = 0;
  double sink_bytes = 0;
  double flips = 0;
  std::size_t replicas = 0;
  std::uint64_t digest = 0;
  std::vector<std::vector<double>> rows;
  std::vector<double> busy_s;
  CampaignResult result;
};

CampaignRep run_campaign_rep(const BuiltinCampaign& bc, std::uint64_t seed,
                             std::size_t threads,
                             const std::string& out_prefix) {
  CampaignRep rep;
  rep.rows.assign(replica_slots(bc), {});
  rep.busy_s.assign(replica_slots(bc), 0.0);
  // Each slot is written by exactly one worker.
  const seg::ReplicaFn capture = [&](const ScenarioPoint& pt,
                                     std::size_t replica,
                                     std::uint64_t replica_seed) {
    const std::int64_t t0 = now_ns();
    std::vector<double> row = bc.replica(pt, replica, replica_seed);
    const std::size_t g = global_index(bc, pt, replica);
    rep.busy_s[g] = seconds_between(t0, now_ns());
    rep.rows[g] = row;
    return row;
  };
  seg::CampaignOptions options;
  options.threads = threads;
  seg::CsvSink csv(out_prefix + ".csv");
  seg::ManifestSink manifest(out_prefix + ".manifest");
  const std::int64_t t0 = now_ns();
  rep.result = seg::run_campaign(bc.spec, bc.points, bc.metric_names, capture,
                                 seed, options);
  const std::int64_t t1 = now_ns();
  const bool wrote = seg::write_all(bc.spec, rep.result, {&csv, &manifest});
  const std::int64_t t2 = now_ns();
  rep.campaign_s = seconds_between(t0, t1);
  rep.sink_s = seconds_between(t1, t2);
  rep.wall_s = seconds_between(t0, t2);
  rep.sink_bytes = wrote ? static_cast<double>(file_size(csv.path()) +
                                               file_size(manifest.path()))
                         : 0.0;
  rep.replicas = rep.result.replicas_done;
  rep.digest = aggregate_digest(bc, rep.result);
  const std::size_t flips_col = seg::metric_index(bc.metric_names, "flips");
  for (const std::vector<double>& row : rep.rows) {
    if (flips_col < row.size()) rep.flips += row[flips_col];
  }
  return rep;
}

// Completeness, finiteness, and the aggregate digest against `reference`
// (0 = this rep defines it).
void check_campaign_rep(const BuiltinCampaign& bc, const CampaignRep& rep,
                        std::uint64_t reference, const std::string& what,
                        Checks& checks) {
  const CampaignResult& r = rep.result;
  checks.expect(r.complete && r.points.size() == bc.points.size() &&
                    r.replicas_done == bc.spec.total_replicas(),
                what + ": campaign complete");
  bool points_ok = true;
  for (const seg::PointResult& pr : r.points) {
    points_ok &= pr.replicas_used == bc.spec.replicas &&
                 pr.stats.size() == bc.metric_names.size();
    for (const seg::RunningStats& st : pr.stats) {
      points_ok &= st.count() == bc.spec.replicas &&
                   std::isfinite(st.mean()) && std::isfinite(st.min()) &&
                   std::isfinite(st.max());
    }
  }
  checks.expect(points_ok, what + ": every point complete, metrics finite");
  bool rows_ok = true;
  for (const std::vector<double>& row : rep.rows) {
    rows_ok &= row.size() == bc.metric_names.size() && all_finite(row);
  }
  checks.expect(rows_ok, what + ": every replica row finite");
  checks.expect(rep.sink_bytes > 0, what + ": CSV and manifest written");
  if (reference != 0) {
    checks.expect(rep.digest == reference,
                  what + ": aggregate digest " + hex64(rep.digest) +
                      " == reference " + hex64(reference));
  }
}

// What the traced recomputation of one replica produced.
struct ReplicaTrace {
  SpanLog log;
  std::vector<double> row;
  double construct = 0, graph_build = 0, dynamics = 0, streaming = 0;
  double measure = 0, mono_field = 0, almost_field = 0, region_sample = 0;
  double replica_s = 0, attributed_s = 0;
  double flips = 0;
  double graph_builds = 0;
  bool plain_matches_observed = true;
};

bool is_region_metric(const std::string& name) {
  return name == "mean_mono_region" || name == "largest_mono_region" ||
         name == "mean_almost_region" || name == "largest_almost_region";
}

// Rebuilds a non-torus point's topology from the spec's graph_* keys, the
// way the built-in replica does.
std::shared_ptr<const seg::GraphTopology> build_graph(
    const seg::ScenarioSpec& spec, const ScenarioPoint& pt) {
  using seg::GraphTopology;
  switch (pt.topology) {
    case seg::TopologyFamily::kLollipop:
      return std::make_shared<const GraphTopology>(
          GraphTopology::lollipop(spec.graph_clique, spec.graph_path));
    case seg::TopologyFamily::kRandomRegular: {
      const std::size_t nodes =
          spec.graph_nodes > 0
              ? spec.graph_nodes
              : static_cast<std::size_t>(pt.params.n) * pt.params.n;
      return std::make_shared<const GraphTopology>(
          GraphTopology::random_regular(static_cast<int>(nodes),
                                        spec.graph_degree, spec.graph_seed));
    }
    case seg::TopologyFamily::kSmallWorld:
      return std::make_shared<const GraphTopology>(GraphTopology::small_world(
          pt.params.n, seg::neighborhood_offsets(pt.params.shape, pt.params.w),
          spec.graph_beta, spec.graph_seed));
    default:
      return nullptr;
  }
}

// Recomputes one replica from the layer calls, in make_schelling_replica's
// stream order (0 = init, 1 = dynamics, 2 = measurement), with a span
// around every call. Glauber dynamics on one shard only; the caller checks
// the spec keeps to that.
//
// When streaming metrics are requested, the same trajectory also runs once
// without the observer (the "probe", excluded from replica time): the
// observer's cost is the difference, since the trajectory is bitwise the
// same either way.
void trace_replica(const seg::ScenarioSpec& spec,
                   const std::vector<std::string>& names,
                   const ScenarioPoint& pt, std::uint64_t seed,
                   ReplicaTrace& t) {
  std::vector<seg::MetricFn> fns;
  bool needs_streaming = false, needs_mono = false, needs_almost = false;
  for (const std::string& name : names) {
    seg::MetricFn fn = nullptr;
    seg::lookup_metric(name, &fn);
    fns.push_back(fn);
    needs_streaming |= name.rfind("streaming_", 0) == 0;
    needs_mono |= name.find("mono_region") != std::string::npos;
    needs_almost |= name.find("almost_region") != std::string::npos;
  }
  SpanLog& log = t.log;
  Scope root(log, "replica");
  double probe = 0;
  seg::RunOptions run_options;
  if (spec.max_flips > 0) run_options.max_flips = spec.max_flips;

  std::unique_ptr<seg::SchellingModel> model;
  seg::Rng init = seg::Rng::stream(seed, 0);
  if (pt.topology != seg::TopologyFamily::kTorus) {
    std::shared_ptr<const seg::GraphTopology> graph;
    {
      Scope s(log, "graph.build", &t.graph_build);
      graph = build_graph(spec, pt);
    }
    t.graph_builds += 1;
    Scope s(log, "core.construct", &t.construct);
    model = std::make_unique<seg::SchellingModel>(
        pt.params, graph,
        seg::random_spins_count(graph->node_count(), pt.params.p, init));
  } else {
    Scope s(log, "core.construct", &t.construct);
    model = std::make_unique<seg::SchellingModel>(pt.params, init);
  }

  std::unique_ptr<seg::StreamingObservables> streaming;
  double streaming_init = 0, observed_s = 0, plain_s = 0;
  seg::RunResult run;
  if (needs_streaming) {
    {
      Scope s(log, "analysis.streaming_init", &streaming_init);
      seg::StreamingConfig config;
      config.autocorr_window = 64;
      streaming = std::make_unique<seg::StreamingObservables>(
          model->spins(), pt.params.n, config);
    }
    seg::RunResult plain_run;
    {
      Scope s(log, "probe.plain_run", &probe);
      seg::Rng plain_init = seg::Rng::stream(seed, 0);
      seg::SchellingModel plain(pt.params, plain_init);
      seg::Rng plain_dyn = seg::Rng::stream(seed, 1);
      Scope d(log, "probe.core.dynamics", &plain_s);
      plain_run = seg::run_glauber(plain, plain_dyn, run_options);
    }
    const std::uint64_t sample_every =
        spec.streaming_sample_every > 0
            ? spec.streaming_sample_every
            : std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(pt.params.n) * pt.params.n /
                         64);
    model->set_flip_observer(streaming.get());
    run_options.snapshot_every = sample_every;
    seg::StreamingObservables* sink = streaming.get();
    run_options.on_snapshot = [sink](const seg::SchellingModel&,
                                     std::uint64_t, double) {
      sink->record_sample();
    };
    seg::Rng dyn = seg::Rng::stream(seed, 1);
    {
      Scope s(log, "core.dynamics+analysis.streaming", &observed_s);
      run = seg::run_glauber(*model, dyn, run_options);
    }
    model->set_flip_observer(nullptr);
    t.plain_matches_observed =
        plain_run.flips == run.flips &&
        std::memcmp(&plain_run.final_time, &run.final_time,
                    sizeof(double)) == 0;
    t.dynamics += plain_s;
    t.streaming += streaming_init + observed_s - plain_s;
  } else {
    seg::Rng dyn = seg::Rng::stream(seed, 1);
    {
      Scope s(log, "core.dynamics", &observed_s);
      run = seg::run_glauber(*model, dyn, run_options);
    }
    t.dynamics += observed_s;
  }
  t.flips = static_cast<double>(run.flips);

  {
    Scope m(log, "analysis.measure", &t.measure);
    seg::Rng sample = seg::Rng::stream(seed, 2);
    seg::MetricContext ctx(*model, run, spec, sample, streaming.get());
    if (needs_mono) {
      Scope s(log, "analysis.mono_field", &t.mono_field);
      ctx.mono();
    }
    if (needs_almost) {
      Scope s(log, "analysis.almost_field", &t.almost_field);
      ctx.almost();
    }
    for (std::size_t i = 0; i < fns.size(); ++i) {
      if (is_region_metric(names[i])) {
        Scope s(log, "analysis.region_sample", &t.region_sample);
        t.row.push_back(fns[i](ctx));
      } else {
        Scope s(log, "analysis.metric");
        t.row.push_back(fns[i](ctx));
      }
    }
  }
  const double total = root.stop();
  t.replica_s = total - probe;
  // The layer spans directly under the root, the probe excluded.
  t.attributed_s = t.graph_build + t.construct + streaming_init + observed_s +
                   t.measure;
}

struct TracedCampaign {
  std::vector<ReplicaTrace> replicas;
  double wall_s = 0;
};

TracedCampaign run_traced_campaign(const BuiltinCampaign& bc,
                                   std::uint64_t seed) {
  TracedCampaign out;
  out.replicas.resize(replica_slots(bc));
  const seg::ScenarioSpec spec = bc.spec;
  const std::vector<std::string> names = bc.metric_names;
  const seg::ReplicaFn traced = [&](const ScenarioPoint& pt,
                                    std::size_t replica,
                                    std::uint64_t replica_seed) {
    ReplicaTrace& t = out.replicas[global_index(bc, pt, replica)];
    trace_replica(spec, names, pt, replica_seed, t);
    return t.row;
  };
  seg::CampaignOptions options;
  options.threads = kThreads;
  const std::int64_t t0 = now_ns();
  seg::run_campaign(bc.spec, bc.points, bc.metric_names, traced, seed,
                    options);
  out.wall_s = seconds_between(t0, now_ns());
  return out;
}

// Compares the traced recomputation with the untraced rows, replica by
// replica; returns the per-layer sums.
LayerSums compare_and_sum(const CampaignRep& rep,
                          const TracedCampaign& traced,
                          const std::string& what, Checks& checks) {
  LayerSums s;
  std::size_t mismatched = 0, probe_mismatch = 0;
  double untraced_busy = 0;
  for (std::size_t g = 0; g < traced.replicas.size(); ++g) {
    const ReplicaTrace& t = traced.replicas[g];
    if (!bitwise_equal(t.row, rep.rows[g])) ++mismatched;
    if (!t.plain_matches_observed) ++probe_mismatch;
    s.construct += t.construct;
    s.graph_build += t.graph_build;
    s.graph_builds += t.graph_builds;
    s.dynamics += t.dynamics;
    s.streaming += t.streaming;
    s.measure += t.measure;
    s.mono_field += t.mono_field;
    s.almost_field += t.almost_field;
    s.region_sample += t.region_sample;
    s.replica_s += t.replica_s;
    s.attributed_s += t.attributed_s;
    s.flips += t.flips;
    untraced_busy += rep.busy_s[g];
  }
  checks.expect(mismatched == 0,
                what + ": " + std::to_string(mismatched) +
                    " recomputed replica rows differ bitwise from "
                    "run_campaign's");
  checks.expect(probe_mismatch == 0,
                what + ": trajectory identical with and without the "
                       "streaming observer");
  s.sink_s = rep.sink_s;
  s.sink_bytes = rep.sink_bytes;
  s.worker_util = ratio(untraced_busy, kThreads * rep.campaign_s);
  s.overhead = ratio(s.replica_s, untraced_busy) - 1.0;
  return s;
}

// ---- fig1_giant -------------------------------------------------------------

seg::ModelParams fig1_params() {
  seg::ModelParams params;
  params.n = 1000;
  params.w = 10;
  params.tau = 0.42;
  params.p = 0.5;
  return params;
}

std::unique_ptr<seg::SchellingModel> fig1_model(std::uint64_t seed,
                                                bool sharded) {
  const seg::ModelParams params = fig1_params();
  seg::Rng init = seg::Rng::stream(seed, 0);
  if (!sharded) return std::make_unique<seg::SchellingModel>(params, init);
  return std::make_unique<seg::SchellingModel>(
      params, init, seg::ShardLayout::stripes(params.n, params.w, kFig1Shards));
}

struct Fig1Run {
  double construct_s = 0, dynamics_s = 0, measure_s = 0;
  double flips = 0, sweeps = 0, deferred = 0, reconciled = 0;
  double final_time = 0;
  double initial_plus = 0;
  std::int64_t largest_mono = 0;
  bool terminated = false;
  bool all_happy = false;
  std::uint64_t spins_digest = 0;
  double wall_s() const { return dynamics_s + measure_s; }
};

// One Figure 1 pipeline: construct, run to absorption, measure. Spans go
// to `log` when given.
Fig1Run run_fig1(std::uint64_t seed, bool sharded, std::size_t threads,
                 SpanLog* log) {
  SpanLog scratch;
  SpanLog& l = log ? *log : scratch;
  Fig1Run r;
  Scope root(l, sharded ? "fig1.sharded" : "fig1.serial");
  std::unique_ptr<seg::SchellingModel> model;
  {
    Scope s(l, "core.construct", &r.construct_s);
    model = fig1_model(seed, sharded);
  }
  r.initial_plus = model->plus_fraction();
  if (sharded) {
    seg::ParallelOptions options;
    options.threads = threads;
    Scope s(l, "sharded.dynamics", &r.dynamics_s);
    const seg::ParallelRunResult run =
        seg::run_parallel_glauber(*model, seg::mix_seed(seed, 1), options);
    r.flips = static_cast<double>(run.flips);
    r.sweeps = static_cast<double>(run.sweeps);
    r.deferred = static_cast<double>(run.deferred);
    r.reconciled = static_cast<double>(run.reconciled);
    r.final_time = run.final_time;
    r.terminated = run.terminated;
  } else {
    seg::Rng dyn = seg::Rng::stream(seed, 1);
    Scope s(l, "core.dynamics", &r.dynamics_s);
    const seg::RunResult run = seg::run_glauber(*model, dyn);
    r.flips = static_cast<double>(run.flips);
    r.final_time = run.final_time;
    r.terminated = run.terminated;
  }
  {
    Scope s(l, "analysis.mono_field", &r.measure_s);
    r.largest_mono = seg::largest_mono_region(seg::mono_region_field(*model));
  }
  root.stop();
  r.terminated &= model->terminated();
  r.all_happy = model->count_unhappy() == 0;
  const std::vector<std::int8_t> spins = model->spins();
  r.spins_digest = fnv1a(spins.data(), spins.size(), 1469598103934665603ull);
  return r;
}

void check_fig1(const Fig1Run& r, const std::string& what, Checks& checks) {
  checks.expect(r.terminated, what + ": run terminated");
  checks.expect(r.all_happy, what + ": every agent happy at the end");
  checks.expect(r.flips > 0 && r.largest_mono >= 1,
                what + ": flips applied and regions measured");
}

// Same seed, same engine, same shard count: the trajectory repeats.
void check_fig1_repeat(const Fig1Run& a, const Fig1Run& b,
                       const std::string& what, Checks& checks) {
  checks.expect(a.flips == b.flips && a.sweeps == b.sweeps &&
                    a.deferred == b.deferred &&
                    a.reconciled == b.reconciled &&
                    std::memcmp(&a.final_time, &b.final_time,
                                sizeof(double)) == 0 &&
                    a.largest_mono == b.largest_mono &&
                    a.spins_digest == b.spins_digest,
                what + ": trajectory repeats bitwise");
}

// ---- host facts -------------------------------------------------------------

std::string cpu_model() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

std::string host_json() {
#if defined(SEG_ENGINE_AVX512)
  const bool kernel_compiled = true;
#else
  const bool kernel_compiled = false;
#endif
#if defined(SEG_BYTE_STORAGE_DEFAULT)
  const bool packed_default = false;
#else
  const bool packed_default = true;
#endif
#if defined(SEG_NO_POPCNT)
  const bool no_popcnt = true;
#else
  const bool no_popcnt = false;
#endif
#if defined(SEG_TELEMETRY_DISABLED)
  const bool telemetry_compiled = false;
#else
  const bool telemetry_compiled = true;
#endif
  const bool cpu_avx512bw = __builtin_cpu_supports("avx512bw");
  JsonObject o;
  o.num("nproc", std::thread::hardware_concurrency())
      .str("cpu_model", cpu_model())
      .boolean("cpu_avx512bw", cpu_avx512bw)
      .boolean("avx512bw_kernel_compiled", kernel_compiled)
      // The engine's last dispatch condition (dense window, sparse
      // crossings) is private; packed storage + compiled kernel + cpuid is
      // what can be seen from outside, and holds for the w >= 2 torus
      // workloads here.
      .boolean("avx512bw_kernel_dispatched",
               cpu_avx512bw && kernel_compiled && packed_default)
      .str("compiler", SEG_E2E_COMPILER)
      .str("build_type", SEG_E2E_BUILD_TYPE)
      .str("cxx_flags", SEG_E2E_CXX_FLAGS)
      .boolean("SEG_PACKED_DEFAULT", packed_default)
      .boolean("SEG_NO_POPCNT", no_popcnt)
      .boolean("SEG_TELEMETRY_compiled", telemetry_compiled)
      .str("google_benchmark",
           "not linked; the installed library is a debug build");
  return o.dump();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- workload runners -------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

struct Report {
  std::vector<double> setup_s, wall_s, serial_wall_s, replicas_per_s,
      flips_per_s;
  std::vector<std::string> layers;  // one JSON object per traced rep
  std::vector<double> replica_ms;   // untraced replica latencies, pooled
  std::map<std::string, std::string> info;
};

std::uint64_t second_seed(std::uint64_t seed) {
  return seg::mix_seed(seed, 0x5ecd);
}

bool time_left(std::int64_t deadline_ns) { return now_ns() < deadline_ns; }

void run_campaign_workload(const Args& args, std::int64_t deadline,
                           Report& report, Checks& checks) {
  // Set-up: building the campaign and expanding its points. A user pays
  // it once, with cold caches, so it is timed once at start and again
  // after every repetition, never back to back.
  BuiltinCampaign bc;
  bool valid = true;
  auto set_up = [&] {
    const std::int64_t t0 = now_ns();
    bc = make_campaign(args.workload, args.seed);
    std::string why;
    const bool ok = bc.spec.valid(&why);
    report.setup_s.push_back(seconds_between(t0, now_ns()));
    if (!ok && valid) checks.expect(false, "campaign spec valid: " + why);
    valid &= ok;
  };
  set_up();
  bool supported = true;
  for (const ScenarioPoint& pt : bc.points) {
    supported &= pt.dynamics == seg::DynamicsKind::kGlauber;
  }
  checks.expect(supported && bc.spec.shards <= 1 &&
                    bc.spec.stop.rule == seg::StopRule::kNone,
                "campaign is fixed-replica Glauber on one shard");
  const std::string prefix = args.out_dir + "/" + args.workload;
  const std::uint64_t seed = args.seed;

  // Warm-up rep; its digest is the reference every later rep must match.
  const CampaignRep warm = run_campaign_rep(bc, seed, kThreads, prefix);
  check_campaign_rep(bc, warm, 0, "warm-up", checks);
  const std::uint64_t reference = warm.digest;
  report.info["digest"] = hex64(reference);
  report.info["replicas"] = std::to_string(warm.replicas);

  if (!args.trace) {
    do {
      const CampaignRep rep = run_campaign_rep(bc, seed, kThreads, prefix);
      check_campaign_rep(bc, rep, reference, "4 workers", checks);
      report.wall_s.push_back(rep.wall_s);
      report.replicas_per_s.push_back(rep.replicas / rep.wall_s);
      report.flips_per_s.push_back(rep.flips / rep.wall_s);
      set_up();
    } while (time_left(deadline) || report.wall_s.size() < 5);
    return;
  }

  std::optional<TracedCampaign> first;  // its spans go to the file
  do {
    const CampaignRep par = run_campaign_rep(bc, seed, kThreads, prefix);
    check_campaign_rep(bc, par, reference, "untraced", checks);
    for (const double b : par.busy_s) report.replica_ms.push_back(b * 1e3);
    TracedCampaign traced = run_traced_campaign(bc, seed);
    report.layers.push_back(layer_json(
        compare_and_sum(par, traced, "traced", checks)));
    if (!first) first = std::move(traced);
  } while (time_left(deadline));
  // The 1-worker run: the serial baseline, and the check that the
  // aggregate does not depend on the worker count.
  {
    const CampaignRep ser = run_campaign_rep(bc, seed, 1, prefix);
    check_campaign_rep(bc, ser, reference, "1 worker", checks);
    report.serial_wall_s.push_back(ser.wall_s);
  }
  // The same checks at a second seed, so they do not rest on one seed.
  {
    const std::uint64_t seed2 = second_seed(seed);
    const CampaignRep par = run_campaign_rep(bc, seed2, kThreads, prefix);
    check_campaign_rep(bc, par, 0, "second seed", checks);
    const CampaignRep ser = run_campaign_rep(bc, seed2, 1, prefix);
    check_campaign_rep(bc, ser, par.digest, "second seed, 1 worker", checks);
    const TracedCampaign traced = run_traced_campaign(bc, seed2);
    compare_and_sum(par, traced, "second seed traced", checks);
  }
  SpanDump dump;
  for (std::size_t g = 0; g < first->replicas.size(); ++g) {
    dump.logs.emplace_back(static_cast<long long>(g), &first->replicas[g].log);
  }
  std::ofstream(prefix + ".spans.json") << dump.to_json();
  report.info["spans"] = prefix + ".spans.json";
}

void run_fig1_workload(const Args& args, std::int64_t deadline,
                       Report& report, Checks& checks) {
  const std::uint64_t seed = args.seed;
  const std::string prefix = args.out_dir + "/" + args.workload;
  // Set-up: constructing the initial 10^6-site sharded model.
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = now_ns();
    const auto model = fig1_model(seed, true);
    report.setup_s.push_back(seconds_between(t0, now_ns()));
  }
  if (!args.trace) {
    std::vector<Fig1Run> runs;
    do {
      const Fig1Run sh = run_fig1(seed, true, kThreads, nullptr);
      check_fig1(sh, "sharded", checks);
      if (!runs.empty()) check_fig1_repeat(runs[0], sh, "sharded", checks);
      report.setup_s.push_back(sh.construct_s);
      report.wall_s.push_back(sh.wall_s());
      report.replicas_per_s.push_back(1.0 / sh.wall_s());
      report.flips_per_s.push_back(sh.flips / sh.dynamics_s);
      runs.push_back(sh);
    } while (time_left(deadline) || runs.size() < 3);
    // The serial engine once, untimed: it must absorb from the same
    // initial configuration too.
    const Fig1Run se = run_fig1(seed, false, 1, nullptr);
    check_fig1(se, "serial", checks);
    checks.expect(se.initial_plus == runs[0].initial_plus,
                  "both engines start from the same configuration");
    report.info["sharded_flips"] = std::to_string(runs[0].flips);
    report.info["sweeps"] = std::to_string(runs[0].sweeps);
    return;
  }

  SpanLog sharded_log, serial_log;
  // The library's own trace session records each sweep, each shard's
  // phase A and each reconciliation inside the first traced sharded run.
  seg::obs::TraceSession session;
  bool first = true;
  do {
    const Fig1Run sh0 = run_fig1(seed, true, kThreads, nullptr);
    const Fig1Run se0 = run_fig1(seed, false, 1, nullptr);
    report.serial_wall_s.push_back(se0.wall_s());
    SpanLog sl, rl;
    if (first) session.start();
    const Fig1Run sh = run_fig1(seed, true, kThreads, &sl);
    if (first) session.stop();
    const Fig1Run se = run_fig1(seed, false, 1, &rl);
    check_fig1(sh, "traced sharded", checks);
    check_fig1(se, "traced serial", checks);
    check_fig1_repeat(sh0, sh, "sharded, traced vs untraced", checks);
    check_fig1_repeat(se0, se, "serial, traced vs untraced", checks);
    checks.expect(sh.initial_plus == se.initial_plus,
                  "both engines start from the same configuration");
    LayerSums s;
    s.construct = sh.construct_s + se.construct_s;
    s.dynamics = se.dynamics_s;
    s.flips = se.flips;
    s.sharded_dynamics = sh.dynamics_s;
    s.sweeps = sh.sweeps;
    s.deferred = sh.deferred;
    s.reconciled = sh.reconciled;
    s.sharded_flips = sh.flips;
    s.measure = sh.measure_s + se.measure_s;
    s.mono_field = s.measure;
    s.replica_s = seconds_between(sl.spans()[0].start_ns,
                                  sl.spans()[0].end_ns) +
                  seconds_between(rl.spans()[0].start_ns,
                                  rl.spans()[0].end_ns);
    s.attributed_s = s.construct + sh.dynamics_s + se.dynamics_s + s.measure;
    s.overhead = ratio(s.replica_s, sh0.construct_s + sh0.wall_s() +
                                        se0.construct_s + se0.wall_s()) -
                 1.0;
    report.layers.push_back(layer_json(s));
    if (first) {
      sharded_log = sl;
      serial_log = rl;
      first = false;
    }
  } while (time_left(deadline));

  // Second seed: both engines, and the sharded run at 1 and 4 threads
  // (same shard count, so the same trajectory bitwise).
  {
    const std::uint64_t seed2 = second_seed(seed);
    const Fig1Run sh4 = run_fig1(seed2, true, kThreads, nullptr);
    const Fig1Run sh1 = run_fig1(seed2, true, 1, nullptr);
    const Fig1Run se = run_fig1(seed2, false, 1, nullptr);
    check_fig1(sh4, "second seed sharded", checks);
    check_fig1(se, "second seed serial", checks);
    check_fig1_repeat(sh4, sh1, "second seed sharded, 4 vs 1 threads",
                      checks);
  }

  SpanDump dump;
  dump.logs.emplace_back(0, &sharded_log);
  dump.logs.emplace_back(1, &serial_log);
  std::ofstream(prefix + ".spans.json") << dump.to_json();
  session.write_json(prefix + ".sweeps.trace.json");
  report.info["spans"] = prefix + ".spans.json";
  report.info["sweep_trace"] = prefix + ".sweeps.trace.json";
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (is_campaign(args->workload) || args->workload == "fig1_giant");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: seg_e2e --workload phase_grid|region_ladder|"
                 "fig1_giant|graph_mix --seed N --seconds S --trace 0|1 "
                 "--out DIR\n");
    return 2;
  }
  Report report;
  Checks checks;
  checks.expect(!seg::obs::enabled(), "runtime telemetry is off");
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  if (args.workload == "fig1_giant") {
    run_fig1_workload(args, deadline, report, checks);
  } else {
    run_campaign_workload(args, deadline, report, checks);
  }

  JsonObject info;
  for (const auto& [k, v] : report.info) info.str(k, v);
  std::string layers = "[";
  for (std::size_t i = 0; i < report.layers.size(); ++i) {
    layers += (i ? ", " : "") + report.layers[i];
  }
  std::string failures = "[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    failures += (i ? ", " : "") + json_string(checks.failures[i]);
  }
  JsonObject out;
  out.str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .boolean("trace", args.trace)
      .num("threads", kThreads)
      .raw("host", host_json())
      .num("attempted", static_cast<double>(checks.attempted))
      .num("failed", static_cast<double>(checks.failed))
      .raw("failures", failures + "]")
      .nums("setup_s", report.setup_s)
      .nums("wall_s", report.wall_s)
      .nums("serial_wall_s", report.serial_wall_s)
      .nums("replicas_per_s", report.replicas_per_s)
      .nums("flips_per_s", report.flips_per_s)
      .num("peak_rss_mb", peak_rss_mb())
      .raw("layers", layers + "]")
      .nums("replica_ms", report.replica_ms)
      .raw("info", info.dump());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
