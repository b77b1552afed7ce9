#include "campaign/metrics.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "analysis/streaming.h"
#include "core/parallel_dynamics.h"
#include "graph/partition.h"
#include "graph/topology.h"
#include "graph/topology_registry.h"
#include "lattice/sharded.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rng/splitmix64.h"

namespace seg {
namespace {

double nan_metric() { return std::numeric_limits<double>::quiet_NaN(); }

double metric_flips(MetricContext& ctx) {
  return static_cast<double>(ctx.run.flips);
}

double metric_time(MetricContext& ctx) { return ctx.run.final_time; }

double metric_terminated(MetricContext& ctx) {
  return ctx.run.terminated ? 1.0 : 0.0;
}

double metric_fixation(MetricContext& ctx) {
  return completely_segregated(ctx.model.spins()) ? 1.0 : 0.0;
}

double metric_majority(MetricContext& ctx) {
  return majority_fraction(ctx.model.spins());
}

double metric_happy_fraction(MetricContext& ctx) {
  return ctx.model.happy_fraction();
}

double metric_unhappy_count(MetricContext& ctx) {
  return static_cast<double>(ctx.model.count_unhappy());
}

double metric_plus_fraction(MetricContext& ctx) {
  return ctx.model.plus_fraction();
}

double metric_mean_mono_region(MetricContext& ctx) {
  return mean_mono_region_size(ctx.mono(), ctx.spec.region_samples,
                               ctx.sample_rng);
}

double metric_largest_mono_region(MetricContext& ctx) {
  return static_cast<double>(largest_mono_region(ctx.mono()));
}

double metric_mean_almost_region(MetricContext& ctx) {
  return mean_almost_region_size(ctx.almost(), ctx.spec.region_samples,
                                 ctx.sample_rng);
}

double metric_largest_almost_region(MetricContext& ctx) {
  return static_cast<double>(largest_almost_region(ctx.almost()));
}

double metric_largest_cluster(MetricContext& ctx) {
  return static_cast<double>(ctx.clusters().largest_cluster);
}

double metric_cluster_count(MetricContext& ctx) {
  return static_cast<double>(ctx.clusters().cluster_count);
}

double metric_mean_cluster_size(MetricContext& ctx) {
  return ctx.clusters().mean_cluster_size;
}

double metric_interface_length(MetricContext& ctx) {
  return static_cast<double>(ctx.clusters().interface_length);
}

// ---- streaming observables ----
//
// The end-state columns equal the streaming engine's values on the final
// spins (its exactness contract: integers bitwise, mean_cluster_size by
// the same formula), so they read the final configuration: the cluster
// columns share the classic metrics' functions, served by clusters(), and
// the magnetization is a popcount. Only the autocorrelation needs the
// trajectory, and with it the engine.

double metric_streaming_magnetization(MetricContext& ctx) {
  const std::int64_t plus = ctx.model.packed_spins().count_all();
  return static_cast<double>(
      2 * plus - static_cast<std::int64_t>(ctx.model.agent_count()));
}

double metric_streaming_autocorr_lag1(MetricContext& ctx) {
  return ctx.streaming ? ctx.streaming->autocorrelation(1) : nan_metric();
}

// The group the "streaming" pseudo-metric expands to, in column order.
constexpr const char* kStreamingGroup[] = {
    "streaming_magnetization",      "streaming_interface_length",
    "streaming_cluster_count",      "streaming_largest_cluster",
    "streaming_mean_cluster_size",  "streaming_autocorr_lag1",
};

struct MetricEntry {
  const char* name;
  MetricFn fn;
  // Meaningful on an arbitrary graph topology? The region, cluster and
  // streaming metrics read 2-d lattice structure (distance transforms,
  // site coordinates) and are lattice-only.
  bool graph_ok;
};

// Registry order is the order known_metrics() reports; metric evaluation
// order within a replica follows spec.metrics, not this table.
constexpr MetricEntry kRegistry[] = {
    {"flips", metric_flips, true},
    {"time", metric_time, true},
    {"terminated", metric_terminated, true},
    {"fixation", metric_fixation, true},
    {"majority", metric_majority, true},
    {"happy_fraction", metric_happy_fraction, true},
    {"unhappy_count", metric_unhappy_count, true},
    {"plus_fraction", metric_plus_fraction, true},
    {"mean_mono_region", metric_mean_mono_region, false},
    {"largest_mono_region", metric_largest_mono_region, false},
    {"mean_almost_region", metric_mean_almost_region, false},
    {"largest_almost_region", metric_largest_almost_region, false},
    {"largest_cluster", metric_largest_cluster, false},
    {"cluster_count", metric_cluster_count, false},
    {"mean_cluster_size", metric_mean_cluster_size, false},
    {"interface_length", metric_interface_length, false},
    {"streaming_magnetization", metric_streaming_magnetization, false},
    {"streaming_interface_length", metric_interface_length, false},
    {"streaming_cluster_count", metric_cluster_count, false},
    {"streaming_largest_cluster", metric_largest_cluster, false},
    {"streaming_mean_cluster_size", metric_mean_cluster_size, false},
    {"streaming_autocorr_lag1", metric_streaming_autocorr_lag1, false},
};

// Constructs the topology a non-torus point runs on, from the spec's
// graph_* parameters and the point's n/w/shape — never the replica seed,
// which is what lets the replicas of a point share one build. nullptr
// (with *why) when construction fails — in practice only for edge_list
// files, since ScenarioSpec::valid() already vetted the synthetic-family
// parameters.
std::shared_ptr<const GraphTopology> build_topology(const ScenarioSpec& spec,
                                                    const ScenarioPoint& point,
                                                    std::string* why) {
  SEG_PHASE("topology_build");
  SEG_COUNT("graph.topology_builds", 1);
  switch (point.topology) {
    case TopologyFamily::kTorus:
      break;
    case TopologyFamily::kLollipop:
      return std::make_shared<const GraphTopology>(
          GraphTopology::lollipop(spec.graph_clique, spec.graph_path));
    case TopologyFamily::kRandomRegular: {
      const std::size_t nodes =
          spec.graph_nodes > 0
              ? spec.graph_nodes
              : static_cast<std::size_t>(point.params.n) * point.params.n;
      return std::make_shared<const GraphTopology>(
          GraphTopology::random_regular(static_cast<int>(nodes),
                                        spec.graph_degree, spec.graph_seed));
    }
    case TopologyFamily::kSmallWorld:
      return std::make_shared<const GraphTopology>(GraphTopology::small_world(
          point.params.n,
          neighborhood_offsets(point.params.shape, point.params.w),
          spec.graph_beta, spec.graph_seed));
    case TopologyFamily::kEdgeList: {
      GraphTopology g;
      if (!GraphTopology::load_edge_list(spec.graph_file, &g, why)) {
        return nullptr;
      }
      return std::make_shared<const GraphTopology>(std::move(g));
    }
  }
  if (why) *why = "torus points do not build a graph";
  return nullptr;
}

}  // namespace

const MonoRegionField& MetricContext::mono() {
  if (!mono_) {
    mono_ = std::make_unique<MonoRegionField>(mono_region_field(model));
  }
  return *mono_;
}

const AlmostMonoField& MetricContext::almost() {
  if (!almost_) {
    almost_ = std::make_unique<AlmostMonoField>(
        almost_mono_field(model, spec.almost_eps));
  }
  return *almost_;
}

const ClusterStats& MetricContext::clusters() {
  if (!clusters_) {
    // The streaming engine tracked the whole run incrementally, so the
    // O(n^2) rescan is replaced by an O(1) read when one is attached.
    clusters_ = std::make_unique<ClusterStats>(
        streaming ? streaming->cluster_stats() : cluster_stats(model));
  }
  return *clusters_;
}

bool lookup_metric(const std::string& name, MetricFn* fn) {
  for (const MetricEntry& entry : kRegistry) {
    if (name == entry.name) {
      if (fn) *fn = entry.fn;
      return true;
    }
  }
  return false;
}

bool metric_supports_graph(const std::string& name) {
  for (const MetricEntry& entry : kRegistry) {
    if (name == entry.name) return entry.graph_ok;
  }
  return false;
}

std::vector<std::string> known_metrics() {
  std::vector<std::string> names;
  for (const MetricEntry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

std::size_t metric_index(const std::vector<std::string>& names,
                         const std::string& name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return names.size();
}

std::vector<std::string> expand_metric_names(
    const std::vector<std::string>& metrics) {
  std::vector<std::string> out;
  out.reserve(metrics.size());
  for (const std::string& name : metrics) {
    if (name == "streaming") {
      for (const char* member : kStreamingGroup) out.emplace_back(member);
    } else {
      out.push_back(name);
    }
  }
  return out;
}

ReplicaFn make_schelling_replica(const ScenarioSpec& spec) {
  const std::vector<std::string> expanded =
      expand_metric_names(spec.metrics);
  // Only the autocorrelation reads the trajectory; every other column,
  // streaming_* included, is read off the final configuration.
  bool needs_streaming = false;
  std::vector<MetricFn> fns;
  fns.reserve(expanded.size());
  for (const std::string& name : expanded) {
    needs_streaming |= name == "streaming_autocorr_lag1";
    MetricFn fn = nullptr;
    const bool known = lookup_metric(name, &fn);
    assert(known && "unknown metric; validate the spec before running");
    if (!known) {
      // Release-build fallback: a constant NaN column is visible in the
      // output instead of silently shifting later columns.
      fn = +[](MetricContext&) {
        return std::numeric_limits<double>::quiet_NaN();
      };
    }
    fns.push_back(fn);
  }
  // Replicas of one point that are in flight together share its graph,
  // keyed by point.index; the registry is empty between runs.
  auto topologies = std::make_shared<TopologyRegistry>();
  return [spec, fns, needs_streaming, topologies](const ScenarioPoint& point,
                                                  std::size_t /*replica*/,
                                                  std::uint64_t replica_seed) {
    if (point.topology != TopologyFamily::kTorus) {
      // Graph-topology replica: same stream layout as the torus path
      // (0 = init, 1 = dynamics, 2 = measurement), the model built over
      // the point's GraphTopology with per-node thresholds. Streaming
      // metrics are lattice-only and already refused by valid(), so no
      // observer is attached here. The lease outlives the model, so the
      // last replica of a point to finish frees its graph.
      const TopologyRegistry::Lease lease =
          topologies->acquire(point.index, [&](std::string* why) {
            return build_topology(spec, point, why);
          });
      const std::shared_ptr<const GraphTopology>& graph = lease.graph();
      if (!graph) {
        std::fprintf(stderr,
                     "campaign: point %zu: cannot build %s topology: %s\n",
                     point.index, topology_name(point.topology),
                     lease.error().c_str());
        return std::vector<double>(fns.size(), nan_metric());
      }
      const bool sharded =
          spec.shards > 1 && point.dynamics == DynamicsKind::kGlauber;
      Rng init = Rng::stream(replica_seed, 0);
      std::vector<std::int8_t> spins =
          random_spins_count(graph->node_count(), point.params.p, init);
      SchellingModel model =
          sharded ? SchellingModel(point.params, graph, std::move(spins),
                                   GraphPartition::greedy_bfs(
                                       *graph, static_cast<int>(spec.shards)))
                  : SchellingModel(point.params, graph, std::move(spins));
      RunOptions run_options;
      if (spec.max_flips > 0) run_options.max_flips = spec.max_flips;
      RunResult run;
      if (sharded) {
        SEG_PHASE("replica_dynamics");
        ParallelOptions parallel_options;
        parallel_options.threads = 1;  // replica-level pool saturates cores
        parallel_options.max_flips = run_options.max_flips;
        run = to_run_result(run_parallel_glauber(
            model, mix_seed(replica_seed, 1), parallel_options));
      } else {
        SEG_PHASE("replica_dynamics");
        Rng dyn = Rng::stream(replica_seed, 1);
        switch (point.dynamics) {
          case DynamicsKind::kGlauber:
            run = run_glauber(model, dyn, run_options);
            break;
          case DynamicsKind::kDiscrete:
            run = run_discrete(model, dyn, run_options);
            break;
          case DynamicsKind::kSynchronous:
            run = run_synchronous(model, spec.sync_max_rounds, run_options);
            break;
        }
      }
      SEG_HISTOGRAM("campaign.replica_flips", run.flips);
      SEG_PHASE("replica_measure");
      Rng sample = Rng::stream(replica_seed, 2);
      MetricContext ctx(model, run, spec, sample, nullptr);
      std::vector<double> values;
      values.reserve(fns.size());
      for (const MetricFn fn : fns) values.push_back(fn(ctx));
      return values;
    }
    // Stream layout matches the bench convention: 0 = initial
    // configuration, 1 = dynamics, 2 = measurement sampling. The sharded
    // path derives its per-shard substreams from the dynamics stream's
    // seed (mix_seed(replica_seed, 1)), so they never collide with the
    // init or measurement streams.
    const bool sharded =
        spec.shards > 1 && point.dynamics == DynamicsKind::kGlauber;
    Rng init = Rng::stream(replica_seed, 0);
    SchellingModel model =
        sharded ? SchellingModel(
                      point.params, init,
                      ShardLayout::stripes(point.params.n, point.params.w,
                                           static_cast<int>(spec.shards)))
                : SchellingModel(point.params, init);
    // The streaming engine (when streaming_autocorr_lag1 is requested)
    // subscribes to the dynamics' flip events and samples the
    // magnetization along the way; it consumes no RNG, so the trajectory
    // is bitwise the one an unmeasured run produces.
    std::unique_ptr<StreamingObservables> streaming;
    if (needs_streaming) {
      StreamingConfig streaming_config;
      streaming_config.autocorr_window = 64;
      streaming = std::make_unique<StreamingObservables>(
          model.spins(), point.params.n, streaming_config);
    }
    const std::uint64_t sample_every =
        spec.streaming_sample_every > 0
            ? spec.streaming_sample_every
            : std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(point.params.n) *
                         point.params.n / 64);
    RunOptions run_options;
    if (spec.max_flips > 0) run_options.max_flips = spec.max_flips;
    RunResult run;
    if (sharded) {
      SEG_PHASE("replica_dynamics");
      ParallelOptions parallel_options;
      // Campaigns parallelize at the *replica* level (the campaign pool),
      // so each replica's phase A runs single-threaded: with a replica
      // fleet in flight, outer-level parallelism already saturates the
      // cores, and nesting a per-replica pool would oversubscribe them.
      // --shards in a campaign therefore selects the k-shard *process*
      // (deterministic per k, comparable with the sharded drivers), not
      // a per-replica speedup; for wall-clock scaling of one giant run
      // use the drivers (fig1_dynamics --shards, exp_* --shards), which
      // give the sweep engine the whole machine.
      parallel_options.threads = 1;
      parallel_options.max_flips = run_options.max_flips;
      parallel_options.streaming = streaming.get();
      parallel_options.streaming_sample_every = sample_every;
      run = to_run_result(run_parallel_glauber(
          model, mix_seed(replica_seed, 1), parallel_options));
    } else {
      SEG_PHASE("replica_dynamics");
      if (streaming) {
        model.set_flip_observer(streaming.get());
        run_options.snapshot_every = sample_every;
        StreamingObservables* sink = streaming.get();
        run_options.on_snapshot = [sink](const SchellingModel&,
                                         std::uint64_t, double) {
          sink->record_sample();
        };
      }
      Rng dyn = Rng::stream(replica_seed, 1);
      switch (point.dynamics) {
        case DynamicsKind::kGlauber:
          run = run_glauber(model, dyn, run_options);
          break;
        case DynamicsKind::kDiscrete:
          run = run_discrete(model, dyn, run_options);
          break;
        case DynamicsKind::kSynchronous:
          run = run_synchronous(model, spec.sync_max_rounds, run_options);
          break;
      }
      model.set_flip_observer(nullptr);
    }
    SEG_HISTOGRAM("campaign.replica_flips", run.flips);
    SEG_PHASE("replica_measure");
    Rng sample = Rng::stream(replica_seed, 2);
    MetricContext ctx(model, run, spec, sample, streaming.get());
    std::vector<double> values;
    values.reserve(fns.size());
    for (const MetricFn fn : fns) values.push_back(fn(ctx));
    return values;
  };
}

}  // namespace seg
