// Declarative scenario specifications for the campaign engine.
//
// A ScenarioSpec is a parameter grid over the model axes — grid side n,
// horizon w, intolerance tau (and the asymmetric tau_minus of Barmpalias
// et al.), initial density p, neighborhood shape, dynamics variant —
// crossed with a replica count. The cartesian product of the axes defines
// the scenario points; every point is run `replicas` times with
// independent RNG streams derived from the single campaign seed.
//
// Specs have a canonical key=value text form (one key per line, list
// values comma-separated) used both as an on-disk format and as the
// identity hashed into checkpoints so a resume against a different spec
// is refused. Spec files and campaign_runner flags (`--graph-degree 6`
// for `graph_degree = 6`) both set keys through ScenarioSpec::set.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/stopping.h"
#include "core/params.h"

namespace seg {

// Which dynamics engine drives each replica to absorption.
enum class DynamicsKind { kGlauber, kDiscrete, kSynchronous };

const char* dynamics_name(DynamicsKind kind);
bool parse_dynamics(const std::string& name, DynamicsKind* out);

const char* shape_name(NeighborhoodShape shape);
bool parse_shape(const std::string& name, NeighborhoodShape* out);

// Which topology the replicas run on. kTorus is the native span engine
// (the default, bitwise the legacy trajectories); the rest construct a
// GraphTopology (graph/topology.h), shared by the point's replicas in
// flight together, and run the same dynamics through the engine's graph
// mode with per-node thresholds.
enum class TopologyFamily {
  kTorus,          // native n x n torus, span/popcount fast path
  kLollipop,       // clique of graph_clique nodes + path of graph_path
  kRandomRegular,  // graph_nodes nodes, degree graph_degree, seeded
  kSmallWorld,     // torus stencil rewired with prob. graph_beta, seeded
  kEdgeList,       // imported from graph_file (u v per line)
};

const char* topology_name(TopologyFamily family);
bool parse_topology(const std::string& name, TopologyFamily* out);

struct ScenarioSpec {
  std::string name = "campaign";

  // Grid axes. The expanded points are the cartesian product, nested in
  // declaration order (n outermost, dynamics innermost).
  std::vector<int> n = {64};
  std::vector<int> w = {2};
  std::vector<double> tau = {0.45};
  std::vector<double> tau_minus = {-1.0};  // < 0 means symmetric
  std::vector<double> p = {0.5};
  std::vector<NeighborhoodShape> shape = {NeighborhoodShape::kMoore};
  std::vector<DynamicsKind> dynamics = {DynamicsKind::kGlauber};

  // Topology axis (outermost loop of the expansion). The default —
  // torus only — keeps every key below out of the canonical text, so
  // pre-graph specs keep their hash and their checkpoints stay
  // resumable. Non-torus families read the graph_* parameters; n/w/shape
  // retain their meaning only where noted.
  std::vector<TopologyFamily> topology = {TopologyFamily::kTorus};
  int graph_clique = 24;           // lollipop: clique size (>= 2)
  int graph_path = 40;             // lollipop: path length (>= 1)
  int graph_degree = 8;            // random_regular: node degree
  double graph_beta = 0.1;         // small_world: rewiring probability
  std::uint64_t graph_seed = 1;    // builder seed (rewiring / matching)
  std::size_t graph_nodes = 0;     // random_regular node count; 0 = n*n
  std::string graph_file;          // edge_list: path to "u v" lines

  // Replicas per scenario point. With a stopping rule this is the
  // default per-point cap (see `stop`); without one it is the exact
  // count every point runs.
  std::size_t replicas = 3;

  // Sequential stopping (campaign/stopping.h). stop.rule == kNone — the
  // default — keeps the fixed-replica engine, and none of the stop_*
  // keys enter the canonical text then, so pre-adaptive specs keep their
  // hash and their checkpoints stay resumable. With a rule set, every
  // point runs at least stop.min_replicas and at most layout_replicas()
  // replicas, stopping the moment the rule's anytime-valid bound reaches
  // the target half-width; spec keys: stop_rule, stop_delta, stop_alpha,
  // min_replicas, max_replicas, stop_metric, stop_range, stop_threshold.
  StopConfig stop;

  // Lattice shards per replica (stripe decomposition,
  // core/parallel_dynamics.h). 1 = the serial engines, bitwise the
  // legacy trajectories; > 1 runs Glauber replicas through the sharded
  // sweep engine (other dynamics kinds ignore it). Part of the spec —
  // and the checkpoint hash — because the k-shard process is a distinct
  // deterministic trajectory per k.
  std::size_t shards = 1;

  // Per-replica run controls.
  std::uint64_t max_flips = 0;         // 0 = run to absorption
  std::uint64_t sync_max_rounds = 4096;  // synchronous dynamics round cap
  std::size_t region_samples = 16;     // sampled agents for E[M] estimators
  double almost_eps = 0.1;             // epsilon for almost-mono regions

  // Flip interval between magnetization time-autocorrelation samples
  // when streaming_autocorr_lag1 is recorded; 0 = auto (n^2 / 64). Only
  // enters the canonical text (and checkpoint hash) when nonzero.
  std::uint64_t streaming_sample_every = 0;

  // Names resolved against the metric registry (campaign/metrics.h).
  // The pseudo-metric "streaming" expands to the full streaming
  // observable group (expand_metric_names). Only
  // "streaming_autocorr_lag1" attaches a StreamingObservables engine to
  // the replica's dynamics; the other streaming_* columns are end-state
  // values, read off the final configuration (or off the engine when it
  // is attached, with the same bits).
  std::vector<std::string> metrics = {"flips", "fixation", "majority",
                                      "mean_mono_region"};

  std::size_t grid_size() const;
  std::size_t total_replicas() const { return grid_size() * replicas; }

  // Per-point replica count of the campaign's global index layout: the
  // fixed count without a stopping rule, the per-point cap with one.
  // Replica seeds derive from point * layout_replicas() + r, so this is
  // part of the checkpoint identity.
  std::size_t layout_replicas() const {
    if (stop.rule == StopRule::kNone || stop.max_replicas == 0) {
      return replicas;
    }
    return stop.max_replicas;
  }

  // Every axis non-empty, every point's ModelParams valid, every metric
  // known to the registry.
  bool valid(std::string* error = nullptr) const;

  // Sets one key from its spec-file value text (list keys take
  // comma-separated values; surrounding whitespace is ignored, as on a
  // spec-file line). The spec is left unchanged on failure, and
  // *why names the key. Cross-key rules are valid()'s job: call it once
  // every key is set.
  bool set(const std::string& key, const std::string& value,
           std::string* why = nullptr);

  // Canonical text form; parse(to_text()) reproduces the spec exactly.
  std::string to_text() const;
  // One `key = value` line per set() call ('#' comments and blank lines
  // skipped), then valid().
  static bool parse(const std::string& text, ScenarioSpec* out,
                    std::string* error = nullptr);

  // FNV-1a over the canonical text; checkpoint identity.
  std::uint64_t hash() const;
};

// A key ScenarioSpec::set accepts, with its one-line help.
struct SpecKey {
  const char* key;
  const char* help;
};

// Every settable key, in canonical-text order.
const std::vector<SpecKey>& spec_keys();

// One cell of the expanded grid.
struct ScenarioPoint {
  std::size_t index = 0;  // position in the expanded grid
  ModelParams params;
  DynamicsKind dynamics = DynamicsKind::kGlauber;
  TopologyFamily topology = TopologyFamily::kTorus;
};

// Cartesian product of the spec's axes in declaration order.
std::vector<ScenarioPoint> expand_grid(const ScenarioSpec& spec);

}  // namespace seg
