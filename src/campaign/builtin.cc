#include "campaign/builtin.h"

#include <algorithm>
#include <climits>

#include "campaign/metrics.h"
#include "percolation/chemical.h"
#include "percolation/clusters.h"
#include "percolation/field.h"

namespace seg {
namespace {

bool reads_every_key(const std::string&) { return true; }

bool spec_valid(const ScenarioSpec& spec, std::string* why) {
  return spec.valid(why);
}

ScenarioSpec phase_diagram_spec() {
  ScenarioSpec spec;
  spec.name = "phase_diagram";
  spec.tau = {0.30, 0.36, 0.40, 0.44, 0.48, 0.50};
  spec.p = {0.50, 0.55, 0.60, 0.70, 0.80, 0.90};
  spec.region_samples = 16;
  spec.metrics = {"mean_mono_region", "fixation", "majority", "flips"};
  return spec;
}

// The bench ties the torus side to the horizon so the grid stays large
// relative to the neighborhood: n = max(64, 24w). Clamped so a huge w
// reaches valid() instead of overflowing.
int region_side(int w) {
  return static_cast<int>(std::clamp<long long>(24LL * w, 64, INT_MAX));
}

ScenarioSpec region_size_spec() {
  ScenarioSpec spec;
  spec.name = "region_size";
  spec.tau = {0.45, 0.40, 0.55};
  spec.w = {1, 2, 3, 4, 5};
  spec.region_samples = 24;
  spec.almost_eps = 0.1;
  // The cluster/interface companions to the region metrics are
  // end-state columns: one cluster rescan of the final spins. No
  // streaming engine is attached, since none of them reads the
  // trajectory (only streaming_autocorr_lag1 would).
  spec.metrics = {"mean_mono_region", "mean_almost_region",
                  "streaming_largest_cluster", "streaming_interface_length"};
  return spec;
}

bool region_size_reads(const std::string& key) { return key != "n"; }

// Each w runs at its own side, so check the spec one w at a time.
bool region_size_valid(const ScenarioSpec& spec, std::string* why) {
  for (const int w : spec.w) {
    ScenarioSpec at_w = spec;
    at_w.w = {w};
    at_w.n = {region_side(w)};
    if (!at_w.valid(why)) return false;
  }
  return true;
}

void region_size_finish(BuiltinCampaign* campaign) {
  finish_schelling_campaign(campaign);
  for (ScenarioPoint& pt : campaign->points) {
    pt.params.n = region_side(pt.params.w);
  }
}

ScenarioSpec percolation_stretch_spec() {
  ScenarioSpec spec;
  spec.name = "percolation_stretch";
  spec.n = {192};  // box side L
  spec.p = {0.65, 0.70, 0.75, 0.85, 0.95};
  spec.replicas = 24;
  spec.metrics = {"connected", "stretch", "tail_125"};
  return spec;
}

ScenarioSpec percolation_radius_spec() {
  ScenarioSpec spec;
  spec.name = "percolation_radius";
  spec.n = {61};  // box side L
  spec.p = {0.30, 0.40, 0.50};
  spec.replicas = 400;
  spec.metrics = {"open", "r_ge_2", "r_ge_4", "r_ge_8", "r_ge_16"};
  return spec;
}

bool percolation_reads(const std::string& key) {
  return key == "n" || key == "p" || key == "replicas";
}

// The percolation columns are not registry metrics, so check the keys
// the replicas read on an otherwise default spec.
bool percolation_valid(const ScenarioSpec& spec, std::string* why) {
  ScenarioSpec keys_read;
  keys_read.n = spec.n;
  keys_read.p = spec.p;
  keys_read.replicas = spec.replicas;
  return keys_read.valid(why);
}

std::vector<double> stretch_replica(const ScenarioPoint& point,
                                    std::size_t /*replica*/,
                                    std::uint64_t replica_seed) {
  Rng rng = Rng::stream(replica_seed, 0);
  const int L = point.params.n;
  const SiteField field(L, point.params.p, rng);
  const StretchSample s =
      chemical_stretch(field, L / 8, L / 2, 7 * L / 8, L / 2);
  // Unconnected pairs contribute zeros; conditional means are recovered
  // downstream as sum(stretch) / sum(connected).
  return {s.connected ? 1.0 : 0.0, s.connected ? s.stretch : 0.0,
          s.connected && s.stretch >= 1.25 ? 1.0 : 0.0};
}

std::vector<double> radius_replica(const ScenarioPoint& point,
                                   std::size_t /*replica*/,
                                   std::uint64_t replica_seed) {
  Rng rng = Rng::stream(replica_seed, 0);
  const int L = point.params.n;
  const SiteField field(L, point.params.p, rng);
  const int r = cluster_l1_radius(field, L / 2, L / 2);
  std::vector<double> values{r >= 0 ? 1.0 : 0.0};
  for (const int k : {2, 4, 8, 16}) {
    values.push_back(r >= k ? 1.0 : 0.0);
  }
  return values;
}

template <auto Replica>
void percolation_finish(BuiltinCampaign* campaign) {
  campaign->points = expand_grid(campaign->spec);
  campaign->metric_names = campaign->spec.metrics;
  campaign->replica = Replica;
}

ScenarioSpec graph_topologies_spec() {
  ScenarioSpec spec;
  spec.name = "graph_topologies";
  // n/w/shape parameterize the small_world base torus and the
  // random_regular node-count default; the lollipop family reads only
  // graph_clique/graph_path.
  spec.n = {32};
  spec.w = {1};
  spec.tau = {0.35, 0.45};
  spec.topology = {TopologyFamily::kLollipop, TopologyFamily::kRandomRegular,
                   TopologyFamily::kSmallWorld};
  spec.graph_nodes = 1024;
  // Graph mode has no termination certificate on every family (small
  // worlds can cycle through near-regular degree classes for a long
  // time), so cap the replicas.
  spec.max_flips = 200000;
  spec.metrics = {"flips", "terminated", "majority", "happy_fraction",
                  "plus_fraction"};
  return spec;
}

constexpr Builtin kBuiltins[] = {
    {"phase_diagram", phase_diagram_spec, reads_every_key, spec_valid,
     finish_schelling_campaign},
    {"region_size", region_size_spec, region_size_reads, region_size_valid,
     region_size_finish},
    {"percolation_stretch", percolation_stretch_spec, percolation_reads,
     percolation_valid, percolation_finish<stretch_replica>},
    {"percolation_radius", percolation_radius_spec, percolation_reads,
     percolation_valid, percolation_finish<radius_replica>},
    {"graph_topologies", graph_topologies_spec, reads_every_key, spec_valid,
     finish_schelling_campaign},
};

}  // namespace

const Builtin* find_builtin(const std::string& name) {
  for (const Builtin& builtin : kBuiltins) {
    if (name == builtin.name) return &builtin;
  }
  return nullptr;
}

std::vector<std::string> builtin_campaign_names() {
  std::vector<std::string> names;
  for (const Builtin& builtin : kBuiltins) names.push_back(builtin.name);
  return names;
}

void finish_schelling_campaign(BuiltinCampaign* campaign) {
  campaign->points = expand_grid(campaign->spec);
  campaign->metric_names = expand_metric_names(campaign->spec.metrics);
  campaign->replica = make_schelling_replica(campaign->spec);
}

bool make_builtin_campaign(const std::string& name,
                           const BuiltinOverrides& overrides,
                           BuiltinCampaign* out) {
  const Builtin* builtin = find_builtin(name);
  if (builtin == nullptr) return false;
  out->spec = builtin->base();
  ScenarioSpec& spec = out->spec;
  if (overrides.n > 0) spec.n = {overrides.n};
  if (overrides.w > 0) spec.w = {overrides.w};
  if (overrides.replicas > 0) spec.replicas = overrides.replicas;
  if (overrides.graph_nodes > 0) spec.graph_nodes = overrides.graph_nodes;
  if (overrides.graph_seed > 0) spec.graph_seed = overrides.graph_seed;
  builtin->finish(out);
  return true;
}

}  // namespace seg
