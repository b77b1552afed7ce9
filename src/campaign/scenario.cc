#include "campaign/scenario.h"

#include <cstdio>
#include <sstream>
#include <type_traits>

#include "campaign/metrics.h"
#include "util/parse.h"

namespace seg {
namespace {

// One list item as the canonical text writes it.
std::string format(int v) { return std::to_string(v); }
std::string format(const std::string& s) { return s; }
std::string format(NeighborhoodShape s) { return shape_name(s); }
std::string format(DynamicsKind d) { return dynamics_name(d); }
std::string format(TopologyFamily f) { return topology_name(f); }
std::string format(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T>
std::string join(const std::vector<T>& xs) {
  std::string out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    out += format(xs[i]);
  }
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Value parsers for the key table, all of the shape
// bool(const std::string&, T*, std::string* why). They consume the whole
// value: over the checked scalar helpers (util/parse.h), trailing
// garbage ("10x") and out-of-range values are hard errors naming the
// offending token, not silent truncations.
template <typename T, bool (*Parse)(const std::string&, T*)>
bool parse_name(const std::string& s, T* out, std::string* why) {
  if (Parse(s, out)) return true;
  if (why) *why = "unknown name: '" + s + "'";
  return false;
}

template <typename T, auto ParseItem>
bool parse_list(const std::string& s, std::vector<T>* out,
                std::string* why) {
  out->clear();
  for (const std::string& item : split_list(s)) {
    T v{};
    if (!ParseItem(item, &v, why)) return false;
    out->push_back(v);
  }
  return !out->empty();
}

constexpr auto kInts = parse_list<int, parse_int_checked>;
constexpr auto kDoubles = parse_list<double, parse_double_checked>;
template <typename T, bool (*Parse)(const std::string&, T*)>
constexpr auto kNames = parse_list<T, parse_name<T, Parse>>;

bool parse_strings(const std::string& s, std::vector<std::string>* out,
                   std::string*) {
  *out = split_list(s);
  return !out->empty();
}

// A line break could not be written back as one `key = value` line.
bool parse_text(const std::string& s, std::string* out, std::string* why) {
  if (s.find('\n') != std::string::npos) {
    if (why) *why = "value spans lines";
    return false;
  }
  *out = s;
  return !s.empty();
}

bool parse_size(const std::string& s, std::size_t* out, std::string* why) {
  std::uint64_t v = 0;
  if (!parse_u64_checked(s, &v, why)) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

bool parse_count(const std::string& s, std::size_t* out, std::string* why) {
  if (!parse_size(s, out, why)) return false;
  if (*out > 0) return true;
  if (why) *why = "must be >= 1";
  return false;
}

// Setters parse into a temporary, so a bad value leaves the spec as it
// was.
using Setter = bool (*)(ScenarioSpec&, const std::string&, std::string*);

template <auto Field, auto Parse>
bool field(ScenarioSpec& spec, const std::string& value, std::string* why) {
  std::remove_reference_t<decltype(spec.*Field)> v{};
  if (!Parse(value, &v, why)) return false;
  spec.*Field = std::move(v);
  return true;
}

template <auto Field, auto Parse>
bool stop(ScenarioSpec& spec, const std::string& value, std::string* why) {
  std::remove_reference_t<decltype(spec.stop.*Field)> v{};
  if (!Parse(value, &v, why)) return false;
  spec.stop.*Field = std::move(v);
  return true;
}

bool stop_range(ScenarioSpec& spec, const std::string& value,
                std::string* why) {
  std::vector<double> v;
  if (!kDoubles(value, &v, why)) return false;
  if (v.size() != 2) {
    if (why) *why = "expected lo,hi";
    return false;
  }
  spec.stop.range_lo = v[0];
  spec.stop.range_hi = v[1];
  return true;
}

struct KeyEntry {
  const char* key;
  const char* help;
  Setter set;
};

using S = ScenarioSpec;
using Stop = StopConfig;

// Every spec key, in canonical-text order. Lists are comma-separated.
const KeyEntry kKeys[] = {
    {"name", "campaign name, stem of the output files",
     field<&S::name, parse_text>},
    {"n", "torus side(s); box side L for percolation", field<&S::n, kInts>},
    {"w", "horizon(s): neighborhood radius", field<&S::w, kInts>},
    {"tau", "intolerance(s) in [0, 1]", field<&S::tau, kDoubles>},
    {"tau_minus", "-1 type intolerance(s); < 0 = tau",
     field<&S::tau_minus, kDoubles>},
    {"p", "initial +1 density(ies); open-site probability",
     field<&S::p, kDoubles>},
    {"shape", "moore | von_neumann",
     field<&S::shape, kNames<NeighborhoodShape, parse_shape>>},
    {"dynamics", "glauber | discrete | synchronous",
     field<&S::dynamics, kNames<DynamicsKind, parse_dynamics>>},
    {"topology", "torus | lollipop | random_regular | small_world | edge_list",
     field<&S::topology, kNames<TopologyFamily, parse_topology>>},
    {"graph_clique", "lollipop clique size (>= 2)",
     field<&S::graph_clique, parse_int_checked>},
    {"graph_path", "lollipop path length (>= 1)",
     field<&S::graph_path, parse_int_checked>},
    {"graph_degree", "random_regular node degree",
     field<&S::graph_degree, parse_int_checked>},
    {"graph_beta", "small_world rewiring probability in [0, 1]",
     field<&S::graph_beta, parse_double_checked>},
    {"graph_seed", "graph builder seed",
     field<&S::graph_seed, parse_u64_checked>},
    {"graph_nodes", "random_regular node count; 0 = n*n",
     field<&S::graph_nodes, parse_size>},
    {"graph_file", "edge_list file, one \"u v\" edge per line",
     field<&S::graph_file, parse_text>},
    {"replicas", "replicas per point; the cap under a stop rule",
     field<&S::replicas, parse_count>},
    {"shards", "lattice shards per Glauber replica; 1 = serial",
     field<&S::shards, parse_count>},
    {"max_flips", "flip cap per replica; 0 = run to absorption",
     field<&S::max_flips, parse_u64_checked>},
    {"streaming_sample_every",
     "flips between streaming_autocorr_lag1 samples; 0 = n*n/64",
     field<&S::streaming_sample_every, parse_u64_checked>},
    {"sync_max_rounds", "round cap of synchronous dynamics",
     field<&S::sync_max_rounds, parse_u64_checked>},
    {"region_samples", "sampled agents per E[M]-style estimate",
     field<&S::region_samples, parse_size>},
    {"almost_eps", "epsilon of almost-mono regions",
     field<&S::almost_eps, parse_double_checked>},
    {"metrics", "registry metrics to record (see --list)",
     field<&S::metrics, parse_strings>},
    {"stop_rule", "none | hoeffding | bernstein | pass_rate",
     stop<&Stop::rule, parse_name<StopRule, parse_stop_rule>>},
    {"stop_delta", "target confidence-sequence half-width",
     stop<&Stop::delta, parse_double_checked>},
    {"stop_alpha", "anytime miscoverage budget in (0, 1)",
     stop<&Stop::alpha, parse_double_checked>},
    {"min_replicas", "replicas before a stop rule may fire",
     stop<&Stop::min_replicas, parse_count>},
    {"max_replicas", "per-point replica cap; 0 = replicas",
     stop<&Stop::max_replicas, parse_size>},
    {"stop_metric", "watched metric; default the first",
     stop<&Stop::metric, parse_text>},
    {"stop_range", "declared bounds lo,hi of the watched metric", stop_range},
    {"stop_threshold", "pass_rate decision boundary",
     stop<&Stop::threshold, parse_double_checked>},
};

}  // namespace

const char* dynamics_name(DynamicsKind kind) {
  switch (kind) {
    case DynamicsKind::kGlauber: return "glauber";
    case DynamicsKind::kDiscrete: return "discrete";
    case DynamicsKind::kSynchronous: return "synchronous";
  }
  return "glauber";
}

bool parse_dynamics(const std::string& name, DynamicsKind* out) {
  if (name == "glauber") *out = DynamicsKind::kGlauber;
  else if (name == "discrete") *out = DynamicsKind::kDiscrete;
  else if (name == "synchronous") *out = DynamicsKind::kSynchronous;
  else return false;
  return true;
}

const char* topology_name(TopologyFamily family) {
  switch (family) {
    case TopologyFamily::kTorus: return "torus";
    case TopologyFamily::kLollipop: return "lollipop";
    case TopologyFamily::kRandomRegular: return "random_regular";
    case TopologyFamily::kSmallWorld: return "small_world";
    case TopologyFamily::kEdgeList: return "edge_list";
  }
  return "torus";
}

bool parse_topology(const std::string& name, TopologyFamily* out) {
  if (name == "torus") *out = TopologyFamily::kTorus;
  else if (name == "lollipop") *out = TopologyFamily::kLollipop;
  else if (name == "random_regular") *out = TopologyFamily::kRandomRegular;
  else if (name == "small_world") *out = TopologyFamily::kSmallWorld;
  else if (name == "edge_list") *out = TopologyFamily::kEdgeList;
  else return false;
  return true;
}

const char* shape_name(NeighborhoodShape shape) {
  return shape == NeighborhoodShape::kMoore ? "moore" : "von_neumann";
}

bool parse_shape(const std::string& name, NeighborhoodShape* out) {
  if (name == "moore") *out = NeighborhoodShape::kMoore;
  else if (name == "von_neumann") *out = NeighborhoodShape::kVonNeumann;
  else return false;
  return true;
}

std::size_t ScenarioSpec::grid_size() const {
  return topology.size() * n.size() * w.size() * tau.size() *
         tau_minus.size() * p.size() * shape.size() * dynamics.size();
}

bool ScenarioSpec::valid(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  // The engine's window counts are int16 (lattice/membership.h).
  auto fail_limit = [&](const std::string& msg) {
    return fail(msg + ": neighborhoods are limited to " +
                std::to_string(kMaxNeighborhoodSize) +
                " sites, self included");
  };
  if (n.empty() || w.empty() || tau.empty() || tau_minus.empty() ||
      p.empty() || shape.empty() || dynamics.empty() || topology.empty()) {
    return fail("every grid axis needs at least one value");
  }
  if (replicas == 0) return fail("replicas must be >= 1");
  if (shards == 0) return fail("shards must be >= 1");
  if (metrics.empty()) return fail("at least one metric is required");
  // An E[M] estimate over no samples is 0/0, and a threshold
  // e^{-eps N} >= 1 makes every ball almost-monochromatic.
  if (region_samples == 0) return fail("region_samples must be >= 1");
  if (!(almost_eps > 0.0)) return fail("almost_eps must be > 0");
  bool any_graph = false;
  for (const TopologyFamily f : topology) {
    any_graph |= f != TopologyFamily::kTorus;
  }
  for (const std::string& m : expand_metric_names(metrics)) {
    if (!lookup_metric(m, nullptr)) return fail("unknown metric: " + m);
    if (any_graph && !metric_supports_graph(m)) {
      return fail("metric '" + m +
                  "' is lattice-only and cannot run on a graph topology");
    }
  }
  // Builder preconditions are validated here, not in the builders: their
  // SEG_ASSERTs compile out of release builds, so the spec layer is the
  // real guard for user-supplied parameters. A graph parameter out of its
  // range is refused even when no family in `topology` reads it.
  if (graph_clique < 2 || graph_path < 1) {
    return fail("lollipop needs graph_clique >= 2, graph_path >= 1");
  }
  // The clique node the path hangs off has the largest neighborhood: the
  // whole clique plus one path node.
  if (graph_clique + 1 > kMaxNeighborhoodSize) {
    return fail_limit("graph_clique must be <= " +
                      std::to_string(kMaxNeighborhoodSize - 1));
  }
  if (graph_degree < 1) return fail("graph_degree must be >= 1");
  if (graph_degree + 1 > kMaxNeighborhoodSize) {
    return fail_limit("graph_degree must be <= " +
                      std::to_string(kMaxNeighborhoodSize - 1));
  }
  if (!(graph_beta >= 0.0 && graph_beta <= 1.0)) {
    return fail("graph_beta must be in [0, 1]");
  }
  for (const TopologyFamily f : topology) {
    if (f == TopologyFamily::kEdgeList && graph_file.empty()) {
      return fail("edge_list topology needs graph_file");
    }
    if (f != TopologyFamily::kRandomRegular) continue;
    for (const int side : n) {
      const std::size_t nodes =
          graph_nodes > 0 ? graph_nodes
                          : static_cast<std::size_t>(side) * side;
      if (nodes <= static_cast<std::size_t>(graph_degree)) {
        return fail("random_regular needs node count > graph_degree");
      }
      if ((nodes * static_cast<std::size_t>(graph_degree)) % 2 != 0) {
        return fail("random_regular needs nodes * graph_degree even");
      }
    }
  }
  if (stop.rule != StopRule::kNone) {
    if (!(stop.delta > 0.0)) return fail("stop_delta must be > 0");
    if (!(stop.alpha > 0.0 && stop.alpha < 1.0)) {
      return fail("stop_alpha must be in (0, 1)");
    }
    if (stop.min_replicas == 0) return fail("min_replicas must be >= 1");
    if (layout_replicas() < stop.min_replicas) {
      return fail("max_replicas (or replicas) must be >= min_replicas");
    }
    if (!(stop.range_hi > stop.range_lo)) {
      return fail("stop_range must have hi > lo");
    }
    if (!stop.metric.empty()) {
      const std::vector<std::string> expanded = expand_metric_names(metrics);
      bool found = false;
      for (const std::string& m : expanded) {
        if (m == stop.metric) { found = true; break; }
      }
      if (!found) {
        return fail("stop_metric '" + stop.metric +
                    "' is not among the campaign metrics");
      }
    }
  }
  // ModelParams::valid's checks, one message per key. w is bounded
  // before neighborhood_size(), which would overflow int on a huge w.
  for (const ScenarioPoint& pt : expand_grid(*this)) {
    const ModelParams& m = pt.params;
    if (m.n < 1) return fail("n must be >= 1");
    if (m.w < 1) return fail("w must be >= 1");
    if (m.w > kMaxNeighborhoodSize / 2 ||
        m.neighborhood_size() > kMaxNeighborhoodSize) {
      return fail_limit("w = " + std::to_string(m.w) +
                        " is too wide (w <= 90 on the Moore stencil)");
    }
    if (2 * m.w + 1 > m.n) {
      return fail("n = " + std::to_string(m.n) + " is narrower than the " +
                  "window 2w+1 of w = " + std::to_string(m.w));
    }
    if (!(m.tau >= 0.0 && m.tau <= 1.0)) return fail("tau must be in [0, 1]");
    if (!(m.p >= 0.0 && m.p <= 1.0)) return fail("p must be in [0, 1]");
    if (!(m.tau_minus < 0.0 || m.tau_minus <= 1.0)) {
      return fail("tau_minus must be <= 1");
    }
  }
  return true;
}

bool ScenarioSpec::set(const std::string& key, const std::string& value,
                       std::string* why) {
  for (const KeyEntry& entry : kKeys) {
    if (key != entry.key) continue;
    std::string detail;
    if (entry.set(*this, trim(value), &detail)) return true;
    if (why) {
      *why = "bad value for '" + key + "'";
      if (!detail.empty()) *why += " (" + detail + ")";
    }
    return false;
  }
  if (why) *why = "unknown key '" + key + "'";
  return false;
}

const std::vector<SpecKey>& spec_keys() {
  static const std::vector<SpecKey> keys = [] {
    std::vector<SpecKey> out;
    for (const KeyEntry& entry : kKeys) out.push_back({entry.key, entry.help});
    return out;
  }();
  return keys;
}

std::string ScenarioSpec::to_text() const {
  std::ostringstream out;
  out << "name = " << name << '\n';
  out << "n = " << join(n) << '\n';
  out << "w = " << join(w) << '\n';
  out << "tau = " << join(tau) << '\n';
  out << "tau_minus = " << join(tau_minus) << '\n';
  out << "p = " << join(p) << '\n';
  out << "shape = " << join(shape) << '\n';
  out << "dynamics = " << join(dynamics) << '\n';
  // The topology axis and the graph_* parameters follow the shards
  // pattern below: only non-default values enter the canonical text, so
  // every pre-graph spec keeps its hash and its checkpoints.
  if (!(topology.size() == 1 && topology[0] == TopologyFamily::kTorus)) {
    out << "topology = " << join(topology) << '\n';
  }
  if (graph_clique != 24) out << "graph_clique = " << graph_clique << '\n';
  if (graph_path != 40) out << "graph_path = " << graph_path << '\n';
  if (graph_degree != 8) out << "graph_degree = " << graph_degree << '\n';
  if (graph_beta != 0.1) {
    out << "graph_beta = " << format(graph_beta) << '\n';
  }
  if (graph_seed != 1) out << "graph_seed = " << graph_seed << '\n';
  if (graph_nodes != 0) out << "graph_nodes = " << graph_nodes << '\n';
  if (!graph_file.empty()) out << "graph_file = " << graph_file << '\n';
  out << "replicas = " << replicas << '\n';
  // Only non-default shard counts enter the canonical text (and thus the
  // checkpoint identity hash): serial specs keep their pre-sharding hash,
  // so their existing checkpoints stay resumable.
  if (shards != 1) out << "shards = " << shards << '\n';
  out << "max_flips = " << max_flips << '\n';
  // Like shards: only a non-default cadence enters the canonical text,
  // so pre-streaming specs keep their checkpoint identity.
  if (streaming_sample_every != 0) {
    out << "streaming_sample_every = " << streaming_sample_every << '\n';
  }
  out << "sync_max_rounds = " << sync_max_rounds << '\n';
  out << "region_samples = " << region_samples << '\n';
  out << "almost_eps = " << format(almost_eps) << '\n';
  out << "metrics = " << join(metrics) << '\n';
  // The stop_* keys follow the shards pattern: they enter the canonical
  // text — and so the checkpoint identity — only when a rule is active,
  // keeping every pre-adaptive spec's hash (and checkpoints) intact.
  if (stop.rule != StopRule::kNone) {
    out << "stop_rule = " << stop_rule_name(stop.rule) << '\n';
    out << "stop_delta = " << format(stop.delta) << '\n';
    out << "stop_alpha = " << format(stop.alpha) << '\n';
    out << "min_replicas = " << stop.min_replicas << '\n';
    if (stop.max_replicas != 0) {
      out << "max_replicas = " << stop.max_replicas << '\n';
    }
    if (!stop.metric.empty()) out << "stop_metric = " << stop.metric << '\n';
    out << "stop_range = " << format(stop.range_lo) << ','
        << format(stop.range_hi) << '\n';
    if (stop.rule == StopRule::kPassRate) {
      out << "stop_threshold = " << format(stop.threshold) << '\n';
    }
  }
  return out.str();
}

bool ScenarioSpec::parse(const std::string& text, ScenarioSpec* out,
                         std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return fail("line " + std::to_string(line_no) + ": expected key = value");
    }
    std::string why;
    if (!spec.set(trim(line.substr(0, eq)), line.substr(eq + 1), &why)) {
      return fail("line " + std::to_string(line_no) + ": " + why);
    }
  }
  std::string why;
  if (!spec.valid(&why)) return fail(why);
  *out = spec;
  return true;
}

std::uint64_t ScenarioSpec::hash() const {
  // FNV-1a, 64-bit.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : to_text()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<ScenarioPoint> expand_grid(const ScenarioSpec& spec) {
  std::vector<ScenarioPoint> points;
  points.reserve(spec.grid_size());
  // Topology is the outermost loop: a torus-only spec enumerates exactly
  // the legacy point order, so adding the axis never renumbers (or
  // reseeds) existing campaigns.
  for (const TopologyFamily topology : spec.topology)
    for (const int n : spec.n)
      for (const int w : spec.w)
        for (const double tau : spec.tau)
          for (const double tau_minus : spec.tau_minus)
            for (const double p : spec.p)
              for (const NeighborhoodShape shape : spec.shape)
                for (const DynamicsKind dynamics : spec.dynamics) {
                  ScenarioPoint pt;
                  pt.index = points.size();
                  pt.params = ModelParams{.n = n,
                                          .w = w,
                                          .tau = tau,
                                          .p = p,
                                          .tau_minus = tau_minus,
                                          .shape = shape};
                  pt.dynamics = dynamics;
                  pt.topology = topology;
                  points.push_back(pt);
                }
  return points;
}

}  // namespace seg
