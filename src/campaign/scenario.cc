#include "campaign/scenario.h"

#include <cstdio>
#include <sstream>

#include "campaign/metrics.h"
#include "util/parse.h"

namespace seg {
namespace {

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string join_ints(const std::vector<int>& xs) {
  std::string out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(xs[i]);
  }
  return out;
}

std::string join_doubles(const std::vector<double>& xs) {
  std::string out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    out += format_double(xs[i]);
  }
  return out;
}

std::string join_strings(const std::vector<std::string>& xs) {
  std::string out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    out += xs[i];
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

// List parsers over the checked scalar helpers (util/parse.h): trailing
// garbage ("10x") and out-of-range values are hard errors naming the
// offending token, not silent truncations.
bool parse_int_list(const std::string& s, std::vector<int>* out,
                    std::string* why) {
  out->clear();
  for (const std::string& item : split_list(s)) {
    int v = 0;
    if (!parse_int_checked(item, &v, why)) return false;
    out->push_back(v);
  }
  return !out->empty();
}

bool parse_double_list(const std::string& s, std::vector<double>* out,
                       std::string* why) {
  out->clear();
  for (const std::string& item : split_list(s)) {
    double v = 0.0;
    if (!parse_double_checked(item, &v, why)) return false;
    out->push_back(v);
  }
  return !out->empty();
}

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
  // real guard for user-supplied parameters.
  for (const TopologyFamily f : topology) {
    switch (f) {
      case TopologyFamily::kTorus:
        break;
      case TopologyFamily::kLollipop:
        if (graph_clique < 2 || graph_path < 1) {
          return fail("lollipop needs graph_clique >= 2, graph_path >= 1");
        }
        // The clique node the path hangs off has the largest
        // neighborhood: the whole clique plus one path node.
        if (graph_clique + 1 > kMaxNeighborhoodSize) {
          return fail_limit("graph_clique must be <= " +
                            std::to_string(kMaxNeighborhoodSize - 1));
        }
        break;
      case TopologyFamily::kRandomRegular:
        if (graph_degree < 1) return fail("graph_degree must be >= 1");
        if (graph_degree + 1 > kMaxNeighborhoodSize) {
          return fail_limit("graph_degree must be <= " +
                            std::to_string(kMaxNeighborhoodSize - 1));
        }
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
        break;
      case TopologyFamily::kSmallWorld:
        if (!(graph_beta >= 0.0 && graph_beta <= 1.0)) {
          return fail("graph_beta must be in [0, 1]");
        }
        break;
      case TopologyFamily::kEdgeList:
        if (graph_file.empty()) {
          return fail("edge_list topology needs graph_file");
        }
        break;
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
  for (const ScenarioPoint& pt : expand_grid(*this)) {
    if (pt.params.neighborhood_size() > kMaxNeighborhoodSize) {
      return fail_limit("w = " + std::to_string(pt.params.w) + " gives " +
                        std::to_string(pt.params.neighborhood_size()) +
                        " sites (w <= 90 on the Moore stencil)");
    }
    if (!pt.params.valid()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "invalid point (n=%d, w=%d, tau=%g, p=%g)", pt.params.n,
                    pt.params.w, pt.params.tau, pt.params.p);
      return fail(buf);
    }
  }
  return true;
}

std::string ScenarioSpec::to_text() const {
  std::ostringstream out;
  out << "name = " << name << '\n';
  out << "n = " << join_ints(n) << '\n';
  out << "w = " << join_ints(w) << '\n';
  out << "tau = " << join_doubles(tau) << '\n';
  out << "tau_minus = " << join_doubles(tau_minus) << '\n';
  out << "p = " << join_doubles(p) << '\n';
  std::vector<std::string> names;
  for (const NeighborhoodShape s : shape) names.push_back(shape_name(s));
  out << "shape = " << join_strings(names) << '\n';
  names.clear();
  for (const DynamicsKind d : dynamics) names.push_back(dynamics_name(d));
  out << "dynamics = " << join_strings(names) << '\n';
  // The topology axis and the graph_* parameters follow the shards
  // pattern below: only non-default values enter the canonical text, so
  // every pre-graph spec keeps its hash and its checkpoints.
  if (!(topology.size() == 1 && topology[0] == TopologyFamily::kTorus)) {
    names.clear();
    for (const TopologyFamily f : topology) names.push_back(topology_name(f));
    out << "topology = " << join_strings(names) << '\n';
  }
  if (graph_clique != 24) out << "graph_clique = " << graph_clique << '\n';
  if (graph_path != 40) out << "graph_path = " << graph_path << '\n';
  if (graph_degree != 8) out << "graph_degree = " << graph_degree << '\n';
  if (graph_beta != 0.1) {
    out << "graph_beta = " << format_double(graph_beta) << '\n';
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
  out << "almost_eps = " << format_double(almost_eps) << '\n';
  out << "metrics = " << join_strings(metrics) << '\n';
  // The stop_* keys follow the shards pattern: they enter the canonical
  // text — and so the checkpoint identity — only when a rule is active,
  // keeping every pre-adaptive spec's hash (and checkpoints) intact.
  if (stop.rule != StopRule::kNone) {
    out << "stop_rule = " << stop_rule_name(stop.rule) << '\n';
    out << "stop_delta = " << format_double(stop.delta) << '\n';
    out << "stop_alpha = " << format_double(stop.alpha) << '\n';
    out << "min_replicas = " << stop.min_replicas << '\n';
    if (stop.max_replicas != 0) {
      out << "max_replicas = " << stop.max_replicas << '\n';
    }
    if (!stop.metric.empty()) out << "stop_metric = " << stop.metric << '\n';
    out << "stop_range = " << format_double(stop.range_lo) << ','
        << format_double(stop.range_hi) << '\n';
    if (stop.rule == StopRule::kPassRate) {
      out << "stop_threshold = " << format_double(stop.threshold) << '\n';
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
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    bool ok = true;
    std::string why;
    if (key == "name") {
      spec.name = value;
      ok = !value.empty();
    } else if (key == "n") {
      ok = parse_int_list(value, &spec.n, &why);
    } else if (key == "w") {
      ok = parse_int_list(value, &spec.w, &why);
    } else if (key == "tau") {
      ok = parse_double_list(value, &spec.tau, &why);
    } else if (key == "tau_minus") {
      ok = parse_double_list(value, &spec.tau_minus, &why);
    } else if (key == "p") {
      ok = parse_double_list(value, &spec.p, &why);
    } else if (key == "shape") {
      spec.shape.clear();
      for (const std::string& item : split_list(value)) {
        NeighborhoodShape s;
        if (!parse_shape(item, &s)) { ok = false; break; }
        spec.shape.push_back(s);
      }
      ok = ok && !spec.shape.empty();
    } else if (key == "dynamics") {
      spec.dynamics.clear();
      for (const std::string& item : split_list(value)) {
        DynamicsKind d;
        if (!parse_dynamics(item, &d)) { ok = false; break; }
        spec.dynamics.push_back(d);
      }
      ok = ok && !spec.dynamics.empty();
    } else if (key == "topology") {
      spec.topology.clear();
      for (const std::string& item : split_list(value)) {
        TopologyFamily f;
        if (!parse_topology(item, &f)) {
          why = "unknown topology family: '" + item + "'";
          ok = false;
          break;
        }
        spec.topology.push_back(f);
      }
      ok = ok && !spec.topology.empty();
    } else if (key == "graph_clique") {
      ok = parse_int_checked(value, &spec.graph_clique, &why);
    } else if (key == "graph_path") {
      ok = parse_int_checked(value, &spec.graph_path, &why);
    } else if (key == "graph_degree") {
      ok = parse_int_checked(value, &spec.graph_degree, &why);
    } else if (key == "graph_beta") {
      ok = parse_double_checked(value, &spec.graph_beta, &why);
    } else if (key == "graph_seed") {
      ok = parse_u64_checked(value, &spec.graph_seed, &why);
    } else if (key == "graph_nodes") {
      std::uint64_t v = 0;
      ok = parse_u64_checked(value, &v, &why);
      spec.graph_nodes = static_cast<std::size_t>(v);
    } else if (key == "graph_file") {
      spec.graph_file = value;
      ok = !value.empty();
    } else if (key == "replicas") {
      std::uint64_t v = 0;
      ok = parse_u64_checked(value, &v, &why) && v > 0;
      spec.replicas = static_cast<std::size_t>(v);
    } else if (key == "shards") {
      std::uint64_t v = 0;
      ok = parse_u64_checked(value, &v, &why) && v > 0;
      spec.shards = static_cast<std::size_t>(v);
    } else if (key == "max_flips") {
      ok = parse_u64_checked(value, &spec.max_flips, &why);
    } else if (key == "streaming_sample_every") {
      ok = parse_u64_checked(value, &spec.streaming_sample_every, &why);
    } else if (key == "sync_max_rounds") {
      ok = parse_u64_checked(value, &spec.sync_max_rounds, &why);
    } else if (key == "region_samples") {
      std::uint64_t v = 0;
      ok = parse_u64_checked(value, &v, &why);
      spec.region_samples = static_cast<std::size_t>(v);
    } else if (key == "almost_eps") {
      std::vector<double> v;
      ok = parse_double_list(value, &v, &why) && v.size() == 1;
      if (ok) spec.almost_eps = v[0];
    } else if (key == "metrics") {
      spec.metrics = split_list(value);
      ok = !spec.metrics.empty();
    } else if (key == "stop_rule") {
      ok = parse_stop_rule(value, &spec.stop.rule);
    } else if (key == "stop_delta") {
      std::vector<double> v;
      ok = parse_double_list(value, &v, &why) && v.size() == 1;
      if (ok) spec.stop.delta = v[0];
    } else if (key == "stop_alpha") {
      std::vector<double> v;
      ok = parse_double_list(value, &v, &why) && v.size() == 1;
      if (ok) spec.stop.alpha = v[0];
    } else if (key == "min_replicas") {
      std::uint64_t v = 0;
      ok = parse_u64_checked(value, &v, &why) && v > 0;
      spec.stop.min_replicas = static_cast<std::size_t>(v);
    } else if (key == "max_replicas") {
      std::uint64_t v = 0;
      ok = parse_u64_checked(value, &v, &why);
      spec.stop.max_replicas = static_cast<std::size_t>(v);
    } else if (key == "stop_metric") {
      spec.stop.metric = value;
      ok = !value.empty();
    } else if (key == "stop_range") {
      std::vector<double> v;
      ok = parse_double_list(value, &v, &why) && v.size() == 2;
      if (ok) {
        spec.stop.range_lo = v[0];
        spec.stop.range_hi = v[1];
      }
    } else if (key == "stop_threshold") {
      std::vector<double> v;
      ok = parse_double_list(value, &v, &why) && v.size() == 1;
      if (ok) spec.stop.threshold = v[0];
    } else {
      return fail("line " + std::to_string(line_no) + ": unknown key '" +
                  key + "'");
    }
    if (!ok) {
      std::string msg = "line " + std::to_string(line_no) +
                        ": bad value for '" + key + "'";
      if (!why.empty()) msg += " (" + why + ")";
      return fail(msg);
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
