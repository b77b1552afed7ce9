// campaign_runner: run a scenario campaign from the command line.
//
//   ./campaign_runner --scenario phase_diagram --seed 37 --threads 8
//   ./campaign_runner --spec my_sweep.scenario --out sweep.csv
//   ./campaign_runner --list
//
// Scenarios come from two places: the built-in campaigns (shared with the
// bench drivers, see src/campaign/builtin.h) selected with --scenario, or
// a declarative key=value spec file (format documented in the README)
// loaded with --spec and run with the built-in Schelling replica.
//
// Determinism: for a fixed --seed the aggregated output (CSV included) is
// bitwise identical at any --threads, and identical across an interrupted
// run resumed with --checkpoint/--resume.
//
// Flags:
//   --scenario NAME    built-in campaign (see --list)
//   --spec FILE        scenario spec file (overrides --scenario)
//   --seed S           campaign seed (default 37)
//   --threads T        worker threads (default 1, 0 = hardware)
//   --replicas R       override replica count
//   --n N  --w W       override built-in grid side / horizon (where used)
//   --shards K         lattice shards per Glauber replica (sharded sweep
//                      engine; K=1 keeps the serial engine, trajectories
//                      are deterministic per K — see README "Scaling runs").
//                      Non-torus points shard by greedy-BFS graph partition
//   --topology LIST    override the topology axis (comma-separated:
//                      torus | lollipop | random_regular | small_world |
//                      edge_list; see README "Graph topologies")
//   --graph-nodes N    random_regular node count (0 = n*n)
//   --graph-degree D   random_regular degree
//   --graph-clique M   lollipop clique size
//   --graph-path L     lollipop path length
//   --graph-beta B     small_world rewiring probability
//   --graph-seed S     graph builder seed
//   --graph-file F     edge_list file ("u v" per line; spec campaigns)
//   --out FILE         aggregated CSV (default <name>.csv)
//   --manifest FILE    run manifest (default <name>.manifest)
//   --checkpoint FILE  checkpoint path (enables periodic checkpointing)
//   --checkpoint-every K   replicas between checkpoint writes (default 64)
//   --resume           load the checkpoint before running
//   --max-new-replicas K   stop scheduling after K new replicas (budget /
//                      smoke tests; --stop-after is an alias). Points left
//                      unresolved stay open and resumable — never stopped.
//   --quiet            skip the console table
//   --list             list built-in scenarios and registry metrics
//
// An unknown flag or a malformed value is a usage error (exit 1).
//
// Adaptive campaigns (README "Adaptive campaigns"; the spec keys
// stop_rule / stop_delta / stop_alpha / min_replicas / max_replicas /
// stop_metric / stop_range / stop_threshold can also live in the spec
// file — the flags override them):
//   --stop-rule R      none | hoeffding | bernstein | pass_rate
//   --stop-delta D     target confidence-sequence half-width
//   --stop-alpha A     anytime miscoverage budget (default 0.05)
//   --min-replicas K   replica floor before a rule may fire
//   --max-replicas K   per-point replica cap (0 = the replicas value)
//   --stop-metric M    watched metric (default: first campaign metric)
//
// Telemetry (see README "Telemetry & tracing"; any of these flags turns
// the runtime telemetry registry on, and the manifest then records a
// [telemetry] summary section):
//   --telemetry        enable counters/gauges without other output
//   --trace FILE       write a Chrome trace / Perfetto JSON of the run
//   --progress         live one-line status on stderr (in-place on a TTY)
//   --progress-file F  append machine-readable progress records (JSONL)
//   --progress-every S progress sampling period in seconds (default 1.0)
//
// Observability endpoint (README "Observability endpoint"):
//   --metrics-port N   serve GET /metrics (Prometheus text format),
//                      /healthz and /progress on 127.0.0.1:N for the
//                      run's duration; 0 binds an ephemeral port, printed
//                      to stderr and recorded in the manifest
//   --metrics-debug    also serve GET /debug/flight (flight-recorder dump)
//   --report FILE      end-of-run structured report; ".md" renders
//                      markdown, everything else report.json
//   --flight-dump FILE enable the flight recorder and install the crash
//                      handler: on SIGSEGV/SIGABRT the last events are
//                      dumped to FILE before the process dies
//
// None of the telemetry paths touch any RNG stream: trajectories and all
// outputs are bitwise identical with and without these flags — including
// with a live scraper hitting the endpoint (the handlers read registry
// snapshots only).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "campaign/builtin.h"
#include "campaign/metrics.h"
#include "campaign/sinks.h"
#include "graph/topology.h"
#include "obs/endpoint.h"
#include "obs/flight_recorder.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/args.h"

namespace {

// Comma-separated --topology list; false (with a message) on unknown
// family names.
bool parse_topology_list(const std::string& value,
                         std::vector<seg::TopologyFamily>* out) {
  out->clear();
  std::string item;
  std::istringstream in(value);
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    seg::TopologyFamily f;
    if (!seg::parse_topology(item, &f)) {
      std::fprintf(stderr,
                   "--topology: unknown family '%s' (torus | lollipop | "
                   "random_regular | small_world | edge_list)\n",
                   item.c_str());
      return false;
    }
    out->push_back(f);
  }
  if (out->empty()) {
    std::fprintf(stderr, "--topology needs at least one family\n");
    return false;
  }
  return true;
}

// Non-negative CLI integer; exits with a usage error on negative values
// (a bare size_t cast would wrap -1 to ~2^64).
bool get_size(const seg::ArgParser& args, const std::string& key,
              std::size_t def, std::size_t* out) {
  const std::int64_t v = args.get_int(key, static_cast<std::int64_t>(def));
  if (v < 0) {
    std::fprintf(stderr, "--%s must be >= 0 (got %lld)\n", key.c_str(),
                 static_cast<long long>(v));
    return false;
  }
  *out = static_cast<std::size_t>(v);
  return true;
}

int list_scenarios() {
  std::printf("built-in scenarios:\n");
  for (const std::string& name : seg::builtin_campaign_names()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("\nregistry metrics (for spec files):\n");
  for (const std::string& name : seg::known_metrics()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  if (args.get_bool("list", false)) return list_scenarios();

  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 37));
  const std::string spec_path = args.get_string("spec", "");
  const std::string scenario = args.get_string("scenario", "phase_diagram");

  std::size_t threads = 1, replicas_override = 0, max_new_replicas = 0,
              stop_after_alias = 0, checkpoint_every = 64, n_override = 0,
              w_override = 0, shards_override = 0, min_replicas_override = 0,
              max_replicas_override = 0;
  if (!get_size(args, "threads", 1, &threads) ||
      !get_size(args, "replicas", 0, &replicas_override) ||
      !get_size(args, "max-new-replicas", 0, &max_new_replicas) ||
      !get_size(args, "stop-after", 0, &stop_after_alias) ||
      !get_size(args, "checkpoint-every", 64, &checkpoint_every) ||
      !get_size(args, "n", 0, &n_override) ||
      !get_size(args, "w", 0, &w_override) ||
      !get_size(args, "shards", 0, &shards_override) ||
      !get_size(args, "min-replicas", 0, &min_replicas_override) ||
      !get_size(args, "max-replicas", 0, &max_replicas_override)) {
    return 1;
  }
  if (max_new_replicas == 0) max_new_replicas = stop_after_alias;

  std::size_t graph_nodes = 0, graph_degree = 0, graph_clique = 0,
              graph_path = 0, graph_seed = 0;
  if (!get_size(args, "graph-nodes", 0, &graph_nodes) ||
      !get_size(args, "graph-degree", 0, &graph_degree) ||
      !get_size(args, "graph-clique", 0, &graph_clique) ||
      !get_size(args, "graph-path", 0, &graph_path) ||
      !get_size(args, "graph-seed", 0, &graph_seed)) {
    return 1;
  }
  const double graph_beta = args.get_double("graph-beta", -1.0);
  const std::string graph_file = args.get_string("graph-file", "");
  std::vector<seg::TopologyFamily> topology_override;
  if (args.has("topology") &&
      !parse_topology_list(args.get_string("topology", ""),
                           &topology_override)) {
    return 1;
  }

  seg::BuiltinCampaign campaign;
  if (!spec_path.empty()) {
    std::ifstream in(spec_path);
    if (!in) {
      std::fprintf(stderr, "cannot read spec file %s\n", spec_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (!seg::ScenarioSpec::parse(text.str(), &campaign.spec, &error)) {
      std::fprintf(stderr, "bad spec %s: %s\n", spec_path.c_str(),
                   error.c_str());
      return 1;
    }
    if (replicas_override > 0) campaign.spec.replicas = replicas_override;
    if (shards_override > 0) campaign.spec.shards = shards_override;
    // Topology overrides land before the replica fn captures the spec.
    if (!topology_override.empty()) campaign.spec.topology = topology_override;
    if (graph_nodes > 0) campaign.spec.graph_nodes = graph_nodes;
    if (graph_degree > 0) {
      campaign.spec.graph_degree = static_cast<int>(graph_degree);
    }
    if (graph_clique > 0) {
      campaign.spec.graph_clique = static_cast<int>(graph_clique);
    }
    if (graph_path > 0) campaign.spec.graph_path = static_cast<int>(graph_path);
    if (graph_beta >= 0.0) campaign.spec.graph_beta = graph_beta;
    if (graph_seed > 0) campaign.spec.graph_seed = graph_seed;
    if (!graph_file.empty()) campaign.spec.graph_file = graph_file;
    std::string override_error;
    if (!campaign.spec.valid(&override_error)) {
      std::fprintf(stderr, "bad spec after overrides: %s\n",
                   override_error.c_str());
      return 1;
    }
    campaign.points = seg::expand_grid(campaign.spec);
    campaign.metric_names = seg::expand_metric_names(campaign.spec.metrics);
    campaign.replica = seg::make_schelling_replica(campaign.spec);
  } else {
    const seg::BuiltinOverrides overrides{
        .n = static_cast<int>(n_override),
        .w = static_cast<int>(w_override),
        .replicas = replicas_override,
        .shards = shards_override,
        .topology = topology_override,
        .graph_nodes = graph_nodes,
        .graph_degree = static_cast<int>(graph_degree),
        .graph_clique = static_cast<int>(graph_clique),
        .graph_path = static_cast<int>(graph_path),
        .graph_beta = graph_beta,
        .graph_seed = graph_seed};
    if (!seg::make_builtin_campaign(scenario, overrides, &campaign)) {
      std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                   scenario.c_str());
      return 1;
    }
  }

  // Stopping-rule overrides apply after the campaign is built: they only
  // steer the engine's replica scheduling, never the replica function.
  const std::string stop_rule = args.get_string("stop-rule", "");
  if (!stop_rule.empty() &&
      !seg::parse_stop_rule(stop_rule, &campaign.spec.stop.rule)) {
    std::fprintf(stderr, "unknown --stop-rule '%s' (none | hoeffding | "
                         "bernstein | pass_rate)\n", stop_rule.c_str());
    return 1;
  }
  campaign.spec.stop.delta =
      args.get_double("stop-delta", campaign.spec.stop.delta);
  campaign.spec.stop.alpha =
      args.get_double("stop-alpha", campaign.spec.stop.alpha);
  if (min_replicas_override > 0) {
    campaign.spec.stop.min_replicas = min_replicas_override;
  }
  if (max_replicas_override > 0) {
    campaign.spec.stop.max_replicas = max_replicas_override;
  }
  const std::string stop_metric = args.get_string("stop-metric", "");
  if (!stop_metric.empty()) campaign.spec.stop.metric = stop_metric;
  const bool adaptive = campaign.spec.stop.rule != seg::StopRule::kNone;
  if (adaptive) {
    // Validate against the campaign's actual metric columns — built-in
    // campaigns with custom replicas may not use spec.metrics.
    const seg::StopConfig& stop = campaign.spec.stop;
    if (!stop.metric.empty() &&
        seg::metric_index(campaign.metric_names, stop.metric) >=
            campaign.metric_names.size()) {
      std::fprintf(stderr, "--stop-metric '%s' is not a campaign metric\n",
                   stop.metric.c_str());
      return 1;
    }
    if (!(stop.delta > 0.0) || !(stop.alpha > 0.0 && stop.alpha < 1.0) ||
        stop.min_replicas == 0 ||
        campaign.spec.layout_replicas() < stop.min_replicas) {
      std::fprintf(stderr, "bad stopping config: need stop_delta > 0, "
                           "stop_alpha in (0,1), and min_replicas <= the "
                           "replica cap\n");
      return 1;
    }
  }

  seg::CampaignOptions options;
  options.threads = threads;
  options.checkpoint_path = args.get_string("checkpoint", "");
  options.checkpoint_every = checkpoint_every;
  options.resume = args.get_bool("resume", false);
  options.max_new_replicas = max_new_replicas;

  const std::string trace_path = args.get_string("trace", "");
  const bool progress_line = args.get_bool("progress", false);
  const std::string progress_file = args.get_string("progress-file", "");
  const double progress_every = args.get_double("progress-every", 1.0);
  const std::int64_t metrics_port_arg = args.get_int("metrics-port", -1);
  const bool metrics_debug = args.get_bool("metrics-debug", false);
  const std::string report_path = args.get_string("report", "");
  const std::string flight_dump = args.get_string("flight-dump", "");
  const bool telemetry_flag = args.get_bool("telemetry", false);
  const bool quiet = args.get_bool("quiet", false);
  const std::string out_flag = args.get_string("out", "");
  const std::string manifest_flag = args.get_string("manifest", "");
  // Every flag is read by now. A malformed value ("--seed 10x", an
  // overflowing count, "--resume maybe") or a flag this program does not
  // know ("--stop-rul", "--bogus-flag 7") is a hard usage error, not a
  // silent fallback to the default.
  const std::vector<std::string> unknown = args.unread();
  if (!args.errors().empty() || !unknown.empty()) {
    for (const std::string& e : args.errors()) {
      std::fprintf(stderr, "%s\n", e.c_str());
    }
    for (const std::string& key : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
    }
    return 1;
  }
  if (metrics_port_arg > 65535) {
    std::fprintf(stderr, "--metrics-port must be in [0, 65535]\n");
    return 1;
  }
  // An unreadable edge list would otherwise reach every replica and come
  // back as NaN rows with exit 0; load it once before anything runs.
  if (std::any_of(campaign.points.begin(), campaign.points.end(),
                  [](const seg::ScenarioPoint& pt) {
                    return pt.topology == seg::TopologyFamily::kEdgeList;
                  })) {
    seg::GraphTopology graph;
    std::string error;
    if (!seg::GraphTopology::load_edge_list(campaign.spec.graph_file, &graph,
                                            &error)) {
      std::fprintf(stderr, "cannot load graph_file '%s': %s\n",
                   campaign.spec.graph_file.c_str(), error.c_str());
      return 1;
    }
  }
  const bool metrics_endpoint = metrics_port_arg >= 0;
  const bool telemetry = telemetry_flag ||
                         !trace_path.empty() || progress_line ||
                         !progress_file.empty() || metrics_endpoint ||
                         !report_path.empty();
  if (telemetry) seg::obs::set_enabled(true);
  if (!flight_dump.empty() || metrics_debug) {
    seg::obs::flight::set_enabled(true);
    if (!flight_dump.empty()) {
      seg::obs::flight::install_crash_handler(flight_dump);
    }
  }

  const std::size_t total =
      campaign.points.size() * campaign.spec.layout_replicas();
  if (adaptive) {
    std::printf("campaign '%s': %zu points x <= %zu replicas (rule %s, "
                "delta %g, alpha %g, min %zu), seed %llu, %zu thread(s), "
                "%zu shard(s)/replica\n",
                campaign.spec.name.c_str(), campaign.points.size(),
                campaign.spec.layout_replicas(),
                seg::stop_rule_name(campaign.spec.stop.rule),
                campaign.spec.stop.delta, campaign.spec.stop.alpha,
                campaign.spec.stop.min_replicas,
                static_cast<unsigned long long>(seed),
                options.threads == 0 ? 0 : options.threads,
                campaign.spec.shards);
  } else {
    std::printf("campaign '%s': %zu points x %zu replicas = %zu runs, "
                "seed %llu, %zu thread(s), %zu shard(s)/replica\n",
                campaign.spec.name.c_str(), campaign.points.size(),
                campaign.spec.replicas, total,
                static_cast<unsigned long long>(seed),
                options.threads == 0 ? 0 : options.threads,
                campaign.spec.shards);
  }

  seg::obs::TraceSession trace_session;
  if (!trace_path.empty()) trace_session.start();

  std::unique_ptr<seg::obs::ProgressReporter> progress;
  // The endpoint serves /progress from the reporter's latest record, so
  // a live endpoint keeps a (silent) reporter ticking even when neither
  // progress flag asked for one.
  if (progress_line || !progress_file.empty() || metrics_endpoint) {
    seg::obs::ProgressOptions popt;
    popt.interval_s = progress_every;
    popt.jsonl_path = progress_file;
    popt.stderr_line = progress_line;
    popt.adaptive = adaptive;
    progress = std::make_unique<seg::obs::ProgressReporter>(total, popt);
    options.progress = progress->callback();
  }

  seg::obs::MetricsServer metrics_server([&] {
    seg::obs::MetricsServerOptions mopt;
    if (progress) {
      seg::obs::ProgressReporter* reporter = progress.get();
      mopt.progress_json = [reporter] { return reporter->latest_record(); };
    }
    mopt.debug_routes = metrics_debug;
    return mopt;
  }());
  if (metrics_endpoint) {
    std::string error;
    if (!metrics_server.start(static_cast<std::uint16_t>(metrics_port_arg),
                              &error)) {
      std::fprintf(stderr, "cannot start metrics endpoint: %s\n",
                   error.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics endpoint on http://127.0.0.1:%u/metrics\n",
                 static_cast<unsigned>(metrics_server.port()));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const seg::CampaignResult result = seg::run_campaign(
      campaign.spec, campaign.points, campaign.metric_names,
      campaign.replica, seed, options);
  const double wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // run_campaign has joined its worker pool, so every instrumented region
  // is quiescent before the session stops and the reporter finalizes.
  if (progress) progress->finish();
  if (trace_session.active()) {
    trace_session.stop();
    if (!trace_session.write_json(trace_path)) {
      std::fprintf(stderr, "warning: failed to write trace %s\n",
                   trace_path.c_str());
    } else {
      std::printf("trace -> %s (%zu events)\n", trace_path.c_str(),
                  trace_session.event_count());
    }
  }

  if (!quiet) {
    seg::ConsoleSink console;
    console.write(campaign.spec, result);
  }

  const std::string out =
      out_flag.empty() ? campaign.spec.name + ".csv" : out_flag;
  const std::string manifest_path =
      manifest_flag.empty() ? campaign.spec.name + ".manifest"
                            : manifest_flag;
  seg::CsvSink csv(out);
  seg::ManifestSink manifest(manifest_path);
  manifest.set_info("threads", std::to_string(options.threads));
  manifest.set_info("shards", std::to_string(campaign.spec.shards));
  manifest.set_info("csv", out);
  if (!spec_path.empty()) manifest.set_info("spec_file", spec_path);
  if (!trace_path.empty()) manifest.set_info("trace", trace_path);
  if (metrics_endpoint) {
    manifest.set_info("metrics_port", std::to_string(metrics_server.port()));
  }
  if (!report_path.empty()) manifest.set_info("report", report_path);
  if (telemetry) {
    manifest.set_telemetry(seg::obs::Registry::instance().summary());
  }
  if (!seg::write_all(campaign.spec, result, {&csv, &manifest})) {
    std::fprintf(stderr, "failed to write %s or %s\n", out.c_str(),
                 manifest_path.c_str());
    return 1;
  }
  std::printf("aggregates -> %s, manifest -> %s\n", out.c_str(),
              manifest_path.c_str());
  if (!report_path.empty()) {
    const seg::obs::RunReport report =
        seg::obs::build_report(result, wall_time_s);
    if (!seg::obs::write_report(report, report_path)) {
      std::fprintf(stderr, "failed to write report %s\n",
                   report_path.c_str());
      return 1;
    }
    std::printf("report -> %s\n", report_path.c_str());
  }
  if (adaptive) {
    std::size_t stopped = 0, capped = 0, open = 0, used = 0;
    for (const seg::PointResult& pr : result.points) {
      used += pr.replicas_used;
      if (pr.state == seg::PointState::kStopped) ++stopped;
      else if (pr.state == seg::PointState::kCapped) ++capped;
      else if (pr.state == seg::PointState::kOpen) ++open;
    }
    const double saved =
        total > 0 ? 100.0 * (1.0 - static_cast<double>(result.replicas_done) /
                                       static_cast<double>(total))
                  : 0.0;
    std::printf("adaptive: %zu stopped, %zu capped, %zu open; %zu replicas "
                "folded, %zu run (%.1f%% of the %zu-replica cap saved)\n",
                stopped, capped, open, used, result.replicas_done, saved,
                total);
  }
  if (result.checkpoint_write_failed) {
    std::fprintf(stderr, "warning: checkpoint writes to %s failed; a kill "
                         "would lose this run's progress\n",
                 options.checkpoint_path.c_str());
  }
  if (!result.complete) {
    std::printf("run incomplete (%zu/%zu replicas); resume with "
                "--checkpoint %s --resume\n",
                result.replicas_done, total,
                options.checkpoint_path.empty()
                    ? "<path>"
                    : options.checkpoint_path.c_str());
  }
  return result.complete ? 0 : 2;
}
