// campaign_runner: run a scenario campaign from the command line.
//
//   ./campaign_runner --scenario phase_diagram --seed 37 --threads 8
//   ./campaign_runner --spec my_sweep.scenario --tau 0.40,0.45
//   ./campaign_runner --help
//
// A campaign is a built-in (--scenario, src/campaign/builtin.h) or a spec
// file (--spec, format in the README). Every spec key is also a flag,
// `_` spelled `-`, set on top of that spec; --help lists them next to the
// run-level flags. For a fixed --seed the CSV is bitwise identical at any
// --threads and across --checkpoint/--resume, and no telemetry flag
// touches an RNG stream.
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

struct RunFlag {
  const char* flag;
  const char* help;
};

// The flags that are not spec keys, for --help; main() reads each by name.
constexpr RunFlag kRunFlags[] = {
    {"scenario NAME", "built-in campaign (default phase_diagram; --list)"},
    {"spec FILE", "scenario spec file, run instead of a built-in"},
    {"seed S", "campaign seed (default 37)"},
    {"threads T", "worker threads (default 1, 0 = hardware)"},
    {"out FILE", "aggregated CSV (default <name>.csv)"},
    {"manifest FILE", "run manifest (default <name>.manifest)"},
    {"checkpoint FILE", "checkpoint path; enables periodic checkpoints"},
    {"checkpoint-every K", "replicas between checkpoint writes (default 64)"},
    {"resume", "load the checkpoint before running"},
    {"max-new-replicas K", "stop after K new replicas; exit 2, resumable"},
    {"quiet", "skip the console table"},
    {"list", "list built-ins, the keys they read, and metrics"},
    {"help", "print this help"},
    {"telemetry", "counters and gauges; any flag below implies it"},
    {"trace FILE", "write a Chrome trace / Perfetto JSON of the run"},
    {"progress", "live one-line status on stderr"},
    {"progress-file F", "append machine-readable progress records (JSONL)"},
    {"progress-every S", "progress sampling period in seconds (default 1)"},
    {"metrics-port N", "serve /metrics on 127.0.0.1:N; 0 = any free port"},
    {"metrics-debug", "also serve /debug/flight"},
    {"report FILE", "end-of-run report; .md renders markdown, else JSON"},
    {"flight-dump FILE", "dump the flight recorder to FILE on a crash"},
};

// The flag spelling of a spec key: graph_degree -> graph-degree.
std::string flag_name(std::string key) {
  std::replace(key.begin(), key.end(), '_', '-');
  return key;
}

int print_help() {
  std::printf("usage: campaign_runner [--scenario NAME | --spec FILE] "
              "[flags]\n\nrun flags:\n");
  for (const RunFlag& f : kRunFlags) {
    std::printf("  --%-24s %s\n", f.flag, f.help);
  }
  std::printf("\nspec keys, as flags or spec-file lines "
              "(list values are comma-separated):\n");
  for (const seg::SpecKey& k : seg::spec_keys()) {
    std::printf("  --%-24s %s\n", flag_name(k.key).c_str(), k.help);
  }
  return 0;
}

// Built-ins refuse a flag for a spec key they do not read; list those.
int list_scenarios() {
  std::printf("built-in scenarios:\n");
  for (const std::string& name : seg::builtin_campaign_names()) {
    const seg::Builtin* builtin = seg::find_builtin(name);
    std::string read, refused;
    for (const seg::SpecKey& k : seg::spec_keys()) {
      (builtin->reads(k.key) ? read : refused) += " --" + flag_name(k.key);
    }
    std::string note;  // empty when the built-in reads every key
    if (!refused.empty()) {
      note = read.size() < refused.size() ? " (reads only" + read + ")"
                                          : " (refuses" + refused + ")";
    }
    std::printf("  %s%s\n", name.c_str(), note.c_str());
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
  if (args.get_bool("help", false)) return print_help();
  if (args.get_bool("list", false)) return list_scenarios();

  const std::uint64_t seed = args.get_u64("seed", 37);
  const std::string spec_path = args.get_string("spec", "");
  const std::string scenario = args.get_string("scenario", "phase_diagram");

  // The spec file or the built-in's base spec, then every spec-key flag
  // through ScenarioSpec::set, then one validation.
  seg::BuiltinCampaign campaign;
  const seg::Builtin* builtin = nullptr;
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
  } else {
    builtin = seg::find_builtin(scenario);
    if (builtin == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                   scenario.c_str());
      return 1;
    }
    campaign.spec = builtin->base();
  }
  for (const seg::SpecKey& key : seg::spec_keys()) {
    const std::string flag = flag_name(key.key);
    if (!args.has(flag)) continue;
    if (builtin != nullptr && !builtin->reads(key.key)) {
      std::fprintf(stderr, "--%s: built-in '%s' does not read spec key '%s'\n",
                   flag.c_str(), builtin->name, key.key);
      return 1;
    }
    std::string why;
    if (!campaign.spec.set(key.key, args.get_string(flag), &why)) {
      std::fprintf(stderr, "--%s: %s\n", flag.c_str(), why.c_str());
      return 1;
    }
  }
  std::string invalid;
  if (!(builtin ? builtin->valid(campaign.spec, &invalid)
                : campaign.spec.valid(&invalid))) {
    std::fprintf(stderr, "bad campaign '%s': %s\n",
                 campaign.spec.name.c_str(), invalid.c_str());
    return 1;
  }
  (builtin ? builtin->finish : seg::finish_schelling_campaign)(&campaign);
  const bool adaptive = campaign.spec.stop.rule != seg::StopRule::kNone;

  seg::CampaignOptions options;
  options.threads = args.get_u64("threads", 1);
  options.checkpoint_path = args.get_string("checkpoint", "");
  options.checkpoint_every = args.get_u64("checkpoint-every", 64);
  options.resume = args.get_bool("resume", false);
  options.max_new_replicas = args.get_u64("max-new-replicas", 0);

  const std::string trace_path = args.get_string("trace", "");
  const bool progress_line = args.get_bool("progress", false);
  const std::string progress_file = args.get_string("progress-file", "");
  const double progress_every = args.get_double("progress-every", 1.0);
  const bool metrics_endpoint = args.has("metrics-port");
  const std::uint64_t metrics_port = args.get_u64("metrics-port", 0);
  const bool metrics_debug = args.get_bool("metrics-debug", false);
  const std::string report_path = args.get_string("report", "");
  const std::string flight_dump = args.get_string("flight-dump", "");
  const bool telemetry_flag = args.get_bool("telemetry", false);
  const bool quiet = args.get_bool("quiet", false);
  const std::string out_flag = args.get_string("out", "");
  const std::string manifest_flag = args.get_string("manifest", "");
  // Every flag is read by now. A malformed value ("--seed 10x", "--seed
  // -1", "--resume maybe"), a flag this program does not know
  // ("--stop-rul", "--bogus-flag 7") or a stray word ("region_size"
  // without --scenario) is a hard usage error, not a silent fallback to
  // the default.
  const std::vector<std::string> unknown = args.unread();
  if (!args.errors().empty() || !unknown.empty() ||
      !args.positional().empty()) {
    for (const std::string& e : args.errors()) {
      std::fprintf(stderr, "%s\n", e.c_str());
    }
    for (const std::string& key : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
    }
    for (const std::string& word : args.positional()) {
      std::fprintf(stderr, "unexpected argument '%s'\n", word.c_str());
    }
    return 1;
  }
  if (metrics_port > 65535) {
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
    if (!metrics_server.start(static_cast<std::uint16_t>(metrics_port),
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
