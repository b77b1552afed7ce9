// Built-in campaigns: the paper's bench experiments expressed as scenario
// definitions so the bench drivers and the campaign_runner CLI share one
// source of truth (same spec + same campaign seed => same aggregates,
// bitwise, at any thread count).
//
//  * phase_diagram       — the (tau, p) phase portrait of the concluding
//                          remarks (bench/exp_phase_diagram).
//  * region_size         — E[M], E[M'] versus neighborhood size N for the
//                          Theorem 1/2 exponential-growth fits
//                          (bench/exp_region_size); the grid side is tied
//                          to w as n = max(64, 24w), so it reads no `n`.
//  * percolation_stretch — supercritical chemical-distance stretch,
//                          Theorem 4 (bench/exp_percolation, part 1).
//  * percolation_radius  — subcritical cluster-radius decay, Theorem 5
//                          (bench/exp_percolation, part 2).
//  * graph_topologies    — the three synthetic non-torus families
//                          (lollipop, random_regular, small_world) through
//                          the engine's graph mode, scalar metrics only.
//
// The percolation campaigns reuse the grid axes with their natural
// reinterpretation (n is the box side L, p the site-open probability),
// read no other key but `replicas`, and supply custom replica functions
// over percolation/.
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace seg {

struct BuiltinCampaign {
  ScenarioSpec spec;
  std::vector<ScenarioPoint> points;     // expanded (and possibly adjusted)
  std::vector<std::string> metric_names;
  ReplicaFn replica;
};

// One built-in in two steps: `base` is its spec before any override, and
// `finish` derives the points, metric columns and replica from the
// campaign's (possibly overridden) spec.
struct Builtin {
  const char* name;
  ScenarioSpec (*base)();
  // Whether the built-in reads spec key `key`; campaign_runner refuses a
  // flag for any other key.
  bool (*reads)(const std::string& key);
  // ScenarioSpec::valid's checks on the keys the built-in reads, applied
  // to the spec its points will actually run.
  bool (*valid)(const ScenarioSpec& spec, std::string* why);
  void (*finish)(BuiltinCampaign* campaign);
};

// Null if `name` is not a built-in campaign.
const Builtin* find_builtin(const std::string& name);

std::vector<std::string> builtin_campaign_names();

// Points, metric columns and Schelling replica of `campaign->spec`: the
// finish step of spec-file campaigns and of the Schelling built-ins.
void finish_schelling_campaign(BuiltinCampaign* campaign);

// Overrides of a built-in's defaults; 0 keeps the default.
struct BuiltinOverrides {
  int n = 0;  // grid side / box side L (percolation)
  int w = 0;  // horizon
  std::size_t replicas = 0;
  std::size_t graph_nodes = 0;    // random_regular node count
  std::uint64_t graph_seed = 0;   // graph builder seed
};

// base, then the overrides, then finish. No parsing or validation: the
// caller's values are trusted. False if `name` is not a built-in.
bool make_builtin_campaign(const std::string& name,
                           const BuiltinOverrides& overrides,
                           BuiltinCampaign* out);

}  // namespace seg
