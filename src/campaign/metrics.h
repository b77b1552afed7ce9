// The metric registry for Schelling campaigns: named per-replica
// observables evaluated on the absorbing (or stopped) configuration.
// ScenarioSpec.metrics picks rows from this registry by name; the built-in
// replica function runs the configured dynamics and evaluates each metric
// in the declared order.
//
// Expensive derived structures (the mono-region distance transform, the
// cluster decomposition, the almost-mono field) are computed lazily and
// shared across the metrics of one replica.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/almost.h"
#include "analysis/clusters.h"
#include "analysis/regions.h"
#include "campaign/campaign.h"
#include "core/dynamics.h"
#include "core/model.h"

namespace seg {

class StreamingObservables;

// Everything a metric may observe about a finished replica. Sampling
// estimators draw from `sample_rng`, a stream dedicated to measurement so
// metric evaluation never perturbs the dynamics.
class MetricContext {
 public:
  MetricContext(const SchellingModel& model, const RunResult& run,
                const ScenarioSpec& spec, Rng& sample_rng,
                const StreamingObservables* streaming = nullptr)
      : model(model),
        run(run),
        spec(spec),
        sample_rng(sample_rng),
        streaming(streaming) {}

  const SchellingModel& model;
  const RunResult& run;
  const ScenarioSpec& spec;
  Rng& sample_rng;
  // Streaming engine that tracked the replica's dynamics; nullptr unless
  // streaming_autocorr_lag1 was requested. When present, that column and
  // clusters() are served from it in O(1) (the differential suite pins
  // streaming == batch, so the values are identical).
  const StreamingObservables* streaming;

  // Lazily computed, cached for the lifetime of the replica.
  const MonoRegionField& mono();
  const AlmostMonoField& almost();
  const ClusterStats& clusters();

 private:
  std::unique_ptr<MonoRegionField> mono_;
  std::unique_ptr<AlmostMonoField> almost_;
  std::unique_ptr<ClusterStats> clusters_;
};

using MetricFn = double (*)(MetricContext&);

// Looks a metric up by name; fn may be nullptr to just test existence.
bool lookup_metric(const std::string& name, MetricFn* fn);

// True if the metric is meaningful on an arbitrary graph topology.
// Scalar observables (flips, time, happy_fraction, ...) qualify; the
// region/cluster/streaming metrics read 2-d lattice structure and are
// refused by ScenarioSpec::valid() on non-torus points. Unknown names
// return false.
bool metric_supports_graph(const std::string& name);

// Registry names, in registry order.
std::vector<std::string> known_metrics();

// Position of `name` in an expanded metric-name list; names.size() when
// absent. The stopper and the sinks use it to locate watched columns.
std::size_t metric_index(const std::vector<std::string>& names,
                         const std::string& name);

// Replaces the "streaming" pseudo-metric with the streaming observable
// group, in group order; every other name passes through unchanged. The
// campaign engine and sinks must be given the expanded list — the
// replica's value vector is parallel to it.
std::vector<std::string> expand_metric_names(
    const std::vector<std::string>& metrics);

// Builds the engine ReplicaFn for the built-in Schelling model: constructs
// the model from the point's params, runs the point's dynamics, then
// evaluates spec.metrics (which must all be known). The spec is captured
// by value. Graph points build their topology once per group of replicas
// in flight together (graph/topology_registry.h, keyed by point.index),
// so one ReplicaFn serves one point list at a time.
ReplicaFn make_schelling_replica(const ScenarioSpec& spec);

}  // namespace seg
