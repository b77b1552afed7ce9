#include "core/parallel_dynamics.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/streaming.h"
#include "core/kawasaki.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/seg_assert.h"
#include "util/thread_pool.h"

namespace seg {

namespace {

// Threads for phase A: as requested, or one per hardware thread; the
// team clamps it to the shard count.
std::size_t team_width(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

// Per-shard unhappy split into +1 / -1 classes; the Kawasaki proposal
// loop terminates a shard when either class is empty (mirrors the serial
// engine's unhappy_partition).
std::pair<std::size_t, std::size_t> shard_unhappy_partition(
    const SchellingModel& model, int shard) {
  std::size_t plus = 0;
  const AgentSet& unhappy = model.unhappy_set(shard);
  for (const std::uint32_t id : unhappy.items()) {
    plus += model.spin(id) > 0;
  }
  return {plus, unhappy.size() - plus};
}

}  // namespace

ParallelRunResult run_parallel_glauber(SchellingModel& model,
                                       std::uint64_t seed,
                                       const ParallelOptions& options) {
  using Clock = std::chrono::steady_clock;
  const int k = model.shard_count();
  StreamingObservables* streaming = options.streaming;
  SEG_ASSERT(model.flip_observer() == nullptr || k == 1,
             "engine-level flip observer attached to a " << k
                 << "-shard model: phase A is concurrent; route streaming "
                    "measurement through ParallelOptions::streaming");

  // One Poisson chain per shard interior plus one for the boundary band.
  // `time` is the chain's clock; `last_flip` the time of its latest flip.
  // Cache-line aligned: phase-A workers update their chain on every flip.
  struct alignas(64) Chain {
    explicit Chain(Rng stream) : rng(stream) {}
    Rng rng;
    double time = 0.0;
    double last_flip = 0.0;
    std::uint64_t flips = 0;            // this sweep
    std::vector<std::uint32_t> events;  // applied flips, for streaming
    Clock::time_point done{};           // end of phase A (telemetry)
  };
  std::vector<Chain> shards;
  shards.reserve(k);
  for (int s = 0; s < k; ++s) shards.emplace_back(Rng::stream(seed, s));
  Chain band(Rng::stream(seed, static_cast<std::uint64_t>(k)));

  const std::uint64_t quantum =
      options.sweep_quantum > 0
          ? options.sweep_quantum
          : std::max<std::uint64_t>(256, model.agent_count() / (4 * k));
  const auto band_total = [&] {
    std::size_t total = 0;
    for (int s = 0; s < k; ++s) total += model.flippable_set(s).band_size();
    return total;
  };

  ThreadTeam team(team_width(options.threads), static_cast<std::size_t>(k));
  ParallelRunResult result;
  std::uint64_t flips_since_sample = 0;

  while (!model.terminated() && result.flips < options.max_flips &&
         result.sweeps < options.max_sweeps) {
    SEG_PHASE("sweep");
    const std::uint64_t remaining = options.max_flips - result.flips;
    // One shard: no band and no slice end, a sweep is `quantum` draws of
    // the serial loop. k shards: the slice [start, horizon) holds
    // `quantum` expected draws per shard at the current total rate but
    // never more than one unit of time (an agent's mean ring interval),
    // which bounds how late a flip on one side of a seam reaches the
    // chain on the other side; the k + 1 chains split the flip budget.
    double horizon = std::numeric_limits<double>::infinity();
    std::uint64_t cap = std::min(quantum, remaining);
    if (k > 1) {
      double start = band.time;
      for (const Chain& st : shards) start = std::min(start, st.time);
      horizon = start + std::min(1.0, static_cast<double>(quantum) * k /
                                          static_cast<double>(
                                              model.count_flippable()));
      const auto chains = static_cast<std::uint64_t>(k) + 1;
      cap = remaining / chains + (remaining % chains != 0 ? 1 : 0);
    }
    // Runs chain `st` up to time `until` (or its share of the budget):
    // `rate()` is the size of the site set it covers, `pick(rate)` draws a
    // site uniformly from it. A draw past `until` is discarded: the clocks
    // are memoryless, so the chain resumes there next slice with a fresh
    // draw.
    const auto advance = [&](Chain& st, double until, auto&& rate,
                             auto&& pick) {
      double t = st.time;
      while (t < until && st.flips < cap) {
        const std::size_t r = rate();
        if (r == 0) {
          t = until;
          break;
        }
        const double next =
            t + st.rng.exponential(static_cast<double>(r));
        if (next > until) {
          t = until;
          break;
        }
        t = next;
        const std::uint32_t id = pick(r);
        model.flip(id);
        ++st.flips;
        st.last_flip = t;
        if (streaming != nullptr) st.events.push_back(id);
      }
      st.time = t;
    };

    // Phase A: every shard runs its interior chain. An interior flip
    // touches only its own shard's storage (ShardLayout isolation) and
    // the chain never samples a band site, so shards run race-free and
    // never stop early.
    team.run([&](std::size_t s) {
      {
        SEG_PHASE("phase_a_shard");
        Chain& st = shards[s];
        const AgentSet& flippable = model.flippable_set(static_cast<int>(s));
        advance(
            st, horizon, [&] { return flippable.interior_size(); },
            [&](std::size_t) { return flippable.sample_interior(st.rng); });
      }
      if (obs::enabled()) shards[s].done = Clock::now();
    });
    if (obs::enabled()) {
      // Idle time of each shard between its phase A and the barrier.
      const Clock::time_point barrier = Clock::now();
      for (const Chain& st : shards) {
        SEG_HISTOGRAM("phase.barrier_wait_us",
                      std::chrono::duration_cast<std::chrono::microseconds>(
                          barrier - st.done)
                          .count());
      }
    }

    // Fold phase A in shard order (deterministic); telemetry counters
    // are bumped once per sweep, never inside the flip loops.
    std::uint64_t sweep_flips = 0;
    for (Chain& st : shards) {
      sweep_flips += st.flips;
      result.final_time = std::max(result.final_time, st.last_flip);
      st.flips = 0;
    }
    // Band work waiting for phase B.
    const std::size_t waiting = band_total();
    SEG_GAUGE_SET("dynamics.conflict_queue_depth", waiting);
    SEG_TRACE_COUNTER("conflict_queue_depth", waiting);

    // Phase B: the band chain, serial, over the same slice but never
    // past the slowest shard clock (a shard stopped by the flip budget
    // ends its slice early). It samples the live band sets, so every
    // draw is flippable when applied.
    {
      SEG_PHASE("reconcile");
      double until = horizon;
      for (const Chain& st : shards) until = std::min(until, st.time);
      advance(
          band, until, band_total, [&](std::size_t total) {
            std::uint64_t r = band.rng.uniform_below(total);
            int s = 0;
            while (r >= model.flippable_set(s).band_size()) {
              r -= model.flippable_set(s).band_size();
              ++s;
            }
            // The band part is the prefix of the shard's flippable slice.
            const std::uint32_t id = model.flippable_set(s).at(r);
            SEG_ASSERT(model.shard_boundary(id),
                       "interior site " << id << " sampled by the band chain");
            return id;
          });
      result.final_time = std::max(result.final_time, band.last_flip);
      result.deferred += band.flips;
      result.reconciled += band.flips;
      SEG_COUNT("dynamics.deferred", band.flips);
      SEG_COUNT("dynamics.reconciled", band.flips);
    }
    sweep_flips += band.flips;
    result.flips += sweep_flips;
    band.flips = 0;
    SEG_COUNT("dynamics.flips", sweep_flips);
    SEG_HISTOGRAM("dynamics.flips_per_sweep", sweep_flips);

    if (streaming != nullptr) {
      // Replay the sweep serially: phase-A logs in shard order (interior
      // sites of distinct shards, whose windows are disjoint, so the
      // order between shards is immaterial), then the band flips in
      // application order — exactly the history the engine went
      // through. Samples are taken on the replayed stream every
      // `streaming_sample_every` flips (or once per sweep when 0).
      SEG_PHASE("streaming_replay");
      const auto drain = [&](std::uint32_t id) {
        streaming->apply_flip(id);
        if (options.streaming_sample_every > 0 &&
            ++flips_since_sample >= options.streaming_sample_every) {
          flips_since_sample = 0;
          streaming->record_sample();
        }
      };
      for (Chain& st : shards) {
        for (const std::uint32_t id : st.events) drain(id);
        st.events.clear();
      }
      for (const std::uint32_t id : band.events) drain(id);
      band.events.clear();
      if (options.streaming_sample_every == 0) streaming->record_sample();
    }
    ++result.sweeps;
  }

  result.terminated = model.terminated();
  return result;
}

ParallelKawasakiResult run_parallel_kawasaki(
    SchellingModel& model, std::uint64_t seed,
    const ParallelKawasakiOptions& options) {
  const int k = model.shard_count();

  struct ShardState {
    Rng rng;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> queue;
    std::uint64_t swaps = 0;      // this sweep
    std::uint64_t proposals = 0;  // this sweep
    std::uint64_t deferred = 0;   // this sweep
    std::uint64_t consecutive_rejects = 0;  // persists across sweeps
    bool absorbed = false;        // one unhappy class empty this sweep
    bool certified = false;       // 1-shard mid-loop exact test passed
  };
  std::vector<ShardState> shards;
  shards.reserve(k);
  for (int s = 0; s < k; ++s) {
    shards.push_back(ShardState{Rng::stream(seed, s), {}, 0, 0, 0, 0,
                                false, false});
  }

  const std::uint64_t quantum =
      options.proposal_quantum > 0
          ? options.proposal_quantum
          : std::max<std::uint64_t>(512, model.agent_count() /
                                             static_cast<std::uint64_t>(k));

  ThreadTeam team(team_width(options.threads), static_cast<std::size_t>(k));
  ParallelKawasakiResult result;

  while (result.swaps < options.max_swaps &&
         result.sweeps < options.max_sweeps) {
    SEG_PHASE("kawasaki_sweep");
    const std::uint64_t swap_budget = options.max_swaps - result.swaps;

    team.run([&](std::size_t si) {
      SEG_PHASE("phase_a_shard");
      const int s = static_cast<int>(si);
      ShardState& st = shards[si];
      st.absorbed = false;
      auto [plus_unhappy, minus_unhappy] =
          shard_unhappy_partition(model, s);
      while (st.proposals < quantum && st.swaps < swap_budget) {
        if (plus_unhappy == 0 || minus_unhappy == 0) {
          st.absorbed = true;
          break;
        }
        const AgentSet& unhappy = model.unhappy_set(s);
        const std::uint32_t a = unhappy.sample(st.rng);
        const std::uint32_t b = unhappy.sample(st.rng);
        ++st.proposals;
        if (model.spin(a) == model.spin(b)) continue;
        if (model.shard_boundary(a) || model.shard_boundary(b)) {
          st.queue.emplace_back(a, b);
          ++st.deferred;
          continue;
        }
        // Both endpoints interior to this shard: the tentative swap and
        // its possible revert touch only shard-local state.
        if (swap_improves(model, a, b)) {
          ++st.swaps;
          st.consecutive_rejects = 0;
          std::tie(plus_unhappy, minus_unhappy) =
              shard_unhappy_partition(model, s);
          continue;
        }
        ++st.consecutive_rejects;
        if (k == 1) {
          // Single shard: run the serial engine's mid-stream exact
          // absorption test at the same cadence, so the 1-shard run
          // terminates on the same proposal as run_kawasaki.
          if (st.consecutive_rejects >= options.stale_check_after &&
              st.consecutive_rejects % options.stale_check_after == 0 &&
              !improving_swap_exists(model)) {
            st.certified = true;
            break;
          }
          if (options.max_consecutive_rejects > 0 &&
              st.consecutive_rejects >= options.max_consecutive_rejects) {
            break;
          }
        }
      }
    });

    bool all_absorbed = true;
    std::uint64_t sweep_progress = 0;
    std::uint64_t sweep_swaps = 0, sweep_proposals = 0, sweep_deferred = 0;
    std::int64_t queue_depth = 0;
    for (ShardState& st : shards) {
      result.swaps += st.swaps;
      result.proposals += st.proposals;
      result.deferred += st.deferred;
      sweep_progress += st.swaps;
      sweep_swaps += st.swaps;
      sweep_proposals += st.proposals;
      sweep_deferred += st.deferred;
      queue_depth += static_cast<std::int64_t>(st.queue.size());
      st.swaps = 0;
      st.proposals = 0;
      st.deferred = 0;
      all_absorbed &= st.absorbed;
      if (st.certified) result.terminated = true;
    }
    SEG_COUNT("dynamics.swaps", sweep_swaps);
    SEG_COUNT("dynamics.proposals", sweep_proposals);
    SEG_COUNT("dynamics.deferred", sweep_deferred);
    SEG_GAUGE_SET("dynamics.conflict_queue_depth", queue_depth);
    SEG_TRACE_COUNTER("conflict_queue_depth", queue_depth);

    // Phase B: serial reconciliation of boundary pairs in shard order. A
    // rejected deferred pair counts toward its shard's consecutive
    // rejections — otherwise a shard whose remaining pairs all touch a
    // boundary could defer-and-fail every sweep without ever tripping
    // the stale or give-up exits below.
    const std::uint64_t reconciled_before = result.reconciled;
    {
      SEG_PHASE("reconcile");
      for (ShardState& st : shards) {
        std::unordered_set<std::uint64_t> seen;  // same pair drawn twice
        for (const auto& [a, b] : st.queue) {
          SEG_ASSERT(model.shard_boundary(a) || model.shard_boundary(b),
                     "interior pair (" << a << ", " << b
                                       << ") reached the conflict queue");
          const std::uint64_t key =
              (static_cast<std::uint64_t>(a) << 32) | b;
          if (!seen.insert(key).second) continue;  // duplicate this sweep
          // Re-validate the full serial proposal rule against the current
          // global state: an earlier reconciled (or same-shard interior)
          // swap may have flipped an endpoint's type or made it happy —
          // and the serial dynamics never relocates a happy agent.
          if (model.spin(a) != model.spin(b) && model.in_unhappy_set(a) &&
              model.in_unhappy_set(b) && swap_improves(model, a, b)) {
            ++result.swaps;
            ++result.reconciled;
            ++sweep_progress;
            st.consecutive_rejects = 0;
          } else {
            ++st.consecutive_rejects;
          }
        }
        st.queue.clear();
      }
      SEG_COUNT("dynamics.swaps", result.reconciled - reconciled_before);
      SEG_COUNT("dynamics.reconciled",
                result.reconciled - reconciled_before);
    }
    ++result.sweeps;

    if (result.terminated) break;  // 1-shard certified mid-loop
    if (sweep_progress > 0) continue;  // real progress: keep sweeping
    if (all_absorbed) {
      // No shard can propose an opposite-type unhappy pair and nothing
      // reconciled: the sharded dynamics has no reachable move left.
      // `terminated` is a *certificate* of global absorption, though, so
      // distinguish it from the cross-shard-only regime (each shard
      // one-class-empty but opposite-type pairs spanning shards remain).
      if (!improving_swap_exists(model)) {
        result.terminated = true;
      } else {
        result.gave_up = true;
      }
      break;
    }
    // Stale / give-up exits, evaluated after phase B so reconciliation
    // failures count. An absorbed shard cannot act at all, so it must
    // not hold back the exits of the shards that still can.
    bool all_stale = true;
    bool all_exhausted = options.max_consecutive_rejects > 0;
    for (const ShardState& st : shards) {
      all_stale &= st.absorbed ||
                   st.consecutive_rejects >= options.stale_check_after;
      all_exhausted &=
          st.absorbed ||
          st.consecutive_rejects >= options.max_consecutive_rejects;
    }
    if (all_stale && !improving_swap_exists(model)) {
      // Exact global certificate (all shard slices scanned, tentative
      // swaps reverted): genuinely absorbed.
      result.terminated = true;
      break;
    }
    // Improving swaps may exist but be cross-shard (unreachable for
    // this dynamics); the give-up cap bounds that regime.
    if (all_exhausted) {
      result.gave_up = true;
      break;
    }
  }

  return result;
}

RunResult to_run_result(const ParallelRunResult& parallel) {
  RunResult run;
  run.flips = parallel.flips;
  run.final_time = parallel.final_time;
  run.terminated = parallel.terminated;
  run.rounds = parallel.sweeps;
  return run;
}

}  // namespace seg
