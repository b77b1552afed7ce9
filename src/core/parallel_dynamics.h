// Sharded parallel dynamics: Glauber and Kawasaki sweeps of ONE large
// lattice decomposed into shards (lattice/sharded.h) and driven by a
// util/thread_pool ThreadTeam: the caller plus helper threads, shard s
// always on thread s mod width.
//
// Glauber (a conservative asynchronous scheme after Lubachevsky, Complex
// Systems 1, 1987). Every flippable site rings at rate 1, as in the
// paper; the rings are split over k + 1 Poisson chains. Shard s's chain
// covers the flippable sites *interior* to s (window inside the shard,
// rate = their count) and draws from Rng::stream(seed, s); the *band*
// chain covers every flippable boundary site (within w of a cut, rate =
// their total) and draws from Rng::stream(seed, k). Each shard's
// flippable slice keeps the two kinds apart (AgentSet's band split), so a
// chain samples only its own sites. Time advances in *sweeps*, each a
// slice [start, horizon) of simulated time:
//  - Phase A: the k interior chains run concurrently up to the horizon.
//    An interior flip touches only its own shard's spins, counts, codes
//    and sets (the ShardLayout isolation guarantee), so no chain ever
//    defers or stops early, and no lock is taken.
//  - Phase B: the band chain runs serially over the same slice (never
//    past the slowest shard clock), sampling the live band sets; a drawn
//    site is applied if still flippable, which it always is.
// A draw that lands past the horizon is discarded and its chain resumes
// at the horizon with a fresh draw — the clocks are memoryless, so each
// chain is an exact Gillespie chain given the state it sees. Counts,
// codes and set memberships stay exact at every step.
//
// Determinism contract: for a fixed shard count the trajectory — spins,
// flip counts, Poisson clocks — is a pure function of the seed, bitwise
// identical at ANY thread count (each chain depends only on its own
// substream and on state no concurrent chain writes; the horizon and the
// fold are computed serially). With ONE shard there is no band and no
// horizon, phase A is the serial proposal loop verbatim, and the run is
// bitwise identical to run_glauber / run_kawasaki driven by
// Rng::stream(seed, 0) — the differential tests pin this.
//
// Semantics at k > 1: a domain-decomposed variant of the paper's process,
// not a reordering of the serial chain. Within a slice the interior
// chains see the band as it was at the slice start and the band chain
// sees the interiors as they are at the slice end, so a flip reaches the
// chain across a seam up to one slice late; a slice is therefore capped
// at one unit of time, an agent's mean ring interval. Only flippable
// sites flip, so the Lyapunov function strictly increases and the
// sharded process absorbs exactly like the serial one.
//
// Kawasaki: phase A samples opposite-type unhappy pairs from each shard's
// own (unsplit) unhappy set; pairs touching a boundary are deferred to a
// conflict queue that a serial reconciliation pass re-validates and
// applies in shard order. Swaps conserve the type counts exactly, with
// proposals restricted to intra-shard pairs.
#pragma once

#include <cstdint>
#include <limits>

#include "core/dynamics.h"
#include "core/model.h"

namespace seg {

class StreamingObservables;

struct ParallelOptions {
  // Threads for phase A, the caller included; 0 = hardware concurrency.
  // The team is additionally capped at the shard count.
  std::size_t threads = 0;
  // Streaming measurement sink (analysis/streaming.h). Phase-A workers
  // append applied flips to per-shard event logs (no shared writes); the
  // logs are drained into the sink serially after every phase B in
  // ascending shard order, followed by the band flips in application
  // order. The sink therefore sees a deterministic event
  // stream (per shard count, at any thread count) whose final state is
  // exactly the engine's. Do NOT additionally attach the sink as the
  // engine's FlipObserver — phase A is concurrent.
  StreamingObservables* streaming = nullptr;
  // Flips between time-autocorrelation samples recorded into `streaming`
  // (counted on the replayed stream, so deterministic); 0 = one sample
  // per sweep. Matches the serial RunOptions cadence
  // (snapshot_every) when set to the same value.
  std::uint64_t streaming_sample_every = 0;
  // Stop once at least this many flips were performed. Exact for one
  // shard; at k > 1 the k + 1 chains share the remaining budget each
  // sweep, so a run may overshoot by at most `shards` flips.
  std::uint64_t max_flips = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_sweeps = std::numeric_limits<std::uint64_t>::max();
  // Sizes a sweep; 0 = auto (max(256, sites / (4 * shards))). One shard:
  // the draws per sweep. k shards: the expected draws per shard per
  // sweep — the slice lasts sweep_quantum * k / |flippable| units of
  // time at the rate of the sweep's start, capped at one unit. Larger
  // quanta amortize the barrier, smaller ones pass flips across the
  // seams sooner.
  std::uint64_t sweep_quantum = 0;
};

struct ParallelRunResult {
  std::uint64_t flips = 0;       // applied flips, band flips included
  std::uint64_t sweeps = 0;      // phase A + B rounds executed
  // Band-chain draws (phase B) and the band flips applied. The band chain
  // samples the live band sets, so the two are equal; both names stay
  // for the readers of the Kawasaki-shaped result.
  std::uint64_t deferred = 0;
  std::uint64_t reconciled = 0;
  // Time of the last flip on any chain (== the serial clock for one
  // shard).
  double final_time = 0.0;
  bool terminated = false;  // absorbing state: no flippable agent left
};

// Event-driven Glauber sweeps over a sharded model (the model must have
// been constructed with a ShardLayout; shard_count() == 1 reproduces
// run_glauber bitwise). Shard substreams derive as Rng::stream(seed, s),
// the band chain's as Rng::stream(seed, shards).
ParallelRunResult run_parallel_glauber(SchellingModel& model,
                                       std::uint64_t seed,
                                       const ParallelOptions& options = {});

struct ParallelKawasakiOptions {
  std::size_t threads = 0;
  std::uint64_t max_swaps = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_sweeps = std::numeric_limits<std::uint64_t>::max();
  // Proposals per shard per sweep; 0 = auto (max(512, sites / shards)).
  std::uint64_t proposal_quantum = 0;
  // Per-shard consecutive-rejection threshold: once EVERY shard is past
  // it, the exact global absorption test runs between sweeps (same
  // certificate as run_kawasaki).
  std::uint64_t stale_check_after = 5000;
  // Give up (gave_up = true) once every shard is past this; 0 disables.
  std::uint64_t max_consecutive_rejects = 2'000'000;
};

struct ParallelKawasakiResult {
  std::uint64_t swaps = 0;       // applied swaps, reconciled included
  std::uint64_t proposals = 0;
  std::uint64_t deferred = 0;    // boundary pairs queued for phase B
  std::uint64_t reconciled = 0;  // deferred swaps applied in phase B
  std::uint64_t sweeps = 0;
  bool terminated = false;  // certified: no improving swap exists
  bool gave_up = false;
};

// Conserved-magnetization swap sweeps. Proposals are intra-shard (each
// shard samples opposite-type unhappy pairs from its own sub-set); pairs
// touching a boundary defer to the serial reconciliation pass. One shard
// reproduces run_kawasaki's proposal stream bitwise.
ParallelKawasakiResult run_parallel_kawasaki(
    SchellingModel& model, std::uint64_t seed,
    const ParallelKawasakiOptions& options = {});

// Adapter for drivers and the campaign layer that consume the serial
// RunResult shape (sweeps map onto `rounds`).
RunResult to_run_result(const ParallelRunResult& parallel);

}  // namespace seg
