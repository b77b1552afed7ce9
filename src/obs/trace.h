// Event tracing with Chrome trace / Perfetto JSON export.
//
// A TraceSession collects timestamped events into per-thread buffers
// (one mutex acquisition per thread per session, none per event) and
// serializes them in the Chrome trace-event JSON format, loadable in
// chrome://tracing or https://ui.perfetto.dev. The campaign runner wires
// this to --trace=out.json; the instrumented layers emit scoped spans
// around sweeps, shard phases, reconciliation, streaming replay,
// checkpoint writes, and DSU compactions.
//
// Activation. At most one session is active at a time (start()/stop());
// while none is active a SEG_TRACE_SPAN costs one relaxed atomic load
// and a branch. Span names must be string literals (or otherwise outlive
// the session) — events store the pointer, not a copy.
//
// Threading contract: events may be recorded from any thread while the
// session is active. stop() must happen-after all instrumented work (in
// practice: after worker pools have joined), and the session object must
// outlive any thread that might still be inside an instrumented region.
#pragma once

#include <cstdint>
#include <string>

namespace seg::obs {

class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Installs this session as the process-wide active one and zeroes its
  // clock. No-op if another session is already active (the first wins).
  void start();
  // Uninstalls the session; recorded events are kept for export.
  void stop();
  bool active() const;

  // The active session, or nullptr. Relaxed atomic load.
  static TraceSession* current();

  // Microseconds since start(), as Chrome trace "ts".
  double now_us() const;

  // Event intake (any thread, active session only — callers go through
  // the SEG_TRACE_* macros / TraceSpan which null-check current()).
  void record_complete(const char* name, double ts_us, double dur_us);
  void record_instant(const char* name);
  void record_counter(const char* name, std::int64_t value);

  std::size_t event_count() const;

  // Chrome trace-event JSON ({"traceEvents": [...]}); write_json returns
  // false on I/O failure. Call after stop().
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  struct Impl;
  Impl* impl_;
};

// RAII scoped span: records a Chrome "X" (complete) event covering its
// lifetime. Cheap no-op when no session is active at construction.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : session_(TraceSession::current()), name_(name) {
    if (session_ != nullptr) start_us_ = session_->now_us();
  }
  ~TraceSpan() {
    if (session_ != nullptr) {
      session_->record_complete(name_, start_us_,
                                session_->now_us() - start_us_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceSession* session_;
  const char* name_;
  double start_us_ = 0.0;
};

}  // namespace seg::obs

#ifndef SEG_OBS_CONCAT
#define SEG_OBS_CONCAT_INNER(a, b) a##b
#define SEG_OBS_CONCAT(a, b) SEG_OBS_CONCAT_INNER(a, b)
#endif

#if defined(SEG_TELEMETRY_DISABLED)

#define SEG_TRACE_SPAN(name) \
  do {                       \
  } while (0)
#define SEG_TRACE_INSTANT(name) \
  do {                          \
  } while (0)
#define SEG_TRACE_COUNTER(name, value) \
  do {                                 \
    (void)sizeof(value);               \
  } while (0)

#else

// Scoped: the span covers the rest of the enclosing block.
#define SEG_TRACE_SPAN(name) \
  ::seg::obs::TraceSpan SEG_OBS_CONCAT(seg_trace_span_, __LINE__)(name)

#define SEG_TRACE_INSTANT(name)                                     \
  do {                                                              \
    if (::seg::obs::TraceSession* seg_trace_s =                     \
            ::seg::obs::TraceSession::current()) {                  \
      seg_trace_s->record_instant(name);                            \
    }                                                               \
  } while (0)

#define SEG_TRACE_COUNTER(name, value)                              \
  do {                                                              \
    if (::seg::obs::TraceSession* seg_trace_s =                     \
            ::seg::obs::TraceSession::current()) {                  \
      seg_trace_s->record_counter(name,                             \
                                  static_cast<std::int64_t>(value)); \
    }                                                               \
  } while (0)

#endif  // SEG_TELEMETRY_DISABLED
