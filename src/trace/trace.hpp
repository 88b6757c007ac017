// Flight recorder: per-session, per-worker ring-buffer trace of the
// optimization pipeline, exported as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing).
//
// Design constraints, in order:
//
//   1. ~zero cost when disabled. Every record path starts with one relaxed
//      atomic load; TraceSpan's constructor captures nothing and its
//      destructor is a branch when tracing is off.
//   2. No timestamps ever feed deterministic outputs. The recorder only
//      OBSERVES — wall-clock readings go into the rings and nowhere else,
//      so `--threads N` stays bit-identical to `--threads 1` with tracing
//      on (pinned by tests/test_trace.cpp).
//   3. Lock-free recording. Each worker writes only its own ring (indexed
//      by util/log's thread-local worker id; ring 0 doubles as the main
//      thread's), so the hot path takes no lock and races nothing. Rings
//      are fixed-capacity and wrap — flight-recorder semantics: when the
//      buffer is full the OLDEST events are overwritten and counted in
//      dropped(), never the newest.
//
// Span names and categories must be string LITERALS (or otherwise outlive
// the tracer): events store the pointers, not copies.
//
// Event taxonomy (one Chrome "track" per worker ring):
//   spans    — TraceSpan RAII pairs (exported as "X" complete events):
//              probe rounds/shards, arbitration, commits, replica sync,
//              SAT proof windows, partition extraction, flow stages.
//   instants — point events ("i"): commit markers, cache wipes.
//
// Ownership: every Tracer belongs to a SessionContext (session/session.hpp)
// and is passed by reference (TraceSpan takes it explicitly); there is no
// process-wide tracer. A recorder built outside any session — a unit-test
// engine or prover — holds a null tracer and records nothing. Flows enable
// their session's tracer for a run, export, and disable. Enable/disable
// must not race active workers (the flow driver toggles it outside any
// parallel region), and enable() on an already-enabled tracer throws — two
// overlapping runs sharing rings is exactly the corruption sessions exist
// to prevent.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rapids {

struct TraceEvent {
  const char* cat = nullptr;
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;   // start (spans) or instant time, ns since enable
  std::uint64_t dur_ns = 0;  // span duration; 0 for instants
  // Up to two numeric payload args (name pointers must be literals).
  const char* arg1_name = nullptr;
  const char* arg2_name = nullptr;
  std::int64_t arg1 = 0;
  std::int64_t arg2 = 0;
  bool instant = false;
};

class Tracer {
 public:
  /// Fresh disabled tracer (a session-private recorder).
  Tracer() = default;

  /// Start recording into `workers` rings of `ring_capacity` events each
  /// (events from threads outside any worker scope land in ring 0; worker
  /// ids >= workers are counted as dropped, not recorded — see dropped()).
  /// Throws InternalError if already enabled: resizing rings under active
  /// recorders is UB, so overlapping enable()s must be a hard error.
  void enable(int workers, std::size_t ring_capacity = 1 << 16);
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Record a completed span on the current worker's ring. `begin_ns` is a
  /// now_ns() reading captured at span start (TraceSpan does this).
  void complete_span(const char* cat, const char* name, std::uint64_t begin_ns,
                     const char* arg1_name = nullptr, std::int64_t arg1 = 0,
                     const char* arg2_name = nullptr, std::int64_t arg2 = 0);

  /// Record an instant event on the current worker's ring.
  void instant(const char* cat, const char* name, const char* arg1_name = nullptr,
               std::int64_t arg1 = 0, const char* arg2_name = nullptr,
               std::int64_t arg2 = 0);

  /// Nanoseconds since enable() (monotonic). 0 when disabled.
  std::uint64_t now_ns() const;

  /// Events lost since enable(): overwritten by ring wrap-around, plus
  /// events from worker ids with no ring (see dropped_out_of_range()).
  std::uint64_t dropped() const;
  /// Events refused because the current worker id was >= the ring count —
  /// a scoping bug upstream (e.g. a pool wider than the tracer was enabled
  /// for); counted instead of silently landing in the wrong ring.
  std::uint64_t dropped_out_of_range() const {
    return dropped_out_of_range_.load(std::memory_order_relaxed);
  }
  /// Events currently held across all rings.
  std::uint64_t recorded() const;

  /// Export everything recorded so far as Chrome trace-event JSON
  /// ({"traceEvents": [...]}, ts/dur in microseconds, one tid per worker
  /// ring plus thread-name metadata). Callers must have quiesced the
  /// workers (the flow exports after optimization returns).
  void write_chrome_trace(std::ostream& os) const;

 private:
  // Aligned to a cache line so two workers' cursors never false-share.
  struct alignas(64) Ring {
    std::vector<TraceEvent> buf;
    std::size_t cap = 0;      // wrap capacity (fixed at enable())
    std::size_t next = 0;     // write cursor
    std::uint64_t total = 0;  // events ever written (>= buf-held count)
  };

  /// Ring for the current thread's worker id, or null when the event must
  /// be dropped (no rings, or worker id out of range — the latter bumps
  /// dropped_out_of_range_).
  Ring* ring_for_current_worker();
  void push(Ring& ring, const TraceEvent& ev);

  std::atomic<bool> enabled_{false};
  std::vector<Ring> rings_;
  std::uint64_t t0_ns_ = 0;  // steady-clock origin captured at enable()
  std::atomic<std::uint64_t> dropped_out_of_range_{0};
};

/// RAII span: records one complete event on destruction. Safe to construct
/// whether or not tracing is enabled (and when disabled costs one relaxed
/// load per end). A null tracer records nothing. Numeric args are attached
/// at end time via set_arg()/set_arg2().
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* cat, const char* name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        cat_(cat), name_(name),
        begin_ns_(tracer_ != nullptr ? tracer_->now_ns() : 0) {}
  TraceSpan(Tracer& tracer, const char* cat, const char* name)
      : TraceSpan(&tracer, cat, name) {}
  ~TraceSpan() {
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->complete_span(cat_, name_, begin_ns_, arg1_name_, arg1_,
                             arg2_name_, arg2_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_arg(const char* name, std::int64_t value) {
    arg1_name_ = name;
    arg1_ = value;
  }
  void set_arg2(const char* name, std::int64_t value) {
    arg2_name_ = name;
    arg2_ = value;
  }

 private:
  Tracer* tracer_;  // null when not recording
  const char* cat_;
  const char* name_;
  const char* arg1_name_ = nullptr;
  const char* arg2_name_ = nullptr;
  std::int64_t arg1_ = 0;
  std::int64_t arg2_ = 0;
  std::uint64_t begin_ns_;
};

/// Schema check for an exported trace (used by tests and `rapids
/// trace-check`): top-level object with a traceEvents array whose entries
/// carry name/cat/ph/ts/pid/tid (metadata events exempt from cat/ts), ph in
/// {X, i, M}, X events with a dur. Returns false and fills `diag` on the
/// first violation. `span_categories`, when non-null, receives the distinct
/// categories seen on span events.
bool validate_chrome_trace(const std::string& json_text, std::string* diag,
                           std::vector<std::string>* span_categories = nullptr,
                           std::vector<std::int64_t>* tids = nullptr);

}  // namespace rapids
