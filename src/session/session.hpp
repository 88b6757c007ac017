// SessionContext — one rewiring session's observability and execution
// state, owned explicitly and reached only by reference.
//
// A SessionContext bundles everything a flow records or consumes — trace
// rings, provenance stream, metrics registry and a persistent thread pool —
// so N sessions can run N flows concurrently in one process without
// touching each other's rings, provenance or metrics. This is the unit
// `rapids serve` holds per job, the one-shot CLI builds for its flow, and
// the precondition for the ROADMAP's warm {network, partition, STA,
// proof-session} service tuples.
//
// Routing: the session is threaded BY REFERENCE from the flow through
// optimizer → scheduler → probe contexts → replica engines → proof
// sessions. There is no ambient lookup on any recording path. The public
// flow entry points (prepare_circuit, run_mode, optimize) accept a null
// OptimizerOptions::session and resolve it once into a call-local owned
// session; nothing below them sees a null session.
//
// Logging is the one exception to per-session ownership: stderr is one
// stream per process, so there is one process Logger, and a session only
// contributes its id as the line tag (installed by SessionScope).
//
// Concurrency contract: one flow at a time per session. Distinct sessions
// are fully isolated and may run concurrently; the determinism suite pins
// that two concurrent sessions produce BLIF/provenance/metrics output
// byte-identical to their serial single-session runs.
#pragma once

#include <memory>
#include <string>

#include "trace/metrics.hpp"
#include "trace/provenance.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace rapids {

class SessionContext {
 public:
  /// `id` keys every output stream (metrics label "session.id", provenance
  /// "session", log-line tag). The one-shot CLI and call-local sessions
  /// use "default".
  explicit SessionContext(std::string id);
  SessionContext(const SessionContext&) = delete;
  SessionContext& operator=(const SessionContext&) = delete;

  const std::string& id() const { return id_; }

  Tracer& tracer() { return tracer_; }
  ProvenanceLog& provenance() { return provenance_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// The session's persistent worker pool, (re)built lazily at the
  /// requested size and kept warm across flows — the serve amortization.
  ThreadPool& acquire_pool(int workers);

 private:
  std::string id_;
  Tracer tracer_;
  ProvenanceLog provenance_;
  MetricsRegistry metrics_;
  std::unique_ptr<ThreadPool> pool_;
};

/// RAII: tag the current thread's log lines with `session`'s id and set
/// the thread-local worker id to `worker` — both restored exactly on exit.
/// The default worker id -1 means "not inside any worker": a serve thread
/// entering a session is not a probe worker, whatever pool it happens to
/// be running on. Scheduler worker jobs open a nested scope with their own
/// worker index.
class SessionScope {
 public:
  explicit SessionScope(const SessionContext& session, int worker = -1);
  ~SessionScope();
  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

 private:
  const char* prev_tag_;
  int prev_worker_;
};

}  // namespace rapids
