// rapids serve — a long-lived multi-job flow driver on session contexts.
//
// The CLI's one-shot path runs exactly one flow per process, on one
// SessionContext named "default". serve is the other shape: one process
// accepts N independent circuit jobs and runs their flows CONCURRENTLY,
// each on its own SessionContext named after the job. Sessions give every
// job a private Tracer, MetricsRegistry, ProvenanceLog and a persistent
// worker pool, so concurrent flows share no mutable observability state
// and each job's artifacts are byte-identical to running the same flow
// alone (`rapids flow` with the same knobs) — the property
// tests/test_serve.cpp and the serve-smoke CI job pin. Log lines go to the
// one process logger (so `--log-level` applies), tagged with the job id.
//
// Job format (one job per line; `#` comments and blank lines skipped):
//
//   <id> <circuit> [key=value ...]
//
//   id        session id; names the job in every emitted artifact
//   circuit   suite name | file.blif | file.bench | gen:<gates>[:seed]
//
// Each key stands for one `rapids flow` flag, and the line parses through
// the same parse_flow_args as a one-shot run:
//
//   mode=gsg|gs|gsg+gs  --mode        out=file.blif          --out
//   seed=N              --seed        metrics=file.json      --metrics-json
//   effort=F            --effort      provenance=file.json   --provenance
//   iters=N             --iters       verify=0|1|true|false  --no-verify when 0/false
//   threads=N           --threads
//
// So an unset key is the FlowJob default by construction, a job line maps
// 1:1 onto a one-shot invocation, and both run through run_flow_job.
// `metrics=`/`provenance=` dump the job's session registry / provenance
// log as JSON keyed by the session id (labels["session.id"] / the
// top-level "session" field).
#pragma once

#include <iosfwd>
#include <string>

#include "flow/flow.hpp"

namespace rapids {

/// One parsed job line: its session id and the flow it runs.
struct ServeJob {
  std::string id;
  FlowJob flow;
};

/// Parse one job line (see the file comment for the format). Throws
/// InputError on malformed input. `index` names anonymous diagnostics
/// ("job 3: ...").
ServeJob parse_serve_job(const std::string& line, int index);

struct ServeJobResult {
  std::string id;
  bool ok = false;        // flow ran to completion (artifacts written)
  bool verified = false;  // equivalence check passed (true when skipped)
  double initial_delay = 0.0;
  double final_delay = 0.0;
  int swaps_committed = 0;
  int resizes_committed = 0;
  double seconds = 0.0;
  std::string error;  // non-empty when !ok
};

/// Run one job through run_flow_job on its own owned SessionContext
/// (created here, named job.id) and the process's one cell library. Never
/// throws: failures land in result.error. Safe to call concurrently from
/// multiple threads — that is the point.
ServeJobResult run_serve_job(const ServeJob& job);

struct ServeOptions {
  /// Jobs in flight at once (>= 1). Each job additionally fans its probe
  /// workers out on its session's own pool (job `threads=` key).
  int max_concurrent = 2;
};

/// The long-lived loop: read job lines from `in` until EOF or a line
/// reading "quit", dispatching each job as it arrives (up to
/// max_concurrent in flight). Per-job completion lines and a final summary
/// go to `out`. Returns the number of failed jobs (0 = all ok and
/// verified).
int serve_loop(std::istream& in, std::ostream& out, const ServeOptions& options = {});

}  // namespace rapids
