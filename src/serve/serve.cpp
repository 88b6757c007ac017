#include "serve/serve.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "flow/flow.hpp"
#include "io/blif_writer.hpp"
#include "library/cell_library.hpp"
#include "session/session.hpp"
#include "trace/metrics.hpp"
#include "trace/provenance.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace rapids {

namespace {

OptMode parse_mode(const std::string& m, const std::string& where) {
  if (m == "gsg") return OptMode::Gsg;
  if (m == "gs" || m == "GS") return OptMode::GateSizing;
  if (m == "gsg+gs" || m == "gsg+GS") return OptMode::GsgPlusGS;
  throw InputError(where + ": unknown mode: " + m);
}

}  // namespace

ServeJob parse_serve_job(const std::string& line, int index) {
  const std::string where = "job " + std::to_string(index);
  std::istringstream ss(line);
  std::vector<std::string> tokens;
  for (std::string tok; ss >> tok;) tokens.push_back(std::move(tok));
  if (tokens.size() < 2) {
    throw InputError(where + ": expected '<id> <circuit> [key=value ...]', got: " +
                     line);
  }
  ServeJob job;
  job.id = tokens[0];
  job.circuit = tokens[1];
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string& kv = tokens[i];
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw InputError(where + ": expected key=value, got: " + kv);
    }
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    try {
      if (key == "mode") {
        job.mode = parse_mode(value, where);
      } else if (key == "seed") {
        job.seed = std::stoull(value);
      } else if (key == "effort") {
        job.effort = std::stod(value);
      } else if (key == "iters") {
        job.iters = std::stoi(value);
      } else if (key == "threads") {
        job.threads = std::stoi(value);
        if (job.threads < 1) throw InputError(where + ": threads must be >= 1");
      } else if (key == "verify") {
        job.verify = value != "0" && value != "false";
      } else if (key == "out") {
        job.out_blif = value;
      } else if (key == "metrics") {
        job.out_metrics = value;
      } else if (key == "provenance") {
        job.out_provenance = value;
      } else {
        throw InputError(where + ": unknown key: " + key);
      }
    } catch (const std::invalid_argument&) {
      throw InputError(where + ": bad value for " + key + ": " + value);
    } catch (const std::out_of_range&) {
      throw InputError(where + ": bad value for " + key + ": " + value);
    }
  }
  return job;
}

ServeJobResult run_serve_job(const ServeJob& job) {
  ServeJobResult res;
  res.id = job.id;
  const Timer timer;
  try {
    // One owned session per job: private tracer/provenance/metrics and a
    // persistent worker pool, so concurrent jobs share no mutable
    // observability state. The scope tags this thread's log lines with the
    // job id for the job's duration and restores the caller's tag on every
    // exit path.
    SessionContext session(job.id);
    SessionScope scope(session);
    if (!job.out_provenance.empty()) session.provenance().enable();

    FlowOptions options;
    options.opt.session = &session;
    options.placer.seed = job.seed;
    options.placer.effort = job.effort;
    options.opt.max_iterations = job.iters;
    options.opt.threads = job.threads;
    options.verify = job.verify;

    const CellLibrary lib = builtin_library_035();
    MetricsRegistry& metrics = session.metrics();
    Network src;
    {
      const Timer read_timer;
      src = load_circuit(job.circuit);
      metrics.set_gauge("time.read_s", read_timer.seconds());
    }
    PreparedCircuit prepared = prepare_circuit(job.circuit, src, lib, options);
    // Move-adopt, exactly like the one-shot CLI's default path: the flow
    // optimizes the mapped network in place; run_mode collected the flow
    // metrics into session.metrics().
    ModeRun run = run_mode(std::move(prepared), lib, job.mode, options);

    metrics.set_label("circuit", job.circuit);
    metrics.set_label("mode", to_string(job.mode));
    metrics.set_label("threads", std::to_string(run.result.threads));

    if (!job.out_blif.empty()) {
      // Same model name as `rapids flow --out`: byte-identical artifacts.
      const Timer write_timer;
      write_blif_file(run.optimized, job.out_blif, job.circuit);
      metrics.set_gauge("time.write_s", write_timer.seconds());
    }
    if (!job.out_metrics.empty()) {
      std::ofstream os(job.out_metrics);
      if (!os) throw InputError("cannot write " + job.out_metrics);
      metrics.write_json(os);
    }
    if (!job.out_provenance.empty()) {
      ProvenanceLog& prov = session.provenance();
      prov.disable();
      std::string diag;
      if (prov.resolve_committed_chains(&diag) < 0) {
        throw InternalError(job.id + ": provenance self-check failed: " + diag);
      }
      std::ofstream os(job.out_provenance);
      if (!os) throw InputError("cannot write " + job.out_provenance);
      prov.write_json(os);
    }

    res.ok = true;
    res.verified = !job.verify || run.verified;
    res.initial_delay = run.result.initial_delay;
    res.final_delay = run.result.final_delay;
    res.swaps_committed = run.result.swaps_committed;
    res.resizes_committed = run.result.resizes_committed;
  } catch (const std::exception& e) {
    res.ok = false;
    res.verified = false;
    res.error = e.what();
  }
  res.seconds = timer.seconds();
  return res;
}

std::vector<ServeJobResult> serve_batch(const std::vector<ServeJob>& jobs,
                                        const ServeOptions& options) {
  std::vector<ServeJobResult> results(jobs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      results[i] = run_serve_job(jobs[i]);
    }
  };
  const int n = std::max(1, std::min<int>(options.max_concurrent,
                                          static_cast<int>(jobs.size())));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return results;
}

int serve_loop(std::istream& in, std::ostream& out, const ServeOptions& options) {
  std::mutex mu;  // guards queue_, out, and the tallies
  std::condition_variable cv;
  std::deque<ServeJob> queue;
  bool closed = false;
  int failed = 0;
  int completed = 0;

  auto report = [&out](const ServeJobResult& r) {
    if (r.ok) {
      out << "[serve] " << r.id << ": delay " << r.initial_delay << " -> "
          << r.final_delay << " ns, " << r.swaps_committed << " swaps / "
          << r.resizes_committed << " resizes, " << r.seconds << " s"
          << (r.verified ? "" : ", VERIFY FAILED") << "\n";
    } else {
      out << "[serve] " << r.id << ": FAILED: " << r.error << "\n";
    }
    out.flush();
  };

  auto worker = [&] {
    for (;;) {
      ServeJob job;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;  // closed and drained
        job = std::move(queue.front());
        queue.pop_front();
      }
      const ServeJobResult r = run_serve_job(job);
      std::lock_guard<std::mutex> lk(mu);
      ++completed;
      if (!r.ok || !r.verified) ++failed;
      report(r);
    }
  };

  const int n = std::max(1, options.max_concurrent);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers.emplace_back(worker);

  std::string line;
  int index = 0;
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::size_t last = line.find_last_not_of(" \t\r");
    const std::string body = line.substr(first, last - first + 1);
    if (body == "quit") break;
    try {
      ServeJob job = parse_serve_job(body, index++);
      std::lock_guard<std::mutex> lk(mu);
      queue.push_back(std::move(job));
      cv.notify_one();
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lk(mu);
      ++failed;
      out << "[serve] " << e.what() << "\n";
      out.flush();
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : workers) t.join();
  out << "[serve] done: " << completed << " job" << (completed == 1 ? "" : "s")
      << " completed, " << failed << " failed\n";
  out.flush();
  return failed;
}

}  // namespace rapids
