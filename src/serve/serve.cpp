#include "serve/serve.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "library/cell_library.hpp"
#include "session/session.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace rapids {

namespace {

/// Each job key and the `rapids flow` flag it stands for. verify= is the
/// one switch key: verify=0 (or false) is --no-verify.
struct KeyFlag {
  const char* key;
  const char* flag;
};
constexpr KeyFlag kKeyFlags[] = {
    {"mode", "--mode"},   {"seed", "--seed"},       {"effort", "--effort"},
    {"iters", "--iters"}, {"threads", "--threads"}, {"out", "--out"},
    {"metrics", "--metrics-json"}, {"provenance", "--provenance"},
};

/// The one cell library of a serve process, built on first use and shared
/// read-only by every job (CellLibrary holds no mutable state).
const CellLibrary& serve_library() {
  static const CellLibrary lib = builtin_library_035();
  return lib;
}

/// Hand the pages a finished job freed back to the OS. glibc keeps each
/// worker arena at the high-water mark of the largest job it ran, so
/// without this a worker's resident set never falls after a big job.
void release_freed_memory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

}  // namespace

ServeJob parse_serve_job(const std::string& line, int index) {
  const std::string where = "job " + std::to_string(index);
  std::istringstream ss(line);
  const std::vector<std::string> tokens{std::istream_iterator<std::string>(ss), {}};
  if (tokens.size() < 2) {
    throw InputError(where + ": expected '<id> <circuit> [key=value ...]', got: " +
                     line);
  }
  if (tokens[1][0] == '-') {
    throw InputError(where + ": a circuit cannot start with '-': " + tokens[1]);
  }
  std::vector<std::string> args = {tokens[1]};
  bool verify = true;  // the last verify= wins, like every other key
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string& kv = tokens[i];
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw InputError(where + ": expected key=value, got: " + kv);
    }
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    if (key == "verify") {
      if (value != "0" && value != "1" && value != "false" && value != "true") {
        throw InputError(where + ": verify must be 0, 1, true or false, got: " + value);
      }
      verify = value == "1" || value == "true";
      continue;
    }
    const auto row = std::find_if(std::begin(kKeyFlags), std::end(kKeyFlags),
                                  [&key](const KeyFlag& r) { return key == r.key; });
    if (row == std::end(kKeyFlags)) throw InputError(where + ": unknown key: " + key);
    args.emplace_back(row->flag);
    args.push_back(value);
  }
  if (!verify) args.emplace_back("--no-verify");
  try {
    return {tokens[0], parse_flow_args(args)};
  } catch (const InputError& e) {
    throw InputError(where + ": " + e.what());
  }
}

ServeJobResult run_serve_job(const ServeJob& job) {
  ServeJobResult res;
  res.id = job.id;
  const Timer timer;
  try {
    // One owned session per job: private tracer/provenance/metrics and a
    // persistent worker pool, so concurrent jobs share no mutable
    // observability state. run_flow_job tags this thread's log lines with
    // the job id for the job's duration.
    SessionContext session(job.id);
    const FlowJobResult run = run_flow_job(job.flow, serve_library(), session);
    res.ok = true;
    res.verified = run.verified;
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
      {
        std::lock_guard<std::mutex> lk(mu);
        ++completed;
        if (!r.ok || !r.verified) ++failed;
        report(r);
      }
      // After the report: the client sees its completion line first.
      release_freed_memory();
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
