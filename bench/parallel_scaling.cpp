// Parallel scheduler scaling gauge: probe throughput and commit efficiency
// of the conflict-sharded worker pool versus the serial engine, per thread
// count, emitted as machine-readable JSON (BENCH_parallel.json) so the
// scaling trajectory is tracked across PRs.
//
// Measurements per circuit:
//   serial_probes_per_sec — the raw RewireEngine probe loop (no scheduler),
//     the same quantity bench/micro_engine gauges: the per-thread baseline.
//   per thread count N: probes_per_sec through the scheduler's
//     probe_round() (replica sync amortized across repeated rounds),
//     speedup vs serial, and commit_efficiency — committed / accepted from
//     one arbitrated MinCritical round on a fresh copy of the circuit (how
//     much of the parallel work survives deterministic arbitration).
//   speedup_t4_over_t1 — the headline: probes_per_sec at 4 threads over
//     probes_per_sec at 1 thread (emitted when both counts are measured).
//
// The report records hardware_threads: a thread count above it time-slices
// the available cores, so its probes_per_sec cannot show scaling.
//
// Usage: parallel_scaling [--out BENCH_parallel.json] [--circuits a,b,c]
//                         [--threads 1,2,4,8] [--min-time SECONDS]
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "gen/suite.hpp"
#include "library/cell_library.hpp"
#include "mapping/mapper.hpp"
#include "opt/optimizer.hpp"
#include "parallel/scheduler.hpp"
#include "place/placer.hpp"
#include "rewire/swap.hpp"
#include "sizing/sizing.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "timing/sta.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace rapids;

struct Prepared {
  Network net;
  Placement pl;
};

Prepared prepare(const std::string& name, const CellLibrary& lib) {
  Prepared p;
  p.net = map_network(make_benchmark(name), lib).mapped;
  PlacerOptions popt;
  popt.effort = 2.0;
  popt.num_temps = 8;
  p.pl = place(p.net, lib, popt);
  return p;
}

/// The optimizer's phase-A candidate stream: per-supergate swap groups plus
/// per-gate resize groups (gsg+GS eligibility).
std::vector<ProbeGroup> build_groups(RewireEngine& engine, const CellLibrary& lib) {
  std::vector<ProbeGroup> groups;
  Network& net = engine.net();
  const GisgPartition& part = engine.partition();
  std::vector<bool> covered(net.id_bound(), false);
  for (std::size_t s = 0; s < part.sgs.size(); ++s) {
    const SuperGate& sg = part.sgs[s];
    if (sg.is_trivial()) continue;
    for (const GateId g : sg.covered) covered[g] = true;
    ProbeGroup group;
    for (const SwapCandidate& c :
         enumerate_swaps(part, static_cast<int>(s), net)) {
      group.moves.push_back(EngineMove::swap(c));
    }
    if (!group.moves.empty()) groups.push_back(std::move(group));
  }
  for (const GateId g : net.gates()) {
    if (!is_logic(net.type(g)) || net.cell(g) < 0 || covered[g]) continue;
    ProbeGroup group;
    for (const int cell : resize_candidates(net, lib, g)) {
      group.moves.push_back(EngineMove::resize(g, cell));
    }
    if (!group.moves.empty()) groups.push_back(std::move(group));
  }
  return groups;
}

struct ThreadPoint {
  int threads = 0;
  double probes_per_sec = 0.0;
  double speedup = 0.0;
  double commit_efficiency = 0.0;
  int committed = 0;
  // Per-round per-worker probe-count distribution (load balance of the
  // conflict sharding; from the scheduler's ShardedStats). `skew` is
  // max/mean — 1.0 is perfect balance, and the weight-based sharding is
  // asserted to keep it under kMaxLoadSkew (count-based sharding measured
  // 7x on c1908).
  double worker_probes_mean = 0.0;
  double worker_probes_min = 0.0;
  double worker_probes_max = 0.0;
  double worker_probes_skew = 0.0;
};

// Upper bound on per-round worker probe skew (max/mean) the sharding must
// hold. Weight-balanced dealing keeps real circuits near 1; the bound
// leaves room for rounds whose largest atomic component is genuinely
// indivisible.
constexpr double kMaxLoadSkew = 3.0;

struct CircuitReport {
  std::string name;
  std::size_t cells = 0;
  std::size_t groups = 0;
  std::size_t candidates = 0;
  double serial_probes_per_sec = 0.0;
  std::vector<ThreadPoint> points;

  /// probes_per_sec at `threads`, or 0 when that count was not measured.
  double probes_per_sec_at(int threads) const {
    for (const ThreadPoint& p : points) {
      if (p.threads == threads) return p.probes_per_sec;
    }
    return 0.0;
  }
};

CircuitReport measure(const std::string& name, const CellLibrary& lib,
                      const std::vector<int>& thread_counts, double min_time) {
  CircuitReport rep;
  rep.name = name;
  const Prepared base = prepare(name, lib);

  // Serial baseline: the raw engine probe loop over the flattened stream.
  {
    Network net = base.net.clone();
    Placement pl = base.pl;
    Sta sta(net, lib, pl);
    RewireEngine engine(net, pl, lib, sta);
    rep.cells = net.num_logic_gates();
    const std::vector<ProbeGroup> groups = build_groups(engine, lib);
    rep.groups = groups.size();
    std::vector<EngineMove> flat;
    for (const ProbeGroup& g : groups) {
      flat.insert(flat.end(), g.moves.begin(), g.moves.end());
    }
    rep.candidates = flat.size();
    if (flat.empty()) return rep;
    Timer t;
    std::size_t probes = 0, i = 0;
    do {
      engine.probe(flat[i++ % flat.size()]);
      ++probes;
    } while (t.seconds() < min_time);
    rep.serial_probes_per_sec = static_cast<double>(probes) / t.seconds();
  }

  for (const int threads : thread_counts) {
    Network net = base.net.clone();
    Placement pl = base.pl;
    Sta sta(net, lib, pl);
    RewireEngine engine(net, pl, lib, sta);
    const std::vector<ProbeGroup> groups = build_groups(engine, lib);
    SchedulerOptions sopt;
    sopt.threads = threads;
    ParallelRewireScheduler sched(engine, sopt);

    ThreadPoint pt;
    pt.threads = threads;

    // Probe throughput: repeated probe-only rounds on the pristine state
    // (no commits, so replicas stay synced after the first round).
    {
      Timer t;
      std::uint64_t probes_before = sched.stats().worker_probes;
      do {
        sched.probe_round(groups, ProbePolicy::MinCritical, 1e-6);
      } while (t.seconds() < min_time);
      const double secs = t.seconds();
      pt.probes_per_sec =
          static_cast<double>(sched.stats().worker_probes - probes_before) / secs;
      pt.speedup = rep.serial_probes_per_sec > 0
                       ? pt.probes_per_sec / rep.serial_probes_per_sec
                       : 0.0;
      const RunningStats dist = sched.worker_probe_stats().merged();
      pt.worker_probes_mean = dist.mean();
      pt.worker_probes_min = dist.min();
      pt.worker_probes_max = dist.max();
      pt.worker_probes_skew =
          dist.mean() > 0.0 ? dist.max() / dist.mean() : 1.0;
      // Load-skew assertion: the weight-balanced sharding must spread probe
      // work across workers. A regression to count-based balance shows up
      // here (c1908 at 8 threads measured min 21 / max 150 probes per
      // round before weights).
      if (threads > 1 && pt.worker_probes_skew > kMaxLoadSkew) {
        std::ostringstream msg;
        msg << name << " threads=" << threads << ": worker probe skew "
            << pt.worker_probes_skew << " exceeds " << kMaxLoadSkew
            << " (mean " << pt.worker_probes_mean << ", max "
            << pt.worker_probes_max << ")";
        throw std::runtime_error(msg.str());
      }
    }

    // Commit efficiency: one arbitrated round from the same baseline.
    {
      const std::uint64_t acc0 = sched.stats().accepted;
      pt.committed = sched.run_round(groups, ProbePolicy::MinCritical, 1e-6);
      const std::uint64_t accepted = sched.stats().accepted - acc0;
      pt.commit_efficiency =
          accepted > 0 ? static_cast<double>(pt.committed) /
                             static_cast<double>(accepted)
                       : 1.0;
    }

    rep.points.push_back(pt);
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_parallel.json";
  std::vector<std::string> circuits = {"c1908", "c3540", "c6288"};
  std::vector<int> thread_counts = {1, 2, 4, 8};
  double min_time = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value after " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--out") {
      out_path = next();
    } else if (a == "--min-time") {
      min_time = std::stod(next());
    } else if (a == "--circuits") {
      circuits.clear();
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) circuits.push_back(tok);
    } else if (a == "--threads") {
      thread_counts.clear();
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) thread_counts.push_back(std::stoi(tok));
    } else {
      std::cerr << "usage: parallel_scaling [--out FILE] [--circuits a,b,c]"
                   " [--threads 1,2,4,8] [--min-time SECONDS]\n";
      return 2;
    }
  }

  const CellLibrary lib = builtin_library_035();
  std::vector<CircuitReport> reports;
  for (const std::string& name : circuits) {
    std::cerr << "[parallel_scaling] " << name << "\n";
    try {
      reports.push_back(measure(name, lib, thread_counts, min_time));
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"parallel_scaling\",\n"
       << "  \"hardware_threads\": " << ThreadPool::hardware_threads() << ",\n"
       << "  \"unit\": \"probes/sec\",\n  \"circuits\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CircuitReport& r = reports[i];
    json << "    {\"name\": \"" << r.name << "\", \"cells\": " << r.cells
         << ", \"groups\": " << r.groups << ", \"candidates\": " << r.candidates
         << ",\n     \"serial_probes_per_sec\": "
         << static_cast<long long>(r.serial_probes_per_sec) << ",\n     ";
    const double t1 = r.probes_per_sec_at(1);
    const double t4 = r.probes_per_sec_at(4);
    if (t1 > 0.0 && t4 > 0.0) json << "\"speedup_t4_over_t1\": " << t4 / t1 << ", ";
    json << "\"scaling\": [";
    for (std::size_t j = 0; j < r.points.size(); ++j) {
      const ThreadPoint& p = r.points[j];
      json << (j == 0 ? "" : ", ")
           << "\n       {\"threads\": " << p.threads << ", \"probes_per_sec\": "
           << static_cast<long long>(p.probes_per_sec) << ", \"speedup\": "
           << p.speedup << ", \"committed\": " << p.committed
           << ", \"commit_efficiency\": " << p.commit_efficiency
           << ", \"worker_probes_per_round\": {\"mean\": "
           << static_cast<long long>(p.worker_probes_mean) << ", \"min\": "
           << static_cast<long long>(p.worker_probes_min) << ", \"max\": "
           << static_cast<long long>(p.worker_probes_max) << ", \"skew\": "
           << p.worker_probes_skew << "}}";
    }
    json << "\n     ]}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.flush();
  std::cout << json.str();
  if (!out) {
    std::cerr << "error: failed to write " << out_path << "\n";
    return 1;
  }
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}
