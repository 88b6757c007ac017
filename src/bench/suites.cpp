// The measurement bodies of `rapids bench`, one per row of bench_suites().
#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench.hpp"
#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "fuzz/fuzz.hpp"
#include "mapping/mapper.hpp"
#include "parallel/scheduler.hpp"
#include "place/placer.hpp"
#include "place/wirelength.hpp"
#include "rewire/swap.hpp"
#include "sat/proof_session.hpp"
#include "sat/window.hpp"
#include "session/session.hpp"
#include "sizing/sizing.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "timing/sta.hpp"
#include "util/timer.hpp"

namespace rapids {
namespace {

/// The mapped circuit placed at effort 2 over 8 temperatures: the starting
/// point of the engine, sta, parallel and extract measurements.
struct Placed {
  Network net;
  Placement pl;
};

Placed map_and_place(const Network& src, const CellLibrary& lib) {
  Placed p;
  p.net = map_network(src, lib).mapped;
  PlacerOptions popt;
  popt.effort = 2.0;
  popt.num_temps = 8;
  p.pl = place(p.net, lib, popt);
  return p;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A bench key and the flow metric it reports.
using KeyMap = std::pair<const char*, const char*>;

// --- engine ------------------------------------------------------------------
// One probe  = evaluate one swap candidate against the incremental STA and
//              roll the network and timing state back exactly.
// One commit = apply a swap candidate and keep it (each swap is committed
//              and then its exact inverse, so the circuit is back in its
//              initial state when the clock stops).
// One placer move = one annealing move of place() at default PlacerOptions
//              (the flow's placer), over whole place() calls. `place_hpwl`
//              is the total HPWL of that placement: any placer change that
//              moves a single coordinate shows in it.

/// Annealing moves of one place() call: num_temps * moves per temperature,
/// where moves per temperature = max(64, effort * row cells).
double placer_moves(const Network& net, const PlacerOptions& popt) {
  std::size_t cells = 0;
  net.for_each_gate([&](GateId g) {
    const GateType t = net.type(g);
    if (is_logic(t) || t == GateType::Const0 || t == GateType::Const1) ++cells;
  });
  const int per_temp =
      std::max(64, static_cast<int>(popt.effort * static_cast<double>(cells)));
  return static_cast<double>(popt.num_temps) * per_temp;
}

void bench_engine(const BenchRun& run, const CellLibrary& lib, MetricsRegistry& reg,
                  BenchFailures&) {
  double geo_probe = 1.0;
  int n_probe = 0;
  for (const BenchCircuit& c : run.circuits) {
    const std::string k = c.name + ".";
    Placed p = map_and_place(c.net, lib);
    Sta sta(p.net, lib, p.pl);
    RewireEngine engine(p.net, p.pl, lib, sta);
    reg.add_counter(k + "cells", p.net.num_logic_gates());

    {
      const PlacerOptions flow_popt;
      reg.set_gauge(k + "place_hpwl", total_hpwl(p.net, place(p.net, lib, flow_popt)));
      Timer t;
      std::size_t calls = 0;
      do {
        place(p.net, lib, flow_popt);
        ++calls;
      } while (t.seconds() < run.min_time);
      reg.set_gauge(k + "place_moves_per_sec", static_cast<double>(calls) *
                                                   placer_moves(p.net, flow_popt) /
                                                   t.seconds());
    }
    const std::vector<SwapCandidate> swaps = enumerate_all_swaps(engine.partition(), p.net);
    reg.add_counter(k + "candidates", swaps.size());
    if (swaps.empty()) continue;

    {
      Timer t;
      std::size_t probes = 0, i = 0;
      do {
        engine.probe(EngineMove::swap(swaps[i++ % swaps.size()]));
        ++probes;
      } while (t.seconds() < run.min_time);
      const double rate = static_cast<double>(probes) / t.seconds();
      reg.set_gauge(k + "probes_per_sec", rate);
      geo_probe *= rate;
      ++n_probe;
    }
    // Re-extraction is not needed because the state returns to the
    // baseline after every pair (the stale-candidate contract holds).
    {
      Timer t;
      std::size_t commits = 0, i = 0;
      do {
        engine.commit_and_revert(EngineMove::swap(swaps[i++ % swaps.size()]));
        commits += 2;
      } while (t.seconds() < run.min_time);
      reg.set_gauge(k + "commits_per_sec", static_cast<double>(commits) / t.seconds());
    }
  }
  reg.set_gauge("geomean_probes_per_sec",
                n_probe > 0 ? std::pow(geo_probe, 1.0 / n_probe) : 0.0);
}

// --- sta ---------------------------------------------------------------------
// The script is every swap candidate of the initial partition (one group per
// supergate) plus a resize to every drive variant of every third logic gate
// (one group per gate).
// probe      = one move of a MinCritical round over the script through a
//              one-worker scheduler at min gain 1e-6: the optimizer's
//              phase-A path, margin refresh, critical-path pruning and
//              bounded probes included. `gates_per_probe` is its queue
//              pops per probe.
// full probe = RewireEngine::probe() of one script move: always propagates.
//              `gates_per_full_probe` is its queue pops per probe.
// ns_per_probe / ns_per_full_probe = wall time of whole script passes /
//              probes; ns_per_gate = full-probe wall time / gates popped.
// ns_per_rebuild_net = one invalidate_net() plus its share of the
//              rollback, over every driven net inside one transaction.

void bench_sta(const BenchRun& run, const CellLibrary& lib, MetricsRegistry& reg,
               BenchFailures&) {
  for (const BenchCircuit& c : run.circuits) {
    const std::string k = c.name + ".";
    Placed p = map_and_place(c.net, lib);
    Network& net = p.net;
    Sta sta(net, lib, p.pl);
    RewireEngine engine(net, p.pl, lib, sta);
    reg.add_counter(k + "cells", net.num_logic_gates());

    std::vector<std::vector<EngineMove>> lists;
    {
      const GisgPartition& part = engine.partition();
      std::vector<std::vector<EngineMove>> by_sg(part.sgs.size());
      for (const SwapCandidate& s : enumerate_all_swaps(part, net)) {
        by_sg[static_cast<std::size_t>(s.sg_index)].push_back(EngineMove::swap(s));
      }
      for (std::vector<EngineMove>& g : by_sg) {
        if (!g.empty()) lists.push_back(std::move(g));
      }
    }
    std::vector<GateId> logic;
    net.for_each_gate([&](GateId g) {
      if (is_logic(net.type(g)) && net.cell(g) >= 0) logic.push_back(g);
    });
    for (std::size_t i = 0; i < logic.size(); i += 3) {
      std::vector<EngineMove> group;
      for (const int cell : resize_candidates(net, lib, logic[i])) {
        group.push_back(EngineMove::resize(logic[i], cell));
      }
      if (!group.empty()) lists.push_back(std::move(group));
    }
    const std::vector<ProbeGroup> groups(lists.begin(), lists.end());
    std::vector<EngineMove> script;
    for (const ProbeGroup g : groups) script.insert(script.end(), g.begin(), g.end());
    reg.add_counter(k + "script_probes", script.size());
    if (script.empty()) continue;
    const double probes = static_cast<double>(script.size());

    {
      SessionContext session("default");
      SchedulerOptions sopt;
      sopt.threads = 1;
      ParallelRewireScheduler sched(engine, session, sopt);
      // One untimed round fixes the deterministic pop count (it also
      // refreshes the damping margins every later round reuses).
      const std::uint64_t g0 = sta.gates_propagated();
      sched.probe_round(groups, ProbePolicy::MinCritical, 1e-6);
      reg.set_gauge(k + "gates_per_probe",
                    static_cast<double>(sta.gates_propagated() - g0) / probes);
      std::size_t rounds = 0;
      const Timer t;
      do {
        sched.probe_round(groups, ProbePolicy::MinCritical, 1e-6);
        ++rounds;
      } while (t.seconds() < run.min_time);
      reg.set_gauge(k + "ns_per_probe",
                    t.seconds() * 1e9 / (static_cast<double>(rounds) * probes));
    }

    {
      const std::uint64_t g0 = sta.gates_propagated();
      for (const EngineMove& m : script) engine.probe(m);
      reg.set_gauge(k + "gates_per_full_probe",
                    static_cast<double>(sta.gates_propagated() - g0) / probes);
      std::size_t passes = 0;
      const std::uint64_t before = sta.gates_propagated();
      const Timer t;
      do {
        for (const EngineMove& m : script) engine.probe(m);
        ++passes;
      } while (t.seconds() < run.min_time);
      const double ns = t.seconds() * 1e9;
      reg.set_gauge(k + "ns_per_full_probe", ns / (static_cast<double>(passes) * probes));
      reg.set_gauge(k + "ns_per_gate",
                    ratio(ns, static_cast<double>(sta.gates_propagated() - before)));
    }

    std::vector<GateId> drivers;
    net.for_each_gate([&](GateId g) {
      if (net.fanout_count(g) > 0) drivers.push_back(g);
    });
    if (!drivers.empty()) {
      std::size_t rebuilds = 0;
      const Timer t;
      do {
        sta.begin();
        for (const GateId d : drivers) sta.invalidate_net(d);
        sta.rollback();
        rebuilds += drivers.size();
      } while (t.seconds() < run.min_time);
      reg.set_gauge(k + "ns_per_rebuild_net",
                    t.seconds() * 1e9 / static_cast<double>(rebuilds));
    }
  }
}

// --- parallel ----------------------------------------------------------------
// serial_probes_per_sec: the raw RewireEngine probe loop (no scheduler), the
// per-thread baseline. Per worker count N (`t<N>.*`): probes_per_sec
// through the scheduler's probe_round() (replica sync amortized across
// repeated rounds), speedup over serial, the per-round per-worker probe
// distribution, and commit_efficiency: committed / accepted of one
// arbitrated MinCritical round on a fresh copy of the circuit.
// speedup_t4_over_t1 is written when both counts are measured. A thread
// count above hardware_threads time-slices the cores and cannot scale.

/// Per-round worker probe skew (max/mean) the weight-balanced sharding must
/// hold; count-based sharding measured 7x on c1908.
constexpr double kMaxLoadSkew = 3.0;

/// The optimizer's phase-A candidate stream: per-supergate swap groups plus
/// per-gate resize groups (gsg+GS eligibility), one move list per group.
std::vector<std::vector<EngineMove>> phase_a_groups(RewireEngine& engine,
                                                    const CellLibrary& lib) {
  std::vector<std::vector<EngineMove>> groups;
  Network& net = engine.net();
  const GisgPartition& part = engine.partition();
  std::vector<bool> covered(net.id_bound(), false);
  for (std::size_t s = 0; s < part.sgs.size(); ++s) {
    const SuperGate& sg = part.sgs[s];
    if (sg.is_trivial()) continue;
    for (const GateId g : sg.covered) covered[g] = true;
    std::vector<EngineMove> group;
    for (const SwapCandidate& c : enumerate_swaps(part, static_cast<int>(s), net)) {
      group.push_back(EngineMove::swap(c));
    }
    if (!group.empty()) groups.push_back(std::move(group));
  }
  for (const GateId g : net.gates()) {
    if (!is_logic(net.type(g)) || net.cell(g) < 0 || covered[g]) continue;
    std::vector<EngineMove> group;
    for (const int cell : resize_candidates(net, lib, g)) {
      group.push_back(EngineMove::resize(g, cell));
    }
    if (!group.empty()) groups.push_back(std::move(group));
  }
  return groups;
}

void bench_parallel(const BenchRun& run, const CellLibrary& lib, MetricsRegistry& reg,
                    BenchFailures& failures) {
  for (const BenchCircuit& c : run.circuits) {
    const std::string k = c.name + ".";
    const Placed base = map_and_place(c.net, lib);

    double serial = 0.0;
    {
      Network net = base.net.clone();
      Placement pl = base.pl;
      Sta sta(net, lib, pl);
      RewireEngine engine(net, pl, lib, sta);
      reg.add_counter(k + "cells", net.num_logic_gates());
      const std::vector<std::vector<EngineMove>> groups = phase_a_groups(engine, lib);
      reg.add_counter(k + "groups", groups.size());
      std::vector<EngineMove> flat;
      for (const std::vector<EngineMove>& g : groups) flat.insert(flat.end(), g.begin(), g.end());
      reg.add_counter(k + "candidates", flat.size());
      if (flat.empty()) continue;
      Timer t;
      std::size_t probes = 0, i = 0;
      do {
        engine.probe(flat[i++ % flat.size()]);
        ++probes;
      } while (t.seconds() < run.min_time);
      serial = static_cast<double>(probes) / t.seconds();
      reg.set_gauge(k + "serial_probes_per_sec", serial);
    }

    double t1 = 0.0, t4 = 0.0;
    for (const int threads : run.threads) {
      const std::string kt = k + "t" + std::to_string(threads) + ".";
      Network net = base.net.clone();
      Placement pl = base.pl;
      Sta sta(net, lib, pl);
      RewireEngine engine(net, pl, lib, sta);
      const std::vector<std::vector<EngineMove>> lists = phase_a_groups(engine, lib);
      const std::vector<ProbeGroup> groups(lists.begin(), lists.end());
      SessionContext session("default");
      SchedulerOptions sopt;
      sopt.threads = threads;
      ParallelRewireScheduler sched(engine, session, sopt);

      // Probe throughput: repeated probe-only rounds on the pristine state
      // (no commits, so replicas stay synced after the first round).
      {
        Timer t;
        const std::uint64_t probes_before = sched.stats().worker_probes;
        do {
          sched.probe_round(groups, ProbePolicy::MinCritical, 1e-6);
        } while (t.seconds() < run.min_time);
        const double rate =
            static_cast<double>(sched.stats().worker_probes - probes_before) / t.seconds();
        reg.set_gauge(kt + "probes_per_sec", rate);
        reg.set_gauge(kt + "speedup", ratio(rate, serial));
        if (threads == 1) t1 = rate;
        if (threads == 4) t4 = rate;
        const RunningStats dist = sched.worker_probe_stats().merged();
        const double skew = dist.mean() > 0.0 ? dist.max() / dist.mean() : 1.0;
        reg.set_gauge(kt + "worker_probes_mean", dist.mean());
        reg.set_gauge(kt + "worker_probes_min", dist.min());
        reg.set_gauge(kt + "worker_probes_max", dist.max());
        reg.set_gauge(kt + "worker_probes_skew", skew);
        // A regression to count-based balance shows here (c1908 at 8
        // threads measured min 21 / max 150 probes per round before
        // weights).
        if (threads > 1 && skew > kMaxLoadSkew) {
          std::ostringstream msg;
          msg << c.name << " threads=" << threads << ": worker probe skew " << skew
              << " exceeds " << kMaxLoadSkew << " (mean " << dist.mean() << ", max "
              << dist.max() << ")";
          failures.push_back(msg.str());
        }
      }

      // Commit efficiency: one arbitrated round from the same baseline.
      {
        const std::uint64_t acc0 = sched.stats().accepted;
        const int committed = sched.run_round(groups, ProbePolicy::MinCritical, 1e-6);
        const std::uint64_t accepted = sched.stats().accepted - acc0;
        reg.add_counter(kt + "committed", static_cast<std::uint64_t>(committed));
        reg.set_gauge(kt + "commit_efficiency",
                      accepted > 0 ? static_cast<double>(committed) /
                                         static_cast<double>(accepted)
                                   : 1.0);
      }
    }
    if (t1 > 0.0 && t4 > 0.0) reg.set_gauge(k + "speedup_t4_over_t1", t4 / t1);
  }
}

// --- sat ---------------------------------------------------------------------
// micro: proofs/sec on ONE fixed window, re-proved in a loop. The per-move
//   prover re-builds solver + Tseitin encoding every iteration; the warm
//   session reuses its cached cut frontier and only re-derives the window,
//   so the gap isolates the per-move setup cost the session amortizes.
// session / per_move: the full `--paranoid` gsg+GS run of each prover from
//   one prepared placement, checked by the `per-move-prover` exactness row
//   (same BLIF, same verdicts move for move).

/// Re-prove one fixed pin-swap window until `min_time` elapses, through
/// both provers.
void sat_micro(const Network& src, const CellLibrary& lib, double min_time,
               const std::string& k, MetricsRegistry& reg, BenchFailures& failures) {
  Network net = src.clone();
  Placement pl = place(net, lib, PlacerOptions{});
  const GisgPartition part = extract_gisg(net);

  // First swappable candidate of a non-trivial supergate.
  SwapCandidate cand;
  GateId root = kNullGate;
  for (std::size_t s = 0; s < part.sgs.size() && root == kNullGate; ++s) {
    if (part.sgs[s].is_trivial()) continue;
    const auto cands = enumerate_swaps(part, static_cast<int>(s), net);
    if (!cands.empty()) {
      cand = cands.front();
      root = part.sgs[s].root;
    }
  }
  if (root == kNullGate) return;
  const GateId changed[] = {cand.pin_a.gate, cand.pin_b.gate};

  net.set_id_recycling(true);
  SwapEdit edit;
  double session_rate = 0.0, per_move_rate = 0.0;
  {
    sat::ProofSession session;
    Timer t;
    std::size_t proofs = 0;
    do {
      session.begin(net, {&root, 1}, changed);
      apply_swap_into(net, pl, lib, cand, edit);
      const bool ok = session.check(net, edit.added_inverters);
      undo_swap(net, pl, edit);
      session.abandon();
      if (!ok) {
        failures.push_back(k + "micro: the session failed a provable window");
        return;
      }
      ++proofs;
    } while (t.seconds() < min_time);
    session_rate = static_cast<double>(proofs) / t.seconds();
    reg.set_gauge(k + "micro.proofs", static_cast<double>(proofs));
  }
  {
    sat::WindowChecker checker;
    Timer t;
    std::size_t proofs = 0;
    do {
      checker.begin(net, {&root, 1}, changed);
      apply_swap_into(net, pl, lib, cand, edit);
      const bool ok = checker.check(net, edit.added_inverters);
      undo_swap(net, pl, edit);
      if (!ok) {
        failures.push_back(k + "micro: the per-move checker failed a provable window");
        return;
      }
      ++proofs;
    } while (t.seconds() < min_time);
    per_move_rate = static_cast<double>(proofs) / t.seconds();
  }
  reg.set_gauge(k + "micro.session_proofs_per_sec", session_rate);
  reg.set_gauge(k + "micro.per_move_proofs_per_sec", per_move_rate);
  reg.set_gauge(k + "micro.speedup", ratio(session_rate, per_move_rate));
}

void export_proof_run(const std::string& k, const OptimizerResult& r, MetricsRegistry& reg) {
  const MetricsRegistry& m = r.metrics;
  reg.add_counter(k + "moves_proved", r.moves_proved);
  reg.add_counter(k + "inconclusive", r.paranoid_inconclusive);
  static constexpr KeyMap kCounters[] = {
      {"gates_encoded", "proof.gates_encoded"},   {"conflicts", "proof.conflicts"},
      {"cache_hits", "proof.cache_hits"},         {"roots_structural", "proof.roots_structural"},
      {"roots_by_sat", "proof.roots_by_sat"},     {"learned_retained", "solver.learned_kept"},
      {"learned_evicted", "solver.learned_deleted"}, {"reduce_db_rounds", "solver.reduce_dbs"}};
  for (const auto& [key, counter] : kCounters) reg.add_counter(k + key, m.counter(counter));
  reg.set_gauge(k + "seconds", r.seconds);
}

void bench_sat(const BenchRun& run, const CellLibrary& lib, MetricsRegistry& reg,
               BenchFailures& failures) {
  for (const BenchCircuit& c : run.circuits) {
    const std::string k = c.name + ".";
    const Network src = map_network(c.net, lib).mapped;
    reg.add_counter(k + "cells", src.num_logic_gates());
    sat_micro(src, lib, run.min_time, k, reg, failures);

    FlowOptions base;
    base.verify = false;
    base.opt.paranoid = true;
    const PreparedCircuit prepared = prepare_circuit(c.name, c.net, lib, base);
    const std::string failure = check_exactness(
        prepared, lib, OptMode::GsgPlusGS, base, 1, exactness_oracles({"per-move-prover"}),
        [&](const ExactnessOracle* row, const ModeRun& r) {
          export_proof_run(k + (row == nullptr ? "session." : "per_move."), r.result, reg);
        });
    if (!failure.empty()) failures.push_back(c.name + ": " + failure);
  }
}

// --- extract -----------------------------------------------------------------
// commit_loop: alternate committing the best probed swap and re-querying the
//   partition, for `iters` commits: gates re-extracted per commit
//   (incremental) against what a full rebuild re-extracts, and the wall
//   time of the two maintenance modes on the identical commit stream.
// flow: the gsg+GS flow with incremental maintenance on (the reference)
//   and off (the `full-extraction` exactness row, which must write the
//   same netlist): seconds, partition counters and probe groups served
//   from the optimizer's per-slot cache.

struct CommitLoop {
  std::size_t network_gates = 0;
  int commits = 0;
  std::uint64_t gates_reextracted = 0;
  double update_ms = 0.0;  // partition() after one commit, per commit
};

/// Commit gainful swaps one at a time, querying the partition after every
/// commit: the optimizer's access pattern, isolated from probing noise.
CommitLoop commit_loop(const Network& src, const CellLibrary& lib, bool incremental,
                       int max_commits) {
  Placed p = map_and_place(src, lib);
  Network& net = p.net;
  Sta sta(net, lib, p.pl);
  RewireEngine engine(net, p.pl, lib, sta);
  engine.set_incremental_extraction(incremental);

  CommitLoop loop;
  loop.network_gates = net.num_logic_gates();
  for (int i = 0; i < max_commits; ++i) {
    // Best single swap by probed gain (re-enumerated per epoch, as the
    // stale-candidate contract requires). Negative-gain swaps are fine:
    // this loop gauges partition maintenance cost, not QoR. Exact-gain
    // ties break on a slot-independent pin key: enumeration order follows
    // partition slot numbering, which differs between the two modes, and
    // the comparison is only honest over the identical commit stream.
    const auto cands = enumerate_all_swaps(engine.partition(), net);
    auto pin_key = [](const SwapCandidate& c) {
      return std::tuple(c.pin_a.gate, c.pin_a.index, c.pin_b.gate, c.pin_b.index);
    };
    const SwapCandidate* best = nullptr;
    double best_gain = -1e18;
    const double base = sta.critical_delay();
    for (const SwapCandidate& c : cands) {
      const double gain = base - engine.probe(EngineMove::swap(c)).critical;
      if (gain > best_gain ||
          (best != nullptr && gain == best_gain && pin_key(c) < pin_key(*best))) {
        best_gain = gain;
        best = &c;
      }
    }
    if (best == nullptr) break;
    engine.commit(EngineMove::swap(*best));
    Timer t;
    engine.partition();
    loop.update_ms += t.seconds() * 1e3;
    ++loop.commits;
  }
  if (loop.commits > 0) {
    loop.gates_reextracted = engine.partition_stats().gates_reextracted;
    loop.update_ms /= loop.commits;
  }
  return loop;
}

void bench_extract(const BenchRun& run, const CellLibrary& lib, MetricsRegistry& reg,
                   BenchFailures& failures) {
  for (const BenchCircuit& c : run.circuits) {
    const std::string k = c.name + ".";
    const CommitLoop inc = commit_loop(c.net, lib, /*incremental=*/true, run.iters);
    const CommitLoop full = commit_loop(c.net, lib, /*incremental=*/false, run.iters);
    reg.add_counter(k + "network_gates", inc.network_gates);
    reg.add_counter(k + "commit_loop.commits", static_cast<std::uint64_t>(inc.commits));
    reg.set_gauge(k + "commit_loop.gates_reextracted_per_commit",
                  ratio(static_cast<double>(inc.gates_reextracted), inc.commits));
    reg.set_gauge(k + "commit_loop.incremental_update_ms", inc.update_ms);
    reg.set_gauge(k + "commit_loop.full_rebuild_ms", full.update_ms);
    reg.set_gauge(k + "commit_loop.speedup", ratio(full.update_ms, inc.update_ms));

    FlowOptions base;
    base.verify = false;
    const PreparedCircuit prepared = prepare_circuit(c.name, c.net, lib, base);
    const std::string failure = check_exactness(
        prepared, lib, OptMode::GsgPlusGS, base, 1, exactness_oracles({"full-extraction"}),
        [&](const ExactnessOracle* row, const ModeRun& r) {
          if (row != nullptr) {
            reg.set_gauge(k + "flow.full_seconds", r.result.seconds);
            return;
          }
          const MetricsRegistry& m = r.result.metrics;
          reg.set_gauge(k + "flow.incremental_seconds", r.result.seconds);
          reg.add_counter(k + "flow.moves", static_cast<std::uint64_t>(
                                                r.result.swaps_committed +
                                                r.result.resizes_committed));
          reg.set_gauge(k + "flow.final_delay_ns", r.result.final_delay);
          for (const char* name : {"sgs_reextracted", "sgs_reused", "groups_reused",
                                   "incremental_updates", "full_rebuilds"}) {
            reg.add_counter(k + "flow." + name,
                            m.counter(std::string("partition.") + name));
          }
        });
    if (!failure.empty()) failures.push_back(c.name + ": netlists differ: " + failure);
  }
}

// --- scale -------------------------------------------------------------------
// The full gsg flow (map -> place -> optimize, no verify) on each circuit,
// at one worker count. Per circuit: replica sync bytes per epoch and per
// commit next to what one full clone costs, gates re-sorted per
// canonicalize pass, candidates enumerated against pruned lists served from
// cache, the propagation shape and the phase times. The `*_growth` gauges
// divide the last circuit's per-commit figures by the first's. Per-commit
// sync bytes that grow as fast as the mapped network itself fail the run:
// the delta path would have degenerated to O(network).

void bench_scale(const BenchRun& run, const CellLibrary& lib, MetricsRegistry& reg,
                 BenchFailures& failures) {
  struct Point {
    double mapped = 0.0, sync_per_commit = 0.0, canon_per_call = 0.0, pops_per_probe = 0.0;
  };
  std::vector<Point> points;
  for (const BenchCircuit& c : run.circuits) {
    const std::string k = c.name + ".";
    FlowOptions fopt;
    fopt.verify = false;  // equivalence checking is its own (non-O(dirty)) story
    fopt.opt.mode = OptMode::Gsg;
    fopt.opt.threads = run.threads.front();
    fopt.opt.max_iterations = run.iters;

    Timer prep_timer;
    PreparedCircuit prepared = prepare_circuit(c.name, c.net, lib, fopt);
    reg.set_gauge(k + "seconds.prepare", prep_timer.seconds());
    const std::size_t mapped = prepared.mapped.num_logic_gates();
    reg.add_counter(k + "mapped_gates", mapped);

    const ModeRun mode_run = run_mode(std::move(prepared), lib, fopt.opt.mode, fopt);
    const OptimizerResult& r = mode_run.result;
    const MetricsRegistry& m = r.metrics;
    const auto count = [&m](const char* name) { return static_cast<double>(m.counter(name)); };
    const auto per = [&](const char* num, const char* den) { return ratio(count(num), count(den)); };
    reg.set_gauge(k + "initial_delay_ns", r.initial_delay);
    reg.set_gauge(k + "final_delay_ns", r.final_delay);
    reg.add_counter(k + "commits",
                    static_cast<std::uint64_t>(r.swaps_committed + r.resizes_committed));
    reg.set_gauge(k + "seconds.optimize", r.seconds);
    static constexpr KeyMap kSeconds[] = {
        {"setup", "time.setup_s"},   {"probe", "time.probe_s"}, {"arbitrate", "time.arbitrate_s"},
        {"commit", "time.commit_s"}, {"sync", "time.sync_s"},   {"margins", "time.timing_s"}};
    for (const auto& [key, gauge] : kSeconds) reg.set_gauge(k + "seconds." + key, m.gauge(gauge));
    static constexpr KeyMap kCounters[] = {
        {"replica_sync.delta_syncs", "sync.delta_syncs"},
        {"replica_sync.full_syncs", "sync.full_syncs"},
        {"replica_sync.delta_commits_covered", "sync.delta_commits"},
        {"replica_sync.bytes_delta_total", "sync.bytes_delta"},
        {"replica_sync.bytes_full_total", "sync.bytes_full"},
        {"commit_path.canonicalize_calls", "engine.canonicalize_calls"},
        {"commit_path.gates_canonicalized", "engine.gates_canonicalized"},
        {"commit_path.candidates_enumerated", "engine.candidates_enumerated"},
        {"commit_path.pruned_groups_cached", "engine.pruned_groups_cached"},
        {"timing.probes", "engine.probes"},
        {"timing.gates_propagated", "timing.gates_propagated"},
        {"timing.damp_cutoffs", "timing.damp_cutoffs"},
        {"timing.margin_refreshes", "timing.margin_refreshes"}};
    for (const auto& [key, counter] : kCounters) reg.add_counter(k + key, m.counter(counter));
    const Point pt{static_cast<double>(mapped), per("sync.bytes_delta", "sync.delta_commits"),
                   per("engine.gates_canonicalized", "engine.canonicalize_calls"),
                   per("timing.gates_propagated", "engine.probes")};
    points.push_back(pt);
    reg.set_gauge(k + "replica_sync.bytes_per_epoch", per("sync.bytes_delta", "sync.delta_syncs"));
    reg.set_gauge(k + "replica_sync.bytes_per_commit", pt.sync_per_commit);
    reg.set_gauge(k + "replica_sync.clone_bytes", per("sync.bytes_full", "sync.full_syncs"));
    reg.set_gauge(k + "commit_path.gates_per_call", pt.canon_per_call);
    reg.set_gauge(k + "timing.gates_propagated_per_probe", pt.pops_per_probe);
    const double cutoffs = count("timing.damp_cutoffs");
    reg.set_gauge(k + "timing.damp_cutoff_rate",
                  ratio(cutoffs, count("timing.gates_propagated") + cutoffs));
  }
  if (points.size() < 2) return;
  const Point& lo = points.front();
  const Point& hi = points.back();
  const double size_growth = hi.mapped / std::max(lo.mapped, 1.0);
  const double sync_growth = ratio(hi.sync_per_commit, lo.sync_per_commit);
  reg.set_gauge("network_size_growth", size_growth);
  reg.set_gauge("sync_bytes_per_commit_growth", sync_growth);
  reg.set_gauge("gates_canonicalized_per_call_growth", ratio(hi.canon_per_call, lo.canon_per_call));
  reg.set_gauge("gates_propagated_per_probe_growth", ratio(hi.pops_per_probe, lo.pops_per_probe));
  if (sync_growth > 0.0 && sync_growth >= size_growth) {
    std::ostringstream msg;
    msg << "sync bytes_per_commit grew " << sync_growth << "x while the network grew "
        << size_growth << "x: the delta sync path is no longer O(dirty)";
    failures.push_back(msg.str());
  }
}

// --- linear ------------------------------------------------------------------
// The linear-time claim (paper section 3): GISG extraction of the mapped
// circuit, timed in a loop; gates_per_sec stays flat as circuits grow when
// extraction is linear. gates_per_sec_last_over_first compares the last
// circuit's rate with the first's.

void bench_linear(const BenchRun& run, const CellLibrary& lib, MetricsRegistry& reg,
                  BenchFailures& failures) {
  std::vector<double> rates;
  for (const BenchCircuit& c : run.circuits) {
    const std::string k = c.name + ".";
    const Network net = map_network(c.net, lib).mapped;
    reg.add_counter(k + "gates", net.num_logic_gates());
    const std::size_t supergates = extract_gisg(net).sgs.size();
    reg.add_counter(k + "supergates", supergates);
    Timer t;
    std::size_t passes = 0;
    do {
      if (extract_gisg(net).sgs.size() != supergates) {
        failures.push_back(c.name + ": extraction is not deterministic");
        return;
      }
      ++passes;
    } while (t.seconds() < run.min_time);
    rates.push_back(static_cast<double>(passes) * static_cast<double>(net.num_logic_gates()) /
                    t.seconds());
    reg.set_gauge(k + "gates_per_sec", rates.back());
  }
  if (rates.size() >= 2) {
    reg.set_gauge("gates_per_sec_last_over_first", ratio(rates.back(), rates.front()));
  }
}

}  // namespace

std::vector<BenchSuite> bench_suites() {
  return {
      {"engine", "alu2,alu4,c432,c1908", 1.0, {}, 0, bench_engine},
      {"sta", "c432,c6288,gen:3000", 1.0, {}, 0, bench_sta},
      {"parallel", "c1908,c3540,c6288", 1.0, {1, 2, 4, 8}, 0, bench_parallel},
      {"sat", "alu2,c432,c499", 0.5, {}, 0, bench_sat},
      {"extract", "alu2,c432,c499,c1908", 1.0, {}, 12, bench_extract},
      {"scale", "gen:10000:7,gen:50000:7,gen:100000:7", 1.0, {4}, 1, bench_scale},
      {"linear", "gen:1000,gen:4000,gen:16000,gen:64000", 0.5, {}, 0, bench_linear},
  };
}

}  // namespace rapids
