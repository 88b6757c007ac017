#!/usr/bin/env python3
"""End-to-end benchmark of the RAPIDS flow.

Usage (from the repository root):

    python3 perfbench/run.py --workload large_t2x2|serve_suite \
        --seed N --seconds S --trace 0|1

The first run configures and builds `.bench_build/` (Release, from the
sources in this checkout); later runs reuse it. Every input is generated
from --seed and written as BLIF, so the BLIF reader and writer are on the
measured path. A generated gen-profile circuit read back from BLIF maps to
about 3.3x the cells of the same in-memory `gen:` spec (the writer emits
each XOR as a two-cube cover, which the reader rebuilds as AND/OR), so the
cell counts here are not comparable with the `gen:` points of
BENCH_scale.json.

Workloads:

  large_t2x2   32 gen-profile BLIFs (target 800 gates, ~2.8k mapped cells
               each), `gsg+gs`, --paranoid, threads=2, iters=2, verify on,
               as two 2-thread drivers side by side, each on half of the
               circuits. Loads the parallel scheduler (replica sync, margin
               refresh, arbitration, speculation), the STA probe kernel and
               the SAT prover (every committed swap is proved). Judges
               speculation retirement and the probe kernel (flow_s here).
  serve_suite  `rapids serve --max-concurrent 4` driven over pipes by a
               closed loop of 4 clients, each sending its next job only
               when its last one completed. Jobs are the 15 built-in
               Table-1 circuits with paper gates <= 3000, written as BLIF,
               threads=1, verify on, largest first in every pass, the
               placer seed cycling over three values per pass; the run
               ends on a whole pass. Many small flows; the concurrency check
               for session/serve changes (singleton deletion: no change).
               The scheduler is bypassed, so scheduler changes should not
               move it.

Sizes are far below the 30k-cell circuits one might pick for a scheduler
study, because of the host. On a shared 4-core VM, one flow's wall time
swings by up to 1.8x in bursts of 10-30 s (CPU time tracks wall time, so it
is no steadier), and the work itself (gates propagated per probe) varies 2x
from one generated circuit to the next. So a run times many small flows and
repeats each circuit across the run; only a basket of circuits averages out
the circuit-to-circuit spread. One 4-thread driver ranged 44% over four
seeds where two 2-thread drivers, run alternately with it, ranged 23%: its
barrier rounds wait for the slowest core. What remains is the host's own
speed, which drifts by 20-30% over minutes; the deterministic work of a run
(probes, mapped cells) varies by under 4% from seed to seed. Workloads of
single-threaded flows side by side follow that drift most: a workload of
`gsg --paranoid` flows on three 1-thread drivers spread 25-32% (IQR/median
over ten seeds) in 30 s runs and was dropped; its SAT prover moved into
large_t2x2. Runs of 60 s roughly halve the spread of serve_suite.

End-to-end metrics (--trace 0):
  flow_s        mean over the run's circuits of each circuit's median wall
                time from BLIF read to BLIF write, over its repeats
                (serve_suite: the job time `rapids serve` reports, which
                spans the same stages). The per-circuit median ignores a
                slowdown that hits fewer than half of a circuit's repeats;
                job_p90_s is the metric that shows such a slowdown.
  setup_s       mean over circuits of each circuit's median time for read +
                map + place + initial STA (serve_suite: median of 6 cold
                starts, process spawn to a small first job's completion)
  job_p50_s, job_p90_s
                latency of one job, from job line written to completion
                line (flow workloads: one whole flow), over every completed
                job of the run (serve_suite runs whole passes, so each
                circuit counts the same number of times)
  jobs_per_s    completed jobs / wall time of the measured loop
  peak_rss_mb   peak resident set of the measured process (flow workloads:
                the largest of the drivers side by side)
  delay_pct     final critical delay as a percentage of the initial one,
                averaged over jobs (deterministic per seed; a speed-up that
                commits different moves shows here)
  area_pct      final area as a percentage of the initial one, likewise
  pass_rate     share of jobs that passed: no error, own verify passed, no
                paranoid-inconclusive reject, the benchmark's own output
                check passed and output bytes identical across repeats

Per-layer metrics (--trace 1) come from a separate traced run: the same
flows are run once through the public flow API and once staged, calling
map_network, place, Sta, optimize and check_equivalence separately with a
timer around each call; inside-optimize counters come from OptimizerResult
(through collect_flow_metrics, the names `--metrics-json` uses). Counts and
times are summed over the run's circuits. The spans must add up to 95-105%
of the staged flows' outer wall time, else the run fails. trace.overhead_pct
compares staged with unstaged flow time; both must write identical bytes.

Output check: every output BLIF is compared with its input BLIF by the
benchmark's own SOP reader and 64-bit-parallel simulator (sop_check.cpp),
on seeded random vectors; every output is hashed and repeats of one
(circuit, seed) must match byte for byte.
"""
import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
# Fixed per workload: a written BLIF's .model line is the input path as
# given, so paths (relative to ROOT) must not vary from run to run.
WORK = os.path.join(".bench_build", "work")
DRIVER = os.path.join(BUILD, "perfbench_driver")
RAPIDS = os.path.join(BUILD, "core", "rapids")

FLOW_WORKLOADS = {
    # name: (driver processes side by side, driver flags). Each driver takes
    # a share of the circuits.
    "large_t2x2": (2, ["--mode", "gsg+gs", "--threads", "2", "--iters", "2", "--paranoid"]),
}
BASKET = 32          # circuits per flow-workload run
GEN_TARGET = 800     # gen-profile gate target per circuit (~2.7k mapped cells)
SERVE_CIRCUITS = ["alu2", "alu4", "c432", "c499", "c1355", "c1908", "c2670", "c3540",
                  "c5315", "c7552", "x3", "i8", "k2", "s5378", "s13207"]
SERVE_CLIENTS = 4
SERVE_SEED_CYCLE = 3
COLD_STARTS = 3      # serve cold starts before and again after the loop
CHECK_VECTORS = 4096
CHECK_SEED = 20001

# name: (unit, better). BENCHMARK.json lists the same metrics.
END_TO_END = {
    "flow_s": ("s", "lower"), "setup_s": ("s", "lower"),
    "job_p50_s": ("s", "lower"), "job_p90_s": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"), "peak_rss_mb": ("MB", "lower"),
    "delay_pct": ("%", "lower"), "area_pct": ("%", "lower"),
    "pass_rate": ("fraction", "higher"),
}
PER_LAYER = {
    "io.read_s": ("s", "lower"), "io.write_s": ("s", "lower"),
    "io.read_mb_per_s": ("MB/s", "higher"),
    "mapping.map_s": ("s", "lower"), "mapping.cells": ("count", "lower"),
    "place.place_s": ("s", "lower"),
    "timing.initial_sta_s": ("s", "lower"), "timing.gates_propagated": ("count", "lower"),
    "timing.gates_per_probe": ("count", "lower"), "timing.ns_per_gate": ("ns", "lower"),
    "timing.damp_cutoff_rate": ("ratio", "higher"), "timing.damp_fallbacks": ("count", "lower"),
    "timing.margins_s": ("s", "lower"),
    "sym.groups_s": ("s", "lower"), "sym.candidates_enumerated": ("count", "lower"),
    "sym.candidates_per_s": ("1/s", "higher"),
    "sym.gates_reextracted_per_commit": ("count", "lower"),
    "sym.sgs_reused_frac": ("ratio", "higher"),
    "rewire.swaps_committed": ("count", "higher"), "sizing.resizes_committed": ("count", "higher"),
    "engine.probes": ("count", "lower"), "engine.probe_s": ("s", "lower"),
    "engine.probes_per_s": ("1/s", "higher"), "engine.commit_s": ("s", "lower"),
    "engine.commit_yield": ("ratio", "higher"),
    "parallel.sync_s": ("s", "lower"), "parallel.sync_bytes_per_commit": ("B", "lower"),
    "parallel.full_syncs": ("count", "lower"), "parallel.arbitrate_s": ("s", "lower"),
    "parallel.serial_frac": ("ratio", "lower"),
    "parallel.speculation_hit_rate": ("ratio", "higher"),
    "parallel.speculative_probe_frac": ("ratio", "lower"),
    "parallel.commit_efficiency": ("ratio", "higher"), "parallel.conflicted": ("count", "lower"),
    "parallel.revalidation_rejects": ("count", "lower"), "parallel.cpu_util": ("ratio", "higher"),
    "opt.optimize_s": ("s", "lower"), "opt.iterations": ("count", "lower"),
    "opt.rounds": ("count", "lower"),
    "verify.verify_s": ("s", "lower"),
    "sat.moves_proved": ("count", "higher"), "sat.gates_encoded": ("count", "lower"),
    "sat.conflicts": ("count", "lower"), "sat.cache_hits": ("count", "higher"),
    "sat.inconclusive": ("count", "lower"),
    "serve.job_run_p50_s": ("s", "lower"), "serve.dispatch_overhead_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class BenchError(Exception):
    pass


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def run(cmd, **kw):
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, **kw)
    if res.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (" ".join(cmd[:3]), res.returncode,
                                                 (res.stderr or res.stdout)[-2000:]))
    return res.stdout


# --- build and environment ----------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "flow", "flow.hpp"))):
        raise BenchError("no rapids sources next to perfbench/")
    # Compilers and the LTO linker write temporaries; keep them in the checkout.
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            run(["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        run(["cmake", "--build", BUILD, "--target", "rapids", "perfbench_driver",
             "-j", str(os.cpu_count() or 1)])
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    # Guard: timings from a debug or sanitizer build of rapids_core mean nothing.
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("rapids_core is not a Release build")
    for opt in ("RAPIDS_SANITIZE", "RAPIDS_SANITIZE_THREAD"):
        if cache.get(opt, "OFF").upper() not in ("OFF", "0", "FALSE", "NO"):
            raise BenchError("rapids_core is a sanitizer build (%s)" % opt)
    env = json.loads(run([DRIVER, "env"]).strip().splitlines()[-1])
    return {
        "hardware_threads": os.cpu_count(),
        "compiler": env["compiler"],
        "build_type": env["build_type"],
        "git_revision": git_revision(),
    }


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return run(["git", "rev-parse", "HEAD"]).strip()
    except (BenchError, OSError):
        return "unknown"


# --- helpers --------------------------------------------------------------------

def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def digest(hashes):
    return hashlib.sha256("".join(hashes).encode()).hexdigest()[:16]


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def ratio(num, den):
    return num / den if den else 0.0


def counter(rec, name):
    return rec["metrics"]["counters"][name]


def gauge(rec, name):
    return rec["metrics"]["gauges"][name]


def check_outputs(workdir, pairs):
    """Run the benchmark's own SOP check on (reference, candidate) pairs.
    Returns the set of candidates that failed."""
    if not pairs:
        return set()
    listing = os.path.join(workdir, "pairs.txt")
    with open(listing, "w") as f:
        for ref, cand in pairs:
            f.write("%s %s\n" % (ref, cand))
    res = subprocess.run([DRIVER, "check", listing, str(CHECK_VECTORS), str(CHECK_SEED)], cwd=ROOT,
                         capture_output=True, text=True)
    failed = set()
    seen = 0
    for line in res.stdout.splitlines():
        parts = line.split(" ", 3)
        seen += 1
        if parts[0] != "ok":
            failed.add(parts[1])
            log("output check FAILED: " + line)
    if seen != len(pairs):
        raise BenchError("output checker stopped early: " + res.stderr[-500:])
    return failed


def verify_outputs(workdir, groups, reference):
    """groups: key -> output paths that must hold identical bytes;
    reference(key) -> the input BLIF they must match. Returns (sha256 of each
    group's first output, set of failed paths)."""
    first, bad = {}, set()
    for key, paths in groups.items():
        hashes = [sha256(p) for p in paths]
        first[key] = (paths[0], hashes[0])
        for p, h in zip(paths, hashes):
            if h != hashes[0]:
                bad.add(p)
                log("output bytes differ across repeats: %s vs %s" % (p, paths[0]))
    wrong = check_outputs(workdir, [(reference(k), first[k][0]) for k in sorted(first)])
    for key, paths in groups.items():
        if first[key][0] in wrong:
            bad.update(paths)
    return {k: h for k, (_, h) in first.items()}, bad


# --- flow workloads -------------------------------------------------------------

def run_flows(inputs, procs, args, workdir):
    """Run the driver's flow loop on `inputs`, split round-robin over `procs`
    processes side by side. Returns (flow records with global input index and
    in_path, the processes' peak RSS in MB, wall seconds of the loop)."""
    running = []
    t0 = time.perf_counter()
    try:
        for p in range(procs):
            out_dir = os.path.join(workdir, "drv%d" % p)
            os.makedirs(out_dir)
            cmd = [DRIVER, "flow", "--out-dir", out_dir] + args
            for path in inputs[p::procs]:
                cmd += ["--in", path]
            # Files, not pipes: a full pipe would stall a driver mid-flow.
            with open(os.path.join(out_dir, "stdout"), "w") as out, \
                    open(os.path.join(out_dir, "stderr"), "w") as err:
                running.append(subprocess.Popen(cmd, stdout=out, stderr=err))
        for proc in running:
            proc.wait()
        wall = time.perf_counter() - t0
    finally:
        for proc in running:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    records, rss = [], 0.0
    for p, proc in enumerate(running):
        out_dir = os.path.join(workdir, "drv%d" % p)
        if proc.returncode != 0:
            with open(os.path.join(out_dir, "stderr")) as f:
                raise BenchError("driver flow failed (%d): %s" % (proc.returncode, f.read()[-2000:]))
        with open(os.path.join(out_dir, "stdout")) as f:
            lines = [json.loads(l) for l in f if l.startswith("{")]
        if not lines or lines[-1].get("kind") != "done":
            raise BenchError("driver output truncated")
        rss = max(rss, lines[-1]["peak_rss_mb"])
        for r in lines[:-1]:
            r["input"] = p + procs * r["input"]
            r["in_path"] = inputs[r["input"]]
            records.append(r)
    return records, rss, wall


def flow_workload(name, seed, seconds, trace, workdir):
    procs, flags = FLOW_WORKLOADS[name]
    inputs = []
    for k in range(BASKET):
        path = os.path.join(workdir, "in_%02d.blif" % k)
        gen_seed = (seed * 1000 + k) % (1 << 63)
        run([DRIVER, "gen-large", str(GEN_TARGET), str(gen_seed), path])
        inputs.append(path)
    # Traced runs make one pass (each circuit untraced and staged).
    args = ["--seed", str(seed), "--seconds", "0" if trace else str(seconds)] + flags
    records, rss, wall = run_flows(inputs, procs, args + (["--traced"] if trace else []), workdir)

    failed = set()
    for r in records:
        if not r["verified"] or counter(r, "proof.inconclusive") > 0:
            failed.add(r["out"])
            log("flow failed its own verify or had inconclusive proofs: " + r["out"])
    out_hash, bad = verify_outputs(workdir, by_key(records, "input", "out"),
                                   lambda i: inputs[i])
    failed |= bad

    first = {}
    for r in records:
        first.setdefault(r["input"], r)
    fingerprint = {
        "workload": name, "inputs": len(inputs),
        "input_digest": digest(sha256(p) for p in inputs),
        "output_digest": digest(out_hash[i] for i in sorted(out_hash)),
        "mapped_cells": sum(r["cells"] for r in first.values()),
        "probes": sum(counter(r, "engine.probes") for r in first.values()),
        "commits": sum(counter(r, "scheduler.committed") for r in first.values()),
    }
    attempted = len(records)
    n_failed = sum(1 for r in records if r["out"] in failed)
    if trace:
        metrics = layer_metrics(records)
    else:
        metrics = flow_end_to_end(records, first, rss, wall, attempted, n_failed)
    return attempted, n_failed, metrics, fingerprint


def by_key(items, key, field):
    out = {}
    for it in items:
        out.setdefault(it[key], []).append(it[field])
    return out


def mean_of_medians(samples):
    """Mean over keys (circuits) of each key's median over its repeats.
    Host-speed bursts on a shared machine last 10-30 s and slow every flow
    they overlap by up to 1.8x; the median of repeats spread over the run
    skips them unless they cover half of the run."""
    return statistics.fmean(statistics.median(v) for v in samples.values())


def job_metrics(latencies, wall):
    """Latency percentiles over every completed job, and throughput."""
    return {
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": p90(latencies),
        "jobs_per_s": len(latencies) / wall,
    }


def qor(recs):
    """Mean final/initial delay and area, in percent, over `recs` (flow
    records and serve jobs carry the same metrics snapshot)."""
    return (statistics.fmean(100.0 * gauge(r, "delay.final_ns") / gauge(r, "delay.initial_ns")
                             for r in recs),
            statistics.fmean(100.0 * gauge(r, "area.final") / gauge(r, "area.initial") for r in recs))


def flow_end_to_end(records, first, rss, wall, attempted, n_failed):
    delay_pct, area_pct = qor(first.values())
    m = job_metrics([r["flow_s"] for r in records], wall)
    m.update({
        "flow_s": mean_of_medians(by_key(records, "input", "flow_s")),
        "setup_s": mean_of_medians(by_key(records, "input", "setup_s")),
        "peak_rss_mb": rss,
        "delay_pct": delay_pct,
        "area_pct": area_pct,
        "pass_rate": (attempted - n_failed) / attempted,
    })
    return m


def layer_metrics(records, serve=None):
    """Per-layer metrics from the staged (traced) flows, summed over
    circuits; `serve` adds the serve-side layer figures."""
    staged = [r for r in records if r["traced"] == 1]
    plain = [r for r in records if r["traced"] == 0]
    span = lambda k: sum(r["spans"][k] for r in staged)
    cnt = lambda k: sum(counter(r, k) for r in staged)
    sec = lambda k: sum(gauge(r, "time.%s_s" % k) for r in staged)
    swaps, resizes = cnt("engine.swaps_committed"), cnt("engine.resizes_committed")
    probes, commits = cnt("engine.probes"), cnt("scheduler.committed")
    read_mb = sum(os.path.getsize(r["in_path"]) for r in staged) / 1e6
    gates = cnt("timing.gates_propagated")
    cutoffs = cnt("timing.damp_cutoffs")
    spec = cnt("scheduler.speculative_probes")
    hits, wasted = cnt("scheduler.speculation_hits"), cnt("scheduler.speculation_wasted")
    reused, reextracted = cnt("partition.sgs_reused"), cnt("partition.sgs_reextracted")
    flow_staged = sum(r["flow_s"] for r in staged)
    flow_plain = sum(r["flow_s"] for r in plain)
    # Each span has its own timer, flow_s its outer one: the stages must
    # account for the flow.
    stage_sum = sum(sum(r["spans"].values()) for r in staged)
    if not 0.95 <= ratio(stage_sum, flow_staged) <= 1.05:
        raise BenchError("stage spans cover %.1f%% of traced flow time" %
                         (100.0 * ratio(stage_sum, flow_staged)))
    return {
        "io.read_s": span("read"),
        "io.write_s": span("write"),
        "io.read_mb_per_s": ratio(read_mb, span("read")),
        "mapping.map_s": span("map"),
        "mapping.cells": sum(r["cells"] for r in staged),
        "place.place_s": span("place"),
        "timing.initial_sta_s": span("initial_sta"),
        "timing.gates_propagated": gates,
        "timing.gates_per_probe": ratio(gates, probes),
        "timing.ns_per_gate": 1e9 * ratio(sec("probe"), gates),
        "timing.damp_cutoff_rate": ratio(cutoffs, gates + cutoffs),
        "timing.damp_fallbacks": cnt("timing.damp_fallbacks"),
        "timing.margins_s": sec("timing"),
        "sym.groups_s": sec("groups"),
        "sym.candidates_enumerated": cnt("engine.candidates_enumerated"),
        "sym.candidates_per_s": ratio(cnt("engine.candidates_enumerated"), sec("groups")),
        "sym.gates_reextracted_per_commit": ratio(cnt("partition.gates_reextracted"), swaps),
        "sym.sgs_reused_frac": ratio(reused, reused + reextracted),
        "rewire.swaps_committed": swaps,
        "sizing.resizes_committed": resizes,
        "engine.probes": probes,
        "engine.probe_s": sec("probe"),
        "engine.probes_per_s": ratio(probes, sec("probe")),
        "engine.commit_s": sec("commit"),
        "engine.commit_yield": ratio(commits, probes),
        "parallel.sync_s": sec("sync"),
        "parallel.sync_bytes_per_commit": ratio(cnt("sync.bytes_delta"), cnt("sync.delta_commits")),
        "parallel.full_syncs": cnt("sync.full_syncs"),
        "parallel.arbitrate_s": sec("arbitrate"),
        "parallel.serial_frac": ratio(sec("groups") + sec("arbitrate") + sec("commit") +
                                      sec("timing"), sec("optimize")),
        "parallel.speculation_hit_rate": ratio(hits, hits + wasted),
        "parallel.speculative_probe_frac": ratio(spec, spec + probes),
        "parallel.commit_efficiency": ratio(commits, cnt("scheduler.accepted")),
        "parallel.conflicted": cnt("scheduler.conflicted"),
        "parallel.revalidation_rejects": cnt("scheduler.revalidation_rejects"),
        "parallel.cpu_util": ratio(sum(r["cpu_s"] for r in staged),
                                   sum(r["spans"]["optimize"] * gauge(r, "run.threads")
                                       for r in staged)),
        "opt.optimize_s": span("optimize"),
        "opt.iterations": cnt("engine.iterations"),
        "opt.rounds": cnt("scheduler.rounds"),
        "verify.verify_s": span("verify"),
        "sat.moves_proved": cnt("proof.moves_proved"),
        "sat.gates_encoded": cnt("proof.gates_encoded"),
        "sat.conflicts": cnt("proof.conflicts"),
        "sat.cache_hits": cnt("proof.cache_hits"),
        "sat.inconclusive": cnt("proof.inconclusive"),
        "serve.job_run_p50_s": serve["job_run_p50_s"] if serve else 0.0,
        "serve.dispatch_overhead_ms": serve["dispatch_overhead_ms"] if serve else 0.0,
        "trace.overhead_pct": 100.0 * (ratio(flow_staged, flow_plain) - 1.0),
    }


# --- serve workload -------------------------------------------------------------

COMPLETION = re.compile(r"^\[serve\] (\S+): (?:delay \S+ -> \S+ ns, \d+ swaps / \d+ resizes, "
                        r"(\S+) s(, VERIFY FAILED)?|FAILED: (.*))$")


class Serve:
    """One `rapids serve` process driven over its stdin/stdout pipes."""

    def __init__(self, workdir, tag):
        self.err = open(os.path.join(workdir, "serve_%s.err" % tag), "w")
        self.proc = subprocess.Popen([RAPIDS, "serve", "--max-concurrent", str(SERVE_CLIENTS)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True, bufsize=1)

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def next_completion(self):
        """Block for the next completion line: (id, run_s or None, ok)."""
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("rapids serve exited early")
            m = COMPLETION.match(line.rstrip("\n"))
            if m:
                ok = m.group(4) is None and m.group(3) is None
                return m.group(1), (float(m.group(2)) if m.group(2) else None), ok
            if not line.startswith("[serve] done"):
                raise BenchError("unexpected serve output: " + line.strip())

    def close(self):
        """Send quit, drain, reap; returns peak RSS in MB."""
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
            self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                self.proc.wait()
            self.err.close()


def serve_jobs(seed, suite_dir, out_dir):
    """Endless job stream: pass p runs every circuit once, largest BLIF
    first, with placer seed cycling over SERVE_SEED_CYCLE values. The order
    is fixed so that which jobs share the cores does not vary with the seed,
    and the big jobs do not trail at the end of the run."""
    order = sorted(SERVE_CIRCUITS, key=lambda c: -os.path.getsize(os.path.join(suite_dir, c + ".blif")))
    p = 0
    while True:
        job_seed = (seed * 1000 + p % SERVE_SEED_CYCLE) % (1 << 63)
        for c in order:
            jid = "p%dc%s" % (p, c)
            yield {"id": jid, "circuit": c, "seed": job_seed, "pass": p,
                   "in": os.path.join(suite_dir, c + ".blif"),
                   "out": os.path.join(out_dir, jid + ".blif"),
                   "metrics": os.path.join(out_dir, jid + ".json")}
        p += 1


def job_line(job):
    return "%s %s seed=%d threads=1 verify=1 out=%s metrics=%s" % (
        job["id"], job["in"], job["seed"], job["out"], job["metrics"])


def cold_starts(workdir, suite_dir, seed, tag):
    """Set-up time of serve: spawn to the first job's completion line, for
    a small job (alu2), COLD_STARTS times."""
    times = []
    for i in range(COLD_STARTS):
        t0 = time.perf_counter()
        srv = Serve(workdir, "cold%s%d" % (tag, i))
        try:
            srv.send("cold%d %s seed=%d threads=1 verify=1" % (
                i, os.path.join(suite_dir, "alu2.blif"), seed))
            _, _, ok = srv.next_completion()
            times.append(time.perf_counter() - t0)
        finally:
            srv.close()
        if not ok:
            raise BenchError("cold-start job failed")
    return times


def closed_loop(workdir, suite_dir, out_dir, seed, seconds):
    """SERVE_CLIENTS clients, each sending its next job when its last one
    completed, until `seconds` are up and the pass in progress is fully
    sent: whole passes keep every circuit equally weighted."""
    jobs = serve_jobs(seed, suite_dir, out_dir)
    nxt = next(jobs)
    srv = Serve(workdir, "loop")
    done, in_flight = [], {}
    try:
        t_start = time.perf_counter()
        last_pass = 0
        while True:
            while len(in_flight) < SERVE_CLIENTS and (
                    nxt["pass"] == last_pass or time.perf_counter() - t_start < seconds):
                nxt["sent"] = time.perf_counter()
                in_flight[nxt["id"]] = nxt
                srv.send(job_line(nxt))
                last_pass = nxt["pass"]
                nxt = next(jobs)
            if not in_flight:
                break
            jid, run_s, ok = srv.next_completion()
            job = in_flight.pop(jid)
            job.update(latency=time.perf_counter() - job["sent"], run_s=run_s, ok=ok)
            done.append(job)
        wall = time.perf_counter() - t_start
    finally:
        rss = srv.close()
    return done, wall, rss


def serve_workload(seed, seconds, trace, workdir):
    suite_dir = os.path.join(workdir, "suite")
    out_dir = os.path.join(workdir, "out")
    os.makedirs(suite_dir)
    os.makedirs(out_dir)
    run([DRIVER, "gen-suite", suite_dir] + SERVE_CIRCUITS)
    inputs = {c: os.path.join(suite_dir, c + ".blif") for c in SERVE_CIRCUITS}

    colds = [] if trace else cold_starts(workdir, suite_dir, seed, "a")
    # The traced run spends a third of its time on the serve loop (for the
    # serve-side layer figures) and the rest on one staged pass.
    done, wall, rss = closed_loop(workdir, suite_dir, out_dir, seed,
                                  seconds / 3.0 if trace else seconds)

    if not trace:
        setup_s = statistics.median(colds + cold_starts(workdir, suite_dir, seed, "b"))
    for j in done:
        j["key"] = (j["circuit"], j["seed"])
        if j["ok"]:
            with open(j["metrics"]) as f:
                j["metrics"] = json.load(f)
    out_hash, failed = verify_outputs(
        workdir, by_key([j for j in done if j["ok"]], "key", "out"), lambda k: inputs[k[0]])
    failed |= {j["out"] for j in done if not j["ok"]}
    attempted, n_failed = len(done), len(failed)
    fingerprint = {
        "workload": "serve_suite", "inputs": len(inputs),
        "input_digest": digest(sha256(inputs[c]) for c in SERVE_CIRCUITS),
        "output_digest": digest(out_hash[k] for k in sorted(out_hash)),
        "jobs": attempted, "passes": 1 + max(j["pass"] for j in done),
    }
    timed = [j for j in done if j["run_s"] is not None]
    log("serve: %d jobs in %.1f s" % (attempted, wall))

    if trace:
        serve_layers = {
            "job_run_p50_s": statistics.median(j["run_s"] for j in timed),
            "dispatch_overhead_ms": 1e3 * statistics.median(j["latency"] - j["run_s"]
                                                            for j in timed),
        }
        # One staged pass over the circuits, at the first pass's seed, from
        # the same input paths: its untraced and staged flows must match the
        # serve outputs byte for byte.
        pass0_seed = (seed * 1000) % (1 << 63)
        records, _, _ = run_flows([inputs[c] for c in SERVE_CIRCUITS], 1,
                                  ["--mode", "gsg+gs", "--threads", "1", "--seed", str(pass0_seed),
                                   "--seconds", "0", "--traced"], workdir)
        for r in records:
            c = SERVE_CIRCUITS[r["input"]]
            ref = out_hash.get((c, pass0_seed))
            if not r["verified"] or sha256(r["out"]) != ref:
                n_failed += 1
                log("staged flow differs from serve output: " + r["out"])
        attempted += len(records)
        return attempted, n_failed, layer_metrics(records, serve_layers), fingerprint

    delay_pct, area_pct = qor([j for j in done if j["ok"]])
    metrics = job_metrics([j["latency"] for j in timed], wall)
    metrics.update({
        # serve's own job seconds span read -> write, like a flow.
        "flow_s": mean_of_medians(by_key(timed, "circuit", "run_s")),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "delay_pct": delay_pct,
        "area_pct": area_pct,
        "pass_rate": (attempted - n_failed) / attempted,
    })
    return attempted, n_failed, metrics, fingerprint


# --- entry point ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(FLOW_WORKLOADS) + ["serve_suite"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        raise BenchError("--seed must be >= 0")

    os.chdir(ROOT)
    env = build()
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.workload == "serve_suite":
            attempted, failed, metrics, fp = serve_workload(args.seed, args.seconds, args.trace,
                                                            workdir)
        else:
            attempted, failed, metrics, fp = flow_workload(args.workload, args.seed, args.seconds,
                                                           args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    table = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(table):
        raise BenchError("metric set mismatch: %s" % sorted(set(metrics) ^ set(table)))
    out = {k: {"value": metrics[k], "unit": table[k][0]} for k in table}
    # job_samples: the count job_p50_s/job_p90_s are taken over.
    print(json.dumps({"env": env, "fingerprint": fp, "job_samples": attempted}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("error: %s" % e)
        sys.exit(1)
