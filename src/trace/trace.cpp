#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <set>

#include "util/assert.hpp"
#include "util/json_lite.hpp"
#include "util/log.hpp"

namespace rapids {

namespace {
std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

void Tracer::enable(int workers, std::size_t ring_capacity) {
  if (enabled()) {
    throw InternalError(
        "Tracer::enable while already enabled: a second run would resize "
        "rings under active recorders (disable() first, or give the run "
        "its own session tracer)");
  }
  rings_.clear();
  rings_.resize(static_cast<std::size_t>(std::max(workers, 1)));
  for (Ring& r : rings_) {
    r.cap = std::max<std::size_t>(ring_capacity, 1);
    r.buf.reserve(r.cap);
    r.next = 0;
    r.total = 0;
  }
  dropped_out_of_range_.store(0, std::memory_order_relaxed);
  t0_ns_ = steady_ns();
  enabled_.store(true, std::memory_order_release);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

std::uint64_t Tracer::now_ns() const {
  if (!enabled()) return 0;
  return steady_ns() - t0_ns_;
}

Tracer::Ring* Tracer::ring_for_current_worker() {
  if (rings_.empty()) return nullptr;
  const int w = current_worker();
  // Threads outside any worker scope (w < 0) share the main thread's ring 0
  // — safe, since worker 0 runs on the calling thread and is never live
  // concurrently with it. A worker id beyond the enabled ring count is a
  // scoping bug upstream: drop and count rather than corrupt another
  // worker's lock-free ring.
  if (w <= 0) return &rings_[0];
  if (static_cast<std::size_t>(w) >= rings_.size()) {
    dropped_out_of_range_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  return &rings_[static_cast<std::size_t>(w)];
}

void Tracer::push(Ring& ring, const TraceEvent& ev) {
  if (ring.cap == 0) return;
  if (ring.buf.size() < ring.cap) {
    ring.buf.push_back(ev);
  } else {
    // Flight-recorder wrap: overwrite the oldest event in place.
    ring.buf[ring.next] = ev;
  }
  ring.next = (ring.next + 1) % ring.cap;
  ++ring.total;
}

void Tracer::complete_span(const char* cat, const char* name,
                           std::uint64_t begin_ns, const char* arg1_name,
                           std::int64_t arg1, const char* arg2_name,
                           std::int64_t arg2) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.ts_ns = begin_ns;
  ev.dur_ns = now_ns() - begin_ns;
  ev.arg1_name = arg1_name;
  ev.arg1 = arg1;
  ev.arg2_name = arg2_name;
  ev.arg2 = arg2;
  ev.instant = false;
  if (Ring* ring = ring_for_current_worker()) push(*ring, ev);
}

void Tracer::instant(const char* cat, const char* name, const char* arg1_name,
                     std::int64_t arg1, const char* arg2_name, std::int64_t arg2) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.ts_ns = now_ns();
  ev.arg1_name = arg1_name;
  ev.arg1 = arg1;
  ev.arg2_name = arg2_name;
  ev.arg2 = arg2;
  ev.instant = true;
  if (Ring* ring = ring_for_current_worker()) push(*ring, ev);
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t dropped = dropped_out_of_range();
  for (const Ring& r : rings_) dropped += r.total - r.buf.size();
  return dropped;
}

std::uint64_t Tracer::recorded() const {
  std::uint64_t held = 0;
  for (const Ring& r : rings_) held += r.buf.size();
  return held;
}

namespace {
void write_escaped(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << "\\n";  // literals never contain control chars; be safe anyway
    } else {
      os << c;
    }
  }
}

void write_event_json(std::ostream& os, const TraceEvent& ev, std::size_t tid) {
  // Chrome trace-event timestamps are microseconds (fractions allowed).
  os << "{\"name\":\"";
  write_escaped(os, ev.name);
  os << "\",\"cat\":\"";
  write_escaped(os, ev.cat);
  os << "\",\"ph\":\"" << (ev.instant ? 'i' : 'X') << "\",\"pid\":1,\"tid\":" << tid
     << ",\"ts\":" << static_cast<double>(ev.ts_ns) / 1e3;
  if (ev.instant) {
    os << ",\"s\":\"t\"";
  } else {
    os << ",\"dur\":" << static_cast<double>(ev.dur_ns) / 1e3;
  }
  if (ev.arg1_name != nullptr || ev.arg2_name != nullptr) {
    os << ",\"args\":{";
    bool first = true;
    if (ev.arg1_name != nullptr) {
      os << '"';
      write_escaped(os, ev.arg1_name);
      os << "\":" << ev.arg1;
      first = false;
    }
    if (ev.arg2_name != nullptr) {
      if (!first) os << ',';
      os << '"';
      write_escaped(os, ev.arg2_name);
      os << "\":" << ev.arg2;
    }
    os << '}';
  }
  os << '}';
}
}  // namespace

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  // Metadata: name the process and one track per worker ring.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"rapids\"}}";
  first = false;
  for (std::size_t w = 0; w < rings_.size(); ++w) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << w
       << ",\"args\":{\"name\":\"" << (w == 0 ? "worker 0 (main/arbiter)"
                                              : "worker " + std::to_string(w))
       << "\"}}";
  }
  for (std::size_t w = 0; w < rings_.size(); ++w) {
    const Ring& r = rings_[w];
    // Emit in record order (oldest first): on a wrapped ring the oldest
    // surviving event sits at the write cursor.
    const std::size_t n = r.buf.size();
    const bool wrapped = r.total > n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = wrapped ? (r.next + i) % n : i;
      if (!first) os << ",\n";
      write_event_json(os, r.buf[idx], w);
      first = false;
    }
  }
  os << "\n],\"otherData\":{\"dropped_events\":" << dropped() << "}}\n";
}

bool validate_chrome_trace(const std::string& json_text, std::string* diag,
                           std::vector<std::string>* span_categories,
                           std::vector<std::int64_t>* tids) {
  auto fail = [diag](const std::string& why) {
    if (diag != nullptr) *diag = why;
    return false;
  };
  JsonValue root = JsonValue::make_null();
  try {
    root = parse_json(json_text);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  if (!root.is_object()) return fail("top level is not an object");
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("missing traceEvents array");
  }
  std::set<std::string> cats;
  std::set<std::int64_t> tid_set;
  std::size_t index = 0;
  for (const JsonValue& ev : events->items()) {
    const std::string at = "traceEvents[" + std::to_string(index++) + "]";
    if (!ev.is_object()) return fail(at + " is not an object");
    const JsonValue* name = ev.find("name");
    const JsonValue* ph = ev.find("ph");
    const JsonValue* pid = ev.find("pid");
    const JsonValue* tid = ev.find("tid");
    if (name == nullptr || !name->is_string()) return fail(at + " missing name");
    if (ph == nullptr || !ph->is_string()) return fail(at + " missing ph");
    if (pid == nullptr || !pid->is_number()) return fail(at + " missing pid");
    if (tid == nullptr || !tid->is_number()) return fail(at + " missing tid");
    tid_set.insert(static_cast<std::int64_t>(tid->as_number()));
    const std::string& phase = ph->as_string();
    if (phase == "M") continue;  // metadata events carry no cat/ts
    if (phase != "X" && phase != "i") {
      return fail(at + " has unexpected ph '" + phase + "'");
    }
    const JsonValue* cat = ev.find("cat");
    const JsonValue* ts = ev.find("ts");
    if (cat == nullptr || !cat->is_string()) return fail(at + " missing cat");
    if (ts == nullptr || !ts->is_number()) return fail(at + " missing ts");
    if (ts->as_number() < 0) return fail(at + " has negative ts");
    if (phase == "X") {
      const JsonValue* dur = ev.find("dur");
      if (dur == nullptr || !dur->is_number()) return fail(at + " missing dur");
      if (dur->as_number() < 0) return fail(at + " has negative dur");
      cats.insert(cat->as_string());
    }
  }
  if (span_categories != nullptr) {
    span_categories->assign(cats.begin(), cats.end());
  }
  if (tids != nullptr) tids->assign(tid_set.begin(), tid_set.end());
  return true;
}

}  // namespace rapids
