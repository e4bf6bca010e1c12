/// exa_perfbench — the exaready host-time benchmark program.
///
/// Runs one named workload through the library's public entry points,
/// verifies every simulated result it produced, and prints one JSON result
/// line (see README.md for the metrics and why each workload exists):
///
///   exa_perfbench --workload campaign_grid|svc_stream|engine_ring
///                 --seed N --seconds S --trace 0|1
///                 [--spans PATH] [--commit ID] [--tiny]
///                 [--expect-pinned HEX] [--expect-digest HEX]
///
/// With --trace 0 the result carries the end-to-end metrics. With --trace 1
/// the benchmark also records spans around every call it makes into the
/// library, adds an untimed replay pass that splits `svc::run` host time
/// into its net and io parts, and the result carries the per-layer
/// metrics. Spans stay in memory and are written (Chrome trace_event
/// JSON) to --spans when the run ends.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/pele/driver.hpp"
#include "arch/machine.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "io/checkpoint.hpp"
#include "io/io_model.hpp"
#include "net/engine.hpp"
#include "net/fabric.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "svc/scenario.hpp"
#include "svc/server.hpp"

namespace {

using namespace exa;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The seed whose workload digests perfbench/digests.json records.
constexpr std::uint64_t kDefaultSeed = 1;

/// Setup is repeated this many times per run and reported as the median,
/// so one slow page-fault storm or thread spawn does not set `setup_s`.
constexpr int kSetupRepeats = 15;

// ---------------------------------------------------------------------------
// Command line

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;
  std::string commit = "unknown";
  std::string expect_pinned;
  std::string expect_digest;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      std::size_t used = 0;
      opt.seed = std::stoull(value, &used);
      if (used != value.size()) throw std::runtime_error("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
      if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
        throw std::runtime_error("--seconds must be in (0, 600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::runtime_error("--trace must be 0 or 1");
      }
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else if (flag == "--commit") {
      opt.commit = value;
    } else if (flag == "--expect-pinned") {
      opt.expect_pinned = value;
    } else if (flag == "--expect-digest") {
      opt.expect_digest = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    throw std::runtime_error(
        "usage: exa_perfbench --workload W --seed N --seconds S --trace 0|1 "
        "[--spans PATH] [--commit ID] [--tiny] [--expect-pinned HEX] "
        "[--expect-digest HEX]");
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Host facts

/// CPUs this process may run on (what `nproc` prints).
std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Workers for a support::ThreadPool that should keep `cpus` threads busy:
/// the thread that submits work to the pool runs chunks too.
std::size_t pool_workers(std::size_t cpus) { return cpus > 1 ? cpus - 1 : 1; }

/// Peak resident set size so far. Workloads read it right after their timed
/// region, before verification and replay add their own allocations.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string host_name() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

// ---------------------------------------------------------------------------
// Statistics

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Virtual-time digest: FNV-1a over %.17g renderings, so any change to a
// simulated number, however small, changes the digest.

class Digest {
 public:
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ull;
    }
    hash_ ^= 0xff;  // field separator
    hash_ *= 0x100000001b3ull;
  }
  void add(double x) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    add(std::string(buf));
  }
  void add_report(const svc::Report& r) {
    add(r.scenario.key());
    for (const auto& [name, value] : r.metrics) {
      add(name);
      add(value);
    }
    add(r.time_s);
    add(r.fom);
  }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Bitwise report equality: same scenario key, same metric names, and every
/// double identical to the bit.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool bitwise_equal(const svc::Report& a, const svc::Report& b) {
  if (a.scenario.key() != b.scenario.key()) return false;
  if (!same_bits(a.time_s, b.time_s) || !same_bits(a.fom, b.fom)) return false;
  if (a.metrics.size() != b.metrics.size()) return false;
  for (auto ia = a.metrics.begin(), ib = b.metrics.begin();
       ia != a.metrics.end(); ++ia, ++ib) {
    if (ia->first != ib->first || !same_bits(ia->second, ib->second)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans: recorded by the benchmark around its calls into the library, kept
// in memory, written once at the end. A disabled log records nothing and
// costs one branch per span.

struct SpanRecord {
  const char* name = "";
  std::string arg;  ///< app name or other detail ("" when none)
  double value = 0.0;  ///< payload size for io spans (bytes), else 0
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int tid = 0;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  std::uint64_t next_id() { return next_id_.fetch_add(1); }
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  void record(SpanRecord span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }
  [[nodiscard]] std::vector<SpanRecord> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

class Span {
 public:
  Span(SpanLog& log, const char* name, std::uint64_t parent = 0,
       std::string arg = {})
      : log_(log) {
    if (!log_.enabled()) return;
    record_.name = name;
    record_.arg = std::move(arg);
    record_.id = log_.next_id();
    record_.parent = parent;
    record_.tid = thread_index();
    record_.start_ns = log_.ns(Clock::now());
  }
  ~Span() {
    if (!log_.enabled()) return;
    record_.end_ns = log_.ns(Clock::now());
    log_.record(std::move(record_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  [[nodiscard]] std::uint64_t id() const { return record_.id; }
  void set_value(double value) { record_.value = value; }

 private:
  SpanLog& log_;
  SpanRecord record_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double x) {
  if (!std::isfinite(x)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

/// Writes the spans as Chrome trace_event JSON (complete "X" events, one
/// lane per recording thread, parent ids in args).
void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (const SpanRecord& s : spans) {
    out << (first ? "\n" : ",\n");
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                  s.tid, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << "{\"name\":\"" << s.name << "\"," << buf << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << ",\"arg\":\""
        << json_escape(s.arg) << "\"}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing spans to " + path);
}

/// Per span name: count, total seconds, and self seconds: duration minus
/// the part its children cover on the parent's own thread (children there
/// run one after another, so their clipped durations add up; children on
/// pool threads run beside the parent and do not reduce its self time).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

std::map<std::string, SpanTotals> span_totals(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, double> child_s;
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  for (const SpanRecord& s : spans) {
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const SpanRecord& p = *it->second;
    if (p.tid != s.tid) continue;
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) child_s[p.id] += static_cast<double>(hi - lo) * 1e-9;
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_s += s.seconds();
    t.self_s += s.seconds() - child_s[s.id];
  }
  return totals;
}

std::vector<double> span_seconds(const std::vector<SpanRecord>& spans,
                                 const char* name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.seconds());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Result accumulation

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< verification failures (any => incorrect)
  std::string digest;               ///< virtual-time digest of this run
  std::string pinned_digest;        ///< seed-independent digest
  std::vector<Metric> end_to_end;
  /// Per-layer values by name; a layer metric the workload does not reach
  /// is reported as 0 (see per_layer_metrics).
  std::map<std::string, double> layer;
  std::vector<Metric> info;  ///< extra record fields (sample counts, ...)

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Runs `make` kSetupRepeats times and returns the median wall seconds;
/// `keep` receives the last product.
template <typename T, typename Make>
double timed_setup(Make make, std::optional<T>& keep) {
  std::vector<double> walls;
  for (int i = 0; i < kSetupRepeats; ++i) {
    keep.reset();
    const auto t0 = Clock::now();
    keep.emplace(make());
    walls.push_back(seconds_between(t0, Clock::now()));
  }
  return median(walls);
}

// ---------------------------------------------------------------------------
// Replay: for each distinct scenario, svc::run and then the lower-layer
// public calls that the scenario's documented inputs determine. Untimed
// with respect to the end-to-end metrics; its spans give the per-layer split.

/// The io::checkpoint_time call a scenario's svc::run makes, as its
/// documented inputs determine it: GESTS dumps its N^3*16/P field share
/// and Pele its plotfile share (PeleConfig defaults) under every preset;
/// the other apps price checkpoint_bytes_per_rank when the preset is not
/// quiet. Empty when the scenario makes no io call.
struct IoCall {
  int ranks = 0;
  double bytes_per_rank = 0.0;
};

double param_or(const svc::Scenario& s, const std::string& name,
                double fallback) {
  const auto it = s.params.find(name);
  return it == s.params.end() ? fallback : it->second;
}

std::optional<IoCall> io_call_of(const svc::Scenario& s,
                                 const arch::Machine& machine) {
  const int per_node = std::max(1, machine.node.gpus_per_node);
  const int ranks = s.nodes * per_node;
  switch (s.app) {
    case svc::App::kGests: {
      const double n = param_or(s, "n", 8192.0);
      return IoCall{ranks, n * n * n * 16.0 / ranks};
    }
    case svc::App::kPele: {
      const apps::pele::PeleConfig config;
      if (config.plotfile_interval <= 0) return std::nullopt;
      const int devices =
          machine.node.has_gpu() ? machine.node.gpus_per_node : 1;
      const int pele_ranks = s.nodes * devices;
      const double cells = static_cast<double>(config.cells_per_node) * s.nodes;
      return IoCall{pele_ranks,
                    cells * config.plotfile_bytes_per_cell / pele_ranks};
    }
    default:
      if (s.io_preset == "quiet") return std::nullopt;
      return IoCall{ranks, param_or(s, "checkpoint_bytes_per_rank",
                                    256.0 * 1024 * 1024)};
  }
}

/// Returns the svc::run report of each scenario, in input order.
std::vector<svc::Report> replay(const std::vector<svc::Scenario>& scenarios,
                                support::ThreadPool& pool, SpanLog& log) {
  std::vector<svc::Report> reports(scenarios.size());
  Span root(log, "replay");
  const std::uint64_t root_id = root.id();
  pool.for_each(
      0, scenarios.size(),
      [&](std::size_t i) {
        const svc::Scenario& s = scenarios[i];
        const std::string app = svc::to_string(s.app);
        Span scenario_span(log, "replay.scenario", root_id, app);
        const std::uint64_t sid = scenario_span.id();
        {
          Span span(log, "svc.run", sid, app);
          reports[i] = svc::run(s);
        }
        std::optional<arch::Machine> machine;
        {
          Span span(log, "arch.by_name", sid, app);
          machine.emplace(arch::machines::by_name(s.machine));
        }
        {
          Span span(log, "net.Fabric", sid, app);
          const net::Fabric fabric(*machine,
                                   std::max(1, machine->node.gpus_per_node),
                                   s.fabric_config());
        }
        if (const auto call = io_call_of(s, *machine)) {
          Span span(log, "io.checkpoint_time", sid, app);
          span.set_value(call->bytes_per_rank * call->ranks);
          (void)io::checkpoint_time(io::IoConfig::preset(s.io_preset),
                                    call->ranks, call->bytes_per_rank);
        }
      },
      /*grain=*/1);
  return reports;
}

const std::vector<std::string>& app_names() {
  static const std::vector<std::string> names = {
      "pele", "gests", "lammps", "comet", "exasky", "sparse_cg"};
  return names;
}

/// Every per-layer metric, in print order, with its unit. A traced run of
/// any workload prints all of them; one whose layer the workload does not
/// reach reads 0 (e.g. campaign.* on engine_ring, net.engine_* on
/// svc_stream), which is itself the separation the workloads exist for.
std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"campaign.expand_ms", "ms"},     {"campaign.run_s", "s"},
      {"campaign.executed", "count"},   {"campaign.dedupe_hits", "count"},
      {"svc.submit_us", "us"},          {"svc.peak_queue_depth", "count"},
      {"svc.executed", "count"},        {"svc.dedupe_hits", "count"},
      {"svc.dedupe_ratio", "ratio"},    {"svc.generator_late_p99_ms", "ms"},
  };
  for (const std::string& app : app_names()) {
    m.emplace_back("svc.run_ms." + app, "ms");
  }
  for (const std::string& app : app_names()) {
    m.emplace_back("apps." + app + ".self_ms", "ms");
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"net.fabric_build_us", "us"},    {"net.fabric_build_share", "ratio"},
      {"net.engine_serial_s", "s"},     {"net.engine_speedup", "ratio"},
      {"net.engine_windows", "count"},  {"net.engine_events", "count"},
      {"net.engine_messages", "count"}, {"net.engine_retries", "count"},
      {"io.checkpoint_ms", "ms"},       {"io.bytes_per_host_s", "B/s"},
      {"io.share", "ratio"},            {"trace.spans", "count"},
      {"trace.overhead_ms", "ms"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Per-layer metrics derived from the replay spans: svc.run per app, apps
/// self time (svc::run minus Fabric build minus io), Fabric build, io.
void replay_metrics(const std::vector<SpanRecord>& spans, Outcome& out) {
  struct PerScenario {
    std::string app;
    double run_s = 0.0;
    double fabric_s = 0.0;
    double io_s = 0.0;
    double io_bytes = 0.0;
    bool has_io = false;
  };
  std::unordered_map<std::uint64_t, PerScenario> by_scenario;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, "replay.scenario") == 0) {
      by_scenario[s.id].app = s.arg;
    }
  }
  for (const SpanRecord& s : spans) {
    const auto it = by_scenario.find(s.parent);
    if (it == by_scenario.end()) continue;
    PerScenario& p = it->second;
    if (std::strcmp(s.name, "svc.run") == 0) {
      p.run_s = s.seconds();
    } else if (std::strcmp(s.name, "net.Fabric") == 0) {
      p.fabric_s = s.seconds();
    } else if (std::strcmp(s.name, "io.checkpoint_time") == 0) {
      p.io_s = s.seconds();
      p.has_io = true;
      p.io_bytes = s.value;
    }
  }
  double run_total = 0.0;
  double fabric_total = 0.0;
  double io_total = 0.0;
  double io_bytes = 0.0;
  std::vector<double> fabric_each;
  std::vector<double> io_each;
  std::map<std::string, std::vector<double>> run_by_app;
  std::map<std::string, std::vector<double>> self_by_app;
  for (const auto& [id, p] : by_scenario) {
    (void)id;
    run_total += p.run_s;
    fabric_total += p.fabric_s;
    fabric_each.push_back(p.fabric_s);
    run_by_app[p.app].push_back(p.run_s);
    self_by_app[p.app].push_back(p.run_s - p.fabric_s - p.io_s);
    if (p.has_io) {
      io_total += p.io_s;
      io_bytes += p.io_bytes;
      io_each.push_back(p.io_s);
    }
  }
  for (const std::string& app : app_names()) {
    out.layer["svc.run_ms." + app] = mean(run_by_app[app]) * 1e3;
  }
  for (const std::string& app : app_names()) {
    out.layer["apps." + app + ".self_ms"] = mean(self_by_app[app]) * 1e3;
  }
  out.layer["net.fabric_build_us"] = mean(fabric_each) * 1e6;
  out.layer["net.fabric_build_share"] = run_total > 0.0 ? fabric_total / run_total : 0.0;
  out.layer["io.checkpoint_ms"] = mean(io_each) * 1e3;
  out.layer["io.bytes_per_host_s"] = io_total > 0.0 ? io_bytes / io_total : 0.0;
  out.layer["io.share"] = run_total > 0.0 ? io_total / run_total : 0.0;
  out.info.push_back({"replay.scenarios",
                      static_cast<double>(by_scenario.size()), "count"});
  out.info.push_back({"replay.svc_run_s", run_total, "s"});
  out.info.push_back({"replay.fabric_s", fabric_total, "s"});
  out.info.push_back({"replay.io_s", io_total, "s"});
}

/// Compares every report bitwise with the reference report of its
/// scenario key; each mismatch counts as a failed job.
void verify_reports(const std::vector<svc::Report>& reports,
                    const std::vector<svc::Report>& references, Outcome& out) {
  std::unordered_map<std::string, const svc::Report*> refs;
  for (const svc::Report& r : references) refs.emplace(r.scenario.key(), &r);
  for (const svc::Report& r : reports) {
    const auto it = refs.find(r.scenario.key());
    if (it == refs.end() || !bitwise_equal(r, *it->second)) {
      ++out.failed;
      out.check(false, "report differs from svc::run: " + r.scenario.key());
    }
  }
}

/// svc::run over `scenarios` on the pool (no spans): the verification
/// oracle of untraced runs and the pinned-digest inputs.
std::vector<svc::Report> run_all(const std::vector<svc::Scenario>& scenarios,
                                 support::ThreadPool& pool) {
  std::vector<svc::Report> reports(scenarios.size());
  pool.for_each(
      0, scenarios.size(),
      [&](std::size_t i) { reports[i] = svc::run(scenarios[i]); },
      /*grain=*/1);
  return reports;
}

std::string digest_of(const std::vector<svc::Report>& reports) {
  Digest d;
  for (const svc::Report& r : reports) d.add_report(r);
  return d.hex();
}

/// Every `stride`-th scenario of a list, at most `limit` of them.
std::vector<svc::Scenario> every_nth(const std::vector<svc::Scenario>& all,
                                     std::size_t limit) {
  std::vector<svc::Scenario> out;
  const std::size_t stride = std::max<std::size_t>(1, all.size() / limit);
  for (std::size_t i = 0; i < all.size() && out.size() < limit; i += stride) {
    out.push_back(all[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workload: campaign_grid

/// The campaign JSON for a seed. The seed picks per-app parameters that
/// change simulated results but not the amount of host work (the sparse_cg
/// grid stays at its default 16: CG host cost grows as grid^4, and a seed
/// must not change how much work a run measures).
std::string campaign_json(std::uint64_t seed, bool tiny) {
  support::Rng rng(seed ^ 0xc4a9'9a16'0000'0001ull);
  const auto num = [](double x) { return json_number(x); };
  const std::string lammps_seed = std::to_string(rng.uniform_int(1, 1 << 30));
  const std::string atoms = num(std::round(rng.uniform(1.5e5, 2.5e5)));
  const std::string tol = num(std::pow(10.0, rng.uniform(-9.0, -8.0)));
  const std::string rows = num(std::round(rng.uniform(5e5, 2e6)));
  const std::string particles = num(std::round(rng.uniform(3e7, 5e7)));
  const std::string samples = num(std::round(rng.uniform(8e4, 1.2e5)));
  const std::string ckpt = "\"checkpoint_bytes_per_rank\": [4194304]";
  std::string json = "{\n  \"name\": \"perfbench_campaign_grid\",\n";
  if (tiny) {
    json += "  \"machines\": [\"frontier\"],\n"
            "  \"apps\": [\"pele\", \"gests\", \"lammps\", \"comet\", "
            "\"exasky\", \"sparse_cg\"],\n"
            "  \"nodes\": [1, 2],\n  \"io\": [\"quiet\", \"lustre\"],\n"
            "  \"fault\": {\"straggler_fraction\": [0.0, 0.0625], "
            "\"straggler_slowdown\": [1.0, 4.0]},\n";
  } else {
    json += "  \"machines\": [\"frontier\", \"wombat\", \"summit\"],\n"
            "  \"apps\": [\"pele\", \"gests\", \"lammps\", \"comet\", "
            "\"exasky\", \"sparse_cg\"],\n"
            "  \"nodes\": [1, 2, 4, 8, 16],\n"
            "  \"io\": [\"quiet\", \"lustre\"],\n"
            "  \"topology\": [\"fattree\", \"dragonfly\"],\n"
            "  \"congestion\": [false, true],\n"
            "  \"fault\": {\"straggler_fraction\": [0.0, 0.0625], "
            "\"straggler_slowdown\": [1.0, 4.0]},\n";
  }
  json += "  \"params\": {\n"
          "    \"pele\": {" + ckpt + "},\n"
          "    \"gests\": {\"n\": [1024], " + ckpt + "},\n"
          "    \"lammps\": {\"seed\": [" + lammps_seed + "], "
          "\"atoms_per_rank\": [" + atoms + "], " + ckpt + "},\n"
          "    \"comet\": {\"samples\": [" + samples + "], " + ckpt + "},\n"
          "    \"exasky\": {\"particles_per_rank\": [" + particles + "], " +
          ckpt + "},\n"
          "    \"sparse_cg\": {\"tol\": [" + tol + "], \"rows_per_rank\": [" +
          rows + "], " + ckpt + "}\n"
          "  }\n}\n";
  return json;
}

struct CampaignSetup {
  campaign::CampaignSpec spec;
  std::vector<svc::Scenario> grid;
  campaign::CampaignRunner runner;
};

void campaign_grid(const Options& opt, std::size_t cpus, SpanLog& log,
                   Outcome& out) {
  const std::string json = campaign_json(opt.seed, opt.tiny);
  std::optional<CampaignSetup> setup;
  const double setup_s = timed_setup<CampaignSetup>(
      [&] {
        Span span(log, "bench.setup");
        {
          Span s(log, "arch.by_name", span.id());
          for (const char* m : {"frontier", "wombat", "summit"}) {
            (void)arch::machines::by_name(m);
          }
        }
        std::optional<campaign::CampaignSpec> spec;
        {
          Span s(log, "campaign.parse_campaign", span.id());
          spec.emplace(campaign::parse_campaign(json));
        }
        std::vector<svc::Scenario> grid;
        {
          Span s(log, "campaign.expand_grid", span.id());
          grid = campaign::expand_grid(*spec);
        }
        campaign::RunnerConfig config;
        config.workers = cpus;
        return CampaignSetup{std::move(*spec), std::move(grid),
                             campaign::CampaignRunner(config)};
      },
      setup);

  // Ledger expectations derived independently of the server.
  std::vector<svc::Scenario> distinct;
  std::set<std::string> seen;
  for (const svc::Scenario& s : setup->grid) {
    if (seen.insert(s.key()).second) distinct.push_back(s);
  }
  const std::uint64_t grid = setup->grid.size();

  std::vector<double> walls;
  std::string digest;
  campaign::CampaignResult last;
  const auto t_end = Clock::now() + std::chrono::duration<double>(opt.seconds);
  do {
    const auto t0 = Clock::now();
    campaign::CampaignResult result;
    {
      Span span(log, "campaign.CampaignRunner::run");
      result = setup->runner.run(setup->spec);
    }
    walls.push_back(seconds_between(t0, Clock::now()));
    out.attempted += grid;

    // Ledger identities (untimed).
    const bool ledger_ok =
        result.grid_size == grid && result.submitted == grid &&
        result.completed == grid && result.reports.size() == grid &&
        result.dedupe_hits == grid - result.executed &&
        result.executed == distinct.size();
    out.check(ledger_ok, "campaign ledger identities violated");
    out.failed += grid - std::min<std::uint64_t>(grid, result.completed);
    Digest d;
    d.add(static_cast<double>(result.executed));
    d.add(static_cast<double>(result.dedupe_hits));
    for (const svc::Report& r : result.reports) d.add_report(r);
    if (digest.empty()) digest = d.hex();
    out.check(d.hex() == digest, "campaign reports differ between repetitions");
    last = std::move(result);
  } while (Clock::now() < t_end);
  out.info.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  out.digest = digest;

  support::ThreadPool pool(pool_workers(cpus));
  if (log.enabled()) {
    // Replay every distinct scenario; the replay doubles as a full
    // bitwise check of the last repetition's reports.
    verify_reports(last.reports, replay(distinct, pool, log), out);
  } else {
    // A seeded sample of grid points against direct svc::run.
    support::Rng rng(opt.seed ^ 0x5a3d'1e00'0000'0002ull);
    std::vector<svc::Scenario> sample;
    std::vector<svc::Report> picked;
    for (int i = 0; i < 48; ++i) {
      const auto k = static_cast<std::size_t>(rng.uniform_u64(grid));
      sample.push_back(setup->grid[k]);
      picked.push_back(last.reports[k]);
    }
    verify_reports(picked, run_all(sample, pool), out);
  }

  // Seed-independent virtual-time pin: a fixed slice of the default-seed grid.
  const std::vector<svc::Scenario> pinned = every_nth(
      campaign::expand_grid(campaign::parse_campaign(
          campaign_json(kDefaultSeed, false))),
      24);
  out.pinned_digest = digest_of(run_all(pinned, pool));

  const double wall = median(walls);
  out.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"throughput_per_s", static_cast<double>(grid) / wall, "1/s"},
      {"latency_ms", wall * 1e3, "ms"},
  };
  out.info.push_back({"latency_p50_ms", wall * 1e3, "ms"});
  out.info.push_back({"latency_p99_ms", quantile(walls, 0.99) * 1e3, "ms"});
  out.info.push_back({"samples", static_cast<double>(walls.size()), "count"});
  out.info.push_back({"grid_points", static_cast<double>(grid), "count"});

  if (log.enabled()) {
    const std::vector<SpanRecord> spans = log.snapshot();
    out.layer["campaign.expand_ms"] = median(span_seconds(spans, "campaign.expand_grid")) * 1e3;
    out.layer["campaign.run_s"] = median(span_seconds(spans, "campaign.CampaignRunner::run"));
    out.layer["campaign.executed"] = static_cast<double>(last.executed);
    out.layer["campaign.dedupe_hits"] = static_cast<double>(last.dedupe_hits);
    // The campaign's private server is not reachable from outside; its
    // ledger is the campaign ledger, and its queue is not observable.
    out.layer["svc.executed"] = static_cast<double>(last.executed);
    out.layer["svc.dedupe_hits"] = static_cast<double>(last.dedupe_hits);
    out.layer["svc.dedupe_ratio"] = static_cast<double>(last.dedupe_hits) / static_cast<double>(grid);
    replay_metrics(spans, out);
  }
}

// ---------------------------------------------------------------------------
// Workload: svc_stream

/// Arrival rate of the open loop: about a quarter of the capacity of a
/// server with three workers on this job mix (about 200 jobs/s, measured on
/// a 4-vCPU x86-64 VM). At half capacity, queueing turned the host's
/// run-to-run CPU-speed swings (about 8 %) into 40-60 % swings of the
/// median latency across seeds, more than any bound can absorb.
constexpr double kStreamRatePerS = 50.0;

struct StreamJob {
  double due_s = 0.0;  ///< offset from the stream start
  svc::Scenario scenario;
  bool repeat = false;
};

/// The `k`-th fresh scenario of the mix. Every seed offers the same work:
/// the mix is a fixed cycle of job classes, and within a class the node
/// counts (16-64) and fabric knobs follow a golden-ratio sequence from a
/// seeded phase, so each class sees a near-uniform spread of sizes rather
/// than a random draw. The classes: 40 % GESTS field dumps cycling n
/// {4096, 4096, 8192} x io {quiet, lustre, quiet, lustre, bb}; the rest
/// cycling exasky, comet, lammps and sparse_cg x io {lustre, lustre,
/// lustre, bb} x checkpoint_bytes_per_rank {256 MiB, 4 GB} (4 GB is not a
/// multiple of the 1 MiB stripe, deliberately). Burst-buffer writes finish
/// in a few ms like cache hits; weighting bb at a fifth and a quarter keeps
/// most svc::run host time in the stripe walk. `phases` holds one
/// seeded phase per class; app parameters that only keep keys distinct are
/// drawn from `rng`.
constexpr std::size_t kGestsClasses = 15;
constexpr std::size_t kOtherClasses = 32;

svc::Scenario fresh_scenario(std::size_t k, std::size_t fresh_total,
                             const std::vector<double>& phases,
                             support::Rng& rng) {
  static const char* gests_io[] = {"quiet", "lustre", "quiet", "lustre", "bb"};
  static const char* other_io[] = {"lustre", "lustre", "lustre", "bb"};
  static const svc::App apps[] = {svc::App::kExaSky, svc::App::kComet,
                                  svc::App::kLammps, svc::App::kSparseCg};
  const std::size_t gests_total = (fresh_total * 40 + 50) / 100;
  const bool gests = k < gests_total;
  const std::size_t j = gests ? k : k - gests_total;
  const std::size_t cls = gests ? j % kGestsClasses
                                : kGestsClasses + j % kOtherClasses;
  const std::size_t m = j / (gests ? kGestsClasses : kOtherClasses);
  const double x =
      std::fmod(phases[cls] + 0.6180339887498949 * static_cast<double>(m), 1.0);
  svc::Scenario s;
  s.machine = "frontier";
  s.nodes = 16 + static_cast<int>(x * 49.0);
  const auto knobs = static_cast<std::size_t>(phases[cls] * 4.0) + m;
  s.topology = knobs % 2 == 0 ? "fattree" : "dragonfly";
  s.congestion = (knobs / 2) % 2 == 1;
  if (gests) {
    s.app = svc::App::kGests;
    s.params["n"] = j % 3 == 2 ? 8192.0 : 4096.0;
    s.io_preset = gests_io[j % 5];
    return s;
  }
  s.app = apps[j % 4];
  s.io_preset = other_io[(j / 4) % 4];
  s.params["checkpoint_bytes_per_rank"] =
      (j / 16) % 2 == 0 ? 256.0 * 1024 * 1024 : 4.0e9;
  switch (s.app) {
    case svc::App::kExaSky:
      s.params["particles_per_rank"] = std::round(rng.uniform(3e7, 5e7));
      break;
    case svc::App::kComet:
      s.params["samples"] = std::round(rng.uniform(8e4, 1.2e5));
      break;
    case svc::App::kLammps:
      s.params["seed"] = static_cast<double>(rng.uniform_int(1, 1 << 30));
      break;
    default:
      s.params["tol"] = std::pow(10.0, rng.uniform(-9.0, -8.0));
      s.params["rows_per_rank"] = std::round(rng.uniform(5e5, 2e6));
      break;
  }
  return s;
}

template <typename T>
void shuffle(std::vector<T>& v, support::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_u64(i)]);
  }
}

/// The job stream for a seed: `count` arrivals of a Poisson process
/// conditioned on `count` arrivals in [0, window) (exponential gaps,
/// rescaled). Exactly 30 % of the jobs (never the first) repeat an earlier
/// job's scenario; the fresh ones are the balanced mix above, shuffled.
std::vector<StreamJob> stream_jobs(std::uint64_t seed, std::size_t count,
                                   double window_s) {
  support::Rng rng(seed ^ 0x57ea'0000'0000'0003ull);
  std::vector<double> gaps(count + 1);
  double total = 0.0;
  for (double& g : gaps) {
    g = -std::log(1.0 - rng.uniform());
    total += g;
  }
  const std::size_t repeats = count > 1 ? (count * 3 + 5) / 10 : 0;
  std::vector<unsigned char> is_repeat(count, 0);
  std::fill(is_repeat.begin() + 1, is_repeat.begin() + 1 + repeats, 1);
  std::vector<unsigned char> tail(is_repeat.begin() + 1, is_repeat.end());
  shuffle(tail, rng);
  std::copy(tail.begin(), tail.end(), is_repeat.begin() + 1);

  const std::size_t fresh_total = count - repeats;
  std::vector<double> phases(kGestsClasses + kOtherClasses);
  for (double& phase : phases) phase = rng.uniform();
  std::vector<svc::Scenario> fresh;
  std::set<std::string> keys;
  for (std::size_t k = 0; k < fresh_total; ++k) {
    svc::Scenario s = fresh_scenario(k, fresh_total, phases, rng);
    // A GESTS class has 196 distinct (nodes, topology, congestion) points;
    // on a collision, step to the next node count.
    for (int step = 0; step < 49 && !keys.insert(s.key()).second; ++step) {
      s.nodes = 16 + (s.nodes - 16 + 1) % 49;
    }
    fresh.push_back(std::move(s));
  }
  shuffle(fresh, rng);

  std::vector<StreamJob> jobs(count);
  std::size_t next_fresh = 0;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += gaps[i];
    jobs[i].due_s = window_s * t / total;
    jobs[i].repeat = is_repeat[i] != 0;
    jobs[i].scenario = jobs[i].repeat ? jobs[rng.uniform_u64(i)].scenario
                                    : fresh[next_fresh++];
  }
  return jobs;
}

void svc_stream(const Options& opt, std::size_t cpus, SpanLog& log,
                Outcome& out) {
  const double rate = opt.tiny ? 20.0 : kStreamRatePerS;
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::round(rate * opt.seconds)));
  const std::vector<StreamJob> jobs = stream_jobs(opt.seed, count, opt.seconds);
  const std::size_t workers = std::max<std::size_t>(1, cpus - 1);

  std::optional<std::unique_ptr<svc::Server>> server_slot;
  const double setup_s = timed_setup<std::unique_ptr<svc::Server>>(
      [&] {
        Span span(log, "bench.setup");
        {
          Span s(log, "arch.by_name", span.id());
          (void)arch::machines::by_name("frontier");
        }
        Span s(log, "svc.Server", span.id());
        svc::ServerConfig config;
        config.workers = workers;
        return std::make_unique<svc::Server>(config);
      },
      server_slot);
  std::unique_ptr<svc::Server> server = std::move(*server_slot);

  // Open loop: this thread is the generator. Between arrivals it polls the
  // server's ledger and stamps each job when it is first seen terminal, so
  // a job's latency runs from its due time to its terminal state.
  std::vector<svc::JobId> ids(count, 0);
  std::vector<double> late_s(count, 0.0);
  std::vector<double> done_s(count, -1.0);  // offset from stream start
  std::vector<std::size_t> outstanding;
  std::uint64_t seen_terminal = 0;
  std::size_t peak_outstanding = 0;
  const auto poll = std::chrono::microseconds(200);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto since_start = [&](Clock::time_point t) {
    return seconds_between(start, t);
  };
  const auto sweep = [&] {
    const svc::ServerStats st = server->stats();
    const std::uint64_t terminal = st.completed + st.cancelled;
    if (terminal == seen_terminal) return;
    seen_terminal = terminal;
    std::size_t keep = 0;
    for (const std::size_t i : outstanding) {
      const svc::JobState state = server->status(ids[i]).state;
      if (state == svc::JobState::kCompleted ||
          state == svc::JobState::kCancelled) {
        done_s[i] = since_start(Clock::now());
      } else {
        outstanding[keep++] = i;
      }
    }
    outstanding.resize(keep);
  };

  for (std::size_t i = 0; i < count; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(jobs[i].due_s));
    for (auto now = Clock::now(); now < due; now = Clock::now()) {
      sweep();
      std::this_thread::sleep_until(std::min(due, Clock::now() + poll));
    }
    late_s[i] = seconds_between(due, Clock::now());
    {
      Span span(log, "svc.Server::submit", 0,
                svc::to_string(jobs[i].scenario.app));
      ids[i] = server->submit(jobs[i].scenario);
    }
    outstanding.push_back(i);
    peak_outstanding = std::max(peak_outstanding, outstanding.size());
  }
  while (!outstanding.empty()) {
    sweep();
    if (!outstanding.empty()) std::this_thread::sleep_for(poll);
  }
  out.info.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  const double makespan_s = *std::max_element(done_s.begin(), done_s.end());

  std::vector<svc::Report> reports;
  reports.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Span span(log, "svc.Server::wait");
    svc::JobStatus status = server->wait(ids[i]);
    if (status.state != svc::JobState::kCompleted) {
      ++out.failed;
      out.check(false, "job " + std::to_string(i) + " ended " +
                           svc::to_string(status.state) + " " + status.error);
    }
    reports.push_back(std::move(status.report));
  }
  svc::ServerStats st;
  {
    Span span(log, "svc.Server::stats");
    st = server->stats();
  }
  server.reset();
  out.attempted = count;

  std::set<std::string> distinct_keys;
  std::vector<svc::Scenario> distinct;
  for (const StreamJob& j : jobs) {
    if (distinct_keys.insert(j.scenario.key()).second) {
      distinct.push_back(j.scenario);
    }
  }
  out.check(st.submitted == count && st.completed == count &&
                st.cancelled == 0 && st.executed == distinct.size() &&
                st.dedupe_hits == count - distinct.size(),
            "svc ledger identities violated");

  // Every report against svc::run of its scenario.
  support::ThreadPool pool(pool_workers(cpus));
  verify_reports(reports,
                 log.enabled() ? replay(distinct, pool, log)
                               : run_all(distinct, pool),
                 out);
  out.digest = digest_of(reports);

  // Generator validity: a generator that fell behind its schedule did not
  // offer the load the workload defines.
  const double late_p99 = quantile(late_s, 0.99);
  const double late_max = *std::max_element(late_s.begin(), late_s.end());
  out.check(late_p99 <= 0.010 && late_max <= 0.250,
            "generator fell behind its schedule (p99 lateness " +
                json_number(late_p99 * 1e3) + " ms, max " +
                json_number(late_max * 1e3) + " ms)");

  std::vector<double> latency_s(count);
  for (std::size_t i = 0; i < count; ++i) {
    latency_s[i] = done_s[i] - jobs[i].due_s;
  }
  out.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"throughput_per_s",
       static_cast<double>(count) / (makespan_s - jobs.front().due_s), "1/s"},
      {"latency_ms", quantile(latency_s, 0.99) * 1e3, "ms"},
  };
  out.info.push_back({"latency_p50_ms", quantile(latency_s, 0.5) * 1e3, "ms"});
  out.info.push_back({"latency_p99_ms", quantile(latency_s, 0.99) * 1e3, "ms"});
  out.info.push_back({"samples", static_cast<double>(count), "count"});
  out.info.push_back({"rate_per_s", rate, "1/s"});
  out.info.push_back({"generator_late_p99_ms", late_p99 * 1e3, "ms"});
  out.info.push_back({"generator_late_max_ms", late_max * 1e3, "ms"});
  out.info.push_back({"peak_outstanding", static_cast<double>(peak_outstanding),
                      "count"});

  // Seed-independent pin: the first distinct scenarios of the default seed.
  std::vector<svc::Scenario> pinned;
  for (const StreamJob& j : stream_jobs(kDefaultSeed, 64, 1.0)) {
    if (!j.repeat && pinned.size() < 24) pinned.push_back(j.scenario);
  }
  out.pinned_digest = digest_of(run_all(pinned, pool));

  if (log.enabled()) {
    const std::vector<SpanRecord> spans = log.snapshot();
    out.layer["svc.submit_us"] = median(span_seconds(spans, "svc.Server::submit")) * 1e6;
    out.layer["svc.peak_queue_depth"] = static_cast<double>(st.peak_queue_depth);
    out.layer["svc.executed"] = static_cast<double>(st.executed);
    out.layer["svc.dedupe_hits"] = static_cast<double>(st.dedupe_hits);
    out.layer["svc.dedupe_ratio"] = static_cast<double>(st.dedupe_hits) / static_cast<double>(count);
    out.layer["svc.generator_late_p99_ms"] = late_p99 * 1e3;
    replay_metrics(spans, out);
  }
}

// ---------------------------------------------------------------------------
// Workload: engine_ring

/// The ring programs of bench/fabric_engine at benchmark scale: jittered
/// compute, a shifting ring of tagged sends/recvs whose distances cross
/// shard boundaries, message sizes cycling through 7 classes.
std::vector<std::vector<net::RankOp>> ring_programs(int ranks, int rounds,
                                                    std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<std::vector<net::RankOp>> programs(
      static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto& prog = programs[static_cast<std::size_t>(r)];
    prog.reserve(static_cast<std::size_t>(rounds) * 3);
    for (int round = 0; round < rounds; ++round) {
      const int shift = 1 + (round % 5) * 3;
      const int dst = (r + shift) % ranks;
      const int src = (r - shift % ranks + ranks) % ranks;
      prog.push_back(net::RankOp::compute(1.0e-6 * (1.0 + 0.2 * rng.uniform())));
      prog.push_back(net::RankOp::send(dst, 1024.0 * (1 + round % 7), round));
      prog.push_back(net::RankOp::recv(src, round));
    }
  }
  return programs;
}

/// Congested, faulty fabric: drops, stragglers, degraded links (the fault
/// layer keeps its default seed; see engine_ring).
net::FabricConfig stressed_config() {
  net::FabricConfig config;
  config.congestion = true;
  config.faults.drop_probability = 0.05;
  config.faults.straggler_fraction = 0.1;
  config.faults.straggler_slowdown = 1.7;
  config.faults.degraded_link_fraction = 0.1;
  return config;
}

std::string engine_digest(const net::EngineResult& r) {
  Digest d;
  for (const double c : r.clocks) d.add(c);
  for (const net::MessageRecord& m : r.messages) {
    d.add(static_cast<double>(m.src));
    d.add(static_cast<double>(m.dst));
    d.add(static_cast<double>(m.tag));
    d.add(m.bytes);
    d.add(m.posted_s);
    d.add(m.delivered_s);
    d.add(static_cast<double>(m.retries));
  }
  return d.hex();
}

struct EngineSetup {
  std::unique_ptr<net::Fabric> fabric;  // the engine keeps a reference
  std::unique_ptr<net::EventEngine> engine;
  std::unique_ptr<support::ThreadPool> pool;
};

void engine_ring(const Options& opt, std::size_t cpus, SpanLog& log,
                 Outcome& out) {
  // The rank count and the fault plan stay fixed (32768 ranks, the top of
  // the 16384-32768 range the workload targets): a seed-dependent count or
  // fault draw changes how much work a run measures by up to 20 %. The
  // seed drives the programs' compute jitter.
  const int ranks = opt.tiny ? 1024 : 32768;
  const int rounds = opt.tiny ? 4 : 12;

  std::optional<EngineSetup> setup;
  const double setup_s = timed_setup<EngineSetup>(
      [&] {
        Span span(log, "bench.setup");
        EngineSetup s;
        std::optional<arch::Machine> frontier;
        {
          Span t(log, "arch.by_name", span.id());
          frontier.emplace(arch::machines::by_name("frontier"));
        }
        std::vector<std::vector<net::RankOp>> programs;
        {
          Span t(log, "bench.ring_programs", span.id());
          programs = ring_programs(ranks, rounds, opt.seed);
        }
        {
          Span t(log, "net.Fabric", span.id());
          s.fabric = std::make_unique<net::Fabric>(
              *frontier, frontier->node.gpus_per_node, stressed_config());
        }
        {
          Span t(log, "net.EventEngine", span.id());
          s.engine = std::make_unique<net::EventEngine>(*s.fabric,
                                                        std::move(programs));
        }
        s.pool = std::make_unique<support::ThreadPool>(pool_workers(cpus));
        return s;
      },
      setup);
  net::EventEngine& engine = *setup->engine;

  // Untimed: the first run in a process pays allocator and page warm-up,
  // and the serial run is the oracle every timed run must match.
  {
    Span span(log, "net.EventEngine::run_parallel.warmup");
    (void)engine.run_parallel(setup->pool.get());
  }
  const auto ts0 = Clock::now();
  net::EngineResult serial;
  {
    Span span(log, "net.EventEngine::run_serial");
    serial = engine.run_serial();
  }
  const double serial_s = seconds_between(ts0, Clock::now());
  out.digest = engine_digest(serial);

  std::vector<double> walls;
  int windows = -1;
  const auto t_end = Clock::now() + std::chrono::duration<double>(opt.seconds);
  do {
    const auto t0 = Clock::now();
    net::EngineResult par;
    {
      Span span(log, "net.EventEngine::run_parallel");
      par = engine.run_parallel(setup->pool.get());
    }
    walls.push_back(seconds_between(t0, Clock::now()));
    ++out.attempted;
    const bool same = serial.same_outcome(par) &&
                      (windows < 0 || windows == par.windows);
    windows = par.windows;
    if (!same) {
      ++out.failed;
      out.check(false, "parallel engine result differs from the serial oracle");
    }
  } while (Clock::now() < t_end);
  out.info.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});

  // Seed-independent pin: a small default-seed ring, serial.
  {
    const arch::Machine frontier = arch::machines::frontier();
    net::Fabric fabric(frontier, frontier.node.gpus_per_node,
                       stressed_config());
    net::EventEngine small(fabric, ring_programs(4096, 6, kDefaultSeed));
    out.pinned_digest = engine_digest(small.run_serial());
  }

  const double wall = median(walls);
  const auto events = static_cast<double>(serial.events);
  out.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"throughput_per_s", events / wall, "1/s"},
      {"latency_ms", wall * 1e3, "ms"},
  };
  out.info.push_back({"latency_p50_ms", wall * 1e3, "ms"});
  out.info.push_back({"latency_p99_ms", quantile(walls, 0.99) * 1e3, "ms"});
  out.info.push_back({"samples", static_cast<double>(walls.size()), "count"});
  out.info.push_back({"ranks", static_cast<double>(ranks), "count"});
  out.info.push_back({"rounds", static_cast<double>(rounds), "count"});

  out.layer["net.engine_serial_s"] = serial_s;
  out.layer["net.engine_speedup"] = serial_s / wall;
  out.layer["net.engine_windows"] = static_cast<double>(windows);
  out.layer["net.engine_events"] = events;
  out.layer["net.engine_messages"] = static_cast<double>(serial.messages.size());
  out.layer["net.engine_retries"] = static_cast<double>(serial.total_retries());
}

// ---------------------------------------------------------------------------
// Tracing overhead: traced minus untraced wall time of the span machinery,
// measured in-process on a loop of empty spans and scaled by the number of
// spans the run recorded.

double span_cost_s() {
  constexpr int kSpans = 20000;
  SpanLog on(true);
  SpanLog off(false);
  const auto loop = [](SpanLog& log) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      Span span(log, "calibrate");
    }
    return seconds_between(t0, Clock::now());
  };
  (void)loop(on);  // warm the vector's growth
  SpanLog on2(true);
  return (loop(on2) - loop(off)) / kSpans;
}

void print_result(const Options& opt, std::size_t cpus, const Outcome& out,
                  const std::map<std::string, SpanTotals>& totals) {
  const bool correct = out.errors.empty();
  const double error_rate =
      out.attempted > 0
          ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
          : 1.0;
  std::string record = "{\"record\": {\"workload\": \"" + opt.workload +
                       "\", \"seed\": " + std::to_string(opt.seed) +
                       ", \"seconds\": " + json_number(opt.seconds) +
                       ", \"trace\": " + (opt.trace ? "1" : "0") +
                       ", \"tiny\": " + (opt.tiny ? "true" : "false") +
                       ", \"host\": \"" + json_escape(host_name()) +
                       "\", \"nproc\": " + std::to_string(cpus) +
                       ", \"exa_threads\": \"" +
                       json_escape(std::getenv("EXA_THREADS") != nullptr
                                       ? std::getenv("EXA_THREADS")
                                       : "") +
                       "\", \"compiler\": \"" EXA_PERFBENCH_COMPILER
                       "\", \"build_type\": \"" EXA_PERFBENCH_BUILD_TYPE
                       "\", \"commit\": \"" + json_escape(opt.commit) +
                       "\", \"digest\": \"" + out.digest +
                       "\", \"pinned_digest\": \"" + out.pinned_digest +
                       "\", \"error_rate\": " + json_number(error_rate);
  for (const Metric& m : out.info) {
    record += ", \"" + m.name + "\": " + json_number(m.value);
  }
  record += ", \"errors\": [";
  for (std::size_t i = 0; i < out.errors.size() && i < 20; ++i) {
    record += (i ? ", \"" : "\"") + json_escape(out.errors[i]) + "\"";
  }
  record += "], \"end_to_end\": {";
  for (std::size_t i = 0; i < out.end_to_end.size(); ++i) {
    const Metric& m = out.end_to_end[i];
    record += (i ? ", \"" : "\"") + m.name + "\": " + json_number(m.value);
  }
  record += "}}}";
  std::printf("%s\n", record.c_str());

  if (!totals.empty()) {
    std::string summary = "{\"spans\": {";
    bool first = true;
    for (const auto& [name, t] : totals) {
      summary += (first ? "\"" : ", \"") + name + "\": {\"count\": " +
                 std::to_string(t.count) + ", \"total_ms\": " +
                 json_number(t.total_s * 1e3) + ", \"self_ms\": " +
                 json_number(t.self_s * 1e3) + "}";
      first = false;
    }
    summary += "}}";
    std::printf("%s\n", summary.c_str());
  }

  std::vector<Metric> metrics = out.end_to_end;
  if (opt.trace) {
    metrics.clear();
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = out.layer.find(name);
      metrics.push_back({name, it == out.layer.end() ? 0.0 : it->second, unit});
    }
  }
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exa_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    const std::size_t cpus = host_cpus();
    SpanLog log(opt.trace);
    Outcome out;
    if (opt.workload == "campaign_grid") {
      campaign_grid(opt, cpus, log, out);
    } else if (opt.workload == "svc_stream") {
      svc_stream(opt, cpus, log, out);
    } else if (opt.workload == "engine_ring") {
      engine_ring(opt, cpus, log, out);
    } else {
      std::fprintf(stderr, "exa_perfbench: unknown workload %s\n",
                   opt.workload.c_str());
      return 2;
    }
    if (!opt.expect_pinned.empty()) {
      out.check(out.pinned_digest == opt.expect_pinned,
                "pinned virtual-time digest " + out.pinned_digest +
                    " != recorded " + opt.expect_pinned);
    }
    if (!opt.expect_digest.empty()) {
      out.check(out.digest == opt.expect_digest,
                "virtual-time digest " + out.digest + " != recorded " +
                    opt.expect_digest);
    }

    std::map<std::string, SpanTotals> totals;
    if (log.enabled()) {
      const std::vector<SpanRecord> spans = log.snapshot();
      totals = span_totals(spans);
      out.layer["trace.spans"] = static_cast<double>(spans.size());
      out.layer["trace.overhead_ms"] = span_cost_s() * static_cast<double>(spans.size()) * 1e3;
      if (!opt.spans_path.empty()) write_chrome_trace(spans, opt.spans_path);
    }
    print_result(opt, cpus, out, totals);
    return out.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exa_perfbench: %s\n", e.what());
    return 1;
  }
}
