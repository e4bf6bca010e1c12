#pragma once
/// \file tracer.hpp
/// Always-on tracing for the simulated exascale stack.
///
/// The paper's porting campaigns lived on timelines: the E3SM
/// launch-latency hunts (§3.5), Pele's weak-scaling triage (§3.8), and
/// the LAMMPS ReaxFF kernel breakdowns (§3.10) all start from a per-kernel
/// or per-stream profile. `Tracer` is the capture side of that workflow:
/// a process-global recorder of spans, counters, and instant events,
/// stamped in both wall-clock time and virtual `SimTime`, stored in a
/// bounded thread-safe ring buffer so capture can stay enabled for entire
/// runs without unbounded memory.
///
/// Disabled (the default) the recorder is a single relaxed atomic load on
/// every hook — bench outputs are bit-identical with tracing off.
///
/// Events live on named *tracks* ("gpu0/s1", "net", "pfw"); the exporters
/// (chrome_export.hpp, profile.hpp) turn tracks into Chrome trace-event
/// timelines and Extra-P-style JSONL profiles.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace exa::trace {

/// Virtual seconds (mirrors sim::SimTime without depending on exa_sim —
/// the sim layer links *against* the tracer, not the other way around).
using SimTime = double;

/// Sentinel for "no virtual timestamp": the exporters fall back to wall
/// time for events that carry it.
inline constexpr SimTime kNoSim = std::numeric_limits<double>::quiet_NaN();

enum class EventKind : std::uint8_t {
  kSpanBegin,  ///< opening edge of a nested span (Chrome "B")
  kSpanEnd,    ///< closing edge (Chrome "E")
  kComplete,   ///< span with known start + duration (Chrome "X")
  kInstant,    ///< point event (Chrome "i")
  kCounter,    ///< sampled value (Chrome "C")
};

struct Event {
  EventKind kind = EventKind::kInstant;
  std::string label;     ///< event / span / counter name
  std::string category;  ///< "kernel", "transfer", "net", "pfw", ...
  std::string track;     ///< timeline the event belongs to, e.g. "gpu0/s1"
  double wall_us = 0.0;  ///< wall microseconds since the tracer was enabled
  SimTime sim_s = kNoSim;  ///< virtual timestamp (span start for kComplete)
  double value = 0.0;      ///< kComplete: duration (s); kCounter: the value
};

/// Process-global trace recorder. All recording calls are no-ops while
/// disabled; enabling installs a fresh ring buffer and wall-clock epoch.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  static Tracer& instance();

  /// Starts capture into a ring of `capacity` events (drops oldest on
  /// overflow). Clears any previous capture.
  void enable(std::size_t capacity = kDefaultCapacity);
  /// Stops capture; recorded events remain readable via snapshot().
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Drops all recorded events (capture state is unchanged).
  void clear();

  // --- recording (all no-ops while disabled) ---------------------------
  void span_begin(std::string label, std::string track,
                  std::string category = {}, SimTime sim_s = kNoSim);
  void span_end(std::string label, std::string track, SimTime sim_s = kNoSim);
  /// Span with a known virtual start and duration — the natural shape for
  /// work scheduled on simulated stream timelines.
  void complete(std::string label, std::string track, SimTime sim_start_s,
                double duration_s, std::string category = {});
  /// Places the span at the track's running cursor and advances the
  /// cursor by `duration_s` — gives clock-less components (the quiet
  /// net::Fabric's cost queries) a self-consistent timeline of their own.
  void complete_at_cursor(std::string label, std::string track,
                          double duration_s, std::string category = {});
  void instant(std::string label, std::string track, SimTime sim_s = kNoSim,
               std::string category = {});
  void counter(std::string name, std::string track, double value,
               SimTime sim_s = kNoSim);

  // --- inspection ------------------------------------------------------
  /// Ring contents, oldest first.
  [[nodiscard]] std::vector<Event> snapshot() const;
  /// Total events recorded since enable() (including ones dropped since).
  [[nodiscard]] std::uint64_t recorded() const;
  /// Events lost to ring overflow.
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  Tracer() = default;
  void push(Event event);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Event> ring_;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t head_ = 0;      ///< next write slot
  std::uint64_t total_ = 0;   ///< events pushed since enable()
  std::unordered_map<std::string, double> cursors_;
  std::chrono::steady_clock::time_point epoch_{};
};

/// RAII span: records the begin edge at construction and the end edge at
/// destruction. Virtual stamps are optional — pass the begin stamp to the
/// constructor and the end stamp via set_sim_end() before scope exit.
class ScopedSpan {
 public:
  ScopedSpan(std::string label, std::string track = "host",
             std::string category = {}, SimTime sim_begin = kNoSim);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_sim_end(SimTime sim_s) { sim_end_ = sim_s; }

 private:
  std::string label_;
  std::string track_;
  SimTime sim_end_ = kNoSim;
  bool active_ = false;
};

}  // namespace exa::trace
