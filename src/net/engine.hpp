#pragma once
/// \file engine.hpp
/// The per-rank network simulator: a conservative-lookahead parallel
/// discrete-event engine over `Fabric`.
///
/// `EventEngine` takes whole per-rank programs (compute / send / recv /
/// collective op lists) and advances all ranks together, either with a
/// serial (time, rank)-ordered event loop — the specification — or with a
/// conservative-lookahead parallel loop that shards ranks across a
/// `support::ThreadPool` and is **bitwise identical** to the serial loop
/// at any `EXA_THREADS`.
///
/// What `CommModel` could never express (and the paper's §2.2/§3.3/§3.8
/// campaigns live on) is *overlap*: a send injects its payload at the
/// sender's clock and charges only the per-message software overhead, the
/// transfer progresses while the receiver computes, and the receive pays
/// only whatever transfer time the compute did not hide. The fault layer
/// is live: messages drop and re-send with exponential backoff, stragglers
/// slow compute (never wires), and delivery order per (src, dst) channel is
/// preserved.
///
/// The lookahead invariant (DESIGN.md §13): only sends mutate fabric
/// state, and `Fabric::transfer` guarantees
///
///     delivered >= posted + per_message_overhead_s + latency_s
///                = posted + delta,
///
/// so with window start `L` (the minimum next-event time over runnable
/// ranks) and horizon `L + delta`, every message posted inside the window
/// is delivered at or after the horizon. A rank resumed by such a delivery
/// can therefore never post a send before the horizon, which makes the
/// windows' send batches — each sorted by (post time, rank, program
/// order) — a contiguous, in-order partition of the serial engine's send
/// sequence. Identical send application order means identical link
/// cursors, drop-RNG draws, and FIFO channel clamps, hence identical
/// delivered times, clocks, and message records.
///
/// Receives never touch the fabric: the k-th recv posted on a
/// (src, dst, tag) channel matches the k-th send applied on it, and only
/// consumes messages applied at a previous window barrier (a recv whose
/// match is still in flight blocks its rank until the barrier assigns the
/// delivery). Matching is consequently timing-independent.
///
/// Collectives stop a rank the way a blocked recv does. The k-th
/// collective of every rank is one collective; it resolves once no rank
/// is runnable and every rank waits at it, so every send posted before
/// it has been applied and none after it has been posted. All clocks then
/// become `max(clocks) + cost`, at or after every earlier post, so the
/// send order on either side of a collective is the serial one.
///
/// With the tracer enabled, the first `FabricConfig::trace_rank_lanes`
/// ranks get Chrome trace lanes ("fabric/rank<i>") carrying in-flight
/// sends, compute spans, wait stalls, and collective participation.
///
/// Units: seconds and bytes throughout.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/fabric.hpp"
#include "support/thread_pool.hpp"

namespace exa::net {

/// One program step of a simulated rank.
struct RankOp {
  enum class Kind : std::uint8_t {
    kCompute,  ///< advance the clock by `value` seconds (straggler-scaled)
    kSend,     ///< nonblocking send of `value` bytes to rank `peer`
    kRecv,     ///< blocking receive from rank `peer` (matches FIFO by tag)
    /// all-rank collective costing `value` seconds: every clock becomes
    /// the max clock at arrival plus `value`
    kCollective,
  };
  Kind kind = Kind::kCompute;
  int peer = -1;       ///< send: destination rank; recv: source rank
  int tag = 0;         ///< channel tag (send/recv)
  double value = 0.0;  ///< compute/collective: seconds; send: bytes

  /// Convenience factories keeping program tables readable.
  [[nodiscard]] static RankOp compute(double seconds) {
    return {Kind::kCompute, -1, 0, seconds};
  }
  [[nodiscard]] static RankOp send(int dst, double bytes, int tag = 0) {
    return {Kind::kSend, dst, tag, bytes};
  }
  [[nodiscard]] static RankOp recv(int src, int tag = 0) {
    return {Kind::kRecv, src, tag, 0.0};
  }
  [[nodiscard]] static RankOp collective(double cost_s) {
    return {Kind::kCollective, -1, 0, cost_s};
  }
};

/// Delivery record of one message, for tests and post-run analysis.
struct MessageRecord {
  int src = 0;  ///< sending rank
  int dst = 0;  ///< receiving rank
  int tag = 0;  ///< match tag
  double bytes = 0.0;       ///< payload size (bytes)
  double posted_s = 0.0;    ///< sender clock at send (seconds)
  double delivered_s = 0.0; ///< payload available at receiver (seconds)
  int retries = 0;          ///< resend attempts the fault layer charged
};

/// Outcome of one engine run. `messages` is in fabric application order
/// (ascending post time, ties by rank then program order) — identical
/// between the serial and parallel engines.
struct EngineResult {
  std::vector<double> clocks;           ///< final per-rank clocks (seconds)
  std::vector<MessageRecord> messages;  ///< applied sends, in order
  std::uint64_t events = 0;             ///< executed ops (all kinds)
  double makespan_s = 0.0;              ///< max final clock (seconds)
  int windows = 0;  ///< super-steps (parallel engine; 0 when serial)

  /// Bitwise equality of the semantic fields (everything but `windows`,
  /// which is an engine-shape diagnostic, not a scenario outcome).
  [[nodiscard]] bool same_outcome(const EngineResult& other) const;
  /// Sum of final clocks (seconds) — a compact bitwise fingerprint.
  [[nodiscard]] double clock_sum() const;
  /// Total resend attempts across all messages (count).
  [[nodiscard]] std::int64_t total_retries() const;
};

/// Runs per-rank programs to completion over one `Fabric`.
///
/// Thread safety: one engine drives one fabric; runs must be externally
/// serialized (each run resets the fabric transport state first).
class EventEngine {
 public:
  /// One program per rank; `programs.size()` must not exceed
  /// `fabric.total_ranks()` or 2^21. Send/recv peers must index a program
  /// and tags must lie in [0, 2^21).
  EventEngine(Fabric& fabric, std::vector<std::vector<RankOp>> programs);

  /// Number of simulated ranks (count).
  [[nodiscard]] int ranks() const { return static_cast<int>(programs_.size()); }

  /// Serial reference engine: a (time, rank) min-ordered event loop, one
  /// op per step; a collective resolves once the loop runs dry with every
  /// rank waiting at it. This is the specification the parallel engine
  /// must reproduce bitwise.
  [[nodiscard]] EngineResult run_serial();

  /// Conservative-lookahead parallel engine. Ranks are sharded across
  /// `pool` (default: the global EXA_THREADS pool) at deterministic
  /// grain-aligned boundaries; each super-step runs every rank up to the
  /// horizon and applies the window's sends in sorted order at the
  /// barrier; a collective resolves at a barrier once no rank is runnable
  /// and every rank waits at it. Bitwise identical to `run_serial()` for any pool size.
  [[nodiscard]] EngineResult run_parallel(support::ThreadPool* pool = nullptr);

  /// The safe lookahead window: latency + per-message overhead (seconds).
  [[nodiscard]] double lookahead_s() const;

 private:
  struct RankState {
    double clock = 0.0;          ///< virtual time (seconds)
    std::size_t pc = 0;          ///< next op index
    std::uint32_t seq = 0;       ///< sends posted so far (program-order key)
    std::uint64_t events = 0;    ///< ops executed by this rank
    /// Messages consumed so far per (src, tag) inbound channel — owned by
    /// this rank alone, so window execution never races on it.
    std::unordered_map<std::uint64_t, std::size_t> consumed;
  };

  /// A send recorded during a window, applied at the barrier.
  struct SendIntent {
    double post_s = 0.0;  ///< sender clock at post time (seconds)
    int src = 0;
    std::uint32_t seq = 0;  ///< sender's program-order send counter
    int dst = 0;
    int tag = 0;
    double bytes = 0.0;
  };

  /// (src, tag) key for a rank's inbound channel.
  [[nodiscard]] static std::uint64_t channel_key(int src, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }
  /// Global (src, dst, tag) key for applied-message lists.
  [[nodiscard]] static std::uint64_t message_key(int src, int dst, int tag);

  /// True when `rank` owns a Chrome trace lane this run.
  [[nodiscard]] bool traced(int rank) const { return rank < trace_lanes_; }
  /// Applies one send to the fabric and records the message; returns the
  /// message index.
  int apply_send(const SendIntent& intent, EngineResult& result);
  /// Runs a compute op of `seconds` (straggler-scaled) on `rank`.
  void run_compute(RankState& state, int rank, double seconds) const;
  /// Completes a matched recv on `rank`: the clock waits for `delivered_s`.
  void run_recv(RankState& state, int rank, int src, int tag,
                double delivered_s) const;
  /// Resolves the collective every rank is waiting at: all clocks become
  /// the max clock plus its cost.
  void resolve_collective();
  /// Index of the next applied-but-unconsumed message on `rank`'s
  /// (src, tag) channel, or -1 when the rank must block.
  [[nodiscard]] int match_recv(const RankState& state, int rank, int src,
                               int tag) const;
  /// Consumes the matched message (bumps the rank's channel counter).
  static void consume_recv(RankState& state, int src, int tag);
  void reset_run(EngineResult& result);
  void finish_run(EngineResult& result) const;

  Fabric& fabric_;
  std::vector<std::vector<RankOp>> programs_;
  std::vector<RankState> states_;
  /// Message indices per (src, dst, tag) channel, in application order.
  std::unordered_map<std::uint64_t, std::vector<int>> applied_;
  /// Ranks below this get trace lanes (0 when the tracer is off at run
  /// start).
  int trace_lanes_ = 0;
};

}  // namespace exa::net
