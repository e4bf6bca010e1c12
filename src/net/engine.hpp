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
/// What a closed-form cost could never express (and the paper's §2.2/§3.3/§3.8
/// campaigns live on) is *overlap*: a send injects its payload at the
/// sender's clock and charges only the per-message software overhead, the
/// transfer progresses while the receiver computes, and the receive pays
/// only whatever transfer time the compute did not hide. The fault layer
/// is live: messages drop and re-send with exponential backoff, stragglers
/// slow compute (never wires), and delivery order per (src, dst) channel is
/// preserved.
///
/// The engine owns all transport state, the `Fabric` is read-only: per
/// run, a busy-until cursor per link, the drop RNG and each send's
/// delivery. A send's `Fabric::path` depends on no earlier traffic, so the
/// parallel pass computes it; applying the send is the order-dependent
/// rest: claim the path's links from their cursors, draw drops and back
/// off, and clamp the delivery to the previous send's on the same
/// (src, dst) channel, of any tag — a static predecessor per send id.
///
/// The lookahead invariant (DESIGN.md §13): only sends mutate transport
/// state, and an applied send is delivered at
///
///     delivered >= posted + per_message_overhead_s + latency_s
///                = posted + delta,
///
/// so with window start `L` (the minimum next-event time over runnable
/// ranks) and horizon `L + delta`, every message posted inside the window
/// is delivered at or after the horizon. A rank resumed by such a delivery
/// can therefore never post a send before the horizon, which makes the
/// windows' send batches — each in (post time, rank, program order) — a
/// contiguous, in-order partition of the serial engine's send sequence.
/// Identical send application order means identical link cursors,
/// drop-RNG draws, and FIFO channel clamps, hence identical delivered
/// times, clocks, and message records.
///
/// Receives never touch transport state, and their matching is static:
/// the k-th recv on a (src, dst, tag) channel pairs with the k-th send on
/// it in src's program order. Each engine computes that pairing once, on
/// its first run, as a flat recv -> global send id table (with the
/// channel predecessors); a run only records each send's delivery time
/// under its id when the send is applied. A recv whose paired send has not
/// been applied blocks its rank, and only that send can wake it. Matching
/// is consequently timing-independent.
///
/// The parallel loop has no serial per-rank pass in steady state. Each
/// chunk of ranks runs to the horizon, sorts its own send intents by
/// (post time, rank, program order) and records its minimum next-event
/// time, live count and collective count in its own slot. The barrier
/// k-way merges and applies the chunk lists and adds, per applied
/// send, the wake-up time of a receiver blocked on exactly that send; the
/// next window starts at the minimum over slots and wake-ups. Only the
/// first window and the one after each collective rescan every rank.
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
#include <vector>

#include "net/fabric.hpp"
#include "support/rng.hpp"
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
/// Thread safety: runs of one engine must be externally serialized (each
/// resets the engine's transport state first). Engines on different threads
/// may share one `Fabric`, which they only read.
class EventEngine {
 public:
  /// One program per rank; `programs.size()` must not exceed
  /// `fabric.total_ranks()` or 2^21, and the programs together may hold at
  /// most INT_MAX sends. Send/recv peers must index a program and tags must
  /// lie in [0, 2^21). The constructor only validates; the send/recv
  /// pairing is built on the first run. `fabric` must outlive the engine.
  EventEngine(const Fabric& fabric, std::vector<std::vector<RankOp>> programs);

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
  /// horizon, and the barrier merges the chunks' sorted sends into the
  /// fabric; a collective resolves at a barrier once no rank is runnable
  /// and every rank waits at it. Bitwise identical to `run_serial()` for
  /// any pool size.
  [[nodiscard]] EngineResult run_parallel(support::ThreadPool* pool = nullptr);

  /// The safe lookahead window: latency + per-message overhead (seconds).
  [[nodiscard]] double lookahead_s() const;

 private:
  struct RankState {
    double clock = 0.0;          ///< virtual time (seconds)
    std::size_t pc = 0;          ///< next op index
    std::uint32_t sends = 0;     ///< sends posted so far
    std::uint32_t recvs = 0;     ///< recvs completed so far
    std::uint64_t events = 0;    ///< ops executed by this rank
  };

  /// A send recorded during a window, applied at the barrier.
  struct SendIntent {
    double post_s = 0.0;  ///< sender clock at post time (seconds)
    /// Global send id: ascending in (src, program order), so (post_s, id)
    /// is the serial application order.
    int id = 0;
    int src = 0;
    int dst = 0;
    int tag = 0;
    double bytes = 0.0;
    Fabric::Path path;  ///< the send's cursor-independent part
  };

  /// One chunk's view of its ranks' next events, written by the chunk.
  struct ChunkScan {
    double next_s = 0.0;            ///< minimum runnable event time
    std::size_t live = 0;           ///< unfinished ranks
    std::size_t at_collective = 0;  ///< ranks waiting at a collective
  };

  /// What a rank does next.
  enum class Next : std::uint8_t { kDone, kBlocked, kCollective, kRunnable };

  /// True when `rank` owns a Chrome trace lane this run.
  [[nodiscard]] bool traced(int rank) const { return rank < trace_lanes_; }
  /// Global id of the next send `state` (of `rank`) posts.
  [[nodiscard]] int send_id(const RankState& state, int rank) const {
    return send_base_[static_cast<std::size_t>(rank)] +
           static_cast<int>(state.sends);
  }
  /// The intent of `rank`'s next op, a send of `op`, posted now.
  [[nodiscard]] SendIntent make_intent(const RankState& state, int rank,
                                       const RankOp& op) const;
  /// Builds `pair_` and `prev_send_`.
  void build_pairing();
  /// Delivery time (seconds) of the send the next recv of `state` (of
  /// `rank`) pairs with; negative while that send is unapplied or when no
  /// send matches.
  [[nodiscard]] double recv_delivery(const RankState& state, int rank) const;
  /// Classifies `rank`'s next op and records in `awaited_` the send it is
  /// blocked on; for kRunnable, `key` is its event time.
  [[nodiscard]] Next next_event(int rank, double& key);
  /// Classifies ranks [lo, hi) into `scan`.
  void scan_ranks(std::size_t lo, std::size_t hi, ChunkScan& scan);
  /// Applies one send to the transport state, records the message and its
  /// delivery time; returns the delivery time (seconds).
  double apply_send(const SendIntent& intent, EngineResult& result);
  /// Runs a compute op of `seconds` (straggler-scaled) on `rank`.
  void run_compute(RankState& state, int rank, double seconds) const;
  /// Completes a matched recv on `rank`: the clock waits for `delivered_s`.
  void run_recv(RankState& state, int rank, double delivered_s) const;
  /// Resolves the collective every rank is waiting at: all clocks become
  /// the max clock plus its cost.
  void resolve_collective();
  void reset_run(EngineResult& result);
  void finish_run(EngineResult& result) const;

  const Fabric& fabric_;
  /// Per fabric link: the virtual time it is busy until (seconds).
  std::vector<double> link_cursor_;
  std::vector<std::vector<RankOp>> programs_;
  /// First global send id / recv index of each rank; one extra entry holds
  /// the totals.
  std::vector<int> send_base_;
  std::vector<std::size_t> recv_base_;
  /// Paired send id of every recv (indexed `recv_base_[rank] + recvs`), -1
  /// when no send ever matches it. Empty until the first run.
  std::vector<int> pair_;
  /// Per send id: the previous send on the same (src, dst), any tag, else
  /// -1. Its delivery is the send's FIFO clamp. Empty until the first run.
  std::vector<int> prev_send_;
  bool paired_ = false;
  std::vector<RankState> states_;
  /// Delivery time of each send id this run; negative until applied.
  std::vector<double> delivered_s_;
  /// Per rank: the send id its current recv is blocked on, else -1. Set
  /// whenever the rank is classified, so a send wakes only its receiver.
  std::vector<int> awaited_;
  /// The fault layer's drop draws, in send application order.
  support::Rng drop_rng_;
  /// Ranks below this get trace lanes (0 when the tracer is off at run
  /// start).
  int trace_lanes_ = 0;
};

}  // namespace exa::net
