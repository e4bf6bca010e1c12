#include "net/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <string>
#include <utility>

#include "support/assert.hpp"
#include "support/reduce.hpp"
#include "support/units.hpp"
#include "trace/tracer.hpp"

namespace exa::net {

namespace {

/// The constructor keeps ranks and tags below 2^kKeyBits.
constexpr int kKeyBits = 21;

/// Next-event time of a chunk with no runnable rank.
constexpr double kNever = std::numeric_limits<double>::infinity();

std::string lane(int rank) { return "fabric/rank" + std::to_string(rank); }

}  // namespace

bool EngineResult::same_outcome(const EngineResult& other) const {
  if (clocks != other.clocks || events != other.events ||
      makespan_s != other.makespan_s ||
      messages.size() != other.messages.size()) {
    return false;
  }
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const MessageRecord& a = messages[i];
    const MessageRecord& b = other.messages[i];
    if (a.src != b.src || a.dst != b.dst || a.tag != b.tag ||
        a.bytes != b.bytes || a.posted_s != b.posted_s ||
        a.delivered_s != b.delivered_s || a.retries != b.retries) {
      return false;
    }
  }
  return true;
}

double EngineResult::clock_sum() const {
  double total = 0.0;
  for (const double clock : clocks) total += clock;
  return total;
}

std::int64_t EngineResult::total_retries() const {
  std::int64_t total = 0;
  for (const MessageRecord& m : messages) total += m.retries;
  return total;
}

EventEngine::EventEngine(const Fabric& fabric,
                         std::vector<std::vector<RankOp>> programs)
    : fabric_(fabric),
      link_cursor_(fabric.link_count(), 0.0),
      programs_(std::move(programs)) {
  EXA_REQUIRE_MSG(!programs_.empty(), "EventEngine needs at least one rank");
  EXA_REQUIRE_MSG(
      static_cast<int>(programs_.size()) <= fabric_.total_ranks(),
      "more engine ranks than the fabric's machine hosts");
  EXA_REQUIRE_MSG(programs_.size() < (std::size_t{1} << kKeyBits),
                  "EventEngine supports fewer than 2^21 ranks");
  const int n = ranks();
  send_base_.reserve(programs_.size() + 1);
  recv_base_.reserve(programs_.size() + 1);
  std::uint64_t sends = 0;
  std::size_t recvs = 0;
  for (const std::vector<RankOp>& program : programs_) {
    send_base_.push_back(static_cast<int>(sends));
    recv_base_.push_back(recvs);
    for (const RankOp& op : program) {
      if (op.kind == RankOp::Kind::kCompute ||
          op.kind == RankOp::Kind::kCollective) {
        EXA_REQUIRE_MSG(op.value >= 0.0,
                        "negative compute or collective seconds");
      } else {
        EXA_REQUIRE_MSG(op.peer >= 0 && op.peer < n,
                        "send/recv peer outside the engine's rank range");
        EXA_REQUIRE_MSG(op.tag >= 0 && op.tag < (1 << kKeyBits),
                        "send/recv tag outside [0, 2^21)");
        if (op.kind == RankOp::Kind::kSend) {
          EXA_REQUIRE_MSG(op.value >= 0.0, "negative send bytes");
          ++sends;
        } else {
          ++recvs;
        }
      }
    }
    // Send ids are ints; checked per rank so every base fits one.
    EXA_REQUIRE_MSG(sends <= static_cast<std::uint64_t>(
                                 std::numeric_limits<int>::max()),
                    "EventEngine supports at most INT_MAX sends");
  }
  send_base_.push_back(static_cast<int>(sends));
  recv_base_.push_back(recvs);
}

double EventEngine::lookahead_s() const {
  const auto& net = fabric_.machine().network;
  return net.latency_s + net.per_message_overhead_s;
}

EventEngine::SendIntent EventEngine::make_intent(const RankState& state,
                                                 int rank,
                                                 const RankOp& op) const {
  return {state.clock, send_id(state, rank), rank, op.peer, op.tag, op.value,
          fabric_.path(rank, op.peer, op.value)};
}

void EventEngine::build_pairing() {
  const std::size_t n = programs_.size();
  // Every send, bucketed by destination in (src, program order) — a
  // counting sort, so ids within a bucket ascend and a send's channel
  // predecessor is the bucket entry before it, if from the same source.
  struct Endpoint {
    int peer = 0;  ///< the other rank of the channel
    int tag = 0;
    int index = 0;  ///< send id, or recv index within its rank
    bool operator<(const Endpoint& o) const {
      if (peer != o.peer) return peer < o.peer;
      if (tag != o.tag) return tag < o.tag;
      return index < o.index;
    }
  };
  const auto channel_before = [](const Endpoint& a, const Endpoint& b) {
    return a.peer != b.peer ? a.peer < b.peer : a.tag < b.tag;
  };
  std::vector<std::size_t> bucket(n + 1, 0);
  for (const std::vector<RankOp>& program : programs_) {
    for (const RankOp& op : program) {
      if (op.kind == RankOp::Kind::kSend) {
        ++bucket[static_cast<std::size_t>(op.peer) + 1];
      }
    }
  }
  for (std::size_t d = 0; d < n; ++d) bucket[d + 1] += bucket[d];
  std::vector<Endpoint> sends(bucket[n]);
  prev_send_.assign(bucket[n], -1);
  {
    std::vector<std::size_t> cursor(bucket.begin(), bucket.end() - 1);
    int id = 0;
    for (std::size_t src = 0; src < n; ++src) {
      for (const RankOp& op : programs_[src]) {
        if (op.kind != RankOp::Kind::kSend) continue;
        const auto dst = static_cast<std::size_t>(op.peer);
        const std::size_t at = cursor[dst]++;
        if (at > bucket[dst] && sends[at - 1].peer == static_cast<int>(src)) {
          prev_send_[static_cast<std::size_t>(id)] = sends[at - 1].index;
        }
        sends[at] = {static_cast<int>(src), op.tag, id++};
      }
    }
  }

  // Per destination: sort its inbound sends and its recvs by
  // (src, tag, order) and pair the k-th of each channel.
  pair_.assign(recv_base_.back(), -1);
  std::vector<Endpoint> recvs;
  for (std::size_t dst = 0; dst < n; ++dst) {
    recvs.clear();
    for (const RankOp& op : programs_[dst]) {
      if (op.kind == RankOp::Kind::kRecv) {
        recvs.push_back({op.peer, op.tag, static_cast<int>(recvs.size())});
      }
    }
    if (recvs.empty()) continue;
    const auto first = sends.begin() + static_cast<std::ptrdiff_t>(bucket[dst]);
    const auto last =
        sends.begin() + static_cast<std::ptrdiff_t>(bucket[dst + 1]);
    std::sort(first, last);
    std::sort(recvs.begin(), recvs.end());
    int* pairs = pair_.data() + recv_base_[dst];
    auto send = first;
    for (const Endpoint& recv : recvs) {
      // Skip channels no recv reads and sends beyond a channel's recvs.
      while (send != last && channel_before(*send, recv)) ++send;
      if (send != last && !channel_before(recv, *send)) {
        pairs[recv.index] = send->index;
        ++send;
      }
    }
  }
  paired_ = true;
}

void EventEngine::reset_run(EngineResult& result) {
  if (!paired_) build_pairing();
  states_.assign(programs_.size(), RankState{});
  awaited_.assign(programs_.size(), -1);
  delivered_s_.assign(static_cast<std::size_t>(send_base_.back()), -1.0);
  std::fill(link_cursor_.begin(), link_cursor_.end(), 0.0);
  drop_rng_.reseed(fabric_.config().faults.seed);
  trace_lanes_ = trace::Tracer::instance().enabled()
                     ? std::min(fabric_.config().trace_rank_lanes, ranks())
                     : 0;
  result = EngineResult{};
  result.messages.reserve(delivered_s_.size());
}

void EventEngine::finish_run(EngineResult& result) const {
  result.clocks.resize(states_.size());
  result.events = 0;
  for (std::size_t r = 0; r < states_.size(); ++r) {
    result.clocks[r] = states_[r].clock;
    result.events += states_[r].events;
  }
  result.makespan_s =
      result.clocks.empty()
          ? 0.0
          : *std::max_element(result.clocks.begin(), result.clocks.end());
}

double EventEngine::apply_send(const SendIntent& intent,
                               EngineResult& result) {
  const auto& net = fabric_.machine().network;
  const FaultConfig& faults = fabric_.config().faults;
  double t = intent.post_s + net.per_message_overhead_s;
  double finish = 0.0;
  int retries = 0;
  while (true) {
    // Virtual-circuit occupancy: the message claims every link of its path
    // from the latest cursor and serializes at the slowest link.
    double begin = t;
    for (const int link : intent.path.links) {
      begin = std::max(begin, link_cursor_[static_cast<std::size_t>(link)]);
    }
    finish = begin + intent.path.serial_s;
    for (const int link : intent.path.links) {
      link_cursor_[static_cast<std::size_t>(link)] = finish;
    }
    if (faults.drop_probability <= 0.0 || retries >= faults.max_retries ||
        !drop_rng_.bernoulli(faults.drop_probability)) {
      break;
    }
    // Lost: the link time was spent; back off base * 2^retries (ldexp is
    // exact past 63, where a 64-bit shift is undefined) and re-inject.
    t = finish + std::ldexp(faults.backoff_base_s, retries);
    ++retries;
  }
  double delivered = finish + net.latency_s + intent.path.staging_s;
  // FIFO channel semantics: a retried message delays everything behind it
  // on the same (src, dst) channel rather than being overtaken.
  const int prev = prev_send_[static_cast<std::size_t>(intent.id)];
  if (prev >= 0) {
    delivered =
        std::max(delivered, delivered_s_[static_cast<std::size_t>(prev)]);
  }
  result.messages.push_back({intent.src, intent.dst, intent.tag, intent.bytes,
                             intent.post_s, delivered, retries});
  delivered_s_[static_cast<std::size_t>(intent.id)] = delivered;
  if (traced(intent.src)) {
    trace::Tracer::instance().complete(
        "isend->r" + std::to_string(intent.dst) + " " +
            support::format_bytes(static_cast<std::uint64_t>(intent.bytes)),
        lane(intent.src), intent.post_s, delivered - intent.post_s, "net");
  }
  return delivered;
}

void EventEngine::run_compute(RankState& state, int rank,
                              double seconds) const {
  const double scaled = seconds * fabric_.straggler_scale(rank);
  if (traced(rank)) {
    trace::Tracer::instance().complete("compute", lane(rank), state.clock,
                                       scaled, "kernel");
  }
  state.clock += scaled;
}

void EventEngine::run_recv(RankState& state, int rank,
                           double delivered_s) const {
  if (delivered_s > state.clock) {
    if (traced(rank)) {
      trace::Tracer::instance().complete("wait", lane(rank), state.clock,
                                         delivered_s - state.clock, "net");
    }
    state.clock = delivered_s;
  }
  ++state.recvs;
}

void EventEngine::resolve_collective() {
  double start = states_.front().clock;
  for (const RankState& st : states_) start = std::max(start, st.clock);
  const double cost = programs_.front()[states_.front().pc].value;
  for (std::size_t r = 0; r < states_.size(); ++r) {
    RankState& st = states_[r];
    EXA_REQUIRE_MSG(programs_[r][st.pc].value == cost,
                    "ranks disagree on a collective's cost");
    if (traced(static_cast<int>(r))) {
      trace::Tracer::instance().complete(
          "collective", lane(static_cast<int>(r)), start, cost, "net");
    }
    st.clock = start + cost;
    ++st.pc;
    ++st.events;
  }
}

double EventEngine::recv_delivery(const RankState& state, int rank) const {
  const int send =
      pair_[recv_base_[static_cast<std::size_t>(rank)] + state.recvs];
  return send < 0 ? -1.0 : delivered_s_[static_cast<std::size_t>(send)];
}

EventEngine::Next EventEngine::next_event(int rank, double& key) {
  const auto r = static_cast<std::size_t>(rank);
  const RankState& st = states_[r];
  const std::vector<RankOp>& program = programs_[r];
  awaited_[r] = -1;
  if (st.pc >= program.size()) return Next::kDone;
  key = st.clock;
  switch (program[st.pc].kind) {
    case RankOp::Kind::kCollective:
      return Next::kCollective;
    case RankOp::Kind::kRecv: {
      const int send = pair_[recv_base_[r] + st.recvs];
      if (send < 0) return Next::kBlocked;  // no send ever matches
      const double delivered = delivered_s_[static_cast<std::size_t>(send)];
      if (delivered < 0.0) {
        awaited_[r] = send;
        return Next::kBlocked;
      }
      key = std::max(key, delivered);
      return Next::kRunnable;
    }
    default:
      return Next::kRunnable;
  }
}

void EventEngine::scan_ranks(std::size_t lo, std::size_t hi,
                             ChunkScan& scan) {
  scan = ChunkScan{kNever, 0, 0};
  for (std::size_t r = lo; r < hi; ++r) {
    double key = 0.0;
    switch (next_event(static_cast<int>(r), key)) {
      case Next::kDone:
        continue;
      case Next::kRunnable:
        scan.next_s = std::min(scan.next_s, key);
        break;
      case Next::kCollective:
        ++scan.at_collective;
        break;
      case Next::kBlocked:
        break;
    }
    ++scan.live;
  }
}

EngineResult EventEngine::run_serial() {
  EngineResult result;
  reset_run(result);
  const double overhead = fabric_.machine().network.per_message_overhead_s;
  const int n = ranks();

  // Min-heap over (next event time, rank). Each rank owns at most one
  // entry; a blocked receiver is re-pushed when its paired send is
  // applied, and ranks at a collective are counted and re-pushed when it
  // resolves, so entries are never stale.
  using Key = std::pair<double, int>;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap;
  int at_collective = 0;

  // Pushes `rank` keyed by its next op's event time, or counts it when
  // the next op is a collective.
  const auto schedule = [&](int rank) {
    double key = 0.0;
    switch (next_event(rank, key)) {
      case Next::kRunnable:
        heap.emplace(key, rank);
        break;
      case Next::kCollective:
        ++at_collective;
        break;
      case Next::kDone:
      case Next::kBlocked:
        break;
    }
  };

  for (int r = 0; r < n; ++r) schedule(r);

  while (true) {
    if (heap.empty()) {
      // The loop ran dry: every unfinished rank waits at a collective or
      // on a receive. Only all ranks at the collective can make progress.
      if (at_collective < n) break;
      resolve_collective();
      at_collective = 0;
      for (int r = 0; r < n; ++r) schedule(r);
      continue;
    }
    const int rank = heap.top().second;
    heap.pop();
    RankState& st = states_[static_cast<std::size_t>(rank)];
    const RankOp& op = programs_[static_cast<std::size_t>(rank)][st.pc];
    switch (op.kind) {
      case RankOp::Kind::kCompute:
        run_compute(st, rank, op.value);
        break;
      case RankOp::Kind::kSend: {
        const SendIntent intent = make_intent(st, rank, op);
        ++st.sends;
        apply_send(intent, result);
        st.clock += overhead;
        // Wake the receiver if it is blocked on exactly this send (on a
        // self-channel this rank is running, not blocked).
        if (awaited_[static_cast<std::size_t>(op.peer)] == intent.id) {
          schedule(op.peer);
        }
        break;
      }
      case RankOp::Kind::kRecv:
        run_recv(st, rank, recv_delivery(st, rank));
        break;
      case RankOp::Kind::kCollective:
        EXA_ASSERT(!"collectives are counted, never popped");
        break;
    }
    ++st.pc;
    ++st.events;
    schedule(rank);
  }

  for (int r = 0; r < n; ++r) {
    EXA_REQUIRE_MSG(
        states_[static_cast<std::size_t>(r)].pc >=
            programs_[static_cast<std::size_t>(r)].size(),
        "engine deadlock: a rank is blocked on a receive whose matching "
        "send is never posted, or on a collective another rank never "
        "reaches");
  }
  finish_run(result);
  return result;
}

EngineResult EventEngine::run_parallel(support::ThreadPool* pool) {
  support::ThreadPool& workers =
      pool != nullptr ? *pool : support::ThreadPool::global();
  EngineResult result;
  reset_run(result);
  const double overhead = fabric_.machine().network.per_message_overhead_s;
  const double delta = lookahead_s();
  EXA_REQUIRE_MSG(delta > 0.0,
                  "conservative lookahead needs positive link latency or "
                  "per-message overhead");
  const auto n = static_cast<std::size_t>(ranks());

  // Deterministic shard boundaries: the same grain-aligned chunks as every
  // bitwise-stable reduction in the tree (a function of the rank count
  // alone, never of the pool size). Each chunk owns one intent list and
  // one scan slot.
  const std::size_t grain = support::reduce_grain(n);
  const std::size_t slots = (n + grain - 1) / grain;
  std::vector<std::vector<SendIntent>> chunk_intents(slots);
  std::vector<ChunkScan> scans(slots);
  const auto by_post = [](const SendIntent& a, const SendIntent& b) {
    if (a.post_s != b.post_s) return a.post_s < b.post_s;
    return a.id < b.id;
  };
  // K-way merge cursor over one chunk's sorted intents; the heap's top is
  // the earliest intent.
  struct Head {
    double post_s;
    int id;
    std::size_t chunk;
    std::size_t next;  ///< index of this head's intent
  };
  std::vector<Head> heads;
  const auto later = [](const Head& a, const Head& b) {
    if (a.post_s != b.post_s) return a.post_s > b.post_s;
    return a.id > b.id;
  };
  // Earliest wake-up of a receiver blocked on a send the last barrier
  // applied (the chunks scanned before those sends existed).
  double woken_s = kNever;
  bool rescan = true;

  while (true) {
    // --- window start: reduce the chunk slots ---------------------------
    // A full scan is needed only before the first window and after a
    // collective moved every clock; otherwise the slots were written by
    // the chunks at the end of the last window.
    if (rescan) {
      workers.for_chunks(
          0, n,
          [&](std::size_t lo, std::size_t hi) {
            scan_ranks(lo, hi, scans[lo / grain]);
          },
          grain);
      woken_s = kNever;
      rescan = false;
    }
    double window_start = woken_s;
    std::size_t live = 0;
    std::size_t at_collective = 0;
    for (const ChunkScan& scan : scans) {
      window_start = std::min(window_start, scan.next_s);
      live += scan.live;
      at_collective += scan.at_collective;
    }
    if (live == 0) break;
    if (window_start == kNever) {
      EXA_REQUIRE_MSG(at_collective == n,
                      "engine deadlock: a rank is blocked on a receive "
                      "whose matching send is never posted, or on a "
                      "collective another rank never reaches");
      resolve_collective();
      rescan = true;
      continue;
    }
    const double horizon = window_start + delta;

    // --- window: every rank runs up to the horizon ----------------------
    workers.for_chunks(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          std::vector<SendIntent>& intents = chunk_intents[lo / grain];
          for (std::size_t r = lo; r < hi; ++r) {
            RankState& st = states_[r];
            const int rank = static_cast<int>(r);
            const std::vector<RankOp>& program = programs_[r];
            while (st.pc < program.size() && st.clock < horizon) {
              const RankOp& op = program[st.pc];
              if (op.kind == RankOp::Kind::kCompute) {
                run_compute(st, rank, op.value);
              } else if (op.kind == RankOp::Kind::kSend) {
                // The path is pure, so it is priced here, off the barrier.
                intents.push_back(make_intent(st, rank, op));
                ++st.sends;
                st.clock += overhead;
              } else if (op.kind == RankOp::Kind::kRecv) {
                // Only sends applied at a previous barrier have a delivery
                // time (`delivered_s_` is frozen during the window), so the
                // match is identical at any pool size.
                const double delivered = recv_delivery(st, rank);
                if (delivered < 0.0) break;  // blocked
                run_recv(st, rank, delivered);
              } else {
                break;  // collective: resolved at a barrier
              }
              ++st.pc;
              ++st.events;
            }
          }
          // Ranks post in rank order, not post order.
          std::sort(intents.begin(), intents.end(), by_post);
          scan_ranks(lo, hi, scans[lo / grain]);
        },
        grain);

    // --- barrier: apply the chunks' sends in serial order ---------------
    heads.clear();
    for (std::size_t c = 0; c < slots; ++c) {
      if (chunk_intents[c].empty()) continue;
      const SendIntent& first = chunk_intents[c].front();
      heads.push_back({first.post_s, first.id, c, 0});
    }
    std::make_heap(heads.begin(), heads.end(), later);
    woken_s = kNever;
    while (!heads.empty()) {
      std::pop_heap(heads.begin(), heads.end(), later);
      Head& head = heads.back();
      std::vector<SendIntent>& intents = chunk_intents[head.chunk];
      const SendIntent& intent = intents[head.next];
      const double delivered = apply_send(intent, result);
      // The chunks scanned before this send existed: a receiver blocked on
      // exactly it becomes runnable at max(its clock, delivery).
      const auto dst = static_cast<std::size_t>(intent.dst);
      if (awaited_[dst] == intent.id) {
        woken_s = std::min(woken_s, std::max(states_[dst].clock, delivered));
      }
      if (++head.next < intents.size()) {
        head.post_s = intents[head.next].post_s;
        head.id = intents[head.next].id;
        std::push_heap(heads.begin(), heads.end(), later);
      } else {
        intents.clear();
        heads.pop_back();
      }
    }
    ++result.windows;
  }

  finish_run(result);
  return result;
}

}  // namespace exa::net
