#include "net/engine.hpp"

#include <algorithm>
#include <queue>
#include <string>
#include <utility>

#include "support/assert.hpp"
#include "support/units.hpp"
#include "trace/tracer.hpp"

namespace exa::net {

namespace {

/// Bits per field of `message_key`; the constructor keeps ranks and tags
/// below 2^kKeyBits.
constexpr int kKeyBits = 21;

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

EventEngine::EventEngine(Fabric& fabric,
                         std::vector<std::vector<RankOp>> programs)
    : fabric_(fabric), programs_(std::move(programs)) {
  EXA_REQUIRE_MSG(!programs_.empty(), "EventEngine needs at least one rank");
  EXA_REQUIRE_MSG(
      static_cast<int>(programs_.size()) <= fabric_.total_ranks(),
      "more engine ranks than the fabric's machine hosts");
  EXA_REQUIRE_MSG(programs_.size() < (std::size_t{1} << kKeyBits),
                  "EventEngine supports fewer than 2^21 ranks");
  const int n = ranks();
  for (const std::vector<RankOp>& program : programs_) {
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
        EXA_REQUIRE_MSG(op.kind == RankOp::Kind::kRecv || op.value >= 0.0,
                        "negative send bytes");
      }
    }
  }
}

double EventEngine::lookahead_s() const {
  const auto& net = fabric_.machine().network;
  return net.latency_s + net.per_message_overhead_s;
}

std::uint64_t EventEngine::message_key(int src, int dst, int tag) {
  // kKeyBits each of src, dst and tag: the constructor keeps all three in
  // [0, 2^kKeyBits), so distinct channels never share a key.
  return (static_cast<std::uint64_t>(src) << (2 * kKeyBits)) |
         (static_cast<std::uint64_t>(dst) << kKeyBits) |
         static_cast<std::uint64_t>(tag);
}

void EventEngine::reset_run(EngineResult& result) {
  states_.assign(programs_.size(), RankState{});
  applied_.clear();
  fabric_.reset_transport();
  trace_lanes_ = trace::Tracer::instance().enabled()
                     ? std::min(fabric_.config().trace_rank_lanes, ranks())
                     : 0;
  result = EngineResult{};
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

int EventEngine::apply_send(const SendIntent& intent, EngineResult& result) {
  const Fabric::Transfer tr =
      fabric_.transfer(intent.src, intent.dst, intent.bytes, intent.post_s);
  MessageRecord record;
  record.src = intent.src;
  record.dst = intent.dst;
  record.tag = intent.tag;
  record.bytes = intent.bytes;
  record.posted_s = intent.post_s;
  record.delivered_s = tr.delivered_s;
  record.retries = tr.retries;
  const int message = static_cast<int>(result.messages.size());
  result.messages.push_back(record);
  applied_[message_key(intent.src, intent.dst, intent.tag)].push_back(message);
  if (traced(intent.src)) {
    trace::Tracer::instance().complete(
        "isend->r" + std::to_string(intent.dst) + " " +
            support::format_bytes(static_cast<std::uint64_t>(intent.bytes)),
        lane(intent.src), intent.post_s, tr.delivered_s - intent.post_s,
        "net");
  }
  return message;
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

void EventEngine::run_recv(RankState& state, int rank, int src, int tag,
                           double delivered_s) const {
  if (delivered_s > state.clock) {
    if (traced(rank)) {
      trace::Tracer::instance().complete("wait", lane(rank), state.clock,
                                         delivered_s - state.clock, "net");
    }
    state.clock = delivered_s;
  }
  consume_recv(state, src, tag);
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

int EventEngine::match_recv(const RankState& state, int rank, int src,
                            int tag) const {
  const auto it = applied_.find(message_key(src, rank, tag));
  if (it == applied_.end()) return -1;
  const std::size_t consumed_count = [&] {
    const auto c = state.consumed.find(channel_key(src, tag));
    return c == state.consumed.end() ? std::size_t{0} : c->second;
  }();
  if (consumed_count >= it->second.size()) return -1;
  return it->second[consumed_count];
}

void EventEngine::consume_recv(RankState& state, int src, int tag) {
  ++state.consumed[channel_key(src, tag)];
}

EngineResult EventEngine::run_serial() {
  EngineResult result;
  reset_run(result);
  const double overhead = fabric_.machine().network.per_message_overhead_s;
  const int n = ranks();

  // Min-heap over (next event time, rank). Each rank owns at most one
  // entry; blocked receivers are parked per channel and re-pushed when the
  // matching send is applied, and ranks at a collective are counted and
  // re-pushed when it resolves, so entries are never stale.
  using Key = std::pair<double, int>;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap;
  std::unordered_map<std::uint64_t, int> parked;
  int at_collective = 0;

  // Pushes `rank` keyed by its next op's event time, or parks it when the
  // next op is a collective or a receive whose matching send has not been
  // applied yet.
  const auto schedule = [&](int rank) {
    RankState& st = states_[static_cast<std::size_t>(rank)];
    const std::vector<RankOp>& program =
        programs_[static_cast<std::size_t>(rank)];
    if (st.pc >= program.size()) return;
    const RankOp& op = program[st.pc];
    double key = st.clock;
    if (op.kind == RankOp::Kind::kCollective) {
      ++at_collective;
      return;
    }
    if (op.kind == RankOp::Kind::kRecv) {
      const int message = match_recv(st, rank, op.peer, op.tag);
      if (message < 0) {
        parked[message_key(op.peer, rank, op.tag)] = rank;
        return;
      }
      key = std::max(
          key, result.messages[static_cast<std::size_t>(message)].delivered_s);
    }
    heap.emplace(key, rank);
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
        SendIntent intent;
        intent.post_s = st.clock;
        intent.src = rank;
        intent.seq = st.seq++;
        intent.dst = op.peer;
        intent.tag = op.tag;
        intent.bytes = op.value;
        apply_send(intent, result);
        st.clock += overhead;
        // The send may unblock its receiver (possibly this very rank on a
        // self-channel once its program reaches the recv).
        const auto waiter =
            parked.find(message_key(rank, op.peer, op.tag));
        if (waiter != parked.end()) {
          const int blocked_rank = waiter->second;
          parked.erase(waiter);
          if (blocked_rank != rank) schedule(blocked_rank);
        }
        break;
      }
      case RankOp::Kind::kRecv: {
        const int message = match_recv(st, rank, op.peer, op.tag);
        EXA_REQUIRE(message >= 0);  // scheduled => matched
        run_recv(st, rank, op.peer, op.tag,
                 result.messages[static_cast<std::size_t>(message)]
                     .delivered_s);
        break;
      }
      case RankOp::Kind::kCollective:
        EXA_ASSERT(!"collectives are parked, never popped");
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
  // alone, never of the pool size).
  const std::size_t grain = support::reduce_grain(n);
  const std::size_t slots = (n + grain - 1) / grain;
  std::vector<std::vector<SendIntent>> chunk_intents(slots);
  std::vector<SendIntent> window;

  while (true) {
    // --- window start: minimum next-event time over runnable ranks ------
    double window_start = 0.0;
    bool any_runnable = false;
    bool all_done = true;
    std::size_t at_collective = 0;
    for (std::size_t r = 0; r < n; ++r) {
      RankState& st = states_[r];
      const std::vector<RankOp>& program = programs_[r];
      if (st.pc >= program.size()) continue;
      all_done = false;
      const RankOp& op = program[st.pc];
      double key = st.clock;
      if (op.kind == RankOp::Kind::kRecv) {
        const int message =
            match_recv(st, static_cast<int>(r), op.peer, op.tag);
        if (message < 0) continue;  // blocked: a barrier must free it
        key = std::max(
            key,
            result.messages[static_cast<std::size_t>(message)].delivered_s);
      } else if (op.kind == RankOp::Kind::kCollective) {
        ++at_collective;
        continue;  // waits until every rank has arrived
      }
      window_start = any_runnable ? std::min(window_start, key) : key;
      any_runnable = true;
    }
    if (all_done) break;
    if (!any_runnable) {
      EXA_REQUIRE_MSG(at_collective == n,
                      "engine deadlock: a rank is blocked on a receive "
                      "whose matching send is never posted, or on a "
                      "collective another rank never reaches");
      resolve_collective();
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
                SendIntent intent;
                intent.post_s = st.clock;
                intent.src = rank;
                intent.seq = st.seq++;
                intent.dst = op.peer;
                intent.tag = op.tag;
                intent.bytes = op.value;
                intents.push_back(intent);
                st.clock += overhead;
              } else if (op.kind == RankOp::Kind::kRecv) {
                // Receives only consume messages applied at a previous
                // barrier (`applied_` is frozen during the window), so the
                // match is identical at any pool size.
                const int message = match_recv(st, rank, op.peer, op.tag);
                if (message < 0) break;  // blocked until the barrier
                run_recv(st, rank, op.peer, op.tag,
                         result.messages[static_cast<std::size_t>(message)]
                             .delivered_s);
              } else {
                break;  // collective: resolved at a barrier
              }
              ++st.pc;
              ++st.events;
            }
          }
        },
        grain);

    // --- barrier: apply the window's sends in serial order --------------
    window.clear();
    for (std::vector<SendIntent>& intents : chunk_intents) {
      window.insert(window.end(), intents.begin(), intents.end());
      intents.clear();
    }
    std::sort(window.begin(), window.end(),
              [](const SendIntent& a, const SendIntent& b) {
                if (a.post_s != b.post_s) return a.post_s < b.post_s;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    for (const SendIntent& intent : window) apply_send(intent, result);
    ++result.windows;
  }

  finish_run(result);
  return result;
}

}  // namespace exa::net
