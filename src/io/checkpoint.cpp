#include "io/checkpoint.hpp"

#include <algorithm>
#include <vector>

#include "support/assert.hpp"

namespace exa::io {

namespace {

/// The phased collective: every rank opens, then every rank writes, then
/// every rank closes. Phasing matters because each shared cursor (the
/// MDS, the OSTs) is a FIFO in *issue* order — interleaving rank r's
/// close (at its write-completion time) before rank r+1's open (at the
/// collective start) would queue the open behind it and serialize the
/// whole collective. `start_of(rank)` gives each rank's start time.
template <typename StartFn>
CheckpointStats phased_checkpoint(FileSystem& fs, int ranks,
                                  double bytes_per_rank,
                                  const std::string& path_prefix,
                                  StartFn&& start_of,
                                  std::vector<double>* done_out = nullptr) {
  CheckpointStats stats;
  stats.ranks = ranks;
  stats.bytes_per_rank = bytes_per_rank;
  stats.begin_s = start_of(0);
  std::vector<OpenResult> opened(static_cast<std::size_t>(ranks));
  for (int rank = 0; rank < ranks; ++rank) {
    const double start_s = start_of(rank);
    stats.begin_s = std::min(stats.begin_s, start_s);
    opened[static_cast<std::size_t>(rank)] =
        fs.open(rank, path_prefix + "/r" + std::to_string(rank), start_s);
  }
  std::vector<double> written(static_cast<std::size_t>(ranks));
  for (int rank = 0; rank < ranks; ++rank) {
    const OpenResult& o = opened[static_cast<std::size_t>(rank)];
    written[static_cast<std::size_t>(rank)] =
        fs.write(o.handle, 0.0, bytes_per_rank, o.ready_s);
  }
  stats.end_s = stats.begin_s;
  if (done_out) done_out->assign(static_cast<std::size_t>(ranks), 0.0);
  for (int rank = 0; rank < ranks; ++rank) {
    const double done_s =
        fs.close(opened[static_cast<std::size_t>(rank)].handle,
                 written[static_cast<std::size_t>(rank)]);
    if (done_out) (*done_out)[static_cast<std::size_t>(rank)] = done_s;
    stats.end_s = std::max(stats.end_s, done_s);
  }
  return stats;
}

}  // namespace

CheckpointStats checkpoint(FileSystem& fs, int ranks, double bytes_per_rank,
                           double start_s, const std::string& path_prefix) {
  EXA_REQUIRE_MSG(ranks >= 1, "checkpoint: ranks must be >= 1");
  EXA_REQUIRE_MSG(bytes_per_rank >= 0.0,
                  "checkpoint: bytes_per_rank must be >= 0");
  return phased_checkpoint(fs, ranks, bytes_per_rank, path_prefix,
                           [start_s](int) { return start_s; });
}

CheckpointStats checkpoint(FileSystem& fs, std::vector<double>& clocks,
                           double bytes_per_rank,
                           const std::string& path_prefix) {
  EXA_REQUIRE_MSG(!clocks.empty(), "checkpoint: needs at least one clock");
  EXA_REQUIRE_MSG(bytes_per_rank >= 0.0,
                  "checkpoint: bytes_per_rank must be >= 0");
  std::vector<double> done;
  const CheckpointStats stats = phased_checkpoint(
      fs, static_cast<int>(clocks.size()), bytes_per_rank, path_prefix,
      [&clocks](int rank) { return clocks[static_cast<std::size_t>(rank)]; },
      &done);
  for (std::size_t rank = 0; rank < clocks.size(); ++rank) {
    clocks[rank] = std::max(clocks[rank], done[rank]);
  }
  return stats;
}

double checkpoint_time(const IoConfig& config, int ranks,
                       double bytes_per_rank) {
  FileSystem fs(config);
  return checkpoint(fs, ranks, bytes_per_rank).end_s;
}

}  // namespace exa::io
