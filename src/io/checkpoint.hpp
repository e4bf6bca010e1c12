#pragma once
/// \file checkpoint.hpp
/// Collective checkpoint helpers over `FileSystem`: the one storage
/// pattern every app in the paper shares — N ranks each open a
/// file-per-process, stream their state, and close.
///
/// Two forms: a free-standing one over one start time (what the analytic
/// app drivers use to price Pele plotfiles, GESTS field dumps and LAMMPS
/// restarts), and one coupled to per-rank clocks — each rank's write
/// begins at its own virtual clock and the clock is advanced to the I/O
/// completion, so checkpoints compose with the per-rank timelines of a
/// `net::EventEngine` run (`EngineResult::clocks`).
///
/// Units: all times seconds, all sizes bytes.

#include <string>
#include <vector>

#include "io/file_system.hpp"

namespace exa::io {

/// Outcome of one collective checkpoint.
struct CheckpointStats {
  int ranks = 0;
  double bytes_per_rank = 0.0;
  double begin_s = 0.0;  ///< earliest rank's start (seconds)
  double end_s = 0.0;    ///< latest rank's close completion (seconds)
  /// Wall time of the collective from first start to last completion
  /// (seconds).
  [[nodiscard]] double makespan_s() const { return end_s - begin_s; }
};

/// Checkpoints `ranks` ranks of `bytes_per_rank` each through `fs`,
/// file-per-process under `path_prefix` ("<prefix>/r<rank>"), all
/// starting at `start_s`. Returns the collective outcome.
CheckpointStats checkpoint(FileSystem& fs, int ranks, double bytes_per_rank,
                           double start_s = 0.0,
                           const std::string& path_prefix = "ckpt");

/// Clock-coupled form: one rank per entry of `clocks`; rank r's
/// open/write/close starts at `clocks[r]` (seconds), and `clocks[r]` is
/// advanced to its close completion (never rewound).
CheckpointStats checkpoint(FileSystem& fs, std::vector<double>& clocks,
                           double bytes_per_rank,
                           const std::string& path_prefix = "ckpt");

/// Convenience: the wall time of one collective checkpoint on a fresh
/// filesystem built from `config`. Exactly 0.0 for a quiet config — the
/// guarantee the app drivers' golden-stable defaults rest on.
[[nodiscard]] double checkpoint_time(const IoConfig& config, int ranks,
                                     double bytes_per_rank);

}  // namespace exa::io
