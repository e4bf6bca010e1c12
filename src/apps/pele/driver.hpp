#pragma once
/// \file driver.hpp
/// PeleC performance-history driver: reproduces Figure 2 ("History of
/// PeleC time per cell per timestep ... between September 2018 and March
/// 2023"). Each code state toggles the optimizations §3.8 describes; each
/// machine supplies the hardware model. Single-node and 4096-node series.

#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "io/io_model.hpp"
#include "net/fabric.hpp"

namespace exa::apps::pele {

/// The code's state at each point of the project timeline.
enum class CodeState {
  kHybridCpu2018,        ///< C++/Fortran hybrid, many-core CPU targets
  kCppCpu2019,           ///< single-language C++ rewrite: 2x on CPUs
  kGpuUvmPointwise2020,  ///< first GPU port: UVM data, pointwise chemistry
  kGpuBatchedAsync2021,  ///< CVODE-batched chemistry, async ghost exchange
  kGpuTuned2023,         ///< UVM removed, fused small-box launches, compiler fixes
};

[[nodiscard]] std::string to_string(CodeState s);
/// Whether a state can run on a CPU-only machine (GPU states cannot) and
/// vice versa — Figure 2 only plots valid (machine, state) pairs.
[[nodiscard]] bool is_gpu_state(CodeState s);

struct PeleConfig {
  std::size_t cells_per_node = 96ull * 1024 * 1024;  ///< working set per node
  std::size_t box_edge = 32;                         ///< AMR box size
  int chem_substeps_pointwise = 15;  ///< explicit substeps per cell
  int newton_iters_batched = 6;      ///< implicit iterations per cell
  /// Network model knobs for the ghost exchange and regrid collective; the
  /// default (quiet) fabric prices the calibrated LogGP closed forms.
  net::FabricConfig fabric;
  /// Storage model for plotfile output (§3.8 writes plotfiles on a
  /// cadence for analysis); the default quiet filesystem adds exactly
  /// zero time, keeping baseline artifacts bit-stable.
  io::IoConfig io;
  /// Steps between plotfile dumps (count; 0 disables plotfiles).
  int plotfile_interval = 10;
  /// Plotfile payload per cell: 8 fp64 components (bytes).
  double plotfile_bytes_per_cell = 64.0;
};

/// Per-cell per-step cost breakdown (seconds).
struct CellTime {
  double chem_s = 0.0;
  double hydro_s = 0.0;
  double launch_s = 0.0;  ///< kernel-launch overhead share
  double uvm_s = 0.0;     ///< page-fault migrations share
  double ghost_s = 0.0;   ///< unoverlapped ghost-exchange share
  double plot_s = 0.0;    ///< amortized plotfile-write share
  [[nodiscard]] double total() const {
    return chem_s + hydro_s + launch_s + uvm_s + ghost_s + plot_s;
  }
};

/// Time per cell per timestep for a (machine, code-state) pair at `nodes`
/// nodes. Throws when the state cannot run on the machine.
[[nodiscard]] CellTime time_per_cell_step(const arch::Machine& machine,
                                          CodeState state, int nodes = 1,
                                          const PeleConfig& config = {});

/// One point of the Figure 2 series.
struct HistoryPoint {
  std::string machine;
  std::string date;  ///< e.g. "2018-09"
  CodeState state = CodeState::kHybridCpu2018;
  int nodes = 1;
  double time_per_cell_s = 0.0;
};

/// The full Figure 2 series: the single-node machine/state history plus
/// the 4096-node Summit/Frontier points for the 2020/2021/2023 states.
[[nodiscard]] std::vector<HistoryPoint> figure2_series(
    const PeleConfig& config = {});

/// Weak-scaling efficiency of the tuned code from 1 to `nodes` nodes.
[[nodiscard]] double weak_scaling_efficiency(const arch::Machine& machine,
                                             int nodes,
                                             const PeleConfig& config = {});

}  // namespace exa::apps::pele
