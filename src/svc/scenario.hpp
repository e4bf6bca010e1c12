#pragma once
/// \file scenario.hpp
/// The service layer's job description: one `Scenario` names a complete
/// simulated run — machine × app × size × fabric/fault/io configuration —
/// and `run()` executes it through the existing app drivers (Pele, GESTS,
/// LAMMPS, CoMet, ExaSky) into a `Report` of named metrics.
///
/// This is the library form of what every bench main used to hand-roll:
/// pick a machine from the arch catalog, build an app config, call the
/// app's timing model, read off the headline numbers. Factoring it out is
/// what lets a long-lived server (server.hpp) schedule thousands of such
/// runs, and what gives the campaign/dedupe machinery a canonical content
/// key: two scenarios with equal `key()` are guaranteed to produce
/// bitwise-identical reports, because `run()` is a pure function of the
/// scenario (every app driver is an analytic or seeded-deterministic
/// model — no wall clock, no global mutable state).

#include <map>
#include <string>

#include "net/fabric.hpp"

namespace exa::svc {

/// The workloads the service can run. Each maps onto one existing app
/// driver; the scenario's `params` carry the app-specific size knobs
/// (defaults below keep every app runnable with an empty map).
enum class App {
  kPele,      ///< apps::pele::time_per_cell_step (code-state ablations)
  kGests,     ///< apps::gests::step_time (PSDNS slabs/pencils)
  kLammps,    ///< apps::lammps QEq equilibration (split vs fused CG)
  kComet,     ///< apps::comet::scale_run (mixed-precision CCC)
  kExaSky,    ///< apps::exasky::step_model (P^3M gravity / hydro)
  kSparseCg,  ///< apps::sparse CG on a 27-point stencil (CSR SpMV)
};

/// The lower-case wire name of `app` ("pele", "gests", ..., "sparse_cg").
[[nodiscard]] std::string to_string(App app);
/// Parses the lower-case app name ("pele" | "gests" | "lammps" | "comet"
/// | "exasky" | "sparse_cg"); throws support::Error on anything else.
[[nodiscard]] App app_from_string(const std::string& name);

/// One complete job description. Everything that can influence the
/// report is in here — which is what makes `key()` a sound dedupe key.
///
/// Recognized `params` (all optional; unknown keys are rejected by
/// `validate` so a typo cannot silently run the default):
///   pele:   code_state (2..4, default 4 = tuned-2023)
///   gests:  n (default 8192), pencils (0|1, default 1)
///   lammps: fused (0|1, default 1), cells (default 2), seed (default 42),
///           atoms_per_rank (default 2e5), nnz_per_rank (default 5.2e6)
///   comet:  vectors_per_device (default 8192), samples (default 1e5)
///   exasky: particles_per_rank (default 4e7), hydro (0|1, default 0)
///   sparse_cg: grid (stencil cube side, default 16), rows_per_rank
///           (default 1e6), tol (relative residual, default 1e-8)
///   any:    checkpoint_bytes_per_rank (default 256 MiB; the per-rank
///           payload priced when io_preset is not "quiet")
struct Scenario {
  App app = App::kExaSky;
  std::string machine = "frontier";  ///< arch::machines::by_name key
  int nodes = 1;                     ///< nodes of `machine` to simulate
  std::map<std::string, double> params;  ///< app-specific size knobs

  /// Storage preset ("quiet" | "lustre" | "bb"). Pele and GESTS plumb it
  /// into their native plotfile/field-dump accounting; the other apps
  /// price one collective checkpoint of checkpoint_bytes_per_rank. The
  /// quiet default adds exactly zero time.
  std::string io_preset = "quiet";

  /// Fabric knobs. Defaults keep every app's network model on the quiet
  /// fabric's LogGP closed forms (the golden-stable baseline).
  /// `topology` is the link-graph wiring ("fattree" | "dragonfly").
  std::string topology = "fattree";
  bool congestion = false;
  double straggler_fraction = 0.0;
  double straggler_slowdown = 1.0;

  /// Canonical content key: equal keys imply bitwise-equal reports. The
  /// encoding is sorted and locale-free (%.17g doubles), so it is stable
  /// across hosts and suitable as a cache/dedupe key.
  [[nodiscard]] std::string key() const;

  /// The net::FabricConfig the knobs above describe.
  [[nodiscard]] net::FabricConfig fabric_config() const;
};

/// Throws support::Error when the scenario cannot run: unknown machine,
/// nonpositive nodes, unknown io preset, an unrecognized params key, or
/// an app-specific limit violation (e.g. GESTS slabs beyond its rank
/// cap). `run()` validates implicitly; the server validates at submit
/// time so a bad job is rejected before it ever queues.
void validate(const Scenario& scenario);

/// What a run produced: named metrics plus the two headline numbers every
/// app reports (simulated time and a figure of merit).
struct Report {
  Scenario scenario;
  std::map<std::string, double> metrics;
  double time_s = 0.0;  ///< headline simulated duration (step/solve time)
  double fom = 0.0;     ///< app-native figure of merit (bigger is better)

  /// Looks a metric up; throws support::Error naming the metric when
  /// absent (misspelled metric reads should fail loudly, not return 0).
  [[nodiscard]] double metric(const std::string& name) const;
};

/// Executes the scenario through its app driver. Pure: equal scenarios
/// produce bitwise-equal reports, on any host, at any EXA_THREADS.
[[nodiscard]] Report run(const Scenario& scenario);

}  // namespace exa::svc
