#include "apps/gamess/fmo.hpp"

#include <algorithm>
#include <cmath>

#include "net/fabric.hpp"
#include "support/assert.hpp"

namespace exa::apps::gamess {

std::vector<FragmentSite> make_cluster(std::size_t count, support::Rng& rng) {
  EXA_REQUIRE(count >= 1);
  // Fragments at roughly liquid-water density: edge scales with count^(1/3).
  const double edge = 3.1 * std::cbrt(static_cast<double>(count));
  std::vector<FragmentSite> sites(count);
  for (auto& s : sites) {
    s.x = rng.uniform(0.0, edge);
    s.y = rng.uniform(0.0, edge);
    s.z = rng.uniform(0.0, edge);
  }
  return sites;
}

std::vector<std::pair<std::size_t, std::size_t>> dimer_list(
    const std::vector<FragmentSite>& sites, double cutoff) {
  std::vector<std::pair<std::size_t, std::size_t>> dimers;
  const double rc2 = cutoff * cutoff;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      const double dx = sites[i].x - sites[j].x;
      const double dy = sites[i].y - sites[j].y;
      const double dz = sites[i].z - sites[j].z;
      if (dx * dx + dy * dy + dz * dz < rc2) dimers.emplace_back(i, j);
    }
  }
  return dimers;
}

FmoWorkload make_workload(const std::vector<FragmentSite>& sites,
                          double cutoff) {
  FmoWorkload w;
  w.monomers = sites.size();
  w.dimers = dimer_list(sites, cutoff).size();
  return w;
}

double fmo_iteration_time(const arch::Machine& machine, int nodes,
                          const FmoWorkload& work, double fragment_seconds) {
  EXA_REQUIRE(nodes >= 1 && nodes <= machine.node_count);
  EXA_REQUIRE(fragment_seconds > 0.0);
  const int workers = nodes * std::max(1, machine.node.gpus_per_node);
  const double units = work.total_units();

  // Dynamic load balancing (GDDI): with far more tasks than workers the
  // imbalance tail is about half a task per worker.
  const double tasks_per_worker = units / workers;
  const double imbalance = tasks_per_worker > 1.0 ? 0.5 : 0.0;
  const double compute_s = (tasks_per_worker + imbalance) * fragment_seconds;

  // Coordination: monomer-density broadcast each iteration.
  const net::Fabric comm(machine, std::max(1, machine.node.gpus_per_node));
  const double density_bytes = 2.0e6;  // fragment densities
  const double coord_s = comm.bcast(density_bytes, workers) +
                         comm.allreduce(8.0 * work.monomers, workers);
  return compute_s + coord_s;
}

}  // namespace exa::apps::gamess
