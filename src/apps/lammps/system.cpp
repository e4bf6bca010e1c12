#include "apps/lammps/system.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace exa::apps::lammps {

double Vec3::norm() const { return std::sqrt(norm2()); }

System make_molecular_crystal(int cells, int atoms_per_molecule,
                              support::Rng& rng) {
  EXA_REQUIRE(cells >= 1);
  EXA_REQUIRE(atoms_per_molecule >= 4);  // need dihedrals
  System sys;
  const double cell_edge = 6.0;  // Angstrom-ish
  sys.box = cell_edge * cells;
  const double bond_len = 1.45;

  for (int cx = 0; cx < cells; ++cx) {
    for (int cy = 0; cy < cells; ++cy) {
      for (int cz = 0; cz < cells; ++cz) {
        // A bent chain molecule anchored at the cell origin.
        const Vec3 origin{cell_edge * (cx + 0.25), cell_edge * (cy + 0.25),
                          cell_edge * (cz + 0.25)};
        Vec3 prev = origin;
        for (int a = 0; a < atoms_per_molecule; ++a) {
          Vec3 p = prev;
          if (a > 0) {
            // Advance along a zig-zag direction with thermal jitter.
            const double phase = 0.7 * a;
            Vec3 dir{std::cos(phase), std::sin(phase), (a % 2 ? 0.4 : -0.4)};
            const double inv = 1.0 / dir.norm();
            p = prev + dir * (bond_len * inv);
          }
          p.x += rng.normal(0.0, 0.02);
          p.y += rng.normal(0.0, 0.02);
          p.z += rng.normal(0.0, 0.02);
          sys.pos.push_back(p);
          sys.electronegativity.push_back(rng.uniform(3.0, 8.0));
          sys.hardness.push_back(rng.uniform(6.0, 10.0));
          prev = p;
        }
      }
    }
  }
  return sys;
}

NeighborList build_neighbor_list(const System& sys, double cutoff) {
  EXA_REQUIRE(cutoff > 0.0);
  const std::size_t n = sys.size();
  NeighborList list;
  list.offsets.assign(n + 1, 0);

  // Cell list.
  const int ncell = std::max(1, static_cast<int>(sys.box / cutoff));
  const double inv_cell = ncell / std::max(sys.box, 1e-12);
  auto cell_of = [&](const Vec3& p) {
    auto clampc = [&](double v) {
      return std::clamp(static_cast<int>(v * inv_cell), 0, ncell - 1);
    };
    return std::array<int, 3>{clampc(p.x), clampc(p.y), clampc(p.z)};
  };
  std::vector<std::vector<std::size_t>> cells(
      static_cast<std::size_t>(ncell) * ncell * ncell);
  auto cell_index = [&](int x, int y, int z) {
    return (static_cast<std::size_t>(x) * ncell + y) * ncell + z;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = cell_of(sys.pos[i]);
    cells[cell_index(c[0], c[1], c[2])].push_back(i);
  }

  const double rc2 = cutoff * cutoff;
  std::vector<std::vector<std::size_t>> per_atom(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = cell_of(sys.pos[i]);
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dz = -1; dz <= 1; ++dz) {
          const int x = c[0] + dx;
          const int y = c[1] + dy;
          const int z = c[2] + dz;
          if (x < 0 || y < 0 || z < 0 || x >= ncell || y >= ncell ||
              z >= ncell) {
            continue;
          }
          for (const std::size_t j : cells[cell_index(x, y, z)]) {
            if (j <= i) continue;
            if ((sys.pos[i] - sys.pos[j]).norm2() < rc2) {
              per_atom[i].push_back(j);
            }
          }
        }
      }
    }
    std::sort(per_atom[i].begin(), per_atom[i].end());
  }

  for (std::size_t i = 0; i < n; ++i) {
    list.offsets[i + 1] = list.offsets[i] + per_atom[i].size();
  }
  list.partners.reserve(list.offsets[n]);
  for (std::size_t i = 0; i < n; ++i) {
    list.partners.insert(list.partners.end(), per_atom[i].begin(),
                         per_atom[i].end());
  }
  return list;
}

BondList build_bond_list(const System& sys, double bond_cutoff) {
  const NeighborList half = build_neighbor_list(sys, bond_cutoff);
  const std::size_t n = sys.size();
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = half.offsets[i]; p < half.offsets[i + 1]; ++p) {
      const std::size_t j = half.partners[p];
      adj[i].push_back(j);
      adj[j].push_back(i);
    }
  }
  BondList bonds;
  bonds.offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::sort(adj[i].begin(), adj[i].end());
    bonds.offsets[i + 1] = bonds.offsets[i] + adj[i].size();
  }
  bonds.partners.reserve(bonds.offsets[n]);
  for (std::size_t i = 0; i < n; ++i) {
    bonds.partners.insert(bonds.partners.end(), adj[i].begin(), adj[i].end());
  }
  return bonds;
}

}  // namespace exa::apps::lammps
