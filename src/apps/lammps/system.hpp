#pragma once
/// \file system.hpp
/// Molecular system for the ReaxFF mini-app (§3.10): an HNS-like molecular
/// crystal generator, a cell-list neighbor finder, and the distance-based
/// bond list the force kernels consume.

#include <array>
#include <cstddef>
#include <vector>

#include "support/rng.hpp"

namespace exa::apps::lammps {

struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;

  Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  [[nodiscard]] double dot(const Vec3& o) const {
    return x * o.x + y * o.y + z * o.z;
  }
  [[nodiscard]] Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  [[nodiscard]] double norm2() const { return dot(*this); }
  [[nodiscard]] double norm() const;
};

/// An atomistic system (non-periodic box).
struct System {
  std::vector<Vec3> pos;
  std::vector<double> electronegativity;  ///< chi, for QEq
  std::vector<double> hardness;           ///< eta, for QEq
  double box = 0.0;                       ///< cubic box edge

  [[nodiscard]] std::size_t size() const { return pos.size(); }
};

/// Builds an HNS-like molecular crystal: `cells`^3 unit cells, each with a
/// small rigid molecule of `atoms_per_molecule` atoms, thermal jitter
/// applied. Intra-molecular distances are short (bonded); inter-molecular
/// distances are larger.
[[nodiscard]] System make_molecular_crystal(int cells, int atoms_per_molecule,
                                            support::Rng& rng);

/// Half neighbor list (i < j) built with a cell list in O(n).
struct NeighborList {
  std::vector<std::size_t> offsets;  ///< size n+1
  std::vector<std::size_t> partners; ///< concatenated neighbor indices

  [[nodiscard]] std::size_t degree(std::size_t i) const {
    return offsets[i + 1] - offsets[i];
  }
  [[nodiscard]] std::size_t pairs() const { return partners.size(); }
};

[[nodiscard]] NeighborList build_neighbor_list(const System& sys,
                                               double cutoff);

/// Distance-threshold bond list (full adjacency: both directions stored).
struct BondList {
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> partners;

  [[nodiscard]] std::size_t degree(std::size_t i) const {
    return offsets[i + 1] - offsets[i];
  }
};

[[nodiscard]] BondList build_bond_list(const System& sys, double bond_cutoff);

}  // namespace exa::apps::lammps
