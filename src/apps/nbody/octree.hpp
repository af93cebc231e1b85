// Barnes-Hut oct-tree gravitational N-body — the paper's third workload:
// "an oct-tree algorithm with 8K particles per processor, which resulted in
// 303 million total particle interactions" (Olson & Dorband tree code).
//
// Full 3-D implementation: octree construction by recursive insertion,
// centre-of-mass computation, force evaluation with the theta opening
// criterion and Plummer softening, leapfrog (KDK) integration, and exact
// interaction counting.
//
// The force pass walks a flattened copy of the tree: depth-first
// pre-order with children in descending octant order, each entry carrying
// the index just past its subtree. A walk needs no stack (an accepted cell
// or a leaf jumps past its subtree, an opened cell steps to its first
// child), visits exactly the cells an explicit-stack walk that pushes
// children 0..7 would pop, in the same order, so every body's sum is the
// same floating-point sum. Bodies are walked in leaf order, which keeps
// neighbouring bodies' walks on the same cells.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/fork_join.hpp"
#include "util/rng.hpp"

namespace ess::apps::nbody {

struct Vec3 {
  double x = 0, y = 0, z = 0;

  Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  double norm2() const { return x * x + y * y + z * z; }
};

struct Body {
  Vec3 pos, vel, acc;
  double mass = 0;
};

/// Octree over a cubic domain; nodes stored in a flat arena.
class Octree {
 public:
  /// A cell while building. Its centre and half-width are not stored:
  /// insertion derives them on the way down from the root cube.
  struct Node {
    Vec3 com;             // centre of mass
    double mass = 0;
    int body = -1;        // leaf: index of the single body (-1 otherwise)
    int count = 0;        // bodies in the subtree
    std::array<int, 8> child{-1, -1, -1, -1, -1, -1, -1, -1};
  };

  /// Build over the given bodies (the bounding cube is computed).
  void build(const std::vector<Body>& bodies);

  /// The force pass: sets the acc of every body the tree was built over
  /// and returns the body-body and body-cell interactions evaluated. With
  /// a board, the pass is posted there in blocks of bodies; each block
  /// writes only its own bodies' acc, so the results are the same
  /// whichever threads ran it.
  std::uint64_t accelerations(std::vector<Body>& bodies, double theta,
                              double softening,
                              util::ForkJoinBoard* board = nullptr) const;

  std::size_t node_count() const { return nodes_.size(); }
  const Node& root() const { return nodes_.front(); }

 private:
  /// One cell of the flattened tree.
  struct WalkEntry {
    Vec3 com;
    double mass = 0;   // a leaf's is its body's own mass
    double open2 = 0;  // (2 half)^2; unused for leaves, which never open
    int body = -1;     // leaf: its body (-1 otherwise)
    int skip = 0;      // the entry just past this subtree
  };

  int make_node();
  void insert(const std::vector<Body>& bodies, int node, const Vec3& center,
              double half, int body, int depth);
  void finalize(const std::vector<Body>& bodies, int node);
  void flatten(const std::vector<Body>& bodies, int node, double half);
  /// Sets the acc of bodies order_[begin, end); returns the interactions.
  std::uint64_t walk(std::vector<Body>& bodies, std::size_t begin,
                     std::size_t end, double theta, double softening) const;

  std::vector<Node> nodes_;
  std::vector<WalkEntry> walk_;
  // Every body once: leaf bodies in tree order, then bodies a
  // coincident-point merge kept out of the leaves, in index order.
  std::vector<int> order_;
};

struct SystemStats {
  double kinetic = 0;
  double potential_proxy = 0;  // -sum m_i |a_i| r_i (cheap bound proxy)
  Vec3 momentum;
  double max_speed = 0;
};

class NBodySim {
 public:
  NBodySim(int n_bodies, std::uint64_t seed);

  /// One leapfrog step; returns interactions evaluated. The force passes
  /// are posted on `board` when one is given.
  std::uint64_t step(double dt, double theta, double softening,
                     util::ForkJoinBoard* board = nullptr);

  SystemStats stats() const;
  const std::vector<Body>& bodies() const { return bodies_; }
  std::uint64_t total_interactions() const { return total_interactions_; }

 private:
  void compute_forces(double theta, double softening,
                      util::ForkJoinBoard* board);

  std::vector<Body> bodies_;
  Octree tree_;
  std::uint64_t total_interactions_ = 0;
  std::uint64_t last_step_interactions_ = 0;
  bool first_step_ = true;
};

}  // namespace ess::apps::nbody
