#include "apps/nbody/octree.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ess::apps::nbody {

int Octree::make_node() {
  nodes_.emplace_back();
  return static_cast<int>(nodes_.size() - 1);
}

void Octree::build(const std::vector<Body>& bodies) {
  nodes_.clear();
  if (bodies.empty()) throw std::invalid_argument("no bodies");
  nodes_.reserve(bodies.size() * 2);

  Vec3 lo = bodies[0].pos, hi = bodies[0].pos;
  for (const auto& b : bodies) {
    lo.x = std::min(lo.x, b.pos.x);
    lo.y = std::min(lo.y, b.pos.y);
    lo.z = std::min(lo.z, b.pos.z);
    hi.x = std::max(hi.x, b.pos.x);
    hi.y = std::max(hi.y, b.pos.y);
    hi.z = std::max(hi.z, b.pos.z);
  }
  const Vec3 center{(lo.x + hi.x) / 2, (lo.y + hi.y) / 2, (lo.z + hi.z) / 2};
  const double half =
      std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z}) / 2 + 1e-9;
  make_node();
  for (int i = 0; i < static_cast<int>(bodies.size()); ++i) {
    insert(bodies, 0, center, half, i, 0);
  }
  finalize(bodies, 0);

  walk_.clear();
  walk_.reserve(nodes_.size());
  order_.clear();
  flatten(bodies, 0, half);
  if (order_.size() < bodies.size()) {
    // Coincident-point merges left some bodies out of the leaves.
    std::vector<bool> in_leaf(bodies.size(), false);
    for (const int b : order_) in_leaf[static_cast<std::size_t>(b)] = true;
    for (int i = 0; i < static_cast<int>(bodies.size()); ++i) {
      if (!in_leaf[static_cast<std::size_t>(i)]) order_.push_back(i);
    }
  }
}

void Octree::insert(const std::vector<Body>& bodies, int node,
                    const Vec3& center, double half, int body, int depth) {
  constexpr int kMaxDepth = 64;
  Node& n = nodes_[node];
  if (n.count == 0) {
    n.body = body;
    n.count = 1;
    return;
  }
  if (depth >= kMaxDepth) {
    // Coincident points: merge into the cell (the COM pass handles mass).
    n.count++;
    return;
  }
  // Internal (or leaf being split): push any resident body down.
  const int resident = n.body;
  n.body = -1;
  n.count++;

  const double h = half / 2;
  auto push_down = [&](int b) {
    const Vec3& p = bodies[static_cast<std::size_t>(b)].pos;
    const int oct = (p.x >= center.x ? 1 : 0) | (p.y >= center.y ? 2 : 0) |
                    (p.z >= center.z ? 4 : 0);
    if (nodes_[node].child[oct] < 0) {
      const int idx = make_node();  // may reallocate nodes_
      nodes_[node].child[oct] = idx;
    }
    const Vec3 c{center.x + (oct & 1 ? h : -h), center.y + (oct & 2 ? h : -h),
                 center.z + (oct & 4 ? h : -h)};
    insert(bodies, nodes_[node].child[oct], c, h, b, depth + 1);
  };
  if (resident >= 0) push_down(resident);
  push_down(body);
}

void Octree::finalize(const std::vector<Body>& bodies, int node) {
  Node& n = nodes_[node];
  if (n.body >= 0) {
    // Leaf: the body itself (coincident merges carry count > 1 with the
    // same position, so mass scales with count).
    n.com = bodies[static_cast<std::size_t>(n.body)].pos;
    n.mass = bodies[static_cast<std::size_t>(n.body)].mass * n.count;
    return;
  }
  n.com = Vec3{};
  n.mass = 0;
  for (const int c : n.child) {
    if (c < 0) continue;
    finalize(bodies, c);
    const Node& cn = nodes_[c];
    n.com += cn.com * cn.mass;
    n.mass += cn.mass;
  }
  if (n.mass > 0) n.com = n.com * (1.0 / n.mass);
}

void Octree::flatten(const std::vector<Body>& bodies, int node,
                     double half) {
  const Node& n = nodes_[node];
  const auto k = walk_.size();
  if (n.body >= 0) {
    // The walk weighs a leaf by its one body, not by the mass x count a
    // coincident-point merge leaves on the node.
    walk_.push_back({n.com, bodies[static_cast<std::size_t>(n.body)].mass, 0,
                     n.body, static_cast<int>(k + 1)});
    order_.push_back(n.body);
    return;
  }
  const double cell = 2.0 * half;
  walk_.push_back({n.com, n.mass, cell * cell, -1, 0});
  for (int oct = 7; oct >= 0; --oct) {
    if (n.child[oct] >= 0) flatten(bodies, n.child[oct], half / 2);
  }
  walk_[k].skip = static_cast<int>(walk_.size());
}

std::uint64_t Octree::accelerations(std::vector<Body>& bodies, double theta,
                                    double softening,
                                    util::ForkJoinBoard* board) const {
  if (board == nullptr) {
    return walk(bodies, 0, order_.size(), theta, softening);
  }
  // Blocks of neighbouring bodies, about 2 ms each at paper scale, so a
  // helper that turns up late still finds work.
  constexpr std::size_t kBlockBodies = 256;
  const std::size_t blocks = (order_.size() + kBlockBodies - 1) / kBlockBodies;
  std::vector<std::uint64_t> counts(blocks, 0);
  board->run(blocks, [&](std::size_t b) {
    const std::size_t begin = b * kBlockBodies;
    counts[b] = walk(bodies, begin,
                     std::min(begin + kBlockBodies, order_.size()), theta,
                     softening);
  });
  std::uint64_t interactions = 0;
  for (const std::uint64_t c : counts) interactions += c;
  return interactions;
}

std::uint64_t Octree::walk(std::vector<Body>& bodies, std::size_t begin,
                           std::size_t end, double theta,
                           double softening) const {
  const double theta2 = theta * theta;
  const double eps2 = softening * softening;
  const WalkEntry* const entries = walk_.data();
  const int size = static_cast<int>(walk_.size());
  std::uint64_t interactions = 0;
  for (std::size_t o = begin; o < end; ++o) {
    const int i = order_[o];
    Body& bi = bodies[static_cast<std::size_t>(i)];
    const Vec3 pi = bi.pos;
    Vec3 acc;
    int k = 0;
    while (k < size) {
      const WalkEntry& e = entries[k];
      if (e.body == i) {
        k = e.skip;
        continue;
      }
      const Vec3 d = e.com - pi;
      const double r2 = d.norm2();
      if (e.body >= 0 || e.open2 < theta2 * r2) {
        // A leaf, or a cell far enough away: interact with its COM.
        const double inv_r = 1.0 / std::sqrt(r2 + eps2);
        acc += d * (e.mass * inv_r * inv_r * inv_r);
        ++interactions;
        k = e.skip;
      } else {
        ++k;
      }
    }
    bi.acc = acc;
  }
  return interactions;
}

NBodySim::NBodySim(int n_bodies, std::uint64_t seed) {
  Rng rng(seed);
  bodies_.resize(n_bodies);
  // Plummer-like sphere with isotropic velocities.
  for (auto& b : bodies_) {
    const double u = rng.uniform01();
    const double r = 1.0 / std::sqrt(std::pow(u + 1e-6, -2.0 / 3.0) - 1.0 + 1e-9);
    const double rr = std::min(r, 5.0);
    const double th = std::acos(2.0 * rng.uniform01() - 1.0);
    const double ph = 2.0 * M_PI * rng.uniform01();
    b.pos = Vec3{rr * std::sin(th) * std::cos(ph),
                 rr * std::sin(th) * std::sin(ph), rr * std::cos(th)};
    b.vel = Vec3{rng.normal(0, 0.1), rng.normal(0, 0.1), rng.normal(0, 0.1)};
    b.mass = 1.0 / n_bodies;
  }
}

void NBodySim::compute_forces(double theta, double softening,
                              util::ForkJoinBoard* board) {
  tree_.build(bodies_);
  const std::uint64_t inter =
      tree_.accelerations(bodies_, theta, softening, board);
  total_interactions_ += inter;
  last_step_interactions_ = inter;
}

std::uint64_t NBodySim::step(double dt, double theta, double softening,
                             util::ForkJoinBoard* board) {
  if (first_step_) {
    compute_forces(theta, softening, board);
    first_step_ = false;
  }
  // KDK leapfrog.
  for (auto& b : bodies_) {
    b.vel += b.acc * (dt / 2);
    b.pos += b.vel * dt;
  }
  compute_forces(theta, softening, board);
  for (auto& b : bodies_) {
    b.vel += b.acc * (dt / 2);
  }
  return last_step_interactions_;
}

SystemStats NBodySim::stats() const {
  SystemStats s;
  for (const auto& b : bodies_) {
    const double v2 = b.vel.norm2();
    s.kinetic += 0.5 * b.mass * v2;
    s.momentum += b.vel * b.mass;
    s.max_speed = std::max(s.max_speed, std::sqrt(v2));
    s.potential_proxy -=
        b.mass * std::sqrt(b.acc.norm2()) * std::sqrt(b.pos.norm2());
  }
  return s;
}

}  // namespace ess::apps::nbody
