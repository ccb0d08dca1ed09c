#include "machine/bgp.hpp"

#include <cmath>
#include <cstdio>

namespace bgckpt::machine {

Machine::Machine(TorusShape shape, NodeMode mode, ComputeConfig compute,
                 IoConfig io)
    : shape_(shape), mode_(mode), compute_(compute), io_(io) {
  if (shape_.x <= 0 || shape_.y <= 0 || shape_.z <= 0)
    throw std::invalid_argument("torus dimensions must be positive");
  if (numNodes() % io_.nodesPerPset != 0)
    throw std::invalid_argument(
        "node count must be a multiple of the pset size");
}

int Machine::nodeOfRank(int rank) const {
  if (rank < 0 || rank >= numRanks())
    throw std::out_of_range("rank out of range");
  return rank / ranksPerNode();
}

NodeCoord Machine::coordOfNode(int node) const {
  if (node < 0 || node >= numNodes())
    throw std::out_of_range("node out of range");
  NodeCoord c;
  c.x = node % shape_.x;
  c.y = (node / shape_.x) % shape_.y;
  c.z = node / (shape_.x * shape_.y);
  return c;
}

int Machine::nodeOfCoord(const NodeCoord& c) const {
  if (c.x < 0 || c.x >= shape_.x || c.y < 0 || c.y >= shape_.y || c.z < 0 ||
      c.z >= shape_.z)
    throw std::out_of_range("coordinate out of range");
  return c.x + shape_.x * (c.y + shape_.y * c.z);
}

int Machine::torusHops(int nodeA, int nodeB) const {
  const NodeCoord a = coordOfNode(nodeA);
  const NodeCoord b = coordOfNode(nodeB);
  auto wrapDist = [](int p, int q, int dim) {
    int d = std::abs(p - q);
    return std::min(d, dim - d);
  };
  return wrapDist(a.x, b.x, shape_.x) + wrapDist(a.y, b.y, shape_.y) +
         wrapDist(a.z, b.z, shape_.z);
}

namespace {

// Intrepid partitions in VN mode (4 ranks per node), by shape. Shapes follow
// ALCF conventions (midplane = 8x8x16 = 512 nodes; larger partitions stack
// midplanes).
constexpr int kVnRanksPerNode = 4;
const TorusShape kIntrepidShapes[] = {
    {4, 4, 4},     {4, 4, 8}, {4, 8, 8},
    {8, 8, 8},     // one midplane (logical cube)
    {8, 8, 16},    {8, 16, 16},
    {16, 16, 16},  // 16K ranks
    {16, 16, 32},  // 32K ranks
    {16, 32, 32},  // 64K ranks
    {32, 32, 32},  // 128K ranks
    {40, 32, 32},  // full Intrepid
};

const TorusShape* findShape(int numRanks) {
  for (const TorusShape& shape : kIntrepidShapes)
    if (shape.nodes() * kVnRanksPerNode == numRanks) return &shape;
  return nullptr;
}

}  // namespace

bool isIntrepidRankCount(int numRanks) {
  return findShape(numRanks) != nullptr;
}

std::string intrepidRankCounts() {
  std::string out;
  for (const TorusShape& shape : kIntrepidShapes) {
    if (!out.empty()) out += ", ";
    out += std::to_string(shape.nodes() * kVnRanksPerNode);
  }
  return out;
}

Machine intrepidMachine(int numRanks) {
  if (numRanks < kVnRanksPerNode || numRanks % kVnRanksPerNode != 0)
    throw std::invalid_argument("Intrepid VN-mode rank count must be 4*nodes");
  const TorusShape* shape = findShape(numRanks);
  if (shape == nullptr)
    throw std::invalid_argument(
        "unsupported Intrepid partition: " +
        std::to_string(numRanks / kVnRanksPerNode) + " nodes");
  return Machine(*shape, NodeMode::kVn, ComputeConfig{}, IoConfig{});
}

std::string describe(const Machine& m) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%d ranks on %d nodes (%dx%dx%d torus, %s mode), %d psets, "
                "%d file servers, %d DDN arrays",
                m.numRanks(), m.numNodes(), m.shape().x, m.shape().y,
                m.shape().z,
                m.mode() == NodeMode::kVn
                    ? "VN"
                    : (m.mode() == NodeMode::kDual ? "DUAL" : "SMP"),
                m.numPsets(), m.io().numFileServers, m.io().numDdnArrays);
  return buf;
}

}  // namespace bgckpt::machine
