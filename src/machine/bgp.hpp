// Blue Gene/P machine description.
//
// Captures the structural facts the simulation depends on: partition
// geometry (3-D torus of quad-core nodes), the pset organisation (64 compute
// nodes share one dedicated I/O node), rank-to-node mapping, and the
// calibrated speeds of the networks and the storage fabric behind the IONs.
// `intrepidMachine()` builds the configuration of the 557 TF "Intrepid"
// system at Argonne used throughout the paper.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "simcore/units.hpp"

namespace bgckpt::machine {

using sim::Bandwidth;
using sim::Bytes;
using sim::Duration;

/// Dimensions of a 3-D torus partition, in nodes.
struct TorusShape {
  int x = 0;
  int y = 0;
  int z = 0;

  int nodes() const { return x * y * z; }
};

/// Coordinates of a node within the torus.
struct NodeCoord {
  int x = 0;
  int y = 0;
  int z = 0;

  bool operator==(const NodeCoord&) const = default;
};

/// Execution mode: how many MPI ranks run per quad-core node.
enum class NodeMode {
  kSmp = 1,   // 1 rank, 4 threads
  kDual = 2,  // 2 ranks
  kVn = 4,    // "virtual node": 4 ranks, one per core
};

/// Compute-side parameters of a BG/P system.
struct ComputeConfig {
  double coreFrequencyHz = 850e6;
  int coresPerNode = 4;
  Bytes memoryPerNode = 2 * sim::GiB;
  /// Per-direction bandwidth of one torus link.
  Bandwidth torusLinkBandwidth = 425e6;
  /// Per-hop latency on the torus.
  Duration torusHopLatency = 0.1e-6;
  /// Software send/receive overhead per MPI message.
  Duration mpiOverhead = 2.5e-6;
  /// Node memory copy bandwidth (bounds local aggregation/buffering).
  Bandwidth memoryBandwidth = 13.6e9;
  /// Collective (tree) network: per-link bandwidth and per-stage latency.
  Bandwidth treeLinkBandwidth = 850e6;
  Duration treeStageLatency = 0.75e-6;
  /// Hardware barrier network latency (global interrupt).
  Duration barrierLatency = 1.3e-6;
};

/// I/O-side parameters: psets, IONs, and the storage system behind them.
struct IoConfig {
  /// Compute nodes per pset (each pset has one dedicated I/O node).
  int nodesPerPset = 64;
  /// ION uplink to the storage fabric (10 Gigabit Ethernet).
  Bandwidth ionUplinkBandwidth = 1.25e9;
  /// System-call forwarding overhead, compute node -> ION, per request.
  Duration forwardingOverhead = 25e-6;
  /// Number of GPFS/PVFS file servers.
  int numFileServers = 128;
  /// Sustained per-server write bandwidth (47 GB/s peak / 128 servers).
  Bandwidth serverWriteBandwidth = 367e6;
  /// Sustained per-server read bandwidth (60 GB/s peak / 128 servers).
  Bandwidth serverReadBandwidth = 469e6;
  /// Per-request service overhead at a file server.
  Duration serverRequestOverhead = 120e-6;
  /// Number of DDN 9900 storage arrays behind the servers.
  int numDdnArrays = 16;
  /// Sustained write bandwidth of one DDN array.
  Bandwidth ddnWriteBandwidth = 2.94e9;
  /// Extra seek/reposition penalty per request once an array serves many
  /// concurrent streams (models falling disk efficiency at high fan-in).
  /// Scaled by min(1.5, (active - knee) / knee) per request.
  Duration ddnSeekPenalty = 2.5e-3;
  /// Number of concurrent streams an array absorbs before seek penalties
  /// kick in. Files stripe across all servers, so every array sees every
  /// active client stream; the knee is therefore a system-wide figure.
  int ddnStreamKnee = 1000;
};

/// A specific machine: geometry, mode, and both parameter blocks.
class Machine {
 public:
  Machine(TorusShape shape, NodeMode mode, ComputeConfig compute,
          IoConfig io);

  const TorusShape& shape() const { return shape_; }
  NodeMode mode() const { return mode_; }
  const ComputeConfig& compute() const { return compute_; }
  const IoConfig& io() const { return io_; }

  int numNodes() const { return shape_.nodes(); }
  int ranksPerNode() const { return static_cast<int>(mode_); }
  int numRanks() const { return numNodes() * ranksPerNode(); }
  int numPsets() const { return numNodes() / io_.nodesPerPset; }
  int ranksPerPset() const { return io_.nodesPerPset * ranksPerNode(); }

  /// Rank -> node, TXYZ order (cores vary fastest, then x, y, z).
  int nodeOfRank(int rank) const;
  /// Rank -> core within its node.
  int coreOfRank(int rank) const { return rank % ranksPerNode(); }
  /// Node linear index -> torus coordinates (x fastest).
  NodeCoord coordOfNode(int node) const;
  /// Torus coordinates -> node linear index.
  int nodeOfCoord(const NodeCoord& c) const;
  /// Node -> pset (contiguous blocks of nodesPerPset nodes).
  int psetOfNode(int node) const { return node / io_.nodesPerPset; }
  int psetOfRank(int rank) const { return psetOfNode(nodeOfRank(rank)); }

  /// Hop count of dimension-ordered routing between two nodes (shortest
  /// wraparound distance per dimension).
  int torusHops(int nodeA, int nodeB) const;

 private:
  TorusShape shape_;
  NodeMode mode_;
  ComputeConfig compute_;
  IoConfig io_;
};

/// Intrepid-like machine with `numRanks` MPI processes in VN mode;
/// geometry is chosen to match ALCF partition shapes. Throws
/// std::invalid_argument unless isIntrepidRankCount(numRanks).
Machine intrepidMachine(int numRanks);

/// True when intrepidMachine(numRanks) has a partition shape for it: one of
/// the rank counts intrepidRankCounts() lists.
bool isIntrepidRankCount(int numRanks);

/// The supported rank counts, ascending and comma-separated
/// ("256, 512, ..., 131072, 163840"), for error messages.
std::string intrepidRankCounts();

/// Human-readable one-line summary ("16384 ranks, 4096 nodes 16x16x16, ...").
std::string describe(const Machine& m);

}  // namespace bgckpt::machine
