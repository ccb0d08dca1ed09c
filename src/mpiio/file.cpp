#include "mpiio/file.hpp"

#include <algorithm>

namespace bgckpt::io {

namespace {

constexpr int kExchangeTagBase = 1'000'000;

std::uint64_t ceilTo(std::uint64_t value, std::uint64_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

}  // namespace

struct MpiFile::Shared {
  std::string path;
  Hints hints;
  std::vector<int> aggregators;  // local ranks, ascending
  std::vector<bool> isAgg;

  // Metadata for the current collective-write round, built once by the
  // first rank to need it (single-threaded simulation makes this safe).
  struct RoundMeta {
    int round = -1;
    std::shared_ptr<const std::vector<std::uint64_t>> offsets;
    std::shared_ptr<const std::vector<std::uint64_t>> lens;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint64_t domainSize = 0;
    // Sorted extent endpoints (zero-length extents excluded) for O(log n)
    // contributor counting per domain.
    std::vector<std::uint64_t> starts;
    std::vector<std::uint64_t> ends;

    int domainOf(std::uint64_t offset) const {
      return static_cast<int>((offset - lo) / domainSize);
    }
    std::uint64_t domainLo(int d) const {
      return lo + static_cast<std::uint64_t>(d) * domainSize;
    }
    std::uint64_t domainHi(int d) const {
      return std::min(hi, domainLo(d) + domainSize);
    }
    int numDomains() const {
      if (hi <= lo) return 0;
      return static_cast<int>((hi - lo + domainSize - 1) / domainSize);
    }
    /// Ranks whose extent overlaps [dLo, dHi).
    int contributors(std::uint64_t dLo, std::uint64_t dHi) const {
      const auto startsBelow = static_cast<std::int64_t>(
          std::lower_bound(starts.begin(), starts.end(), dHi) -
          starts.begin());
      const auto endsAtOrBelow = static_cast<std::int64_t>(
          std::upper_bound(ends.begin(), ends.end(), dLo) - ends.begin());
      return static_cast<int>(startsBelow - endsAtOrBelow);
    }
  };
  RoundMeta meta;

  void buildRound(int round, const Hints& h, sim::Bytes fsBlock,
                  std::shared_ptr<const std::vector<std::uint64_t>> offsets,
                  std::shared_ptr<const std::vector<std::uint64_t>> lens) {
    meta.round = round;
    meta.offsets = std::move(offsets);
    meta.lens = std::move(lens);
    meta.lo = ~0ULL;
    meta.hi = 0;
    meta.starts.clear();
    meta.ends.clear();
    for (std::size_t r = 0; r < meta.offsets->size(); ++r) {
      const auto len = (*meta.lens)[r];
      if (len == 0) continue;
      const auto off = (*meta.offsets)[r];
      meta.lo = std::min(meta.lo, off);
      meta.hi = std::max(meta.hi, off + len);
      meta.starts.push_back(off);
      meta.ends.push_back(off + len);
    }
    std::sort(meta.starts.begin(), meta.starts.end());
    std::sort(meta.ends.begin(), meta.ends.end());
    if (meta.hi <= meta.lo) {  // nothing to write this round
      meta.lo = meta.hi = 0;
      meta.domainSize = 1;
      return;
    }
    const auto n = static_cast<std::uint64_t>(aggregators.size());
    std::uint64_t raw = (meta.hi - meta.lo + n - 1) / n;
    if (h.alignFileDomains) raw = ceilTo(std::max<std::uint64_t>(raw, 1),
                                         fsBlock);
    meta.domainSize = std::max<std::uint64_t>(raw, 1);
  }
};

std::vector<int> chooseAggregators(const mpi::Comm& comm, const Hints& hints) {
  // BG/P rule: each pset the communicator touches contributes aggregators
  // in proportion to the ranks it holds there — ceil(ranksInPset /
  // (ranksPerPset / bgpNodesPset)) — spread so no node carries two. A dense
  // communicator gets the stock 32:1 ratio (256 VN ranks per pset / 8); a
  // sparse one (e.g. rbIO's one-writer-per-group comm) gets at least one
  // aggregator in every pset it touches.
  const auto& mach = comm.machine();
  const int ranksPerAgg =
      std::max(1, mach.ranksPerPset() / std::max(1, hints.bgpNodesPset));
  std::vector<int> perPset(static_cast<std::size_t>(mach.numPsets()), 0);
  for (int r = 0; r < comm.size(); ++r)
    ++perPset[static_cast<std::size_t>(
        mach.psetOfRank(comm.globalRank(r)))];
  int count = 0;
  for (int inPset : perPset)
    count += (inPset + ranksPerAgg - 1) / ranksPerAgg;
  count = std::clamp(count, 1, comm.size());
  std::vector<int> aggs;
  aggs.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k)
    aggs.push_back(static_cast<int>(
        (static_cast<std::int64_t>(k) * comm.size()) / count));
  return aggs;
}

sim::Task<MpiFile> MpiFile::open(mpi::Comm comm, fs::ParallelFsSim& fsys,
                                 std::string path, Hints hints,
                                 obs::OpTraceContext otc) {
  std::shared_ptr<Shared> shared;
  if (comm.rank() == 0) {
    shared = std::make_shared<Shared>();
    shared->path = path;
    shared->hints = hints;
    shared->aggregators = chooseAggregators(comm, hints);
    shared->isAgg.assign(static_cast<std::size_t>(comm.size()), false);
    for (int a : shared->aggregators)
      shared->isAgg[static_cast<std::size_t>(a)] = true;
    if (!fsys.image().exists(path)) {
      auto fh = co_await fsys.create(comm.globalRank(0), path, otc);
      co_await fsys.close(comm.globalRank(0), fh, otc);
    }
  }
  mpi::Message m;
  m.size = 64;  // a tiny metadata broadcast
  m.box = shared;
  const sim::SimTime bcastStart = comm.scheduler().now();
  m = co_await comm.bcast(0, m);
  otc.hop(obs::Hop::kCollective, bcastStart, comm.scheduler().now());
  shared = std::static_pointer_cast<Shared>(m.box);

  MpiFile file(comm, &fsys, shared);
  const bool opensNow =
      !hints.deferredOpen ||
      shared->isAgg[static_cast<std::size_t>(comm.rank())];
  if (opensNow) co_await file.ensureFsHandle(otc);
  const sim::SimTime barrierStart = comm.scheduler().now();
  co_await comm.barrier();
  otc.hop(obs::Hop::kCollective, barrierStart, comm.scheduler().now());
  co_return file;
}

sim::Task<> MpiFile::ensureFsHandle(obs::OpTraceContext otc) {
  if (!fsHandle_)
    fsHandle_ = co_await fsys_->open(myFsClientId(), shared_->path, otc);
}

sim::Task<> MpiFile::writeAt(std::uint64_t offset, sim::Bytes len,
                             std::span<const std::byte> data,
                             obs::OpTraceContext otc) {
  co_await ensureFsHandle(otc);
  co_await fsys_->write(myFsClientId(), fsHandle_, offset, len, data, otc);
}

sim::Task<> MpiFile::readAt(std::uint64_t offset, sim::Bytes len,
                            obs::OpTraceContext otc) {
  co_await ensureFsHandle(otc);
  co_await fsys_->read(myFsClientId(), fsHandle_, offset, len, otc);
}

sim::Task<> MpiFile::writeAtAll(std::uint64_t offset, sim::Bytes len,
                                std::span<const std::byte> data,
                                obs::OpTraceContext otc) {
  const int round = round_++;
  const sim::SimTime gatherStart = comm_.scheduler().now();
  auto offsets = co_await comm_.allGatherU64Shared(offset);
  auto lens = co_await comm_.allGatherU64Shared(len);
  otc.hop(obs::Hop::kCollective, gatherStart, comm_.scheduler().now());

  Shared& sh = *shared_;
  if (sh.meta.round != round)
    sh.buildRound(round, sh.hints, fsys_->config().blockSize,
                  std::move(offsets), std::move(lens));
  const auto& meta = sh.meta;
  const int tag = kExchangeTagBase + round;

  // Phase 1: ship my extent to the aggregator(s) owning its domains.
  if (len > 0 && meta.hi > meta.lo) {
    std::uint64_t cursor = offset;
    const std::uint64_t end = offset + len;
    while (cursor < end) {
      const int d = meta.domainOf(cursor);
      const std::uint64_t pieceEnd = std::min(end, meta.domainHi(d));
      mpi::Message piece;
      piece.size = pieceEnd - cursor;
      piece.meta = cursor;
      piece.trace = otc;  // the contributor's context rides with the data
      if (!data.empty()) {
        auto bytes = std::make_shared<std::vector<std::byte>>(
            data.begin() + static_cast<std::ptrdiff_t>(cursor - offset),
            data.begin() + static_cast<std::ptrdiff_t>(pieceEnd - offset));
        piece.payload = std::move(bytes);
      }
      const int aggRank = sh.aggregators[static_cast<std::size_t>(d)];
      // Fire-and-forget: delivery is guaranteed before the aggregator can
      // finish its expected-receive loop, and the closing barrier bounds
      // this rank's participation.
      mpi::Request req = co_await comm_.isend(aggRank, tag, std::move(piece));
      (void)req;
      cursor = pieceEnd;
    }
  }

  // Phase 2: aggregators collect their domain and commit it.
  if (sh.isAgg[static_cast<std::size_t>(comm_.rank())] && meta.hi > meta.lo)
    co_await commitDomain(tag, otc);

  // Phase 3: collective completion.
  const sim::SimTime barrierStart = comm_.scheduler().now();
  co_await comm_.barrier();
  otc.hop(obs::Hop::kCollective, barrierStart, comm_.scheduler().now());
}

sim::Task<> MpiFile::commitDomain(int tag, obs::OpTraceContext otc) {
  const Shared& sh = *shared_;
  const auto& meta = sh.meta;
  // Which domain(s) do I own? Aggregator k owns domain k.
  const auto it = std::find(sh.aggregators.begin(), sh.aggregators.end(),
                            comm_.rank());
  const int myDomain = static_cast<int>(it - sh.aggregators.begin());
  if (myDomain >= meta.numDomains()) co_return;
  const std::uint64_t dLo = meta.domainLo(myDomain);
  const std::uint64_t dHi = meta.domainHi(myDomain);
  const int expected = meta.contributors(dLo, dHi);
  struct Piece {
    std::uint64_t offset;
    sim::Bytes size;
    std::shared_ptr<const std::vector<std::byte>> payload;
  };
  std::vector<Piece> pieces;
  pieces.reserve(static_cast<std::size_t>(expected));
  for (int i = 0; i < expected; ++i) {
    mpi::Message msg = co_await comm_.recv(mpi::kAnySource, tag);
    otc.link(msg.trace);  // 32:1 (or nf-dependent) fan-in lineage
    pieces.push_back({msg.meta, msg.size, msg.payload});
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) {
              return a.offset < b.offset;
            });
  co_await ensureFsHandle(otc);
  // Coalesce contiguous pieces into runs; commit runs chunk by chunk.
  std::size_t i = 0;
  while (i < pieces.size()) {
    std::uint64_t runLo = pieces[i].offset;
    std::uint64_t runHi = runLo + pieces[i].size;
    std::vector<std::byte> runBytes;
    bool haveBytes = pieces[i].payload != nullptr;
    if (haveBytes)
      runBytes.assign(pieces[i].payload->begin(),
                      pieces[i].payload->end());
    ++i;
    while (i < pieces.size() && pieces[i].offset == runHi) {
      if (haveBytes && pieces[i].payload) {
        runBytes.insert(runBytes.end(), pieces[i].payload->begin(),
                        pieces[i].payload->end());
      } else {
        haveBytes = false;
      }
      runHi += pieces[i].size;
      ++i;
    }
    std::uint64_t cursor = runLo;
    while (cursor < runHi) {
      const std::uint64_t chunkEnd =
          std::min(runHi, cursor + sh.hints.cbBufferSize);
      std::span<const std::byte> chunkData;
      if (haveBytes)
        chunkData = std::span<const std::byte>(
            runBytes.data() + (cursor - runLo), chunkEnd - cursor);
      co_await fsys_->write(myFsClientId(), fsHandle_, cursor,
                            chunkEnd - cursor, chunkData, otc);
      cursor = chunkEnd;
    }
  }
}

sim::Task<> MpiFile::close(obs::OpTraceContext otc) {
  if (fsHandle_) {
    co_await fsys_->close(myFsClientId(), fsHandle_, otc);
    fsHandle_.reset();
  }
  const sim::SimTime barrierStart = comm_.scheduler().now();
  co_await comm_.barrier();
  otc.hop(obs::Hop::kCollective, barrierStart, comm_.scheduler().now());
}

bool MpiFile::isAggregator() const {
  return shared_->isAgg[static_cast<std::size_t>(comm_.rank())];
}

int MpiFile::numAggregators() const {
  return static_cast<int>(shared_->aggregators.size());
}

const std::string& MpiFile::path() const { return shared_->path; }

}  // namespace bgckpt::io
