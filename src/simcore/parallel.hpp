// Point-level parallelism: run independent simulations side by side.
//
// The figure benches sweep independent (strategy, np, nf) points; each
// point is a whole simulation with its own Scheduler and model. parallelFor
// runs those jobs on a small worker pool. There is no cross-job
// communication: determinism is a property of each job (it builds its own
// simulation and writes only its own result slot), and callers consume the
// slots in program order afterwards. Coroutine frames come from the
// thread-local FrameArena, so a job allocates and frees every frame on the
// worker that runs it.
//
// RuntimeObserver is the wall-clock seam: obs::RuntimeProfiler implements
// it to time regions and jobs. simcore itself never reads a clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace bgckpt::sim {

/// Process-wide hook for real-time profiling of parallelFor. Dormant when
/// unset: every instrumentation site is a single null check. Installed by
/// obs::RuntimeProfiler; simcore only defines the seam. All callbacks must
/// be noexcept; jobBegin/jobEnd run on worker threads concurrently.
class RuntimeObserver {
 public:
  virtual ~RuntimeObserver() = default;
  /// parallelFor region lifecycle. `id` is a process-unique region id;
  /// jobBegin/jobEnd run on worker threads (worker < threads).
  virtual void parallelForBegin(std::uint64_t id, std::size_t jobs,
                                unsigned threads) noexcept = 0;
  virtual void jobBegin(std::uint64_t id, std::size_t job,
                        unsigned worker) noexcept = 0;
  virtual void jobEnd(std::uint64_t id, std::size_t job,
                      unsigned worker) noexcept = 0;
  virtual void parallelForEnd(std::uint64_t id) noexcept = 0;
};

/// Install (or clear, with nullptr) the process-wide runtime observer.
/// Not synchronized against in-flight regions: install before starting
/// work, clear after joining it. Returns the previous observer.
RuntimeObserver* setRuntimeObserver(RuntimeObserver* observer) noexcept;
RuntimeObserver* runtimeObserver() noexcept;

/// Deterministically-slotted parallel job map: run body(0..n-1) on up to
/// `threads` workers (dynamic work stealing via an atomic cursor; callers
/// make determinism a property of each job, e.g. one independent simulation
/// per job writing only its own slot). threads <= 1 runs inline, in order.
/// Exceptions: the lowest job index's exception is rethrown after all
/// workers finish.
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& body);

}  // namespace bgckpt::sim
