//===- perfbench/cpp/TimedWorkload.h - Timing decorator ---------*- C++ -*-===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workloads::Workload that forwards every call to the workload it wraps
/// and times the calls the runtimes make into it: runTask (compute),
/// taskAddresses/prologueAddresses (the computeAddr slice), epochPrologue
/// (sequential outer-loop code) and registerState (checkpoint
/// registration). Traced benchmark passes hand this decorator to the public
/// entry points instead of the workload itself, so the program is measured
/// from outside, unchanged.
///
/// Per-call spans would cost memory proportional to the task count, so
/// calls aggregate per thread per root span (one region invocation or one
/// server request): a count, a duration sum, and the first start and last
/// end. None of the timed calls nests inside another, so each aggregate's
/// duration sum is its self time.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TIMEDWORKLOAD_H
#define PERFBENCH_TIMEDWORKLOAD_H

#include "workloads/Workload.h"

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace perfbench {

/// The calls the decorator times.
enum class Call : unsigned { Task, Addr, Prologue, Register };
inline constexpr unsigned NumCalls = 4;
const char *callName(Call C);

/// One thread's calls within one root span.
struct ThreadCalls {
  std::uint64_t Count[NumCalls] = {};
  std::uint64_t Ns[NumCalls] = {};
  std::uint64_t FirstNs = 0; ///< start of the thread's first timed call
  std::uint64_t LastNs = 0;  ///< end of its last timed call

  std::uint64_t count(Call C) const { return Count[unsigned(C)]; }
  std::uint64_t ns(Call C) const { return Ns[unsigned(C)]; }
};

/// Sum of the per-thread aggregates of one span.
ThreadCalls sumCalls(const std::vector<ThreadCalls> &PerThread);

class TimedWorkload final : public cip::workloads::Workload {
public:
  explicit TimedWorkload(cip::workloads::Workload &Inner);

  /// Opens a new root span: later calls aggregate into fresh per-thread
  /// slots. Not thread-safe against concurrent calls into the workload;
  /// call it between regions.
  void beginSpan();
  /// Closes the span and returns its per-thread aggregates (one entry per
  /// thread that made a timed call).
  std::vector<ThreadCalls> endSpan();

  const char *name() const override { return Inner.name(); }
  void reset() override { Inner.reset(); }
  std::uint32_t numEpochs() const override { return Inner.numEpochs(); }
  std::size_t numTasks(std::uint32_t Epoch) const override {
    return Inner.numTasks(Epoch);
  }
  void runTask(std::uint32_t Epoch, std::size_t Task) override;
  void taskAddresses(std::uint32_t Epoch, std::size_t Task,
                     std::vector<std::uint64_t> &Addrs) const override;
  void epochPrologue(std::uint32_t Epoch, std::uint32_t Tid) override;
  bool hasPrologue() const override { return Inner.hasPrologue(); }
  bool prologueDuplicable() const override {
    return Inner.prologueDuplicable();
  }
  void prologueAddresses(std::uint32_t Epoch,
                         std::vector<std::uint64_t> &Addrs) const override;
  std::uint64_t addressSpaceSize() const override {
    return Inner.addressSpaceSize();
  }
  void registerState(cip::speccross::CheckpointRegistry &Reg) override;
  std::uint64_t checksum() const override { return Inner.checksum(); }
  bool domoreApplicable() const override { return Inner.domoreApplicable(); }
  bool speccrossApplicable() const override {
    return Inner.speccrossApplicable();
  }
  const char *innerLoopPlan() const override { return Inner.innerLoopPlan(); }
  cip::speccross::SignatureScheme preferredSignature() const override {
    return Inner.preferredSignature();
  }

private:
  /// The calling thread's slot in the open span.
  ThreadCalls &slot() const;
  void record(Call C, std::uint64_t Begin, std::uint64_t End) const;

  cip::workloads::Workload &Inner;
  /// Identifies the open span process-wide, so a thread's cached slot
  /// pointer is never reused across spans or decorators.
  std::uint64_t Span = 0;
  mutable std::mutex Mu; ///< guards Slots' growth; each slot has one writer
  mutable std::deque<ThreadCalls> Slots;
};

} // namespace perfbench

#endif // PERFBENCH_TIMEDWORKLOAD_H
