//===- perfbench/cpp/TimedWorkload.cpp - Timing decorator -----------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//

#include "TimedWorkload.h"

#include "support/Timer.h"

#include <atomic>

using namespace perfbench;
using cip::nowNanos;

namespace {

std::atomic<std::uint64_t> NextSpan{1};

/// The calling thread's slot for the span it last touched.
struct SlotCache {
  std::uint64_t Span = 0;
  ThreadCalls *Slot = nullptr;
};
thread_local SlotCache Cache;

} // namespace

const char *perfbench::callName(Call C) {
  static const char *const Names[NumCalls] = {"runTask", "computeAddr",
                                              "prologue", "registerState"};
  return Names[unsigned(C)];
}

ThreadCalls perfbench::sumCalls(const std::vector<ThreadCalls> &PerThread) {
  ThreadCalls Sum;
  for (const ThreadCalls &T : PerThread) {
    for (unsigned C = 0; C < NumCalls; ++C) {
      Sum.Count[C] += T.Count[C];
      Sum.Ns[C] += T.Ns[C];
    }
    if (!Sum.FirstNs || (T.FirstNs && T.FirstNs < Sum.FirstNs))
      Sum.FirstNs = T.FirstNs;
    if (T.LastNs > Sum.LastNs)
      Sum.LastNs = T.LastNs;
  }
  return Sum;
}

TimedWorkload::TimedWorkload(cip::workloads::Workload &Inner) : Inner(Inner) {
  beginSpan();
}

void TimedWorkload::beginSpan() {
  std::lock_guard<std::mutex> L(Mu);
  Slots.clear();
  Span = NextSpan.fetch_add(1, std::memory_order_relaxed);
}

std::vector<ThreadCalls> TimedWorkload::endSpan() {
  std::vector<ThreadCalls> Out;
  {
    std::lock_guard<std::mutex> L(Mu);
    Out.assign(Slots.begin(), Slots.end());
  }
  beginSpan();
  return Out;
}

ThreadCalls &TimedWorkload::slot() const {
  if (Cache.Span != Span) {
    std::lock_guard<std::mutex> L(Mu);
    Slots.emplace_back();
    Cache.Span = Span;
    Cache.Slot = &Slots.back(); // deque growth keeps element addresses
  }
  return *Cache.Slot;
}

void TimedWorkload::record(Call C, std::uint64_t Begin,
                           std::uint64_t End) const {
  ThreadCalls &S = slot();
  S.Count[unsigned(C)] += 1;
  S.Ns[unsigned(C)] += End - Begin;
  if (!S.FirstNs)
    S.FirstNs = Begin;
  S.LastNs = End;
}

void TimedWorkload::runTask(std::uint32_t Epoch, std::size_t Task) {
  const std::uint64_t B = nowNanos();
  Inner.runTask(Epoch, Task);
  record(Call::Task, B, nowNanos());
}

void TimedWorkload::taskAddresses(std::uint32_t Epoch, std::size_t Task,
                                  std::vector<std::uint64_t> &Addrs) const {
  const std::uint64_t B = nowNanos();
  Inner.taskAddresses(Epoch, Task, Addrs);
  record(Call::Addr, B, nowNanos());
}

void TimedWorkload::epochPrologue(std::uint32_t Epoch, std::uint32_t Tid) {
  const std::uint64_t B = nowNanos();
  Inner.epochPrologue(Epoch, Tid);
  record(Call::Prologue, B, nowNanos());
}

void TimedWorkload::prologueAddresses(
    std::uint32_t Epoch, std::vector<std::uint64_t> &Addrs) const {
  const std::uint64_t B = nowNanos();
  Inner.prologueAddresses(Epoch, Addrs);
  record(Call::Addr, B, nowNanos());
}

void TimedWorkload::registerState(cip::speccross::CheckpointRegistry &Reg) {
  const std::uint64_t B = nowNanos();
  Inner.registerState(Reg);
  record(Call::Register, B, nowNanos());
}
