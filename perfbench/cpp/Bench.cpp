//===- perfbench/cpp/Bench.cpp - Workload dispatch ------------------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "harness/Executor.h"
#include "telemetry/Counters.h"

using namespace perfbench;

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "domore-train", "speccross-train", "ckpt-bigstate", "server-short"};
  return Names;
}

RunResult perfbench::runWorkload(const Options &O) {
  return O.Workload == "server-short" ? runServerWorkload(O)
                                      : runRegionWorkload(O);
}

References perfbench::measureReferences(cip::workloads::Workload &W,
                                        TimedWorkload &Timed, unsigned Threads,
                                        std::uint64_t Expected, RunResult &R) {
  References Out;
  const auto Check = [&](const cip::harness::ExecResult &E) {
    ++R.Attempted;
    if (E.Checksum != Expected)
      R.fail();
    return E;
  };
  W.reset();
  Out.SeqS = Check(cip::harness::runSequential(W)).Seconds;
  W.reset();
  Timed.beginSpan();
  Check(cip::harness::runSequential(Timed));
  const ThreadCalls C = sumCalls(Timed.endSpan());
  if (C.count(Call::Task))
    Out.SeqNsPerTask = double(C.ns(Call::Task)) / double(C.count(Call::Task));
  for (int Rep = 0; Rep < 2; ++Rep) {
    W.reset();
    const cip::harness::ExecResult B =
        Check(cip::harness::runBarrier(W, Threads));
    Out.BarrierS = B.Seconds;
    Out.BarrierWaitPerThreadS =
        double(B.Telemetry.get(cip::telemetry::Counter::BarrierWaitNs)) *
        1e-9 / Threads;
  }
  return Out;
}
