//===- perfbench/cpp/Inputs.h - Seeded benchmark inputs ---------*- C++ -*-===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the benchmark seed decides, as pure functions of the seed:
/// the kernel order of each pass, which ckpt-bigstate invocations carry an
/// injected misspeculation, and the server's arrival schedule and request
/// mix. The program only ever sees the generated inputs; its outputs must
/// not depend on the seed (every checksum is the sequential one).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "policy/Policy.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// Kernel order of pass \p Pass: a seeded permutation of [0, N).
std::vector<unsigned> kernelOrder(std::uint64_t Seed, std::uint64_t Pass,
                                  unsigned N);

/// True when invocation \p Invocation gets an injected misspeculation.
/// Exactly one invocation of every consecutive pair (2k, 2k+1) does, the
/// seed choosing which, so any even-length prefix is exactly half injected.
bool injectMisspec(std::uint64_t Seed, std::uint64_t Invocation);

/// Rate phases of the server schedule, in schedule order.
enum class Phase : unsigned { Low, Mid, High };
inline constexpr unsigned NumPhases = 3;
const char *phaseName(unsigned P);

struct ServerRequest {
  double DueS = 0.0; ///< scheduled arrival, seconds from schedule start
  unsigned Kernel = 0;
  cip::policy::Technique Tech = cip::policy::Technique::Barrier;
  bool Adaptive = false; ///< routed through the adaptive policy engine
  unsigned Phase = 0;
};

struct ServerSchedule {
  std::vector<ServerRequest> Requests;
  double PhaseBeginS[NumPhases] = {};
  double PhaseEndS[NumPhases] = {};
};

/// Requests per rate phase for a \p Seconds-long schedule at \p RatesRps:
/// an equal share of the time per phase, and at least \p MinPerRate.
std::vector<unsigned> requestsPerPhase(double Seconds,
                                       const std::vector<double> &RatesRps,
                                       unsigned MinPerRate);

/// The open-loop schedule: \p PerPhase[P] exponential arrivals at
/// \p RatesRps[P] for each phase in turn, each request drawing its kernel
/// (of \p NumKernels), its technique (barrier, DOMORE or SPECCROSS) and,
/// one time in four, adaptive routing.
ServerSchedule makeServerSchedule(std::uint64_t Seed,
                                  const std::vector<double> &RatesRps,
                                  const std::vector<unsigned> &PerPhase,
                                  unsigned NumKernels);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
