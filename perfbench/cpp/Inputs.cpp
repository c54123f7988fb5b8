//===- perfbench/cpp/Inputs.cpp - Seeded benchmark inputs -----------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "support/Rng.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;
using cip::Xoshiro256StarStar;

namespace {

/// Independent stream per (seed, purpose, index).
Xoshiro256StarStar stream(std::uint64_t Seed, std::uint64_t Purpose,
                          std::uint64_t Index) {
  cip::SplitMix64 Mix(Seed ^ (Purpose * 0x9e3779b97f4a7c15ULL));
  const std::uint64_t A = Mix.next();
  return Xoshiro256StarStar(A ^ (Index * 0xd1b54a32d192ed03ULL));
}

enum Purpose : std::uint64_t { OrderStream = 1, InjectStream, ServerStream };

} // namespace

std::vector<unsigned> perfbench::kernelOrder(std::uint64_t Seed,
                                             std::uint64_t Pass, unsigned N) {
  std::vector<unsigned> Order(N);
  for (unsigned I = 0; I < N; ++I)
    Order[I] = I;
  Xoshiro256StarStar Rng = stream(Seed, OrderStream, Pass);
  for (unsigned I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
  return Order;
}

bool perfbench::injectMisspec(std::uint64_t Seed, std::uint64_t Invocation) {
  Xoshiro256StarStar Rng = stream(Seed, InjectStream, Invocation / 2);
  return (Invocation % 2) == Rng.nextBelow(2);
}

const char *perfbench::phaseName(unsigned P) {
  static const char *const Names[NumPhases] = {"low", "mid", "high"};
  return P < NumPhases ? Names[P] : "?";
}

std::vector<unsigned>
perfbench::requestsPerPhase(double Seconds, const std::vector<double> &RatesRps,
                            unsigned MinPerRate) {
  std::vector<unsigned> Out;
  for (const double R : RatesRps) {
    const double Fit = std::floor(Seconds / RatesRps.size() * R);
    Out.push_back(std::max<unsigned>(MinPerRate, static_cast<unsigned>(Fit)));
  }
  return Out;
}

ServerSchedule perfbench::makeServerSchedule(
    std::uint64_t Seed, const std::vector<double> &RatesRps,
    const std::vector<unsigned> &PerPhase, unsigned NumKernels) {
  ServerSchedule S;
  Xoshiro256StarStar Rng = stream(Seed, ServerStream, 0);
  double T = 0.0;
  const unsigned Phases = std::min<unsigned>(
      NumPhases, static_cast<unsigned>(std::min(RatesRps.size(),
                                                PerPhase.size())));
  for (unsigned P = 0; P < Phases; ++P) {
    S.PhaseBeginS[P] = T;
    for (unsigned I = 0; I < PerPhase[P]; ++I) {
      T += -std::log(1.0 - Rng.nextDouble()) / RatesRps[P];
      ServerRequest R;
      R.DueS = T;
      R.Phase = P;
      R.Kernel = static_cast<unsigned>(Rng.nextBelow(NumKernels));
      static const cip::policy::Technique Techs[] = {
          cip::policy::Technique::Barrier, cip::policy::Technique::Domore,
          cip::policy::Technique::SpecCross};
      R.Tech = Techs[Rng.nextBelow(3)];
      R.Adaptive = Rng.nextBelow(4) == 0;
      S.Requests.push_back(R);
    }
    S.PhaseEndS[P] = T;
  }
  return S;
}
