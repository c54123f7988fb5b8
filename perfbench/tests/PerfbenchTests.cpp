//===- perfbench/tests/PerfbenchTests.cpp - Benchmark self-tests ----------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Self-tests of the benchmark, run at test scale with short measuring
/// times:
///   * seeded inputs: the same seed gives the same pass orders, injection
///     choices and server schedule; different seeds give different ones;
///   * different seeds give identical checksums, all equal to the
///     sequential reference;
///   * ledger identity: in traced runs attributed plus unattributed time
///     equals lanes x wall time, and no invocation attributes more than its
///     capacity;
///   * every run reports exactly the catalog's metrics.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

using namespace perfbench;

namespace {

int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__,    \
                   #Cond);                                                     \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

bool sameSchedule(const ServerSchedule &A, const ServerSchedule &B) {
  if (A.Requests.size() != B.Requests.size())
    return false;
  for (std::size_t I = 0; I < A.Requests.size(); ++I) {
    const ServerRequest &X = A.Requests[I], &Y = B.Requests[I];
    if (X.DueS != Y.DueS || X.Kernel != Y.Kernel || X.Tech != Y.Tech ||
        X.Adaptive != Y.Adaptive || X.Phase != Y.Phase)
      return false;
  }
  return true;
}

void testSeededInputs() {
  const std::vector<double> Rates = {100, 200, 400};
  const std::vector<unsigned> PerPhase = {300, 300, 300};
  const ServerSchedule A = makeServerSchedule(7, Rates, PerPhase, 4);
  const ServerSchedule B = makeServerSchedule(7, Rates, PerPhase, 4);
  const ServerSchedule C = makeServerSchedule(8, Rates, PerPhase, 4);
  // Equal time per phase, at least the floor per phase.
  CHECK((requestsPerPhase(3.0, Rates, 150) ==
         std::vector<unsigned>{150, 200, 400}));
  CHECK(A.Requests.size() == 900);
  CHECK(sameSchedule(A, B));
  CHECK(!sameSchedule(A, C));
  for (unsigned P = 0; P < NumPhases; ++P) {
    // Each phase offers its rate: mean inter-arrival within 20% of 1/rate.
    const double Span = A.PhaseEndS[P] - A.PhaseBeginS[P];
    CHECK(std::fabs(300.0 / Span - Rates[P]) < 0.2 * Rates[P]);
  }
  unsigned Adaptive = 0;
  for (const ServerRequest &R : A.Requests)
    Adaptive += R.Adaptive;
  CHECK(Adaptive > 900 / 8 && Adaptive < 900 * 3 / 8); // about a quarter

  bool OrdersDiffer = false;
  for (std::uint64_t Pass = 0; Pass < 8; ++Pass) {
    const std::vector<unsigned> O1 = kernelOrder(7, Pass, 8);
    CHECK(O1 == kernelOrder(7, Pass, 8));
    OrdersDiffer |= O1 != kernelOrder(8, Pass, 8);
    std::vector<bool> Seen(8, false);
    for (unsigned K : O1)
      Seen[K] = true;
    for (bool S : Seen)
      CHECK(S); // a permutation
  }
  CHECK(OrdersDiffer);

  bool InjectDiffer = false;
  for (std::uint64_t I = 0; I < 64; I += 2) {
    CHECK(injectMisspec(7, I) != injectMisspec(7, I + 1)); // half per pair
    CHECK(injectMisspec(7, I) == injectMisspec(7, I));
    InjectDiffer |= injectMisspec(7, I) != injectMisspec(8, I);
  }
  CHECK(InjectDiffer);
}

Options small(const std::string &Workload, std::uint64_t Seed, bool Trace) {
  Options O;
  O.Workload = Workload;
  O.Seed = Seed;
  O.Trace = Trace;
  O.Seconds = 0.05;
  O.SetupReps = 1;
  O.Threads = std::min(4u, std::max(2u, onlineCpus()));
  O.RegionScale = cip::workloads::Scale::Test;
  O.RatesRps = {200, 400, 800};
  O.LatencyLimitS = 1.0;
  O.MinRequestsPerRate = 20;
  return O;
}

bool matchesCatalog(const std::vector<Metric> &Got,
                    const std::vector<Metric> &Catalog) {
  if (Got.size() != Catalog.size())
    return false;
  for (std::size_t I = 0; I < Got.size(); ++I)
    if (Got[I].Name != Catalog[I].Name || Got[I].Unit != Catalog[I].Unit ||
        !std::isfinite(Got[I].Value))
      return false;
  return true;
}

void testSeedsKeepChecksums() {
  for (const std::string &W : workloadNames()) {
    RunResult A = runWorkload(small(W, 1, false));
    RunResult B = runWorkload(small(W, 2, false));
    CHECK(A.Correct && B.Correct);
    CHECK(A.Failed == 0 && B.Failed == 0);
    CHECK(A.Attempted > 0);
    CHECK(!A.ReferenceChecksums.empty());
    CHECK(A.ReferenceChecksums == B.ReferenceChecksums);
    finalize(A);
    CHECK(matchesCatalog(A.EndToEnd, endToEndCatalog()));
    for (const Metric &M : A.EndToEnd)
      CHECK(M.Value > 0.0); // end-to-end metrics are never 0
    if (W == "server-short") {
      // Same checksum multiset per kernel regardless of the schedule: every
      // completed request equals its kernel's reference.
      CHECK(A.RequestChecksums.size() == 3 * 20u); // 20 per rate phase
      CHECK(B.RequestChecksums.size() == 3 * 20u);
      for (const RunResult *R : {&A, &B})
        for (std::uint64_t Sum : R->RequestChecksums) {
          bool Known = false;
          for (std::uint64_t Ref : A.ReferenceChecksums)
            Known |= Sum == Ref;
          CHECK(Known);
        }
    }
    std::printf("seeds keep checksums: %s ok\n", W.c_str());
  }
}

void testLedgerIdentity() {
  for (const std::string &W : workloadNames()) {
    RunResult R = runWorkload(small(W, 3, true));
    CHECK(R.Correct);
    const LedgerCheck &L = R.Ledger;
    CHECK(L.Invocations > 0);
    CHECK(L.CapacityS > 0.0);
    // Attributed plus unattributed is lanes x wall time ...
    CHECK(std::fabs(L.AttributedS + L.UnattributedS - L.CapacityS) <=
          1e-9 * L.CapacityS);
    // ... with nothing counted twice: no invocation's named layers exceed
    // its capacity beyond clock-read jitter.
    CHECK(L.WorstOverShare <= 0.02);
    CHECK(L.AttributedS > 0.0);
    finalize(R);
    CHECK(matchesCatalog(R.PerLayer, perLayerCatalog()));
    std::printf("ledger identity: %s attributed %.4f + unattributed %.4f = "
                "capacity %.4f s (worst over-attribution %.3f%%)\n",
                W.c_str(), L.AttributedS, L.UnattributedS, L.CapacityS,
                100.0 * L.WorstOverShare);
  }
}

} // namespace

int main() {
  testSeededInputs();
  testSeedsKeepChecksums();
  testLedgerIdentity();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("all perfbench self-tests passed\n");
  return 0;
}
