//===- perfbench/cpp/ServerBench.cpp - server-short workload --------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// server-short: an open loop of seeded exponential arrivals into one
/// server::RegionServer with its default configuration, after a
/// closed-loop probe of the fixed cost of an invocation. The schedule runs
/// three fixed offered rates in turn (low, mid, high); a request's latency
/// runs from its scheduled arrival to its completion, so a stalled
/// generator or a backlog is charged to the requests behind it. At most
/// one client thread per worker of the budget submits; each client owns
/// its workload instances. Every completed request's checksum is compared
/// with the kernel's sequential reference from set-up.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Report.h"
#include "TimedWorkload.h"

#include "harness/Executor.h"
#include "server/RegionServer.h"
#include "support/Timer.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

using namespace perfbench;
using namespace cip;

namespace {

const char *const KernelNames[] = {"jacobi", "loopdep", "cg", "symm"};
constexpr unsigned NumKernels = 4;
constexpr workloads::Scale ServerScale = workloads::Scale::Test;

/// The request techniques of set-up and the fixed-cost probe; the last
/// barrier row is routed through the adaptive policy.
const policy::Technique Techs[] = {policy::Technique::Barrier,
                                   policy::Technique::Domore,
                                   policy::Technique::SpecCross,
                                   policy::Technique::Barrier};
constexpr unsigned NumTechs = 4;
constexpr unsigned AdaptiveTech = 3;
constexpr unsigned NumClasses = NumKernels * NumTechs;

/// Share of an untraced measuring time given to the fixed-cost probe.
constexpr double ProbeShare = 0.3;

struct ClientState {
  std::unique_ptr<workloads::Workload> W[NumKernels];
  std::unique_ptr<TimedWorkload> Timed[NumKernels];
};

struct KernelRef {
  std::uint64_t Checksum = 0;
  std::uint64_t Tasks = 0;
  References Warm;           ///< traced runs
};

struct Record {
  std::uint64_t DueNs = 0, SubmitNs = 0, DoneNs = 0, QueueWaitNs = 0;
  double ExecS = 0.0;
  unsigned Granted = 0;
  bool Completed = false, Ok = false;
  std::vector<ThreadCalls> Calls;

  double latencyS() const { return double(DoneNs - DueNs) * 1e-9; }
  double lagS() const {
    return SubmitNs > DueNs ? double(SubmitNs - DueNs) * 1e-9 : 0.0;
  }
};

struct Server {
  std::unique_ptr<server::RegionServer> S;
  std::vector<ClientState> Clients;
  KernelRef Refs[NumKernels];
  policy::PolicyConfig Adaptive;
};

/// \p Width 0 asks for the whole budget; the should_invoc gate right-sizes.
server::RequestResult submit(Server &Srv, workloads::Workload &W,
                             policy::Technique Tech, bool Adaptive,
                             unsigned Width = 0) {
  server::RegionRequest Req;
  Req.W = &W;
  Req.Tech = Tech;
  Req.Policy = Adaptive ? &Srv.Adaptive : nullptr;
  Req.Width = Width;
  return Srv.S->submit(Req);
}

/// Builds the server and every client's kernels, runs the sequential
/// references, and warms each kernel up once per technique.
void setUp(Server &Srv, const Options &O, RunResult &R) {
  Srv.S = std::make_unique<server::RegionServer>(server::configFromEnv());
  Srv.Adaptive.Kind = policy::PolicyKind::Threshold;
  Srv.Clients.clear();
  Srv.Clients.resize(O.Threads);
  for (ClientState &C : Srv.Clients)
    for (unsigned K = 0; K < NumKernels; ++K) {
      C.W[K] = workloads::makeWorkload(KernelNames[K], ServerScale);
      C.Timed[K] = std::make_unique<TimedWorkload>(*C.W[K]);
    }
  ClientState &C0 = Srv.Clients[0];
  for (unsigned K = 0; K < NumKernels; ++K) {
    KernelRef &Ref = Srv.Refs[K];
    C0.W[K]->reset();
    const harness::ExecResult Seq = harness::runSequential(*C0.W[K]);
    Ref.Checksum = Seq.Checksum;
    Ref.Tasks = C0.W[K]->totalTasks();
  }
  for (unsigned K = 0; K < NumKernels; ++K)
    for (unsigned T = 0; T < NumTechs; ++T) {
      C0.W[K]->reset();
      const server::RequestResult Out =
          submit(Srv, *C0.W[K], Techs[T], /*Adaptive=*/T == AdaptiveTech);
      ++R.Attempted;
      if (Out.Status != server::RequestStatus::Completed ||
          Out.Checksum != Srv.Refs[K].Checksum)
        R.fail();
    }
}

/// Plays \p Sched against the server from one thread per client.
std::vector<Record> drive(Server &Srv, const ServerSchedule &Sched,
                          bool Traced) {
  std::vector<Record> Recs(Sched.Requests.size());
  std::atomic<std::size_t> Next{0};
  // A short lead so every client is parked before the first arrival.
  const std::uint64_t StartNs = nowNanos() + 20'000'000;
  const auto Client = [&](ClientState &C) {
    // Wake at the arrival time, not up to the default 50 us timer slack
    // late: the generator's own lateness is charged to every request.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (;;) {
      const std::size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Recs.size())
        return;
      const ServerRequest &Q = Sched.Requests[I];
      Record &Rec = Recs[I];
      Rec.DueNs = StartNs + static_cast<std::uint64_t>(Q.DueS * 1e9);
      const std::uint64_t Now = nowNanos();
      if (Now < Rec.DueNs)
        std::this_thread::sleep_for(std::chrono::nanoseconds(Rec.DueNs - Now));
      workloads::Workload &W =
          Traced ? static_cast<workloads::Workload &>(*C.Timed[Q.Kernel])
                 : *C.W[Q.Kernel];
      C.W[Q.Kernel]->reset();
      if (Traced)
        C.Timed[Q.Kernel]->beginSpan();
      Rec.SubmitNs = nowNanos();
      const server::RequestResult Out = submit(Srv, W, Q.Tech, Q.Adaptive);
      Rec.DoneNs = nowNanos();
      if (Traced)
        Rec.Calls = C.Timed[Q.Kernel]->endSpan();
      Rec.Completed = Out.Status == server::RequestStatus::Completed;
      Rec.Ok = Rec.Completed && Out.Checksum == Srv.Refs[Q.Kernel].Checksum;
      Rec.QueueWaitNs = Out.QueueWaitNs;
      Rec.ExecS = Out.Seconds;
      Rec.Granted = Out.Granted;
    }
  };
  std::vector<std::thread> Threads;
  for (ClientState &C : Srv.Clients)
    Threads.emplace_back(Client, std::ref(C));
  for (std::thread &T : Threads)
    T.join();
  return Recs;
}

struct Played {
  ServerSchedule Sched;
  std::vector<Record> Recs;
  server::ServerStats Before, After;
};

Played play(Server &Srv, const Options &O, double Seconds, bool Traced) {
  Played P;
  P.Sched = makeServerSchedule(
      O.Seed, O.RatesRps,
      requestsPerPhase(Seconds, O.RatesRps, O.MinRequestsPerRate), NumKernels);
  P.Before = Srv.S->stats();
  P.Recs = drive(Srv, P.Sched, Traced);
  P.After = Srv.S->stats();
  return P;
}

/// The probe's request width: half the budget, so the client thread, the
/// SPECCROSS checker and the host keep cores of their own and the probe
/// times the invocation rather than oversubscription.
unsigned probeWidth(const Options &O) { return std::max(1u, O.Threads / 2); }

/// The fixed cost of an invocation through the server: one client submits
/// back to back for \p Seconds, so every request finds its width free and
/// runs its technique in parallel. Each block of requests holds every
/// (kernel, technique) class once, in a seeded order. Returns each class's
/// median wall time from submit to completion, so the server's queue, gate
/// and lease are in it.
std::vector<double> probeFixedCost(Server &Srv, const Options &O,
                                   double Seconds, RunResult &R) {
  std::vector<double> WallS[NumClasses];
  ClientState &C = Srv.Clients[0];
  const std::uint64_t EndNs =
      nowNanos() + static_cast<std::uint64_t>(Seconds * 1e9);
  for (std::uint64_t Block = 0; nowNanos() < EndNs; ++Block)
    for (const unsigned Class : kernelOrder(O.Seed, Block, NumClasses)) {
      const unsigned K = Class / NumTechs, T = Class % NumTechs;
      C.W[K]->reset();
      const std::uint64_t B = nowNanos();
      const server::RequestResult Out =
          submit(Srv, *C.W[K], Techs[T], /*Adaptive=*/T == AdaptiveTech,
                 probeWidth(O));
      const std::uint64_t E = nowNanos();
      ++R.Attempted;
      if (Out.Status != server::RequestStatus::Completed ||
          Out.Checksum != Srv.Refs[K].Checksum) {
        R.fail();
        R.Notes.push_back(std::string("probe request ") + KernelNames[K] +
                          (Out.Status == server::RequestStatus::Completed
                               ? ": checksum mismatch"
                               : ": rejected"));
        continue;
      }
      WallS[Class].push_back(double(E - B) * 1e-9);
    }
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "  fixed-cost probe: %zu requests per class at width %u",
                WallS[0].size(), probeWidth(O));
  R.Notes.push_back(Buf);
  std::vector<double> Medians;
  for (const std::vector<double> &L : WallS)
    Medians.push_back(median(L));
  return Medians;
}

double ratio(double A, double B) { return B > 0.0 ? A / B : 0.0; }

/// Useful tasks per second of execution over the correct requests.
double tasksPerS(const Server &Srv, const Played &P) {
  double Tasks = 0.0, ExecS = 0.0;
  for (std::size_t I = 0; I < P.Recs.size(); ++I)
    if (P.Recs[I].Ok) {
      Tasks += double(Srv.Refs[P.Sched.Requests[I].Kernel].Tasks);
      ExecS += P.Recs[I].ExecS;
    }
  return ratio(Tasks, ExecS);
}

/// Latency samples of phase \p Phase; refused requests count as
/// infinitely late.
std::vector<double> latencies(const Played &P, unsigned Phase) {
  std::vector<double> Out;
  for (std::size_t I = 0; I < P.Recs.size(); ++I)
    if (P.Sched.Requests[I].Phase == Phase)
      Out.push_back(P.Recs[I].Ok ? P.Recs[I].latencyS() : 1e30);
  return Out;
}

/// Requests of \p Phase completed correctly within \p LimitS, per second
/// of that phase's schedule. Refused or late requests do not count.
double goodput(const Played &P, unsigned Phase, double LimitS) {
  std::uint64_t Good = 0;
  for (std::size_t I = 0; I < P.Recs.size(); ++I)
    if (P.Sched.Requests[I].Phase == Phase && P.Recs[I].Ok &&
        P.Recs[I].latencyS() <= LimitS)
      ++Good;
  return ratio(double(Good),
               P.Sched.PhaseEndS[Phase] - P.Sched.PhaseBeginS[Phase]);
}

/// The per-rate latency points and the high-rate goodput, by name.
std::vector<Metric> ratePoints(const Played &P, double LimitS) {
  std::vector<Metric> Out;
  for (unsigned Ph = 0; Ph < NumPhases; ++Ph) {
    const std::vector<double> L = latencies(P, Ph);
    const std::string Suffix = std::string(".") + phaseName(Ph);
    if (Ph != unsigned(Phase::High))
      Out.push_back({"latency_s_p50" + Suffix, median(L), "s"});
    Out.push_back({"latency_s_p99" + Suffix, quantile(L, 0.99), "s"});
  }
  Out.push_back({"goodput_rps.high", goodput(P, unsigned(Phase::High), LimitS),
                 "1/s"});
  return Out;
}

void accountRequests(const Server &Srv, const Played &P, RunResult &R) {
  for (std::size_t I = 0; I < P.Recs.size(); ++I) {
    ++R.Attempted;
    if (!P.Recs[I].Ok) {
      R.fail();
      R.Notes.push_back("request " + std::to_string(I) +
                        (P.Recs[I].Completed ? ": checksum mismatch"
                                             : ": rejected"));
    } else {
      R.RequestChecksums.push_back(
          Srv.Refs[P.Sched.Requests[I].Kernel].Checksum);
    }
  }
}

void describe(const Played &P, const Options &O, RunResult &R) {
  char Buf[200];
  for (unsigned Ph = 0; Ph < NumPhases; ++Ph) {
    const std::size_t N = latencies(P, Ph).size();
    const double Span = P.Sched.PhaseEndS[Ph] - P.Sched.PhaseBeginS[Ph];
    std::snprintf(Buf, sizeof(Buf),
                  "  %-4s offered %.1f req/s (scheduled %.1f), %zu requests",
                  phaseName(Ph), O.RatesRps[Ph], ratio(double(N), Span), N);
    R.Notes.push_back(Buf);
  }
  for (const Metric &M : ratePoints(P, O.LatencyLimitS)) {
    std::snprintf(Buf, sizeof(Buf), "  %-22s %.6f %s", M.Name.c_str(),
                  M.Value, M.Unit.c_str());
    R.Notes.push_back(Buf);
  }
}

/// Server layers, the ledger and the per-rate points, from the untraced
/// schedule: timing every task of a test-scale request costs more than the
/// request itself, so a decorated schedule saturates early.
void reportServerLayers(const Server &Srv, const Played &P, const Options &O,
                        RunResult &R) {
  std::vector<double> QueueS, ExecS, LagS, Granted;
  std::vector<double> PerKernelExec[NumKernels];
  for (std::size_t I = 0; I < P.Recs.size(); ++I) {
    const Record &Rec = P.Recs[I];
    if (!Rec.Ok)
      continue;
    QueueS.push_back(double(Rec.QueueWaitNs) * 1e-9);
    ExecS.push_back(Rec.ExecS);
    LagS.push_back(Rec.lagS());
    Granted.push_back(Rec.Granted);
    PerKernelExec[P.Sched.Requests[I].Kernel].push_back(Rec.ExecS);

    // Ledger: one waiting client per request; its latency splits into
    // generator lag (no client free yet), queue wait and execution.
    const double Lat = Rec.latencyS();
    const double Attributed = Rec.lagS() + QueueS.back() + Rec.ExecS;
    R.Ledger.CapacityS += Lat;
    R.Ledger.AttributedS += Attributed;
    R.Ledger.UnattributedS += Lat - Attributed;
    if (Lat > 0.0)
      R.Ledger.WorstOverShare =
          std::max(R.Ledger.WorstOverShare, (Attributed - Lat) / Lat);
    ++R.Ledger.Invocations;
  }
  const std::uint64_t Completed = P.After.Completed - P.Before.Completed;
  R.layer("server.queue_wait_s_p50", median(QueueS), "s");
  R.layer("server.queue_wait_s_p99", quantile(QueueS, 0.99), "s");
  R.layer("server.exec_s_p50", median(ExecS), "s");
  R.layer("server.exec_s_p99", quantile(ExecS, 0.99), "s");
  R.layer("server.degraded_seq_share",
          ratio(double(P.After.DegradedSequential -
                       P.Before.DegradedSequential),
                double(Completed)),
          "ratio");
  R.layer("server.degraded_narrow_share",
          ratio(double(P.After.DegradedNarrow - P.Before.DegradedNarrow),
                double(Completed)),
          "ratio");
  R.layer("server.granted_mean", ratio(sum(Granted), double(Granted.size())),
          "count");
  R.layer("server.generator_lag_s_p99", quantile(LagS, 0.99), "s");
  for (Metric M : ratePoints(P, O.LatencyLimitS)) {
    M.Name = "server." + M.Name;
    R.PerLayer.push_back(M);
  }

  std::vector<double> VsSeq, VsBarrier, BarrierWait;
  for (unsigned K = 0; K < NumKernels; ++K) {
    const double Med = median(PerKernelExec[K]);
    VsSeq.push_back(ratio(Srv.Refs[K].Warm.SeqS, Med));
    VsBarrier.push_back(ratio(Srv.Refs[K].Warm.BarrierS, Med));
    BarrierWait.push_back(Srv.Refs[K].Warm.BarrierWaitPerThreadS);
  }
  R.layer("support.barrier_wait_s", sum(BarrierWait) / NumKernels, "s");
  R.layer("harness.speedup_vs_seq", geomean(VsSeq), "x");
  R.layer("harness.speedup_vs_barrier", geomean(VsBarrier), "x");
  R.layer("harness.unattributed_share",
          ratio(R.Ledger.UnattributedS, R.Ledger.CapacityS), "ratio");
}

/// Workload layers and the tracing overhead, from the decorated schedule;
/// its requests become the spans, with the server phases as children.
void reportWorkloadLayers(const Server &Srv, const Played &P,
                          double UntracedTasksPerS, RunResult &R,
                          SpanLog &Spans) {
  ThreadCalls Calls;
  double ExpectedSeqTaskNs = 0.0, Useful = 0.0, N = 0.0;
  for (std::size_t I = 0; I < P.Recs.size(); ++I) {
    const Record &Rec = P.Recs[I];
    const ServerRequest &Q = P.Sched.Requests[I];
    if (!Rec.Ok)
      continue;
    N += 1.0;
    const ThreadCalls C = sumCalls(Rec.Calls);
    for (unsigned J = 0; J < NumCalls; ++J) {
      Calls.Count[J] += C.Count[J];
      Calls.Ns[J] += C.Ns[J];
    }
    ExpectedSeqTaskNs +=
        C.count(Call::Task) * Srv.Refs[Q.Kernel].Warm.SeqNsPerTask;
    Useful += double(Srv.Refs[Q.Kernel].Tasks);

    RootSpan &Root = Spans.addRoot(KernelNames[Q.Kernel], Rec.DueNs,
                                   Rec.DoneNs, Rec.Calls);
    const std::uint64_t GrantedNs = Rec.SubmitNs + Rec.QueueWaitNs;
    Root.Children.push_back(
        {"scheduled->submitted", 0, 1, Rec.DueNs, Rec.SubmitNs,
         Rec.SubmitNs - std::min(Rec.SubmitNs, Rec.DueNs)});
    Root.Children.push_back({"submitted->granted", 0, 1, Rec.SubmitNs,
                             GrantedNs, Rec.QueueWaitNs});
    Root.Children.push_back({"granted->done", 0, 1, GrantedNs, Rec.DoneNs,
                             Rec.DoneNs - std::min(Rec.DoneNs, GrantedNs)});
  }
  N = N > 0.0 ? N : 1.0;
  R.layer("workloads.task_s", double(Calls.ns(Call::Task)) * 1e-9 / N, "s");
  R.layer("workloads.task_calls", double(Calls.count(Call::Task)) / N,
          "count");
  R.layer("workloads.useful_ratio",
          ratio(Useful, double(Calls.count(Call::Task))), "ratio");
  R.layer("workloads.addr_s", double(Calls.ns(Call::Addr)) * 1e-9 / N, "s");
  R.layer("workloads.prologue_s", double(Calls.ns(Call::Prologue)) * 1e-9 / N,
          "s");
  R.layer("workloads.task_inflation",
          ratio(double(Calls.ns(Call::Task)), ExpectedSeqTaskNs), "x");
  R.layer("memory.register_s", double(Calls.ns(Call::Register)) * 1e-9 / N,
          "s");
  R.layer("harness.trace_overhead",
          ratio(UntracedTasksPerS, tasksPerS(Srv, P)), "x");
}

} // namespace

RunResult perfbench::runServerWorkload(const Options &O) {
  RunResult R;
  if (O.RatesRps.size() != NumPhases || O.LatencyLimitS <= 0.0) {
    std::fprintf(stderr, "error: server-short needs three rates and a "
                         "latency limit\n");
    std::exit(2);
  }
  Server Srv;
  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep < O.SetupReps; ++Rep) {
    Srv.S.reset(); // shut the previous repetition's server down first
    const std::uint64_t B = nowNanos();
    setUp(Srv, O, R);
    SetupS.push_back(double(nowNanos() - B) * 1e-9);
  }
  for (const KernelRef &Ref : Srv.Refs)
    R.ReferenceChecksums.push_back(Ref.Checksum);

  if (O.Trace)
    for (unsigned K = 0; K < NumKernels; ++K)
      Srv.Refs[K].Warm =
          measureReferences(*Srv.Clients[0].W[K], *Srv.Clients[0].Timed[K],
                            O.Threads, Srv.Refs[K].Checksum, R);

  // Traced runs probe and play the schedule untraced on the first half of
  // the measuring time and play it again traced on the second.
  const double UntracedS = O.Trace ? O.Seconds / 2 : O.Seconds;
  const double ProbeS = UntracedS * ProbeShare;
  const std::vector<double> FixedCost = probeFixedCost(Srv, O, ProbeS, R);
  const Played Plain = play(Srv, O, UntracedS - ProbeS, /*Traced=*/false);
  accountRequests(Srv, Plain, R);
  describe(Plain, O, R);

  R.e2e("setup_s", median(SetupS), "s");
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
  R.e2e("tasks_per_s", tasksPerS(Srv, Plain), "1/s");
  R.e2e("region_s_gmean", geomean(FixedCost), "s");
  R.e2e("goodput_rps",
        goodput(Plain, unsigned(Phase::High), O.LatencyLimitS), "1/s");

  if (O.Trace) {
    const Played Traced = play(Srv, O, O.Seconds / 2, /*Traced=*/true);
    accountRequests(Srv, Traced, R);
    SpanLog Spans;
    reportServerLayers(Srv, Plain, O, R);
    reportWorkloadLayers(Srv, Traced, tasksPerS(Srv, Plain), R, Spans);
    if (!O.TraceOut.empty() &&
        !Spans.write(O.TraceOut, provenanceJson(O),
                     {{"server.generator_lag+queue+exec",
                       R.Ledger.AttributedS, "s"},
                      {"unattributed", R.Ledger.UnattributedS, "s"},
                      {"capacity", R.Ledger.CapacityS, "s"}}))
      R.Notes.push_back("warning: could not write " + O.TraceOut);
  }
  Srv.S->shutdown();
  return R;
}
