// Benchmark program: runs one named workload closed loop (one client, each
// trigger window starts when the previous one returns) against the public
// layer APIs, times every call from here, checks every result against a
// standalone one-batch reference, and prints the metrics. The untraced run
// (--trace 0) reports the end-to-end metrics; the traced run (--trace 1)
// alternates untraced and traced operations and reports per-layer metrics
// from the traced ones. README.md explains the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <spans.json>]

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "ishare/common/rng.h"
#include "ishare/exec/adaptive_executor.h"
#include "ishare/harness/result_compare.h"
#include "ishare/obs/obs.h"
#include "ishare/opt/approaches.h"
#include "ishare/recovery/checkpoint_manager.h"
#include "ishare/storage/perturbed_source.h"
#include "ishare/workload/tpch.h"
#include "ishare/workload/tpch_queries.h"
#include "trace.h"

namespace perfbench {
namespace {

using ishare::AdaptationStats;
using ishare::AdaptiveExecutor;
using ishare::AdaptiveRunResult;
using ishare::Approach;
using ishare::ApproachOptions;
using ishare::Catalog;
using ishare::CostEstimator;
using ishare::DeltaBuffer;
using ishare::ExecOptions;
using ishare::OptimizedPlan;
using ishare::PaceConfig;
using ishare::PaceExecutor;
using ishare::QueryPlan;
using ishare::Result;
using ishare::RunResult;
using ishare::Status;
using ishare::StreamSource;
using ishare::SubplanGraph;
using ishare::TpchDb;
using ResultMap = std::unordered_map<ishare::Row, int64_t, ishare::RowHasher>;

// ---- Workloads -------------------------------------------------------------

enum class Kind { kTpch22, kDecomp20, kShare10 };

struct Spec {
  const char* name;
  Kind kind;
  double sf;
  int max_pace;
  int threads;
};

constexpr Spec kSpecs[] = {
    {"tpch22-random-t4", Kind::kTpch22, 0.01, 50, 4},
    {"decomp20-replan-t1", Kind::kDecomp20, 0.004, 100, 1},
    {"share10-adaptive-ckpt-t1", Kind::kShare10, 0.01, 50, 1},
};

// Relative final-work goals are drawn from the Fig. 9 levels. The goal
// draws and share10's fault plan come from fixed seeds, not from --seed,
// which draws the data: the goals decide the paces and so the trigger
// step's work (one draw's trigger takes 1.5x another's), and one random
// plan of 20 faults decides most of share10's window (one plan attains 98%
// of the goals, another 17%). Seed-drawn, every figure would mostly tell
// which seed ran.
constexpr uint64_t kGoalSeed = 1;
constexpr double kGoalLevels[] = {1.0, 0.5, 0.2, 0.1};
// Each operation repeats OptimizePlan for at least this long, so a short
// optimization still gives enough samples for a steady median.
constexpr double kOptimizeSpan = 0.5;
constexpr double kShare10Goal = 0.2;
constexpr uint64_t kShare10FaultSeed = 1;
constexpr int kShare10FaultEvents = 20;
constexpr int64_t kShare10EpochLen = 16;
// Set-up is repeated and its median reported, so one slow repetition does
// not move the figure.
constexpr int kSetupReps = 3;
constexpr int kMinOps = 3;

// ---- Arguments -------------------------------------------------------------

struct Args {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool ParseUint(const std::string& s, uint64_t max, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t d = static_cast<uint64_t>(c - '0');
    if (v > (max - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

// Returns an error message, or "" when `args` was filled in.
std::string ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--trace-out") {
      return "unknown flag '" + flag + "'";
    }
    if (i + 1 >= argc) return "flag " + flag + " needs a value";
    if (!flags.emplace(flag, argv[i + 1]).second) {
      return "flag " + flag + " given twice";
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (flags.count(required) == 0) return std::string("missing ") + required;
  }
  for (const Spec& s : kSpecs) {
    if (flags["--workload"] == s.name) args->spec = &s;
  }
  if (args->spec == nullptr) {
    return "unknown workload '" + flags["--workload"] + "'";
  }
  if (!ParseUint(flags["--seed"], UINT64_MAX, &args->seed)) {
    return "malformed seed '" + flags["--seed"] + "'";
  }
  uint64_t seconds = 0;
  if (!ParseUint(flags["--seconds"], 3600, &seconds) || seconds == 0) {
    return "--seconds must be a whole number from 1 to 3600";
  }
  args->seconds = static_cast<int>(seconds);
  const std::string& trace = flags["--trace"];
  if (trace != "0" && trace != "1") return "--trace must be 0 or 1";
  args->trace = trace == "1";
  args->trace_out = flags["--trace-out"];
  return "";
}

// ---- Measurement helpers ---------------------------------------------------

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Returns freed set-up memory to the kernel, then resets its RSS high-water
// mark (VmHWM) to the current RSS; false where the kernel does not allow it.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb(bool hwm_was_reset) {
  if (hwm_was_reset) {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB
      }
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

// ---- Set-up: data, queries, standalone one-batch references ---------------

// Rewinds a source for a fresh executor. Reset() keeps the consumer
// registrations of executors that no longer exist; left in place, their
// zero offsets pin every base-buffer prefix (no trimming) and a checkpoint
// of the new executor cannot be restored into another fresh one.
void ResetSource(StreamSource* source) {
  source->Reset();
  for (const std::string& name : source->TableNames()) {
    source->buffer(name)->ClearConsumers();
  }
}

struct Setup {
  std::unique_ptr<TpchDb> db;
  std::vector<QueryPlan> queries;
  std::vector<ResultMap> reference;
  std::vector<double> batch_final_work;
};

Result<Setup> BuildSetup(const Spec& spec, uint64_t seed, Tracer* tr) {
  Setup s;
  {
    Scope span(tr, "workload.generate");
    s.db = std::make_unique<TpchDb>(ishare::TpchScale{spec.sf, seed});
    const Catalog& cat = s.db->catalog;
    switch (spec.kind) {
      case Kind::kTpch22:
        s.queries = ishare::AllTpchQueries(cat);
        break;
      case Kind::kDecomp20:
        s.queries = ishare::DecompositionWorkload(cat);
        break;
      case Kind::kShare10:
        s.queries = ishare::SharingFriendlyQueries(cat);
        break;
    }
  }
  {
    Scope span(tr, "exec.reference");
    s.reference.resize(s.queries.size());
    s.batch_final_work.resize(s.queries.size());
    for (const QueryPlan& q : s.queries) {
      ResetSource(&s.db->source);
      SubplanGraph g = SubplanGraph::Build({q});
      PaceExecutor exec(&g, &s.db->source, ExecOptions());
      Result<RunResult> r = exec.Run(PaceConfig(g.num_subplans(), 1));
      if (!r.ok()) return r.status();
      s.batch_final_work[q.id] = r->query_final_work[q.id];
      s.reference[q.id] = ishare::MaterializeResult(*exec.query_output(q.id), q.id);
    }
  }
  return s;
}

std::vector<double> DrawGoals(size_t n) {
  ishare::Rng rng(kGoalSeed);
  std::vector<double> rel(n);
  for (double& r : rel) r = kGoalLevels[rng.UniformInt(0, 3)];
  return rel;
}

// ---- Optimization ----------------------------------------------------------

struct OptimizeSample {
  OptimizedPlan plan;
  double seconds = 0;  // wall time of the OptimizePlan call
  bool ok = true;
  std::string error;
  // Traced only: the layer-by-layer replay's counts.
  bool traced = false;
  int mqo_subplans = 0;
  double memo_hits = 0;
  double memo_misses = 0;
};

// Runs OptimizePlan(kIShare), and in a traced run also replays it one
// layer call at a time (Merge -> Build -> FindPaceConfiguration ->
// Decomposer::Optimize) so each layer gets its own span; the replay must
// reproduce OptimizePlan's graph and paces exactly.
OptimizeSample Optimize(const std::vector<QueryPlan>& queries,
                        const Catalog& catalog, const std::vector<double>& rel,
                        const ApproachOptions& opts, Tracer* tr) {
  OptimizeSample out;
  {
    Scope span(tr, "verify.optimize_plan");
    double t0 = Now();
    out.plan = ishare::OptimizePlan(Approach::kIShare, queries, catalog, rel, opts);
    out.seconds = Now() - t0;
  }
  if (tr == nullptr) return out;

  out.traced = true;
  ishare::obs::Counter& hits = ishare::obs::Registry().GetCounter("cost.memo.hit");
  ishare::obs::Counter& misses = ishare::obs::Registry().GetCounter("cost.memo.miss");
  double h0 = hits.Value(), m0 = misses.Value();
  Scope root(tr, "opt.optimize");
  std::vector<double> abs;
  {
    Scope span(tr, "cost.abs_constraints");
    abs = ishare::AbsoluteConstraints(queries, catalog, rel, opts.exec);
  }
  std::vector<QueryPlan> merged;
  {
    Scope span(tr, "mqo.merge");
    merged = ishare::MqoOptimizer(&catalog, opts.mqo).Merge(queries);
  }
  SubplanGraph graph;
  {
    Scope span(tr, "plan.build");
    graph = SubplanGraph::Build(merged);
  }
  out.mqo_subplans = graph.num_subplans();
  if (!graph.Validate().ok()) {
    out.ok = false;
    out.error = "replayed graph fails validation";
    return out;
  }
  ishare::PaceSearchResult paces;
  {
    Scope span(tr, "opt.pace_search");
    CostEstimator est(&graph, &catalog, opts.exec, opts.memoized_estimator);
    ishare::PaceOptimizer po(&est, abs,
                             ishare::PaceOptimizerOptions{opts.max_pace,
                                                          opts.deadline_seconds});
    paces = po.FindPaceConfiguration();
  }
  ishare::DecomposeResult dr;
  {
    Scope span(tr, "opt.decompose");
    ishare::DecomposerOptions dopts;
    dopts.max_pace = opts.max_pace;
    dopts.enable_partial = opts.enable_partial;
    dopts.memoized_estimator = opts.memoized_estimator;
    dopts.deadline_seconds = opts.deadline_seconds;
    ishare::Decomposer dec(&catalog, abs, opts.exec, dopts);
    dr = dec.Optimize(graph, paces.paces);
  }
  out.memo_hits = hits.Value() - h0;
  out.memo_misses = misses.Value() - m0;
  if (abs != out.plan.abs_constraints || dr.paces != out.plan.paces ||
      dr.graph.ToString() != out.plan.graph.ToString()) {
    out.ok = false;
    out.error = "layer-by-layer optimizer replay differs from OptimizePlan";
  }
  return out;
}

// ---- One trigger window ----------------------------------------------------

struct WindowSample {
  bool ok = false;
  std::string error;
  double window_s = 0;   // executor construction until Run returns
  double trigger_s = 0;  // start of the trigger step until Run returns
  double cpu_s = 0;      // process CPU over the window and teardown
  RunResult run;
  AdaptationStats adapt;
  ishare::recovery::RecoveryStats recovery;
  std::vector<double> step_s;  // hook-to-hook, hook work excluded
  int64_t retained_bytes_max = 0;
  std::vector<ResultMap> results;
  std::string fingerprint;
};

const RunResult& RunOf(const RunResult& r) { return r; }
const RunResult& RunOf(const AdaptiveRunResult& r) { return r.run; }
AdaptationStats AdaptOf(const RunResult&) { return {}; }
AdaptationStats AdaptOf(const AdaptiveRunResult& r) { return r.stats; }

// Steps are timed from the end of one after-step hook to the start of the
// next, so the hook's own work (a checkpoint, the buffer probe) is a child
// span of its own and not step time.
class StepTimer {
 public:
  StepTimer(Tracer* tr, double start) : tr_(tr), starts_{start} {}

  Status OnStep(const std::function<Status()>& hook_body) {
    double t = Now();
    step_s_.push_back(t - starts_.back());
    if (tr_ != nullptr) tr_->Record("exec.step", starts_.back(), t);
    Status st;
    {
      Scope span(tr_, "exec.step_hook");
      st = hook_body();
    }
    starts_.push_back(Now());
    return st;
  }

  // The trigger (last) step starts where the hook before it ends.
  double trigger_start() const {
    return starts_.size() >= 2 ? starts_[starts_.size() - 2] : starts_.front();
  }
  std::vector<double>& step_s() { return step_s_; }

 private:
  Tracer* tr_;
  std::vector<double> starts_;
  std::vector<double> step_s_;
};

int64_t RetainedBytes(const std::vector<const DeltaBuffer*>& buffers) {
  int64_t total = 0;
  for (const DeltaBuffer* b : buffers) total += b->retained_bytes();
  return total;
}

// Runs one window on a fresh executor from `make`. With `mgr` set, the
// after-step hook checkpoints through it. The executor is torn down before
// returning.
template <typename Exec>
WindowSample RunWindow(const std::function<std::unique_ptr<Exec>()>& make,
                       const PaceConfig& paces, const SubplanGraph& graph,
                       StreamSource* source,
                       ishare::recovery::CheckpointManager* mgr,
                       size_t num_queries, Tracer* tr,
                       bool fingerprint = false) {
  WindowSample w;
  std::unique_ptr<Exec> exec;
  double cpu0 = CpuNow();
  double t0 = Now();
  bool ran = false;
  {
    Scope window(tr, "exec.window");
    ResetSource(source);
    {
      Scope span(tr, "exec.construct");
      exec = make();
    }
    std::vector<const DeltaBuffer*> buffers;
    if (tr != nullptr) {
      for (const std::string& name : source->TableNames()) {
        buffers.push_back(source->buffer(name));
      }
      for (int i = 0; i < graph.num_subplans(); ++i) {
        buffers.push_back(exec->subplan_output(i));
      }
    }
    StepTimer timer(tr, Now());
    Exec* e = exec.get();
    exec->set_after_step_hook([&](int64_t step) {
      return timer.OnStep([&]() -> Status {
        if (tr != nullptr) {
          Scope span(tr, "obs.buffer_probe");
          w.retained_bytes_max =
              std::max(w.retained_bytes_max, RetainedBytes(buffers));
        }
        if (mgr == nullptr) return Status::OK();
        Scope span(tr, "recovery.checkpoint");
        return mgr->OnStepComplete(step, *e);
      });
    });
    auto res = exec->Run(paces);
    double t1 = Now();
    w.window_s = t1 - t0;
    w.trigger_s = t1 - timer.trigger_start();
    w.step_s = std::move(timer.step_s());
    if (res.ok()) {
      ran = true;
      w.run = RunOf(*res);
      w.adapt = AdaptOf(*res);
    } else {
      w.error = "window failed: " + res.status().ToString();
    }
  }
  double cpu1 = CpuNow();
  if (mgr != nullptr) w.recovery = mgr->stats();
  if (ran) {
    Scope span(tr, "check.materialize");
    w.results.resize(num_queries);
    for (size_t q = 0; q < num_queries; ++q) {
      w.results[q] = ishare::MaterializeResult(
          *exec->query_output(static_cast<ishare::QueryId>(q)),
          static_cast<ishare::QueryId>(q));
    }
    // The digest is costly; only the restore check compares state.
    if (fingerprint) w.fingerprint = exec->StateFingerprint();
  }
  double cpu2 = CpuNow();
  {
    Scope span(tr, "exec.teardown");
    exec.reset();
  }
  w.cpu_s = (cpu1 - cpu0) + (CpuNow() - cpu2);
  w.ok = ran;
  return w;
}

bool SameResults(const std::vector<ResultMap>& got,
                 const std::vector<ResultMap>& want) {
  if (got.size() != want.size()) return false;
  for (size_t q = 0; q < got.size(); ++q) {
    // Exact equality first; the tolerant comparison is quadratic in rows
    // and only needed when re-batched floating-point sums differ.
    if (got[q] != want[q] && !ishare::ResultsEquivalent(got[q], want[q])) {
      return false;
    }
  }
  return true;
}

// ---- The benchmark ---------------------------------------------------------

struct OpResult {
  bool ok = true;
  std::string error;
  bool traced = false;
  std::vector<double> optimize_s;  // one sample per OptimizePlan call
  double est_total_work = 0;
  int goals_met = 0;
  double attainment = 0;  // sum over queries of min(1, goal / final work)
  WindowSample window;
};

class Bench {
 public:
  Bench(const Args& args, Setup setup) : args_(args), s_(std::move(setup)) {
    exec_.sched.num_threads = args.spec->threads;
    opts_.max_pace = args.spec->max_pace;
    opts_.exec = exec_;
  }

  // Draws the goals, optimizes once, and builds share10's source.
  Status Prepare() {
    const Spec& spec = *args_.spec;
    const size_t n = s_.queries.size();
    rel_ = spec.kind == Kind::kShare10 ? std::vector<double>(n, kShare10Goal)
                                       : DrawGoals(n);
    plan_ = Optimize(s_.queries, s_.db->catalog, rel_, opts_, nullptr).plan;
    if (spec.kind == Kind::kShare10) {
      ishare::FaultPlan faults = ishare::FaultPlan::Random(
          kShare10FaultSeed, kShare10FaultEvents, s_.db->source.TableNames());
      perturbed_ = std::make_unique<ishare::PerturbedStreamSource>(faults);
      ISHARE_RETURN_NOT_OK(s_.db->source.CloneTablesInto(perturbed_.get()));
      estimator_ = std::make_unique<CostEstimator>(
          &plan_.graph, &s_.db->catalog, exec_, opts_.memoized_estimator);
    }
    return Status::OK();
  }

  // One operation re-optimizes (see kOptimizeSpan) and runs one window of
  // the plan of Prepare(), which every new OptimizePlan call must reproduce.
  OpResult RunOp(Tracer* tr) {
    std::vector<double> calls;
    std::string error;
    double start = Now();
    do {
      OptimizeSample o = Optimize(s_.queries, s_.db->catalog, rel_, opts_, tr);
      calls.push_back(o.seconds);
      if (o.ok && (o.plan.paces != plan_.paces ||
                   o.plan.graph.ToString() != plan_.graph.ToString())) {
        o.ok = false;
        o.error = "re-optimized plan differs from the first one";
      }
      if (!o.ok) error = o.error;
      if (o.traced) traced_opts_.push_back(std::move(o));
    } while (Now() - start < kOptimizeSpan);
    OpResult r = args_.spec->kind == Kind::kShare10
                     ? AdaptiveOp(tr, nullptr)
                     : Finish(StaticOp(&s_.db->source, tr));
    r.optimize_s = std::move(calls);
    r.window.results = {};  // checked; keeping them would inflate peak RSS
    if (!error.empty() && r.ok) {
      r.ok = false;
      r.error = error;
    }
    return r;
  }

  // share10 only, once per run: restores the newest committed checkpoint
  // of an uninterrupted window into a fresh executor, runs it to the end,
  // and checks state and results against the uninterrupted window. A
  // window shorter than one checkpoint epoch has nothing to restore.
  OpResult RestoreCheck(double* restore_s) {
    ishare::recovery::MemoryCheckpointStore store;
    ishare::recovery::CheckpointManager mgr(&store, CheckpointOptions());
    OpResult base = AdaptiveOp(nullptr, &mgr, /*fingerprint=*/true);
    if (!base.ok) return base;
    if (mgr.stats().checkpoints == 0) {
      std::printf("# restore check skipped: the window committed no checkpoint\n");
      return base;
    }
    ResetSource(perturbed_.get());
    std::unique_ptr<AdaptiveExecutor> fresh = MakeAdaptive();
    double t0 = Now();
    Result<int64_t> step = mgr.RecoverLatest(fresh.get());
    *restore_s = Now() - t0;
    OpResult out = base;
    if (!step.ok()) {
      out.ok = false;
      out.error = "RecoverLatest failed: " + step.status().ToString();
      return out;
    }
    Result<AdaptiveRunResult> res = fresh->ResumeWindow();
    std::vector<ResultMap> results(s_.queries.size());
    for (const QueryPlan& q : s_.queries) {
      results[q.id] = ishare::MaterializeResult(*fresh->query_output(q.id), q.id);
    }
    if (!res.ok()) {
      out.ok = false;
      out.error = "resumed window failed: " + res.status().ToString();
    } else if (fresh->StateFingerprint() != base.window.fingerprint ||
               results != base.window.results ||
               res->run.total_work != base.window.run.total_work) {
      out.ok = false;
      out.error = "restored window differs from the uninterrupted one";
    }
    return out;
  }

  const Setup& setup() const { return s_; }
  const std::vector<OptimizeSample>& traced_opts() const { return traced_opts_; }
  int threads() const { return exec_.sched.num_threads; }

 private:
  static ishare::recovery::CheckpointManagerOptions CheckpointOptions() {
    ishare::recovery::CheckpointManagerOptions o;
    o.epoch_len = kShare10EpochLen;
    o.overhead_budget = 0;  // every epoch boundary; independent of the clock
    return o;
  }

  std::unique_ptr<AdaptiveExecutor> MakeAdaptive() {
    return std::make_unique<AdaptiveExecutor>(estimator_.get(), perturbed_.get(),
                            plan_.abs_constraints, ishare::AdaptivePolicy(),
                            exec_,
                            ishare::PaceOptimizerOptions{opts_.max_pace, 0});
  }

  WindowSample StaticOp(StreamSource* source, Tracer* tr) {
    std::function<std::unique_ptr<PaceExecutor>()> make = [&] {
      return std::make_unique<PaceExecutor>(&plan_.graph, source, exec_);
    };
    return RunWindow(make, plan_.paces, plan_.graph, source, nullptr,
                     s_.queries.size(), tr);
  }

  // Checkpoints through `mgr` when given, else through a store of its own.
  OpResult AdaptiveOp(Tracer* tr, ishare::recovery::CheckpointManager* mgr,
                      bool fingerprint = false) {
    ishare::recovery::MemoryCheckpointStore store;
    ishare::recovery::CheckpointManager own_mgr(&store, CheckpointOptions());
    if (mgr == nullptr) mgr = &own_mgr;
    std::function<std::unique_ptr<AdaptiveExecutor>()> make = [&] {
      return MakeAdaptive();
    };
    WindowSample w = RunWindow(make, plan_.paces, plan_.graph,
                               perturbed_.get(), mgr, s_.queries.size(), tr,
                               fingerprint);
    return Finish(std::move(w));
  }

  // Checks a window against the references and the run's earlier windows,
  // and scores the goals it met.
  OpResult Finish(WindowSample w) {
    OpResult r;
    r.est_total_work = plan_.est_cost.total_work;
    r.ok = w.ok;
    r.error = w.error;
    if (r.ok && !SameResults(w.results, s_.reference)) {
      r.ok = false;
      r.error = "results differ from the standalone batch reference";
    }
    if (r.ok) {
      if (first_total_work_ < 0) first_total_work_ = w.run.total_work;
      if (w.run.total_work != first_total_work_) {
        r.ok = false;
        r.error = "total work differs between windows of one run";
      }
    }
    if (r.ok) {
      for (const QueryPlan& q : s_.queries) {
        double goal = rel_[q.id] * s_.batch_final_work[q.id];
        double final_work = w.run.query_final_work[q.id];
        r.goals_met += final_work <= goal ? 1 : 0;
        r.attainment += final_work <= goal ? 1.0 : goal / final_work;
      }
    }
    r.window = std::move(w);
    return r;
  }

  Args args_;
  Setup s_;
  ExecOptions exec_;
  ApproachOptions opts_;
  std::vector<double> rel_;
  OptimizedPlan plan_;
  std::vector<OptimizeSample> traced_opts_;
  std::unique_ptr<ishare::PerturbedStreamSource> perturbed_;
  std::unique_ptr<CostEstimator> estimator_;
  double first_total_work_ = -1;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<double> SpanSeconds(const Tracer& tr, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : tr.spans()) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

template <typename T, typename F>
std::vector<double> Collect(const std::vector<T>& items, F f) {
  std::vector<double> out;
  for (const T& it : items) out.push_back(f(it));
  return out;
}

// Wall-clock and CPU medians of a run's untraced, passing operations. On a
// shared virtual machine they drift by a quarter between runs minutes
// apart, more than any bound allows, so they are per-layer metrics of the
// traced run and comment lines of the untraced one; the end-to-end metrics
// are the ones that repeat.
std::vector<Metric> TimingMetrics(const std::vector<OpResult>& ops) {
  std::vector<OpResult> timed;
  std::vector<double> optimize_calls;
  for (const OpResult& r : ops) {
    if (!r.ok || r.traced) continue;
    timed.push_back(r);
    optimize_calls.insert(optimize_calls.end(), r.optimize_s.begin(),
                          r.optimize_s.end());
  }
  auto med = [&](auto f) { return Median(Collect(timed, f)); };
  return {
      {"opt.optimize_s", Median(optimize_calls), "s"},
      {"exec.window_s", med([](const OpResult& r) { return r.window.window_s; }), "s"},
      {"exec.trigger_s", med([](const OpResult& r) { return r.window.trigger_s; }), "s"},
      {"exec.cpu_s", med([](const OpResult& r) { return r.window.cpu_s; }), "s"},
  };
}

std::vector<Metric> EndToEndMetrics(const Bench& bench,
                                    const std::vector<double>& setup_s,
                                    const std::vector<OpResult>& ops,
                                    double peak_rss_mb) {
  std::vector<OpResult> ok;
  int64_t met = 0, failed = 0;
  double attained = 0;
  for (const OpResult& r : ops) {
    if (r.ok) ok.push_back(r);
    met += r.goals_met;
    attained += r.attainment;
    failed += r.ok ? 0 : 1;
  }
  double goals = static_cast<double>(ops.size() * bench.setup().queries.size());
  std::printf("# goals met: %lld of %.0f (query, window) pairs; "
              "fail_frac %.6g\n",
              static_cast<long long>(met), goals,
              static_cast<double>(failed) / static_cast<double>(ops.size()));
  for (const Metric& m : TimingMetrics(ops)) {
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  return {
      {"setup_s", Median(setup_s), "s"},
      {"total_work",
       Median(Collect(ok, [](const OpResult& r) { return r.window.run.total_work; })),
       "work"},
      {"goal_attainment", attained / goals, "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"ok_frac", 1.0 - static_cast<double>(failed) / static_cast<double>(ops.size()),
       "ratio"},
  };
}

std::vector<Metric> PerLayerMetrics(const Bench& bench, const Tracer& tracer,
                                    const std::vector<OpResult>& ops,
                                    double restore_s) {
  std::vector<OpResult> traced;
  for (const OpResult& r : ops) {
    if (r.ok && r.traced) traced.push_back(r);
  }
  std::vector<Metric> timing = TimingMetrics(ops);
  const double untraced_window_s = timing[1].value;
  auto med = [&](auto f) { return Median(Collect(traced, f)); };
  auto span_med = [&](const char* name) {
    return Median(SpanSeconds(tracer, name));
  };
  const std::vector<OptimizeSample>& opt = bench.traced_opts();
  auto opt_med = [&](auto f) { return Median(Collect(opt, f)); };

  std::vector<double> steps;
  int64_t retained_max = 0;
  for (const OpResult& r : traced) {
    steps.insert(steps.end(), r.window.step_s.begin(), r.window.step_s.end());
    retained_max = std::max(retained_max, r.window.retained_bytes_max);
  }
  auto sum_subplans = [](const RunResult& run, auto f) {
    double s = 0;
    for (const ishare::SubplanRunStats& sp : run.subplans) s += f(sp);
    return s;
  };
  // Share of traced window time no child span covers.
  std::vector<double> self = tracer.SelfTimes();
  double window_total = 0, window_self = 0;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    if (s.name != "exec.window") continue;
    window_total += s.end - s.start;
    window_self += self[i];
  }
  double threads = bench.threads();
  std::vector<Metric> out = {
      {"mqo.merge_s", span_med("mqo.merge"), "s"},
      {"mqo.subplans", opt_med([](const OptimizeSample& o) { return double(o.mqo_subplans); }),
       "count"},
      {"plan.build_s", span_med("plan.build"), "s"},
      {"cost.memo_hit_rate", opt_med([](const OptimizeSample& o) {
         double lookups = o.memo_hits + o.memo_misses;
         return lookups > 0 ? o.memo_hits / lookups : 0.0;
       }),
       "ratio"},
      {"cost.est_error", med([](const OpResult& r) {
         return r.est_total_work / r.window.run.total_work - 1.0;
       }),
       "ratio"},
      {"opt.pace_search_s", span_med("opt.pace_search"), "s"},
      {"opt.decompose_s", span_med("opt.decompose"), "s"},
      {"opt.partitions_evaluated", opt_med([](const OptimizeSample& o) {
         return double(o.plan.decompose_stats.partitions_evaluated);
       }),
       "count"},
      {"opt.splits_adopted", opt_med([](const OptimizeSample& o) {
         return double(o.plan.decompose_stats.splits_adopted);
       }),
       "count"},
      {"exec.busy_s", med([](const OpResult& r) { return r.window.run.total_seconds; }), "s"},
      {"exec.executions", med([&](const OpResult& r) {
         return sum_subplans(r.window.run, [](const ishare::SubplanRunStats& sp) {
           return double(sp.work_per_exec.size());
         });
       }),
       "count"},
      {"exec.step_s_p50", Quantile(steps, 0.5), "s"},
      {"exec.step_s_p99", Quantile(steps, 0.99), "s"},
      {"exec.trigger_busy_s", med([&](const OpResult& r) {
         return sum_subplans(r.window.run, [](const ishare::SubplanRunStats& sp) {
           return sp.final_seconds;
         });
       }),
       "s"},
      {"exec.final_work", med([&](const OpResult& r) {
         return sum_subplans(r.window.run, [](const ishare::SubplanRunStats& sp) {
           return sp.final_work;
         });
       }),
       "work"},
      {"storage.tuples_materialized", med([&](const OpResult& r) {
         return sum_subplans(r.window.run, [](const ishare::SubplanRunStats& sp) {
           return double(sp.tuples_out);
         });
       }),
       "count"},
      {"storage.retained_bytes_max", double(retained_max), "bytes"},
      {"sched.speedup", med([](const OpResult& r) {
         return r.window.run.total_seconds / r.window.window_s;
       }),
       "ratio"},
      {"sched.utilization", med([&](const OpResult& r) {
         return r.window.run.total_seconds / (r.window.window_s * threads);
       }),
       "ratio"},
      {"sched.cpu_per_busy", med([](const OpResult& r) {
         return r.window.cpu_s / r.window.run.total_seconds;
       }),
       "ratio"},
      {"adaptive.rederivations", med([](const OpResult& r) {
         return double(r.window.adapt.rederivations);
       }),
       "count"},
      {"adaptive.rederive_s", med([](const OpResult& r) {
         return r.window.adapt.rederive_seconds;
       }),
       "s"},
      {"adaptive.catchup_execs", med([](const OpResult& r) {
         return double(r.window.adapt.catchup_execs);
       }),
       "count"},
      {"adaptive.skipped_execs", med([](const OpResult& r) {
         return double(r.window.adapt.skipped_execs);
       }),
       "count"},
      {"recovery.checkpoints", med([](const OpResult& r) {
         return double(r.window.recovery.checkpoints);
       }),
       "count"},
      {"recovery.checkpoint_s", med([](const OpResult& r) {
         return r.window.recovery.checkpoint_seconds;
       }),
       "s"},
      {"recovery.bytes_per_checkpoint", med([](const OpResult& r) {
         const auto& rec = r.window.recovery;
         return rec.checkpoints > 0
                    ? double(rec.checkpoint_bytes) / double(rec.checkpoints)
                    : 0.0;
       }),
       "bytes"},
      {"recovery.restore_s", restore_s, "s"},
      {"workload.generate_s", span_med("workload.generate"), "s"},
      {"exec.reference_s", span_med("exec.reference"), "s"},
      {"obs.trace_overhead",
       med([](const OpResult& r) { return r.window.window_s; }) /
               untraced_window_s -
           1.0,
       "ratio"},
      {"trace.unattributed_frac",
       window_total > 0 ? window_self / window_total : 0.0, "ratio"},
  };
  out.insert(out.end(), timing.begin(), timing.end());
  return out;
}

// Self time per layer over the traced operations, for the human-readable
// part of the output.
void PrintLayerSelfTimes(const Tracer& tracer) {
  std::vector<double> self = tracer.SelfTimes();
  std::map<std::string, double> by_layer;
  double total = 0;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    if (s.op < 0) continue;
    std::string layer = s.name.substr(0, s.name.find('.'));
    by_layer[layer] += self[i];
    if (s.parent < 0) total += s.end - s.start;
  }
  std::printf("# self time by layer over traced operations (%.3f s)\n", total);
  for (const auto& [layer, secs] : by_layer) {
    std::printf("#   %-10s %10.4f s  %6.2f%%\n", layer.c_str(), secs,
                total > 0 ? 100.0 * secs / total : 0.0);
  }
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  std::string err = ParseArgs(argc, argv, &args);
  if (!err.empty()) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
                 err.c_str());
    return 2;
  }
  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;

  std::vector<double> setup_s;
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup = Setup();  // release the previous repetition first
    double t0 = Now();
    Result<Setup> s = BuildSetup(*args.spec, args.seed, tr);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   s.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(Now() - t0);
    setup = std::move(s).value();
  }
  Bench bench(args, std::move(setup));
  Status st = bench.Prepare();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: optimization failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  // Untimed warm-up; for share10 it is also the once-per-run restore check.
  double restore_s = 0;
  OpResult warm = args.spec->kind == Kind::kShare10
                      ? bench.RestoreCheck(&restore_s)
                      : bench.RunOp(nullptr);
  std::vector<OpResult> ops;
  bool correct = warm.ok;
  if (!warm.ok) std::fprintf(stderr, "perfbench: warm-up: %s\n", warm.error.c_str());

  bool hwm_reset = ResetPeakRss();
  if (!hwm_reset) {
    std::printf("# peak_rss_mb: /proc/self/clear_refs unavailable; "
                "reporting ru_maxrss, which includes set-up\n");
  }
  const size_t min_ops = args.trace ? 2 * kMinOps : kMinOps;
  double start = Now();
  for (int64_t op = 1;; ++op) {
    bool traced = args.trace && op % 2 == 0;
    tracer.set_op(op);
    OpResult r = bench.RunOp(traced ? tr : nullptr);
    tracer.set_op(-1);
    r.traced = traced;
    if (!r.ok) {
      correct = false;
      std::fprintf(stderr, "perfbench: operation %lld: %s\n",
                   static_cast<long long>(op), r.error.c_str());
    }
    ops.push_back(std::move(r));
    if (ops.size() >= min_ops && Now() - start >= args.seconds) break;
  }
  double peak_rss_mb = PeakRssMb(hwm_reset);
  size_t failed = 0;
  for (const OpResult& r : ops) failed += r.ok ? 0 : 1;

  std::printf("# workload %s seed %llu: %zu operations in %.2f s, %zu failed\n",
              args.spec->name, static_cast<unsigned long long>(args.seed),
              ops.size(), Now() - start, failed);
  std::printf("# samples window_s:");
  for (const OpResult& r : ops) std::printf(" %.4f", r.window.window_s);
  std::printf("\n# samples trigger_s:");
  for (const OpResult& r : ops) std::printf(" %.4f", r.window.trigger_s);
  std::printf("\n# samples cpu_s:");
  for (const OpResult& r : ops) std::printf(" %.4f", r.window.cpu_s);
  std::printf("\n# samples optimize_s:");
  for (const OpResult& r : ops) {
    for (double v : r.optimize_s) std::printf(" %.4f", v);
  }
  std::printf("\n");
  std::vector<Metric> metrics;
  if (args.trace) {
    PrintLayerSelfTimes(tracer);
    metrics = PerLayerMetrics(bench, tracer, ops, restore_s);
    if (!args.trace_out.empty() && !tracer.WriteJson(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      correct = false;
    }
  } else {
    metrics = EndToEndMetrics(bench, setup_s, ops, peak_rss_mb);
  }
  PrintResult(correct, ops.size(), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
