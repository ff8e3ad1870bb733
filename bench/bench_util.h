#ifndef ISHARE_BENCH_BENCH_UTIL_H_
#define ISHARE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ishare/harness/experiment.h"
#include "ishare/harness/json_export.h"
#include "ishare/harness/report.h"
#include "ishare/workload/tpch_queries.h"

namespace ishare {

namespace bench_flags {

// Whole-string numeric parses: no leading blanks, no trailing characters,
// no overflow; an unsigned value takes no sign.
inline bool ParseU64(const char* s, uint64_t* out) {
  if (*s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}
inline bool ParseInt(const char* s, int lo, int hi, int* out) {
  if (*s != '-' && (*s < '0' || *s > '9')) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
  *out = static_cast<int>(v);
  return true;
}
inline bool ParseDouble(const char* s, double* out) {
  if (*s == '\0' || std::isspace(static_cast<unsigned char>(*s))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace bench_flags

// Command-line knobs shared by every bench binary:
//   --sf=<double>        TPC-H scale factor (default 0.01)
//   --max_pace=<int>     J, the pace cap (default 50; paper uses 100)
//   --seed=<int>         data generator seed
//   --threads=<int>      scheduler worker threads (default 1 = serial;
//                        any value keeps results byte-identical)
//   --quick              shrink everything for a fast smoke run
//   --json=<path>        also write the structured export (json_export.h)
// A malformed value or an unknown flag is an error: Parse() prints it with
// the flag list above and exits 2 before anything runs.
struct BenchConfig {
  double sf = 0.01;
  int max_pace = 50;
  uint64_t seed = 7;
  int threads = 1;
  bool quick = false;
  std::string json_path;

  // Upper bound on --threads: a typo must not spawn a pool of thousands.
  static constexpr int kMaxThreads = 256;

  // Parses argv[1..argc) into *out; on error returns false with the
  // offending argument described in *err and *out unspecified.
  static bool TryParse(int argc, char** argv, BenchConfig* out,
                       std::string* err) {
    BenchConfig c;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      bool ok = true;
      if (std::strncmp(a, "--sf=", 5) == 0) {
        ok = bench_flags::ParseDouble(a + 5, &c.sf) && c.sf > 0;
      } else if (std::strncmp(a, "--max_pace=", 11) == 0) {
        ok = bench_flags::ParseInt(a + 11, 1, std::numeric_limits<int>::max(),
                                   &c.max_pace);
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        ok = bench_flags::ParseU64(a + 7, &c.seed);
      } else if (std::strncmp(a, "--threads=", 10) == 0) {
        ok = bench_flags::ParseInt(a + 10, 1, kMaxThreads, &c.threads);
      } else if (std::strcmp(a, "--quick") == 0) {
        c.quick = true;
      } else if (std::strncmp(a, "--json=", 7) == 0) {
        c.json_path = a + 7;
        ok = !c.json_path.empty();
      } else {
        *err = std::string("unknown flag ") + a;
        return false;
      }
      if (!ok) {
        *err = std::string("malformed value in ") + a;
        return false;
      }
    }
    if (c.quick) {
      c.sf = std::min(c.sf, 0.004);
      c.max_pace = std::min(c.max_pace, 16);
    }
    *out = c;
    return true;
  }

  static BenchConfig Parse(int argc, char** argv) {
    BenchConfig c;
    std::string err;
    if (!TryParse(argc, argv, &c, &err)) {
      std::fprintf(stderr,
                   "%s\nflags: --sf=<double> --max_pace=<int> --seed=<int> "
                   "--threads=<1..%d> --quick --json=<path>\n",
                   err.c_str(), kMaxThreads);
      std::exit(2);
    }
    return c;
  }

  ApproachOptions MakeOptions() const {
    ApproachOptions o;
    o.max_pace = max_pace;
    o.exec.sched.num_threads = threads;
    return o;
  }
};

inline const std::vector<Approach>& StandardApproaches() {
  static const std::vector<Approach> kApproaches = {
      Approach::kNoShareUniform, Approach::kNoShareNonuniform,
      Approach::kShareUniform, Approach::kIShare};
  return kApproaches;
}

inline void PrintHeader(const char* what, const BenchConfig& c) {
  std::printf("# %s\n", what);
  std::printf("# sf=%.4f max_pace=%d seed=%llu threads=%d%s\n", c.sf,
              c.max_pace, static_cast<unsigned long long>(c.seed), c.threads,
              c.quick ? " (quick)" : "");
}

// The paper's Table 1/2/3 block: missed latencies per approach.
inline void PrintMissedLatencyTable(
    const std::string& title, const std::vector<ExperimentResult>& results) {
  std::printf("\n== %s ==\n", title.c_str());
  TextTable t({"approach", "Mean %", "Mean Sec.", "Max %", "Max Sec."});
  for (const ExperimentResult& r : results) {
    t.AddRow({ApproachName(r.approach), TextTable::Num(r.MeanMissedRel(), 2),
              TextTable::Num(r.MeanMissedAbs(), 4),
              TextTable::Num(r.MaxMissedRel(), 2),
              TextTable::Num(r.MaxMissedAbs(), 4)});
  }
  t.Print();
}

// Shared driver for Fig. 11 / Fig. 12 / Fig. 14-style sweeps: runs every
// approach at each uniform relative constraint and prints one row per
// (constraint, approach). Returns all results for missed-latency tables.
inline std::vector<ExperimentResult> RunUniformSweep(
    TpchDb* db, const std::vector<QueryPlan>& queries,
    const std::vector<Approach>& approaches, const BenchConfig& cfg,
    const std::string& title) {
  const std::vector<double> kLevels =
      cfg.quick ? std::vector<double>{1.0, 0.2}
                : std::vector<double>{1.0, 0.5, 0.2, 0.1};
  std::vector<ExperimentResult> all;
  std::printf("\n== %s ==\n", title.c_str());
  TextTable t({"rel_constraint", "approach", "total_exec_s", "total_work",
               "opt_s"});
  for (double level : kLevels) {
    std::vector<double> rel(queries.size(), level);
    Experiment ex(&db->catalog, &db->source, queries, rel,
                  cfg.MakeOptions());
    for (Approach a : approaches) {
      ExperimentResult r = ex.Run(a);
      t.AddRow({TextTable::Num(level, 1), ApproachName(a),
                TextTable::Num(r.total_seconds, 3),
                TextTable::Num(r.total_work, 0),
                TextTable::Num(r.optimization_seconds, 3)});
      all.push_back(std::move(r));
    }
  }
  t.Print();
  return all;
}

// Standard bench epilogue: writes the structured JSON export when the
// bench was invoked with --json=<path>. `results` are every experiment
// run the bench performed, in run order; the export also snapshots the
// global metrics registry and span aggregates accumulated over the whole
// process. Returns the bench's exit code (non-zero when the export was
// requested but could not be written).
inline int FinishBench(const BenchConfig& cfg, const std::string& bench_name,
                       const std::vector<ExperimentResult>& results) {
  if (cfg.json_path.empty()) return 0;
  BenchRunInfo info;
  info.bench = bench_name;
  info.sf = cfg.sf;
  info.max_pace = cfg.max_pace;
  info.seed = cfg.seed;
  info.threads = cfg.threads;
  info.quick = cfg.quick;
  std::string doc = BenchReportJson(info, results);
  if (doc.empty()) {
    std::fprintf(stderr, "json export failed: malformed document\n");
    return 1;
  }
  Status st = WriteBenchJson(cfg.json_path, doc);
  if (!st.ok()) {
    std::fprintf(stderr, "json export failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("# json export written to %s\n", cfg.json_path.c_str());
  return 0;
}

// Merges per-approach results (across constraint levels) for Table 1-style
// missed-latency aggregation.
inline std::vector<ExperimentResult> MergeByApproach(
    const std::vector<ExperimentResult>& results,
    const std::vector<Approach>& approaches) {
  std::vector<ExperimentResult> merged;
  for (Approach a : approaches) {
    ExperimentResult m;
    m.approach = a;
    for (const ExperimentResult& r : results) {
      if (r.approach != a) continue;
      m.queries.insert(m.queries.end(), r.queries.begin(), r.queries.end());
    }
    merged.push_back(std::move(m));
  }
  return merged;
}

}  // namespace ishare

#endif  // ISHARE_BENCH_BENCH_UTIL_H_
