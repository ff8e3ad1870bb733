// Structured bench export (DESIGN.md §7): serializes experiment results
// plus the observability state (metrics registry + span aggregates) into
// one versioned JSON document. Every bench binary writes this via
// `--json=<path>` so reproduction runs are machine-checkable instead of
// text-table-scrape-only.
//
// Schema (version 9, stable key order — see the golden file under
// tests/golden/; v2 added the "recovery" block, DESIGN.md §8; v3 added
// the "flow" overload-control block, DESIGN.md §9; v4 added
// config.threads and the "sched" block, DESIGN.md §10; v5 added the
// "chaos" supervision block and the recovery block's checkpoint-health
// keys, DESIGN.md §11; v6 added the "exec" row/columnar path block,
// DESIGN.md §12; v7 the "churn" block, DESIGN.md §13; v8 the "shard"
// block, DESIGN.md §14; v9 the "arrange" block and
// flow.state_bytes_per_query, DESIGN.md §15):
//   {
//     "schema_version": 9,
//     "generator": "ishare",
//     "bench": "<binary name>",
//     "config": {"sf": ..., "max_pace": ..., "seed": ..., "threads": ...,
//                "quick": ...},
//     "results": [ { per-ExperimentResult block } ],
//     "recovery": {"checkpoints": ..., "checkpoint_bytes": ...,
//                  "torn_discarded": ..., "restores": ...,
//                  "replayed_deltas": ..., "retry_attempts": ...,
//                  "retry_success": ..., "retry_exhausted": ...,
//                  "retry_backoff_seconds": ...,
//                  "consecutive_failures": ..., "last_commit_epoch": ...},
//     "flow": {"budget_bytes": ..., "used_bytes": ..., "peak_bytes": ...,
//              "trims": ..., "trimmed_tuples": ...,
//              "shed_deferred_execs": ..., "shed_dropped_tuples": ...,
//              "backpressure_events": ..., "state_bytes_per_query": ...},
//     "sched": {"pool_tasks": ..., "pool_steals": ...,
//               "parallel_fors": ..., "step_waves": ...},
//     "exec": {"columnar_batches": ..., "columnar_tuples": ...,
//              "row_batches": ..., "row_tuples": ...},
//     "chaos": {"service_level": ..., "ladder_transitions": ...,
//               "breaker_trips": ..., "breaker_half_opens": ...,
//               "breaker_closes": ..., "faults_injected": ...,
//               "checkpoints_skipped": ..., "checkpoints_stretched": ...,
//               "defer_signals": ..., "safe_stops": ...},
//     "churn": {"registrations": ..., "deregistrations": ...,
//               "deferrals": ..., "unshared_fallbacks": ..., "epochs": ...,
//               "subplans_carried": ..., "subplans_rebuilt": ...,
//               "reclaimed_bytes": ..., "quiesce_work": ...},
//     "shard": {"rounds": ..., "merged_tuples": ...,
//               "exchange_delivered_tuples": ...,
//               "exchange_drained_tuples": ...,
//               "exchange_backpressure_events": ...,
//               "straggler_observations": ..., "straggler_lag_steps": ...,
//               "straggler_absorbed": ..., "straggler_escalations": ...,
//               "breaker_trips": ..., "recoveries": ..., "restarts": ...,
//               "recovery_epochs": ...},
//     "arrange": {"count": ..., "state_bytes": ..., "chain_max_len": ...,
//                 "apply_tuples": ..., "apply_dedup_skipped": ...,
//                 "reader_attaches": ..., "reader_detaches": ...,
//                 "compact_runs": ..., "compact_folded": ...},
//     "metrics": {"counters": {...}, "gauges": {...},
//                 "histograms": {name: {count, dropped, sum,
//                                       p50, p95, p99,
//                                       bounds: [...], counts: [...]}}},
//     "spans": {name: {count, total_seconds, min_seconds, max_seconds}}
//   }

#ifndef ISHARE_HARNESS_JSON_EXPORT_H_
#define ISHARE_HARNESS_JSON_EXPORT_H_

#include <map>
#include <string>
#include <vector>

#include "ishare/harness/experiment.h"
#include "ishare/obs/json.h"
#include "ishare/obs/obs.h"

namespace ishare {

// Identity of one bench invocation, recorded in the export header.
struct BenchRunInfo {
  std::string bench;  // binary name, e.g. "bench_table1_missed_latency"
  double sf = 0.01;
  int max_pace = 50;
  uint64_t seed = 7;
  int threads = 1;  // scheduler worker threads (1 = serial path)
  bool quick = false;
};

// Renders the full export document from explicit snapshots. Pure function
// of its inputs (tests hand-craft the snapshots for golden comparison).
// Returns an empty string only if a non-finite value slipped past the
// sanitizers, which is a bug; callers may CHECK on emptiness.
std::string BenchReportJson(
    const BenchRunInfo& info, const std::vector<ExperimentResult>& results,
    const obs::MetricsSnapshot& metrics,
    const std::map<std::string, obs::SpanStats>& spans);

// Convenience overload snapshotting the process-global registry + tracer.
std::string BenchReportJson(const BenchRunInfo& info,
                            const std::vector<ExperimentResult>& results);

// Writes `json` to `path` (atomically enough for bench use: truncate +
// write + close).
Status WriteBenchJson(const std::string& path, const std::string& json);

}  // namespace ishare

#endif  // ISHARE_HARNESS_JSON_EXPORT_H_
