// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// DecompositionAudit: the empirical lossless-join audit of one acyclic
// scheme. Materializes the projection store, runs the Yannakakis executor,
// and differences the result against (a) the original relation and (b) the
// analytic counting DP of join/metrics.cc:
//
//   * join ⊇ r is a hard invariant at any eps — projections of an original
//     row always join back to it, so a violation is an executor bug;
//   * join == r exactly iff the decomposition is lossless on this instance
//     (the paper's J == 0 case): superset + equal counts;
//   * |join| must equal SchemaReport::join_rows from the analytic DP
//     exactly — the two counts come from independent code paths (hash-join
//     enumeration vs message-passing DP), so any disagreement is a bug in
//     one of them.

#ifndef MAIMON_DECOMP_AUDIT_H_
#define MAIMON_DECOMP_AUDIT_H_

#include <cstdint>
#include <vector>

#include "core/schema.h"
#include "data/relation.h"
#include "decomp/yannakakis.h"
#include "entropy/info_calc.h"
#include "join/metrics.h"
#include "util/status.h"

namespace maimon {

struct DecompAuditOptions {
  /// Wall-clock budget for the reduce + join + probe phases; <= 0 means
  /// unbounded. On expiry the audit returns partial counts with
  /// kDeadlineExceeded (the analytic report is always complete).
  double budget_seconds = 0.0;
  /// Retain the joined rows in `join.tuples` (small fixtures only; the
  /// audit itself never needs them).
  bool materialize = false;
  /// Worker threads for the semijoin reducer (YannakakisOptions semantics:
  /// 1 = inline, 0 = all hardware threads). The reduced store and the
  /// join are byte-identical at any value. Maimon::DecomposeAndAudit
  /// passes its MaimonConfig::num_threads here.
  int num_threads = 1;
  /// Observability sink (nullable): `audit.*` spans around the analytic /
  /// store / probe phases, plus the executor's `yk.*` instrumentation.
  /// Maimon::DecomposeAndAudit fills this from MaimonConfig::sink when
  /// left null (the same inheritance as num_threads).
  obs::Sink* sink = nullptr;
};

/// Per-projection accounting (feeds the storage-savings S numerator).
struct ProjectionStats {
  AttrSet attrs;
  size_t rows = 0;
  size_t cells = 0;
  size_t bytes = 0;
};

struct DecompositionAudit {
  /// The analytic S/E/J report (join/metrics.cc), including the counting-DP
  /// join_rows the empirical count is checked against.
  SchemaReport analytic;

  /// Materialized/streamed Yannakakis row count (partial on deadline).
  uint64_t join_rows = 0;
  uint64_t original_rows = 0;      // |r| with duplicates
  uint64_t original_distinct = 0;  // |r| under set semantics
  /// Exact spurious-tuple count: join_rows - original_distinct.
  uint64_t spurious = 0;
  /// Dangling tuples removed by the full semijoin reducer.
  uint64_t semijoin_dropped = 0;

  /// join ⊇ r — every original row probes into every reduced projection.
  bool contains_original = false;
  /// join == r under set semantics (superset + equal counts).
  bool exact = false;
  /// Materialized |join| equals the analytic DP's join_rows exactly.
  bool matches_analytic = false;

  /// Store accounting: per-projection stats and the savings they imply
  /// (must agree with analytic.savings_pct).
  std::vector<ProjectionStats> projections;
  double savings_pct = 0.0;

  /// The executor's output (tuples retained only with materialize).
  JoinResult join;
  Status status;
};

/// Runs the full pipeline: analytic report, projection store, Yannakakis
/// join, differential checks. `schema` must be acyclic and non-empty
/// (kInvalidArgument otherwise — cyclic schemas have no join tree, so
/// neither count would be meaningful).
DecompositionAudit DecomposeAndAudit(
    const Relation& relation, const Schema& schema, const InfoCalc& oracle,
    const DecompAuditOptions& options = DecompAuditOptions());

}  // namespace maimon

#endif  // MAIMON_DECOMP_AUDIT_H_
