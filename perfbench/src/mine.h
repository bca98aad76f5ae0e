// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The mining step mine-tall and ingest-small share: Maimon construction
// -> MineMvds -> MineSchemas -> RankSchemes, each call under a Tracer
// scope, with the entropy / core / scheme / join counters it produced
// added to a Values map. No phase runs under a time limit: a deadline hit
// counts as a failed operation.

#ifndef PERFBENCH_SRC_MINE_H_
#define PERFBENCH_SRC_MINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/maimon.h"
#include "data/relation.h"
#include "harness.h"
#include "scheme/ranker.h"

namespace perfbench {

/// Every run also caps MineSchemas at 64 schemes and ranks the top 5.
struct MineSettings {
  double epsilon = 0.1;
  int threads = 4;
};

struct MineOutcome {
  std::unique_ptr<maimon::Maimon> maimon;
  maimon::AsMinerResult schemas;
  maimon::RankResult ranked;
  /// Index in ranked.ranked of the first scheme with at least two
  /// relations (else 0); -1 when ranking returned nothing.
  int best_index = -1;
  /// Mined counts plus the best scheme's canonical form: identical for
  /// every repeat over the same relation.
  std::string signature;

  /// The chosen scheme; null when ranking returned nothing.
  const maimon::RankedScheme* best() const {
    return best_index < 0 ? nullptr : &ranked.ranked[best_index];
  }
};

/// Mines `relation`. With tracing on (tracer->sink() set) the library
/// calls get the sink too, and EvaluateSchema is timed on the best scheme
/// (`join.evaluate_s`).
MineOutcome Mine(const maimon::Relation& relation,
                 const MineSettings& settings, Tracer* tracer, uint64_t id,
                 Values* values, Report* report);

/// Adds the entropy / core / scheme / join per-layer metrics computed
/// from the summed `values` of one or more Mine() calls.
void ReportMineLayers(const Values& values, int threads, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MINE_H_
