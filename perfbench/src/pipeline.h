// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The CSV-in to answered-query-out path every workload runs for each of
// its relations:
//
//   ImportCsv -> MineMvds -> MineSchemas -> RankSchemes
//     -> DecomposeAndAudit (best scheme)
//     -> ProjectionStore + Yannakakis reduce -> store::Writer::Write
//     -> QueryService::FromFile -> a fixed burst of first queries.
//
// Each call runs under a Tracer scope and adds its per-layer values
// (data.*, decomp.*, store.* and, through Mine(), entropy.* / core.* /
// scheme.* / join.*) to a Values map.

#ifndef PERFBENCH_SRC_PIPELINE_H_
#define PERFBENCH_SRC_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/relation.h"
#include "harness.h"
#include "mine.h"
#include "serve/service.h"

namespace perfbench {

/// One relation of a workload, written as CSV by set-up.
struct Input {
  std::string name;
  std::string csv_path;
  std::string store_path;
  size_t csv_bytes = 0;
};

using NamedRelation = std::pair<std::string, maimon::Relation>;

/// Writes `relations` as CSV files under `dir` (relation i to i.csv; its
/// store file will be i.store); returns them in order.
std::vector<Input> WriteInputs(const std::string& dir,
                               const std::vector<NamedRelation>& relations,
                               Report* report);

struct PipelineRun {
  /// False when a step failed (already counted in the report).
  bool ok = false;
  /// CSV in to the last answer of the first-query burst.
  double pipeline_s = 0;
  /// Relation in memory to the ranked top-k (MineMvds + MineSchemas +
  /// RankSchemes).
  double mine_s = 0;
  size_t store_bytes = 0;
  /// Mined counts, best scheme, store rows and store bytes: identical on
  /// every run over the same input.
  std::string outcome;
  /// The service loaded from the store file.
  std::unique_ptr<maimon::serve::QueryService> service;
};

/// Runs `in` through the whole path. `id` tags the relation's spans and
/// seeds its query burst together with `seed`.
PipelineRun RunPipeline(const Input& in, const MineSettings& settings,
                        uint64_t seed, uint64_t id, Tracer* tracer,
                        Values* values, Report* report);

/// Adds the data / decomp / store per-layer metrics computed from the
/// summed `values` of one or more RunPipeline() calls.
void ReportPipelineLayers(const Values& values, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PIPELINE_H_
