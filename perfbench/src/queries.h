// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The seeded serve query generator (serve-nursery's mix and ingest-small's
// first-query burst). Two classes, each exactly half of the mix:
//
//   point — one equality on a column of one projection, the value and the
//           projection taken from a random stored row (so projections are
//           hit in proportion to their size), projecting a random
//           non-empty subset of that projection's attributes: the planner
//           answers it from the hash-index fast path.
//   join  — one attribute from each node of a random connected join-tree
//           subtree of 2 or 3 nodes, under one pushed-down selection on a
//           random attribute of the subtree: it goes through the planner
//           and a pruned Yannakakis run.
//
// The categorical choices are balanced rather than drawn, so two seeds
// give mixes of the same make-up: within each class exactly half the
// queries are count_only (so count_only is independent of the class),
// point queries cycle through the columns of their projection, and join
// selections alternate between equality and range. The seed draws
// everything else (rows, attribute subsets, subtrees, ranges) and the
// order of the mix. Every query is checked against the planner, so a
// `point` query always takes the fast path and a `join` query never does.

#ifndef PERFBENCH_SRC_QUERIES_H_
#define PERFBENCH_SRC_QUERIES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/planner.h"
#include "serve/service.h"

namespace perfbench {

enum class QueryClass { kPoint = 0, kJoin = 1 };
constexpr int kNumQueryClasses = 2;
const char* QueryClassName(QueryClass cls);

struct GeneratedQuery {
  maimon::serve::Query query;
  QueryClass cls = QueryClass::kPoint;
};

std::vector<GeneratedQuery> GenerateQueries(
    const maimon::serve::Snapshot& snapshot, size_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_QUERIES_H_
