// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// Differential test for EvaluateSchema (join/metrics.h): on seeded random
// relations and random acyclic schemes, the row-group counting DP must
// agree exactly (==, no tolerance) with a brute-force reference that
// shares none of its machinery:
//
//   * |π_Ri(r)| and the distinct original rows from std::set projections;
//   * |join| from a nested-loop natural join of those projections,
//     materialized tuple by tuple;
//   * J from a NaiveEntropyEngine oracle, with subtrees found by walking
//     parent pointers.
//
// The relations mix small domains with a key-like column, so both of
// GroupRows' renumbering paths (direct array and hash table) run. Fixed
// cases cover an empty separator, a one-relation scheme and a 0-row
// relation.

#include <cstdint>
#include <set>
#include <vector>

#include "core/schema.h"
#include "data/relation.h"
#include "entropy/info_calc.h"
#include "entropy/naive_engine.h"
#include "join/join_tree.h"
#include "join/metrics.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace maimon {
namespace {

using Tuple = std::vector<uint32_t>;

// Columns of small domains around one key-like column (domain = rows, codes
// drawn with repeats): once a small column has split the rows into a few
// groups, refining by the key column takes GroupRows' hash path.
Relation MixedRelation(size_t rows, uint64_t seed) {
  const std::vector<uint32_t> domains = {
      2, 6, static_cast<uint32_t>(rows > 0 ? rows : 1), 3, 4, 2};
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> columns(domains.size());
  for (size_t c = 0; c < domains.size(); ++c) {
    for (size_t r = 0; r < rows; ++r) {
      columns[c].push_back(static_cast<uint32_t>(rng.Uniform(domains[c])));
    }
  }
  return Relation(std::move(columns), domains);
}

// A random acyclic scheme over `num_attrs` shuffled columns, grown as a
// join tree: each new relation takes a random subset of an existing
// relation's attributes (possibly empty) plus one or two fresh ones.
Schema RandomAcyclicScheme(int num_attrs, Rng* rng) {
  std::vector<int> cols;
  for (int c = 0; c < num_attrs; ++c) cols.push_back(c);
  for (size_t i = cols.size(); i > 1; --i) {
    std::swap(cols[i - 1], cols[rng->Uniform(i)]);
  }
  size_t next = 0;
  const auto take_fresh = [&](AttrSet* into, uint64_t how_many) {
    for (uint64_t k = 0; k < how_many && next < cols.size(); ++k) {
      *into = into->Plus(cols[next++]);
    }
  };
  std::vector<AttrSet> rels(1);
  take_fresh(&rels[0], 1 + rng->Uniform(3));
  while (next < cols.size()) {
    const AttrSet parent = rels[rng->Uniform(rels.size())];
    AttrSet rel;
    for (int a : parent.ToVector()) {
      if (rng->Bernoulli(0.5)) rel = rel.Plus(a);
    }
    take_fresh(&rel, 1 + rng->Uniform(2));
    rels.push_back(rel);
  }
  return Schema(std::move(rels));
}

std::set<Tuple> DistinctProjection(const Relation& relation, AttrSet attrs) {
  std::set<Tuple> out;
  for (size_t r = 0; r < relation.NumRows(); ++r) {
    Tuple t;
    for (int c : attrs.ToVector()) t.push_back(relation.Value(r, c));
    out.insert(t);
  }
  return out;
}

// |⋈_i π_Ri(r)| by nested loops: extend every partial tuple (over the
// attributes bound so far) by every compatible tuple of the next
// projection.
double NestedLoopJoinRows(const Relation& relation,
                          const std::vector<AttrSet>& rels) {
  constexpr uint32_t kUnbound = UINT32_MAX;
  std::vector<Tuple> partial = {
      Tuple(static_cast<size_t>(relation.NumCols()), kUnbound)};
  AttrSet bound;
  for (AttrSet rel : rels) {
    const std::vector<int> cols = rel.ToVector();
    std::vector<Tuple> extended;
    for (const Tuple& p : partial) {
      for (const Tuple& t : DistinctProjection(relation, rel)) {
        Tuple joined = p;
        bool agrees = true;
        for (size_t k = 0; k < cols.size() && agrees; ++k) {
          const size_t col = static_cast<size_t>(cols[k]);
          agrees = !bound.Contains(cols[k]) || p[col] == t[k];
          joined[col] = t[k];
        }
        if (agrees) extended.push_back(joined);
      }
    }
    partial = std::move(extended);
    bound = bound.Union(rel);
  }
  return static_cast<double>(std::set<Tuple>(partial.begin(), partial.end())
                                 .size());
}

SchemaReport BruteForceReport(const Relation& relation, const Schema& schema,
                              const InfoCalc& naive) {
  SchemaReport want;
  want.num_relations = schema.NumRelations();
  want.width = schema.Width();
  const std::vector<AttrSet>& rels = schema.Relations();
  if (rels.empty() || relation.NumRows() == 0) return want;

  size_t projected_cells = 0;
  for (AttrSet rel : rels) {
    projected_cells += DistinctProjection(relation, rel).size() *
                       static_cast<size_t>(rel.Count());
  }
  want.savings_pct =
      100.0 * (1.0 - static_cast<double>(projected_cells) /
                         static_cast<double>(relation.CellCount()));

  // J over the max-overlap join tree's edges, in child-index order; a
  // node's subtree is every node whose parent chain passes through it.
  const JoinTree tree = BuildMaxOverlapJoinTree(rels);
  const AttrSet universe = schema.UniverseAttrs();
  for (size_t j = 1; j < rels.size(); ++j) {
    AttrSet subtree;
    for (size_t k = 0; k < rels.size(); ++k) {
      for (int v = static_cast<int>(k); v >= 0;
           v = tree.parent[static_cast<size_t>(v)]) {
        if (v == static_cast<int>(j)) subtree = subtree.Union(rels[k]);
      }
    }
    const AttrSet sep =
        rels[j].Intersect(rels[static_cast<size_t>(tree.parent[j])]);
    const AttrSet below = subtree.Minus(sep);
    const AttrSet above = universe.Minus(subtree);
    if (below.Any() && above.Any()) {
      want.j_measure += naive.CondMutualInfo(below, above, sep);
    }
  }

  want.join_rows = NestedLoopJoinRows(relation, rels);
  const double original_distinct =
      static_cast<double>(DistinctProjection(relation, universe).size());
  const double spurious = want.join_rows - original_distinct;
  want.spurious_pct =
      spurious > 0.0 ? 100.0 * spurious / want.join_rows : 0.0;
  return want;
}

void CheckAgainstBruteForce(const Relation& relation, const Schema& schema) {
  CHECK(schema.IsAcyclic());
  NaiveEntropyEngine engine(relation);
  const InfoCalc naive(&engine);
  const SchemaReport got = EvaluateSchema(relation, schema, naive);
  const SchemaReport want = BruteForceReport(relation, schema, naive);
  CHECK_EQ(got.num_relations, want.num_relations);
  CHECK_EQ(got.width, want.width);
  CHECK_EQ(got.join_rows, want.join_rows);
  CHECK_EQ(got.savings_pct, want.savings_pct);
  CHECK_EQ(got.spurious_pct, want.spurious_pct);
  CHECK_EQ(got.j_measure, want.j_measure);
}

TEST_CASE(CountingDpMatchesBruteForceOnRandomAcyclicSchemes) {
  Rng rng(2024);
  for (uint64_t trial = 0; trial < 60; ++trial) {
    const size_t rows = 1 + rng.Uniform(48);
    const Relation relation = MixedRelation(rows, 100 + trial);
    // Every third scheme leaves a column uncovered, so the schema universe
    // (the E baseline) is narrower than the relation.
    const int attrs = relation.NumCols() - (trial % 3 == 0 ? 1 : 0);
    CheckAgainstBruteForce(relation, RandomAcyclicScheme(attrs, &rng));
  }
}

TEST_CASE(CountingDpMatchesBruteForceOnBoundarySchemes) {
  const Relation relation = MixedRelation(40, 7);
  // An empty separator: the join is the product of the two projections.
  const Schema product({AttrSet(0b000011), AttrSet(0b111100)});
  CheckAgainstBruteForce(relation, product);
  // Empty separator in the middle of a chain.
  CheckAgainstBruteForce(
      relation, Schema({AttrSet(0b000011), AttrSet(0b000110),
                        AttrSet(0b011000), AttrSet(0b110000)}));
  // One relation: no tree edge, no J, |join| = |π_U(r)|, E = 0.
  const Schema whole(relation.Universe());
  CheckAgainstBruteForce(relation, whole);
  CheckAgainstBruteForce(relation, Schema(AttrSet(0b001010)));
  // A 0-row relation scores zero on every metric.
  const Relation empty = MixedRelation(0, 8);
  CheckAgainstBruteForce(empty, product);
  CheckAgainstBruteForce(empty, whole);
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
