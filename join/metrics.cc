// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "join/metrics.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "join/join_tree.h"

namespace maimon {
namespace {

struct ProjectedRelation {
  std::vector<int> attrs;                      // original column indices
  std::vector<std::vector<uint32_t>> tuples;   // distinct projected rows
};

ProjectedRelation Project(const Relation& relation, AttrSet attrs) {
  ProjectedRelation out;
  out.attrs = attrs.ToVector();
  std::unordered_set<std::string> seen;
  std::vector<uint32_t> tuple(out.attrs.size());
  for (size_t r = 0; r < relation.NumRows(); ++r) {
    for (size_t i = 0; i < out.attrs.size(); ++i) {
      tuple[i] = relation.Value(r, out.attrs[i]);
    }
    if (seen.insert(PackFullTupleKey(tuple)).second) {
      out.tuples.push_back(tuple);
    }
  }
  return out;
}

}  // namespace

SchemaReport EvaluateSchema(const Relation& relation, const Schema& schema,
                            const InfoCalc& oracle) {
  SchemaReport report;
  report.num_relations = schema.NumRelations();
  report.width = schema.Width();
  const std::vector<AttrSet>& rels = schema.Relations();
  const size_t m = rels.size();
  if (m == 0 || relation.NumRows() == 0) return report;

  // Distinct projections (the decomposed storage).
  std::vector<ProjectedRelation> projections;
  projections.reserve(m);
  size_t projected_cells = 0;
  for (AttrSet r : rels) {
    projections.push_back(Project(relation, r));
    projected_cells += projections.back().tuples.size() *
                       projections.back().attrs.size();
  }
  const size_t original_cells = relation.NumRows() *
                                static_cast<size_t>(relation.NumCols());
  report.savings_pct =
      100.0 * (1.0 - static_cast<double>(projected_cells) /
                         static_cast<double>(original_cells));

  // Join tree: the shared maximum-overlap spanning tree (join/join_tree.h).
  const JoinTree tree = BuildMaxOverlapJoinTree(rels);
  const std::vector<int>& parent = tree.parent;
  const std::vector<std::vector<int>>& children = tree.children;
  const std::vector<int>& order = tree.preorder;

  // J(S): each tree edge contributes I(subtree attrs ; rest | separator).
  const AttrSet universe = schema.UniverseAttrs();
  std::vector<AttrSet> subtree_attrs(m);
  for (size_t i = order.size(); i-- > 0;) {
    const int v = order[i];
    subtree_attrs[static_cast<size_t>(v)] = rels[static_cast<size_t>(v)];
    for (int c : children[static_cast<size_t>(v)]) {
      subtree_attrs[static_cast<size_t>(v)] =
          subtree_attrs[static_cast<size_t>(v)].Union(
              subtree_attrs[static_cast<size_t>(c)]);
    }
  }
  for (size_t j = 1; j < m; ++j) {
    const AttrSet sep =
        rels[j].Intersect(rels[static_cast<size_t>(parent[j])]);
    const AttrSet below = subtree_attrs[j].Minus(sep);
    const AttrSet above = universe.Minus(subtree_attrs[j]);
    if (below.Any() && above.Any()) {
      report.j_measure += oracle.CondMutualInfo(below, above, sep);
    }
  }

  // Exact acyclic-join row count: bottom-up counting DP. The message from
  // child c to its parent maps separator values to the number of join
  // results in c's subtree consistent with those values.
  std::vector<std::unordered_map<std::string, double>> message(m);
  for (size_t i = order.size(); i-- > 0;) {
    const int v = order[i];
    const ProjectedRelation& pv = projections[static_cast<size_t>(v)];
    // Per-child separator positions within v's attribute list.
    std::vector<std::vector<int>> child_pos;
    for (int c : children[static_cast<size_t>(v)]) {
      child_pos.push_back(PositionsOf(
          pv.attrs, rels[static_cast<size_t>(v)].Intersect(
                        rels[static_cast<size_t>(c)])));
    }
    std::vector<int> up_pos;
    if (parent[static_cast<size_t>(v)] >= 0) {
      up_pos = PositionsOf(
          pv.attrs,
          rels[static_cast<size_t>(v)].Intersect(
              rels[static_cast<size_t>(parent[static_cast<size_t>(v)])]));
    }
    double total = 0.0;
    for (const auto& tuple : pv.tuples) {
      double weight = 1.0;
      for (size_t k = 0; k < children[static_cast<size_t>(v)].size(); ++k) {
        const int c = children[static_cast<size_t>(v)][k];
        const auto& msg = message[static_cast<size_t>(c)];
        const auto it = msg.find(PackTupleKey(tuple, child_pos[k]));
        weight *= it == msg.end() ? 0.0 : it->second;
        if (weight == 0.0) break;
      }
      if (weight == 0.0) continue;
      if (parent[static_cast<size_t>(v)] >= 0) {
        message[static_cast<size_t>(v)][PackTupleKey(tuple, up_pos)] += weight;
      } else {
        total += weight;
      }
    }
    if (parent[static_cast<size_t>(v)] < 0) report.join_rows = total;
    for (int c : children[static_cast<size_t>(v)]) {
      message[static_cast<size_t>(c)].clear();  // release as we go
    }
  }

  // Spurious rate vs the distinct original rows (the join has set
  // semantics; exact decompositions land at E = 0).
  const double original_distinct =
      static_cast<double>(Project(relation, universe).tuples.size());
  if (report.join_rows > 0.0) {
    const double spurious = report.join_rows - original_distinct;
    report.spurious_pct =
        spurious > 0.0 ? 100.0 * spurious / report.join_rows : 0.0;
  }
  return report;
}

}  // namespace maimon
