// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "join/metrics.h"

#include <vector>

#include "data/row_groups.h"
#include "join/join_tree.h"

namespace maimon {

SchemaReport EvaluateSchema(const Relation& relation, const Schema& schema,
                            const InfoCalc& oracle) {
  SchemaReport report;
  report.num_relations = schema.NumRelations();
  report.width = schema.Width();
  const std::vector<AttrSet>& rels = schema.Relations();
  const size_t m = rels.size();
  if (m == 0 || relation.NumRows() == 0) return report;

  // Distinct projections (the decomposed storage), one row per distinct
  // tuple of π_Ri(r): the first rows of its groups, in first-occurrence
  // order.
  std::vector<std::vector<uint32_t>> distinct_rows;
  distinct_rows.reserve(m);
  size_t projected_cells = 0;
  for (AttrSet r : rels) {
    distinct_rows.push_back(GroupRows(relation, r).first_row);
    projected_cells += distinct_rows.back().size() *
                       static_cast<size_t>(r.Count());
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

  // Separator groups per tree edge, over r: a parent tuple and a child
  // tuple agree on the separator iff their first rows share a group id, so
  // a message is a flat array indexed by that id.
  std::vector<RowGroups> up_sep(m);
  for (size_t v = 1; v < m; ++v) {
    up_sep[v] = GroupRows(relation, rels[v].Intersect(
                                        rels[static_cast<size_t>(parent[v])]));
  }

  // Exact acyclic-join row count: bottom-up counting DP. message[c][s] is
  // the number of join results in c's subtree whose separator values are
  // those of group s. Each node walks its distinct tuples in
  // first-occurrence order, so every sum and product runs in a fixed
  // sequence and the count is reproducible to the bit.
  std::vector<std::vector<double>> message(m);
  for (size_t i = order.size(); i-- > 0;) {
    const size_t v = static_cast<size_t>(order[i]);
    const bool is_root = parent[v] < 0;
    if (!is_root) message[v].assign(up_sep[v].NumGroups(), 0.0);
    double total = 0.0;
    for (const uint32_t row : distinct_rows[v]) {
      double weight = 1.0;
      for (const int c : children[v]) {
        const size_t cc = static_cast<size_t>(c);
        weight *= message[cc][up_sep[cc].group[row]];
        if (weight == 0.0) break;
      }
      if (weight == 0.0) continue;
      if (is_root) {
        total += weight;
      } else {
        message[v][up_sep[v].group[row]] += weight;
      }
    }
    if (is_root) report.join_rows = total;
    for (const int c : children[v]) {
      message[static_cast<size_t>(c)] = {};  // release as we go
      up_sep[static_cast<size_t>(c)] = {};
    }
  }

  // Spurious rate vs the distinct original rows (the join has set
  // semantics; exact decompositions land at E = 0).
  const double original_distinct =
      static_cast<double>(GroupRows(relation, universe).NumGroups());
  if (report.join_rows > 0.0) {
    const double spurious = report.join_rows - original_distinct;
    report.spurious_pct =
        spurious > 0.0 ? 100.0 * spurious / report.join_rows : 0.0;
  }
  return report;
}

}  // namespace maimon
