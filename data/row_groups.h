// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// RowGroups: the rows of a Relation grouped by their projection onto an
// attribute set X, as dense integer ids. Two rows share an id iff they agree
// on every column of X, so group ids stand in for the distinct tuples of
// π_X(r) without building, hashing or comparing any tuple key. Ids are
// numbered 0.. in first-occurrence order, which is exactly the order a
// row-scan dedup of π_X(r) emits its distinct tuples — callers that walk
// the groups' first rows reproduce such a dedup row for row.
//
// The grouping refines one column at a time: the pair (id so far, code) is
// packed as `id * DomainSize(c) + code` (ids are below the row count, codes
// below the domain, so the key fits in 64 bits) and renumbered through a
// direct array when `groups * domain <= 4 * rows`, else through a flat
// open-addressing table. The choice follows the input's shape; there is no
// knob.

#ifndef MAIMON_DATA_ROW_GROUPS_H_
#define MAIMON_DATA_ROW_GROUPS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "util/attr_set.h"

namespace maimon {

struct RowGroups {
  /// group[r] is the id of row r's π_X group, in [0, NumGroups()).
  std::vector<uint32_t> group;
  /// first_row[g] is the first row of group g; strictly ascending in g.
  std::vector<uint32_t> first_row;

  size_t NumGroups() const { return first_row.size(); }
};

/// Groups the rows of `relation` by their values on `attrs`. The empty set
/// yields one group holding every row (none on a 0-row relation). Requires
/// NumRows() < 2^32 - 1, so row and group ids fit in uint32.
RowGroups GroupRows(const Relation& relation, AttrSet attrs);

}  // namespace maimon

#endif  // MAIMON_DATA_ROW_GROUPS_H_
