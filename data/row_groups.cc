// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "data/row_groups.h"

#include <cassert>
#include <limits>

namespace maimon {
namespace {

constexpr uint32_t kNoId = std::numeric_limits<uint32_t>::max();

// Both refinements renumber in row order, so after every column the ids are
// in first-occurrence order of the tuples seen so far. `group` is updated in
// place: row r reads its own previous id before overwriting it.

uint32_t RefineDirect(const uint32_t* code, uint64_t domain, size_t groups,
                      std::vector<uint32_t>* group) {
  std::vector<uint32_t> id_of(groups * domain, kNoId);
  uint32_t next = 0;
  for (size_t r = 0; r < group->size(); ++r) {
    uint32_t& id = id_of[(*group)[r] * domain + code[r]];
    if (id == kNoId) id = next++;
    (*group)[r] = id;
  }
  return next;
}

uint32_t RefineHashed(const uint32_t* code, uint64_t domain,
                      std::vector<uint32_t>* group) {
  struct Slot {
    uint64_t key;
    uint32_t id;
  };
  // At most one distinct key per row; a power-of-two capacity of at least
  // twice that keeps linear probes short.
  int bits = 1;
  while ((size_t{1} << bits) < 2 * group->size()) ++bits;
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  std::vector<Slot> table(mask + 1, Slot{0, kNoId});
  uint32_t next = 0;
  for (size_t r = 0; r < group->size(); ++r) {
    const uint64_t key = (*group)[r] * domain + code[r];
    // Fibonacci hashing: the high bits of the product spread sequential
    // keys (neighbouring ids, neighbouring codes) across the table.
    uint64_t at = (key * 0x9e3779b97f4a7c15ULL) >> (64 - bits);
    while (table[at].id != kNoId && table[at].key != key) at = (at + 1) & mask;
    if (table[at].id == kNoId) table[at] = Slot{key, next++};
    (*group)[r] = table[at].id;
  }
  return next;
}

}  // namespace

RowGroups GroupRows(const Relation& relation, AttrSet attrs) {
  const size_t rows = relation.NumRows();
  assert(rows < kNoId);
  assert(relation.Universe().ContainsAll(attrs));
  RowGroups out;
  out.group.assign(rows, 0);
  size_t groups = rows == 0 ? 0 : 1;
  for (int c : attrs.ToVector()) {
    // Once every row is its own group (ids == row numbers) no further
    // column can split anything.
    if (groups == rows) break;
    const uint64_t domain = relation.DomainSize(c);
    const uint32_t* code = relation.Column(c).data();
    groups = groups * domain <= 4 * rows
                 ? RefineDirect(code, domain, groups, &out.group)
                 : RefineHashed(code, domain, &out.group);
  }
  out.first_row.reserve(groups);
  for (size_t r = 0; r < rows; ++r) {
    if (out.group[r] == out.first_row.size()) {
      out.first_row.push_back(static_cast<uint32_t>(r));
    }
  }
  return out;
}

}  // namespace maimon
