// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "decomp/yannakakis.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "util/thread_pool.h"

namespace maimon {
namespace {

std::vector<int> AllNodes(const ProjectionStore& store) {
  std::vector<int> nodes(store.NumProjections());
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

std::vector<std::vector<uint32_t>> AllRows(const ProjectionStore& store) {
  std::vector<std::vector<uint32_t>> live(store.NumProjections());
  for (size_t v = 0; v < live.size(); ++v) {
    live[v].resize(store.projections()[v].NumRows());
    std::iota(live[v].begin(), live[v].end(), 0u);
  }
  return live;
}

}  // namespace

YannakakisExecutor::YannakakisExecutor(const ProjectionStore& store)
    : YannakakisExecutor(store, AllNodes(store), AllRows(store)) {}

YannakakisExecutor::YannakakisExecutor(
    const ProjectionStore& store, const std::vector<int>& nodes,
    std::vector<std::vector<uint32_t>> live) {
  std::vector<AttrSet> rels;
  rels.reserve(nodes.size());
  nodes_.resize(nodes.size());
  for (size_t v = 0; v < nodes.size(); ++v) {
    nodes_[v].proj = &store.projections()[static_cast<size_t>(nodes[v])];
    nodes_[v].live = std::move(live[v]);
    rels.push_back(nodes_[v].proj->attrs);
  }
  tree_ = BuildMaxOverlapJoinTree(rels);

  AttrSet universe;
  for (size_t v = 0; v < nodes_.size(); ++v) {
    universe = universe.Union(rels[v]);
    const int parent = tree_.parent[v];
    if (parent >= 0) {
      nodes_[v].sep_positions =
          PositionsOf(nodes_[v].proj->columns,
                      rels[v].Intersect(rels[static_cast<size_t>(parent)]));
    }
  }

  out_columns_ = universe.ToVector();
  std::vector<size_t> slot_of(static_cast<size_t>(AttrSet::kMaxAttrs), 0);
  for (size_t i = 0; i < out_columns_.size(); ++i) {
    slot_of[static_cast<size_t>(out_columns_[i])] = i;
  }
  out_positions_.resize(nodes_.size());
  for (size_t v = 0; v < nodes_.size(); ++v) {
    for (int c : nodes_[v].proj->columns) {
      out_positions_[v].push_back(slot_of[static_cast<size_t>(c)]);
    }
  }
}

Status YannakakisExecutor::Reduce(const Deadline* deadline, int num_threads,
                                  obs::Sink* sink) {
  if (reduced_) return Status::Ok();
  obs::Span span(sink, "yk.reduce");
  const uint64_t dropped_before = semijoin_dropped_;
  const uint64_t passes_before = semijoin_passes_;
  const Status status = ReduceImpl(deadline, num_threads, sink);
  const uint64_t dropped = semijoin_dropped_ - dropped_before;
  const uint64_t passes = semijoin_passes_ - passes_before;
  span.Arg("dropped", dropped);
  span.Arg("passes", passes);
  obs::Count(sink, "yk.semijoin_dropped", dropped);
  obs::Count(sink, "yk.semijoin_passes", passes);
  return status;
}

Status YannakakisExecutor::ReduceImpl(const Deadline* deadline,
                                      int num_threads, obs::Sink* sink) {
  // Depth levels (parent precedes child in preorder, so one sweep fills
  // them; a level keeps preorder order). Nodes of one level have disjoint
  // state and only read levels already final, so a level's tasks may run
  // in any order or concurrently with the same result.
  std::vector<int> depth(nodes_.size(), 0);
  std::vector<std::vector<size_t>> levels;
  size_t widest_level = 0;
  for (int pv : tree_.preorder) {
    const size_t v = static_cast<size_t>(pv);
    if (tree_.parent[v] >= 0) {
      depth[v] = depth[static_cast<size_t>(tree_.parent[v])] + 1;
    }
    const size_t d = static_cast<size_t>(depth[v]);
    if (levels.size() <= d) levels.resize(d + 1);
    levels[d].push_back(v);
    widest_level = std::max(widest_level, levels[d].size());
  }
  const int threads = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(ResolveNumThreads(num_threads)), widest_level));
  // A null pool makes ParallelFor run every level inline.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads, sink);

  // Per-node tallies, summed after the barrier: each task only writes the
  // slots of the node it filters.
  std::vector<uint64_t> dropped(nodes_.size(), 0);
  std::vector<uint64_t> passes(nodes_.size(), 0);
  std::atomic<bool> expired{false};

  // Semijoin `target` with `source` on their separator: keep only the live
  // rows of `target` whose separator projection appears among the live
  // rows of `source`. Order-preserving, so the reduced id lists are
  // schedule-independent. The deadline is polled every 1024 ids — a single
  // huge node must not overrun a per-query budget by a whole level.
  // Returns false on expiry: a mid-build key set is never used (it would
  // drop rows that do have partners), and a mid-filter node keeps its
  // unexamined tail, so it stays a valid (merely under-reduced) selection.
  const auto semijoin = [&](size_t target, size_t source) -> bool {
    Node& node = nodes_[target];
    const Node& other = nodes_[source];
    const AttrSet sep = node.proj->attrs.Intersect(other.proj->attrs);
    uint64_t polls = 0;
    std::unordered_set<std::string> keys;
    keys.reserve(other.live.size());
    const std::vector<int> source_positions =
        PositionsOf(other.proj->columns, sep);
    for (uint32_t r : other.live) {
      if ((++polls & 1023) == 0 && DeadlineExpired(deadline)) return false;
      keys.insert(PackTupleKey(other.proj->rows[r], source_positions));
    }
    ++passes[target];
    const std::vector<int> target_positions =
        PositionsOf(node.proj->columns, sep);
    std::vector<uint32_t>& live = node.live;
    size_t kept = 0;
    for (size_t i = 0; i < live.size(); ++i) {
      if ((++polls & 1023) == 0 && DeadlineExpired(deadline)) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(kept),
                   live.begin() + static_cast<std::ptrdiff_t>(i));
        return false;
      }
      const uint32_t r = live[i];
      if (keys.count(PackTupleKey(node.proj->rows[r], target_positions)) > 0) {
        live[kept++] = r;
      } else {
        ++dropped[target];
      }
    }
    live.resize(kept);
    return true;
  };

  // One level of one pass: the task for node v semijoins each child edge
  // in order — v against the child leaf-to-root, the child against v
  // root-to-leaf.
  const auto run_level = [&](const std::vector<size_t>& level,
                             bool leaf_to_root) {
    const ParallelForResult run = ParallelFor(
        pool.get(),
        static_cast<int>(
            std::min<size_t>(static_cast<size_t>(threads), level.size())),
        level.size(), deadline, [&](int, size_t i) {
          const size_t v = level[i];
          for (int c : tree_.children[v]) {
            const size_t cv = static_cast<size_t>(c);
            if (DeadlineExpired(deadline) ||
                !(leaf_to_root ? semijoin(v, cv) : semijoin(cv, v))) {
              expired.store(true, std::memory_order_relaxed);
              return;
            }
          }
        });
    if (!run.completed) expired.store(true, std::memory_order_relaxed);
  };

  // Leaf-to-root: every node is filtered against fully reduced subtrees.
  // Root-to-leaf: every child is filtered against its (now fully reduced)
  // parent; afterwards no row anywhere is dangling.
  const char* pass = "semijoin reducer (leaf-to-root)";
  for (size_t d = levels.size(); d-- > 0 && !expired.load();) {
    run_level(levels[d], /*leaf_to_root=*/true);
  }
  if (!expired.load()) {
    pass = "semijoin reducer (root-to-leaf)";
    for (size_t d = 0; d + 1 < levels.size() && !expired.load(); ++d) {
      run_level(levels[d], /*leaf_to_root=*/false);
    }
  }
  for (uint64_t n : dropped) semijoin_dropped_ += n;
  for (uint64_t n : passes) semijoin_passes_ += n;
  if (expired.load()) return Status::DeadlineExceeded(pass);
  reduced_ = true;
  return Status::Ok();
}

JoinResult YannakakisExecutor::Execute(const YannakakisOptions& options) {
  JoinResult result;
  result.columns = out_columns_;
  result.status = Reduce(options.deadline, options.num_threads, options.sink);
  if (!result.status.ok()) return result;

  obs::Span span(options.sink, "yk.join");

  // Per-node hash index on the parent separator.
  for (size_t v = 0; v < nodes_.size(); ++v) {
    if (tree_.parent[v] < 0) continue;
    Node& node = nodes_[v];
    node.index.clear();
    node.index.reserve(node.live.size());
    for (uint32_t r : node.live) {
      node.index[PackTupleKey(node.proj->rows[r], node.sep_positions)]
          .push_back(r);
    }
  }

  std::vector<uint32_t> out(out_columns_.size(), 0);
  uint64_t poll_counter = 0;
  if (!Extend(0, &out, &result, options, &poll_counter)) {
    result.status = Status::DeadlineExceeded("join enumeration");
  }
  span.Arg("rows", result.rows);
  obs::Count(options.sink, "yk.join_rows", result.rows);
  return result;
}

bool YannakakisExecutor::Extend(size_t depth, std::vector<uint32_t>* out,
                                JoinResult* result,
                                const YannakakisOptions& options,
                                uint64_t* poll_counter) {
  if (depth == tree_.preorder.size()) {
    ++result->rows;
    if (options.on_row) options.on_row(*out);
    if (options.materialize) result->tuples.push_back(*out);
    // Poll every 1024 rows: cheap enough to vanish in the join cost, tight
    // enough that a blown budget stops within microseconds.
    if ((++*poll_counter & 1023) == 0 && DeadlineExpired(options.deadline)) {
      return false;
    }
    return true;
  }

  const size_t v = static_cast<size_t>(tree_.preorder[depth]);
  const Node& node = nodes_[v];
  const std::vector<size_t>& slots = out_positions_[v];

  const auto emit_tuple = [&](const std::vector<uint32_t>& tuple) {
    for (size_t i = 0; i < tuple.size(); ++i) (*out)[slots[i]] = tuple[i];
    return Extend(depth + 1, out, result, options, poll_counter);
  };

  if (tree_.parent[v] < 0) {
    for (uint32_t r : node.live) {
      if (!emit_tuple(node.proj->rows[r])) return false;
      if ((++*poll_counter & 1023) == 0 && DeadlineExpired(options.deadline)) {
        return false;
      }
    }
    return true;
  }

  // The parent is already placed (preorder), so the separator values are
  // bound in `out`; look the child tuples up by that key.
  std::vector<uint32_t> key(node.sep_positions.size());
  for (size_t i = 0; i < node.sep_positions.size(); ++i) {
    key[i] = (*out)[slots[static_cast<size_t>(node.sep_positions[i])]];
  }
  const auto it = node.index.find(PackFullTupleKey(key));
  if (it == node.index.end()) return true;  // no extension below v
  for (uint32_t r : it->second) {
    if (!emit_tuple(node.proj->rows[r])) return false;
  }
  return true;
}

std::vector<StoredProjection> YannakakisExecutor::ReducedProjections() const {
  std::vector<StoredProjection> out(nodes_.size());
  for (size_t v = 0; v < nodes_.size(); ++v) {
    const StoredProjection& proj = *nodes_[v].proj;
    out[v].attrs = proj.attrs;
    out[v].columns = proj.columns;
    out[v].domains = proj.domains;
    out[v].rows.reserve(nodes_[v].live.size());
    for (uint32_t r : nodes_[v].live) out[v].rows.push_back(proj.rows[r]);
  }
  return out;
}

}  // namespace maimon
