#include "core/bin_recursion.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>

#include "exec/thread_pool.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"

namespace detcol {

void RunState::fold_scalars(RunState&& child) {
  max_depth = std::max(max_depth, child.max_depth);
  num_partitions += child.num_partitions;
  seed_evaluations += child.seed_evaluations;
  num_mis_calls += child.num_mis_calls;
  total_mis_phases += child.total_mis_phases;
  diverted_violators += child.diverted_violators;
  if (depth_seconds.size() < child.depth_seconds.size()) {
    depth_seconds.resize(child.depth_seconds.size(), 0.0);
  }
  for (std::size_t d = 0; d < child.depth_seconds.size(); ++d) {
    depth_seconds[d] += child.depth_seconds[d];
  }
  implicit.merge(std::move(child.implicit));
}

void RunState::merge_group(std::vector<RunState>&& children) {
  std::vector<MpcCosts> costs_group;
  std::vector<RoundLedger> ledgers;
  costs_group.reserve(children.size());
  ledgers.reserve(children.size());
  for (RunState& c : children) {
    costs_group.push_back(std::move(c.costs));
    ledgers.push_back(std::move(c.ledger));
  }
  costs.merge_parallel(costs_group);
  ledger.merge_parallel(ledgers);
  for (RunState& c : children) fold_scalars(std::move(c));
}

BinRecursion::BinRecursion(const Graph& g, const PaletteSet& palettes,
                           ExecContext exec, const char* deadline_where,
                           const char* failpoint)
    : g_(g),
      exec_(exec),
      pal_(palettes),
      coloring_(g.num_nodes()),
      deadline_where_(deadline_where),
      failpoint_(failpoint) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    DC_CHECK(pal_.palette_size(v) > g.degree(v),
             "node ", v, " has palette of size ", pal_.palette_size(v),
             " but degree ", g.degree(v),
             " — (deg+1)-list precondition violated");
  }
}

RunState BinRecursion::run_root(double root_ell, std::uint64_t salt,
                                CallStats* root_stats, bool record_children) {
  record_children_ = record_children;
  Instance root;
  root.orig.resize(g_.num_nodes());
  std::iota(root.orig.begin(), root.orig.end(), NodeId{0});
  root.graph = g_;
  root.ell = root_ell;
  return recurse(root, 0, salt, root_stats);
}

void BinRecursion::update_palettes(std::span<const NodeId> nodes,
                                   RunState& st) {
  std::uint64_t touched = 0;
  for (const NodeId v : nodes) {
    for (const NodeId u : g_.neighbors(v)) {
      const Color cu = std::atomic_ref<Color>(coloring_.color[u])
                           .load(std::memory_order_relaxed);
      if (cu == Coloring::kUncolored) continue;
      if (pal_.remove_color(v, cu)) {
        // Implicit-store removals write per-node lists owned by this
        // branch, so they go straight to the store.
        if (implicit_ != nullptr) implicit_->remove_color(v, cu);
        ++touched;
      }
    }
  }
  charge_palette_update(nodes.size(), touched, st);
}

Instance BinRecursion::make_child(const Instance& inst,
                                  std::span<const NodeId> local_nodes,
                                  double ell) const {
  Instance child;
  child.graph = induced_subgraph(inst.graph, local_nodes);
  child.orig.reserve(local_nodes.size());
  for (const NodeId l : local_nodes) child.orig.push_back(inst.orig[l]);
  child.ell = ell;
  return child;
}

RunState BinRecursion::recurse(const Instance& inst, unsigned depth,
                               std::uint64_t salt, CallStats* stats) {
  // Coarse, safe point for the cooperative budget and fault-injection
  // checks: no partial state exists yet at a recursion entry, so throwing
  // here unwinds cleanly through the fork/join joins.
  exec_.check_deadline(deadline_where_);
  DC_FAILPOINT(failpoint_);
  WallTimer timer;
  double own_seconds = 0.0;
  RunState st;
  st.max_depth = depth;
  if (stats != nullptr) {
    stats->depth = depth;
    stats->n = inst.n();
    stats->m = inst.graph.num_edges();
    stats->max_deg = inst.n() > 0 ? inst.graph.max_degree() : 0;
    stats->ell = inst.ell;
  }
  if (inst.n() == 0) return st;

  std::optional<BinSplit> split = split_or_solve(inst, depth, salt, st, stats);
  if (!split) {
    st.add_depth_seconds(depth, timer.seconds());
    return st;
  }
  st.num_partitions += 1;

  const std::uint64_t b = split->num_bins;
  std::vector<std::vector<NodeId>> bin_local(b);  // index 0..b-1 = bins 1..b
  std::vector<NodeId> g0_local = std::move(split->g0);
  for (std::size_t k = 0; k < split->bin_of.size(); ++k) {
    const NodeId l =
        split->nodes.empty() ? static_cast<NodeId>(k) : split->nodes[k];
    const std::uint32_t bin = split->bin_of[k];
    (bin == 0 ? g0_local : bin_local[bin - 1]).push_back(l);
  }

  // Restrict palettes of the color bins 1..b-1 to their h2 share. This
  // happens *before* the sibling group is spawned: it is what makes the
  // group's palettes pairwise disjoint, and with them every cross-branch
  // interaction harmless (file comment). The hash and its restrictions
  // register into this branch's batch — ancestors land before descendants
  // when the batch finally applies.
  const KWiseHash& h2 = split->h2;
  const std::uint32_t hash_id =
      implicit_ != nullptr ? st.implicit.add_hash(h2) : 0;
  for (std::uint64_t i = 0; i + 1 < b; ++i) {
    for (const NodeId l : bin_local[i]) {
      const NodeId v = inst.orig[l];
      pal_.restrict(v, [&](Color c) { return h2(c) + 1 == i + 1; });
      if (implicit_ != nullptr) {
        st.implicit.push_restriction(v, hash_id,
                                     static_cast<std::uint32_t>(i + 1));
      }
    }
  }

  // Recurse on the color bins in parallel (disjoint palettes): dispatched
  // as pool tasks when the ExecContext has a pool, inline otherwise.
  // TaskGroup::fold joins the branch states in bin-index order either way,
  // so both paths produce identical merged results.
  const std::uint64_t groups = b - 1;
  const bool par = exec_.parallel() && groups > 1;
  const bool record = stats != nullptr && record_children_;
  std::vector<RunState> children;
  children.reserve(groups);
  std::vector<CallStats> child_stats(record ? groups : 0);
  own_seconds += timer.seconds();
  TaskGroup::fold(
      par ? exec_.pool() : nullptr, groups,
      [&](std::size_t i) {
        return recurse(make_child(inst, bin_local[i], split->ell_next),
                       depth + 1, bin_salt(salt, i, b),
                       record ? &child_stats[i] : nullptr);
      },
      [&](std::size_t, RunState&& rs) { children.push_back(std::move(rs)); });
  st.merge_group(std::move(children));
  timer.reset();
  if (record) stats->children = std::move(child_stats);

  // Last bin: update palettes, then recurse. This runs strictly after the
  // group join — exactly the model's schedule, where G_b's palette update
  // sees every color the parallel phase committed.
  const Instance last = make_child(inst, bin_local[b - 1], split->ell_next);
  update_palettes(last.orig, st);
  own_seconds += timer.seconds();
  CallStats last_stats;
  st.merge_sequential(recurse(last, depth + 1, bin_salt(salt, b - 1, b),
                              record ? &last_stats : nullptr));
  timer.reset();
  if (record) stats->children.push_back(std::move(last_stats));

  // G0: solved locally once both bin phases retired.
  if (!g0_local.empty()) {
    solve_g0(make_child(inst, g0_local, inst.ell), salt, st);
  }

  own_seconds += timer.seconds();
  st.add_depth_seconds(depth, own_seconds);
  return st;
}

}  // namespace detcol
