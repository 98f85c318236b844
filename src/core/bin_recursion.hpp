// The bin-recursion skeleton of ColorReduce (Algorithms 1–2,
// core/color_reduce.cpp) and LowSpaceColorReduce (Algorithms 3–4,
// lowspace/low_space.cpp).
//
// Both are one scheme: a derandomized hash pair (h1 on nodes, h2 on colors)
// splits an instance into G0 and bins G1..G_b; the color bins G1..G_{b-1}
// recurse in parallel on disjoint h2 palette shares, G_b recurses after a
// palette update, and G0 is solved locally last. A pipeline derives from
// BinRecursion and supplies only its own parts: the split (or a leaf
// solve), the G0 solve, its model charges and its salt schedule.
//
// Concurrency discipline — why every output is bit-identical for any
// thread count (docs/ARCHITECTURE.md links here). Two branches that run
// concurrently are members of distinct bins of a common ancestor split, so
//   * their node sets are disjoint: every per-node slot (coloring entries,
//     palettes, implicit-store chains, CallStats children) has one writer;
//   * their palettes were restricted to disjoint h2 color classes *before*
//     the group was spawned: a color committed by a concurrent branch is
//     never present in (nor removable from) a palette this branch reads, so
//     whether a cross-branch read observes it cannot change any output.
// Cross-branch color accesses are relaxed atomics purely to be
// well-defined. Everything else lives in the branch-private RunState and
// merges at the fork/join boundaries in bin-index order (TaskGroup::fold).
// No mutexes, no atomic counters.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/classify.hpp"
#include "core/implicit_palette.hpp"
#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"
#include "hashing/kwise.hpp"
#include "sim/ledger.hpp"
#include "sim/mpc_costs.hpp"

namespace detcol {

/// Per-call statistics, recorded as a tree mirroring the recursion (only
/// ColorReduce records one). The skeleton fills the shape fields and the
/// children; the split step fills the partition fields.
struct CallStats {
  unsigned depth = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t max_deg = 0;
  double ell = 0.0;
  std::uint64_t num_bins = 0;       // 0 for collected leaves
  std::uint64_t bad_nodes = 0;
  std::uint64_t bad_bins = 0;
  std::uint64_t reclassified = 0;
  std::uint64_t g0_words = 0;
  std::uint64_t seed_evaluations = 0;
  bool seed_met_threshold = true;
  bool collected = false;           // leaf solved by collect-and-color
  std::vector<CallStats> children;  // color bins first, then last bin
};

/// Everything one recursion branch accumulates. Join points merge children
/// into the parent in bin-index order, so the merged values are independent
/// of the schedule. merge_sequential is associative with a default-
/// constructed RunState as identity.
struct RunState {
  MpcCosts costs;  // model primitive costs: ledger, peaks, op counters
  /// LowSpace's algorithm-level round schedule (seed selection, MIS), kept
  /// apart from `costs`; ColorReduce charges everything into costs.ledger.
  RoundLedger ledger;
  unsigned max_depth = 0;
  std::uint64_t num_partitions = 0;
  std::uint64_t seed_evaluations = 0;
  std::uint64_t num_mis_calls = 0;
  std::uint64_t total_mis_phases = 0;
  std::uint64_t diverted_violators = 0;
  std::vector<double> depth_seconds;  // telemetry only, never bit-compared
  ImplicitPaletteStore::LocalBatch implicit;

  void add_depth_seconds(unsigned depth, double seconds) {
    if (depth_seconds.size() <= depth) depth_seconds.resize(depth + 1, 0.0);
    depth_seconds[depth] += seconds;
  }

  /// Child ran after this state's charges (model time): ledgers add.
  void merge_sequential(RunState&& child) {
    costs.merge(child.costs);
    ledger.merge_sequential(child.ledger);
    fold_scalars(std::move(child));
  }

  /// Children ran simultaneously in the model: rounds advance by the
  /// critical path, everything else folds in bin-index order.
  void merge_group(std::vector<RunState>&& children);

 private:
  void fold_scalars(RunState&& child);
};

/// A pipeline's split of one instance. Candidate k is local node nodes[k]
/// (local node k when `nodes` is empty) and goes to G0 when bin_of[k] is 0,
/// else to bin bin_of[k] in 1..b. G0 starts as `g0` (nodes the pipeline set
/// aside before the seed search); candidates append in order.
struct BinSplit {
  std::uint64_t num_bins;  // b >= 2: color bins 1..b-1, last bin b
  KWiseHash h2;            // color hash (range b-1) for palette restriction
  double ell_next = 0.0;   // degree proxy of the bin subinstances
  std::vector<std::uint32_t> bin_of;
  std::vector<NodeId> nodes;
  std::vector<NodeId> g0;
};

class BinRecursion {
 protected:
  /// Checks the (deg+1)-list precondition p(v) > d(v). `deadline_where`
  /// names the budget polls, `failpoint` the recursion-entry site.
  BinRecursion(const Graph& g, const PaletteSet& palettes, ExecContext exec,
               const char* deadline_where, const char* failpoint);
  virtual ~BinRecursion() = default;

  /// Recurse from the whole graph. `root_stats` (nullable) receives the
  /// root's CallStats, with the tree below it when `record_children`.
  RunState run_root(double root_ell, std::uint64_t salt,
                    CallStats* root_stats, bool record_children);

  /// Split `inst` (charging the seed search into `st`), or solve it as a
  /// leaf right here and return nullopt.
  virtual std::optional<BinSplit> split_or_solve(
      const Instance& inst, unsigned depth, std::uint64_t salt, RunState& st,
      CallStats* stats) = 0;
  /// Solve a split's non-empty G0 after both bin phases retired.
  virtual void solve_g0(const Instance& g0, std::uint64_t salt,
                        RunState& st) = 0;
  /// Salt of bin i+1 (i = b-1 is the last bin) under the parent's salt.
  virtual std::uint64_t bin_salt(std::uint64_t salt, std::uint64_t i,
                                 std::uint64_t b) const = 0;
  /// Model charge of a palette update over `nodes` nodes that removed
  /// `touched` colors.
  virtual void charge_palette_update(std::size_t nodes, std::uint64_t touched,
                                     RunState& st) const = 0;

  /// Drop colors of already-colored original-graph neighbors from the
  /// palettes of `nodes` (the paper's "update color palettes" steps). The
  /// removal count is schedule-independent (file comment), so its charge is.
  void update_palettes(std::span<const NodeId> nodes, RunState& st);

  /// The subinstance induced by `local_nodes` of `inst`, in that order.
  Instance make_child(const Instance& inst, std::span<const NodeId> local_nodes,
                      double ell) const;

  const Graph& g_;
  const ExecContext exec_;
  // Per-node slots with exactly one writer per entry (file comment).
  PaletteSet pal_;  // restricted and updated during the run
  Coloring coloring_;
  ImplicitPaletteStore* implicit_ = nullptr;  // mirror of pal_ edits, or null

 private:
  RunState recurse(const Instance& inst, unsigned depth, std::uint64_t salt,
                   CallStats* stats);

  const char* deadline_where_;
  const char* failpoint_;
  bool record_children_ = false;
};

}  // namespace detcol
