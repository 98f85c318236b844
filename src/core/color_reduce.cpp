#include "core/color_reduce.hpp"

#include <algorithm>
#include <utility>

#include "core/bin_recursion.hpp"
#include "core/partition.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace detcol {
namespace {

/// Words needed to collect an instance onto one machine: the graph plus
/// palettes truncated to deg+1 (Theorem 1.3's trick: dropping surplus colors
/// before a local solve is always safe). Shard-ordered reduction over the
/// instance's nodes (an integer sum, so the fold order cannot matter; small
/// instances collapse to one inline shard).
std::uint64_t collect_words(const Instance& inst, const PaletteSet& pal,
                            ExecContext exec) {
  return parallel_reduce_shards(
      exec, inst.n(), inst.size_words(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::uint64_t w = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const NodeId v = static_cast<NodeId>(i);
          w += std::min<std::uint64_t>(
              pal.palette_size(inst.orig[v]),
              std::uint64_t{inst.graph.degree(v)} + 1);
        }
        return w;
      },
      [](std::uint64_t acc, std::uint64_t part) { return acc + part; });
}

/// ColorReduce on the shared skeleton (core/bin_recursion.hpp): splits come
/// from partition(), leaves and G0 are collected and colored greedily, and
/// every charge goes through the immutable CliqueModel.
class ColorReducePipeline final : public BinRecursion {
 public:
  ColorReducePipeline(const Graph& g, const PaletteSet& palettes,
                      const ColorReduceConfig& cfg)
      : BinRecursion(g, palettes, cfg.exec, "color-reduce",
                     "color_reduce.recurse"),
        cfg_(cfg),
        model_(std::max<std::uint64_t>(1, g.num_nodes()), cfg.costs,
               cfg.route_slack, cfg.collect_slack) {}

  ColorReduceResult run() {
    WallTimer wall;
    ColorReduceResult result(g_.num_nodes());
    result.explicit_palette_words = pal_.total_size();
    if (cfg_.mirror_implicit) {
      // Theorem 1.3 applies to the uniform-palette case only: every node
      // must hold exactly {0, ..., Δ}.
      const Color k = static_cast<Color>(g_.max_degree()) + 1;
      for (NodeId v = 0; v < g_.num_nodes(); ++v) {
        const auto p = pal_.palette(v);
        DC_CHECK(p.size() == k,
                 "mirror_implicit requires uniform [Δ+1] palettes");
        for (Color c = 0; c < k; ++c) {
          DC_CHECK(p[c] == c,
                   "mirror_implicit requires uniform [Δ+1] palettes");
        }
      }
      result.implicit_store =
          std::make_unique<ImplicitPaletteStore>(g_.num_nodes(), k);
      implicit_ = result.implicit_store.get();
    }
    RunState st =
        run_root(std::max(1.0, static_cast<double>(g_.max_degree())),
                 cfg_.salt, &result.root, cfg_.record_stats);

    // Collect point: the merged run state becomes the result. Hash
    // registrations install into the store here, in recursion-tree order.
    if (implicit_ != nullptr) implicit_->apply(std::move(st.implicit));
    result.coloring = std::move(coloring_);
    result.ledger = st.costs.ledger;
    result.max_depth_reached = st.max_depth;
    result.num_partitions = st.num_partitions;
    result.num_collects = st.costs.num_collects;
    result.peak_collect_words = st.costs.peak_local_words;
    result.total_seed_evaluations = st.seed_evaluations;
    result.mpc = std::move(st.costs);
    result.threads_used = cfg_.exec.num_threads();
    result.depth_seconds = std::move(st.depth_seconds);
    result.wall_seconds = wall.seconds();
    return result;
  }

 private:
  std::optional<BinSplit> split_or_solve(const Instance& inst, unsigned depth,
                                         std::uint64_t salt, RunState& st,
                                         CallStats* stats) override {
    const auto& p = cfg_.part;
    const double collect_limit =
        p.collect_factor * static_cast<double>(g_.num_nodes());
    const std::uint64_t inst_words = collect_words(inst, pal_, exec_);
    const bool small = static_cast<double>(inst_words) <= collect_limit;
    if (small || depth >= p.max_depth || inst.ell < p.min_ell) {
      if (!small) {
        // Expected when ell bottoms out before the size threshold; the
        // collect-capacity check still guards the model limit.
        DC_LOG_DEBUG << "forced collect at depth " << depth << " (n="
                     << inst.n() << ", ell=" << inst.ell << ")";
      }
      if (stats != nullptr) stats->collected = true;
      collect_and_color(inst, inst_words, st);
      return std::nullopt;
    }

    // --- Partition (Algorithm 2) with derandomized seeds (Lemma 3.9). ---
    PartitionResult pr = partition(inst, pal_, g_.num_nodes(), p, &model_,
                                   &st.costs, salt, exec_);
    st.seed_evaluations += pr.seed.evaluations;
    if (stats != nullptr) {
      stats->num_bins = pr.num_bins;
      stats->bad_nodes = pr.cls.num_bad_nodes;
      stats->bad_bins = pr.cls.num_bad_bins;
      stats->reclassified = pr.cls.reclassified;
      stats->g0_words = pr.cls.bad_graph_words;
      stats->seed_evaluations = pr.seed.evaluations;
      stats->seed_met_threshold = pr.seed.met_threshold;
    }
    // Bad nodes (bin 0) form G0.
    return BinSplit{pr.num_bins, std::move(pr.h2), pr.ell_next,
                    std::move(pr.cls.bin_of), {}, {}};
  }

  /// G0 is collected and colored like a leaf. Greedy consults colored
  /// neighbors directly, so its palette update is implicit.
  void solve_g0(const Instance& g0, std::uint64_t, RunState& st) override {
    collect_and_color(g0, collect_words(g0, pal_, exec_), st);
  }

  std::uint64_t bin_salt(std::uint64_t salt, std::uint64_t i,
                         std::uint64_t b) const override {
    return sub_seed(salt, i + 1 < b ? i + 1 : b + 1);
  }

  void charge_palette_update(std::size_t nodes, std::uint64_t touched,
                             RunState& st) const override {
    if (nodes == 0) return;
    model_.lenzen_route(std::max<std::uint64_t>(1, touched),
                        1 + g_.max_degree(), "palette-update", st.costs);
  }

  /// Collect `inst` (already costed at `words` words) onto one machine and
  /// greedily color it, consulting already-colored neighbors in the
  /// original graph.
  void collect_and_color(const Instance& inst, std::uint64_t words,
                         RunState& st) {
    model_.collect(words, "collect-color", st.costs);
    // Color highest-degree-first within the instance.
    std::vector<NodeId> order(inst.orig.begin(), inst.orig.end());
    std::sort(order.begin(), order.end(),
              [&](NodeId a, NodeId b) {
                const auto da = g_.degree(a), db = g_.degree(b);
                if (da != db) return da > db;
                return a < b;
              });
    const bool ok = greedy_color(g_, pal_, order, coloring_);
    DC_CHECK(ok, "local greedy ran out of colors — the p(v) > d(v) "
                 "invariant was broken upstream");
    // Announce the new colors to all neighbors (one word per node).
    model_.lenzen_route(inst.n(), 1 + inst.graph.max_degree(),
                        "color-announce", st.costs);
  }

  const ColorReduceConfig cfg_;
  const CliqueModel model_;
};

}  // namespace

ColorReduceResult color_reduce(const Graph& g, const PaletteSet& palettes,
                               const ColorReduceConfig& config) {
  return ColorReducePipeline(g, palettes, config).run();
}

}  // namespace detcol
