#include "lowspace/low_space.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/bin_recursion.hpp"
#include "hashing/kwise.hpp"
#include "lowspace/seed_engine.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace detcol {
namespace {

/// LowSpaceColorReduce on the shared skeleton (core/bin_recursion.hpp):
/// low-degree nodes go to G0 up front, the split comes from a
/// LowSpaceSeedEngine search, leaves and G0 are colored through the MIS
/// reduction after a palette update, and every charge goes through the
/// immutable MpcModel.
class LowSpacePipeline final : public BinRecursion {
 public:
  LowSpacePipeline(const Graph& g, const PaletteSet& palettes,
                   const LowSpaceParams& params, std::uint64_t salt)
      : BinRecursion(g, palettes, params.exec, "lowspace",
                     "lowspace.recurse"),
        p_(params),
        salt_(salt),
        model_(local_space(), total_space()) {
    // The MIS sub-searches shard over the run's pool and share its
    // power-table source.
    p_.mis.exec = p_.exec;
    p_.mis.tables = p_.tables;
  }

  LowSpaceResult run() {
    RunState st = run_root(0.0, salt_, nullptr, false);
    LowSpaceResult result(g_.num_nodes());
    result.coloring = std::move(coloring_);
    result.ledger = std::move(st.ledger);
    result.depth_reached = st.max_depth;
    result.num_partitions = st.num_partitions;
    result.num_mis_calls = st.num_mis_calls;
    result.total_mis_phases = st.total_mis_phases;
    result.seed_evaluations = st.seed_evaluations;
    result.diverted_violators = st.diverted_violators;
    result.mpc = std::move(st.costs);
    return result;
  }

 private:
  std::uint64_t low_deg_threshold() const {
    const double n = static_cast<double>(g_.num_nodes());
    return std::max<std::uint64_t>(
        2, ipow_floor(n, p_.low_deg_coeff * p_.delta));
  }

  std::uint64_t bins() const {
    const double n = static_cast<double>(g_.num_nodes());
    return std::max<std::uint64_t>(2, ipow_floor(n, p_.delta));
  }

  std::uint64_t local_space() const {
    const double n = static_cast<double>(std::max<NodeId>(g_.num_nodes(), 2));
    const auto s = static_cast<std::uint64_t>(
        p_.space_coeff * std::pow(n, 22.0 * p_.delta));
    return std::max(p_.local_space_floor, s);
  }

  std::uint64_t total_space() const {
    const double n = static_cast<double>(std::max<NodeId>(g_.num_nodes(), 2));
    const std::uint64_t input = g_.size_words() + pal_.total_size();
    const auto extra = static_cast<std::uint64_t>(
        16.0 * std::pow(n, 1.0 + 22.0 * p_.delta));
    return 4 * input + extra;
  }

  std::optional<BinSplit> split_or_solve(const Instance& inst, unsigned depth,
                                         std::uint64_t salt, RunState& st,
                                         CallStats*) override {
    const std::uint64_t low_deg = low_deg_threshold();
    std::vector<NodeId> low_local, high_local;
    for (NodeId v = 0; v < inst.n(); ++v) {
      (inst.graph.degree(v) <= low_deg ? low_local : high_local)
          .push_back(v);
    }

    if (high_local.empty() || depth >= p_.max_depth) {
      if (!high_local.empty()) {
        DC_LOG_WARN << "low-space recursion depth cap hit at depth " << depth;
      }
      color_locally(inst, sub_seed(salt, 7), st);
      return std::nullopt;
    }

    // --- LowSpacePartition (Algorithm 4). ---
    const std::uint64_t b = bins();
    const unsigned c = p_.independence;
    const unsigned bits = 2 * KWiseHash::seed_bits(c);
    const Instance high = make_child(inst, high_local, inst.ell);

    // Batched incremental violator counts (lowspace/seed_engine.hpp): power
    // tables amortized over the whole search, per-node passes sharded over
    // the pool; bit-identical to the naive per-candidate recomputation.
    LowSpaceSeedEngine engine(high.graph, high.orig, pal_, b, c, p_.slack_exp,
                              p_.exec, p_.tables);
    const auto cost = [&engine](const SeedBits& s) { return engine.cost(s); };
    const SeedSelectResult sel =
        select_seed(bits, cost, 0.0, p_.seed, sub_seed(salt, 1));
    st.seed_evaluations += sel.evaluations;
    // Seed schedule: per chunk one concurrent prefix-sum family (Lemma 2.1).
    model_.prefix_sum(high.n(), "seed-selection", st.costs,
                      ceil_div(bits, p_.seed.chunk_bits));
    st.ledger.charge("seed-selection", sel.rounds_charged, sel.words_charged);

    // One evaluation of the selected seed (usually already cached from the
    // search) yields the violator count, the per-node bins *and* the
    // Lemma 4.5 verdicts — the split reuses them instead of recomputing
    // d'/p' from scratch.
    const std::uint64_t bad = engine.violations(sel.seed);
    if (bad > 0) {
      DC_LOG_DEBUG << "low-space partition diverts " << bad
                   << " violator(s) to G0";
      st.diverted_violators += bad;
    }
    model_.sort(inst.graph.size_words(), "partition-route", st.costs);

    // Violators join the low-degree nodes in G0.
    BinSplit split{b, KWiseHash(sel.seed.word_range(c, c), b - 1), 0.0,
                   std::vector<std::uint32_t>(high.n()), std::move(high_local),
                   std::move(low_local)};
    const std::span<const std::uint32_t> bin = engine.bins();
    const std::span<const char> good = engine.good();
    for (NodeId v = 0; v < high.n(); ++v) {
      split.bin_of[v] = good[v] != 0 ? bin[v] : 0;
    }
    return split;
  }

  void solve_g0(const Instance& g0, std::uint64_t salt, RunState& st) override {
    color_locally(g0, sub_seed(salt, 1234), st);
  }

  std::uint64_t bin_salt(std::uint64_t salt, std::uint64_t i,
                         std::uint64_t b) const override {
    return sub_seed(salt, i + 1 < b ? 100 + i : 999);
  }

  void charge_palette_update(std::size_t, std::uint64_t touched,
                             RunState& st) const override {
    if (touched == 0) return;
    model_.route(touched, std::min(touched, model_.local_space()),
                 "palette-update", st.costs);
  }

  /// Update the palettes of `inst`, then color it through the MIS
  /// reduction. The MIS call carries the run's model, so the reduction
  /// graph it builds is contract-checked and charged into its own cost
  /// block exactly once — merged here into the branch state.
  void color_locally(const Instance& inst, std::uint64_t salt, RunState& st) {
    update_palettes(inst.orig, st);
    std::vector<std::vector<Color>> pals(inst.n());
    for (NodeId v = 0; v < inst.n(); ++v) {
      const auto span = pal_.palette(inst.orig[v]);
      pals[v].assign(span.begin(), span.end());
    }
    MisColorResult mis =
        mis_list_color(inst.graph, pals, p_.mis, salt, &model_);
    for (NodeId v = 0; v < inst.n(); ++v) {
      DC_CHECK(mis.color[v] != Coloring::kUncolored, "MIS left a node");
      std::atomic_ref<Color>(coloring_.color[inst.orig[v]])
          .store(mis.color[v], std::memory_order_relaxed);
    }
    st.num_mis_calls += 1;
    st.total_mis_phases += mis.phases;
    st.seed_evaluations += mis.seed_evaluations;
    st.ledger.merge_sequential(mis.ledger);
    st.costs.merge(mis.mpc);
  }

  LowSpaceParams p_;
  const std::uint64_t salt_;
  const MpcModel model_;
};

}  // namespace

LowSpaceResult low_space_color(const Graph& g, const PaletteSet& palettes,
                               const LowSpaceParams& params,
                               std::uint64_t salt) {
  return LowSpacePipeline(g, palettes, params, salt).run();
}

}  // namespace detcol
