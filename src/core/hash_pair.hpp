// The seed-dependent state both partition seed engines share.
//
// Partition (Algorithm 2, core/seed_eval.hpp) and LowSpacePartition
// (Algorithm 4, lowspace/seed_engine.hpp) score candidate seeds for the same
// hash pair on a fixed subinstance: h1 maps original node ids to bins 1..b,
// h2 maps palette colors to color bins 1..b-1. Both derive their verdicts
// from the same three per-node quantities, which HashPairState keeps current
// under incremental seed loads:
//
//   bin(v)         h1 bin of node v, 1..b
//   deg_in_bin(v)  d'(v), neighbors in v's bin (classify_detail::fill_deg_in_bin)
//   pal_in_bin(v)  p'(v), palette colors h2 sends to v's bin (bins 1..b-1)
//
// What does not depend on the seed is built once: power tables
// (BatchKWiseEval) over the node ids and the *distinct* palette colors, so a
// candidate costs one multiply-add per point per changed seed word; and a
// distinct-color index, so a node whose palette is the whole union (every
// node, in the uniform [Δ+1] case) reads p'(v) from a per-bin count in O(1).
// An MCE chunk inside the h2 half of the seed leaves h1 untouched, so load()
// then skips the O(m) d'(v) pass, and vice versa.
//
// The verdict — Definition 3.1 via classify_detail::finish, or the Lemma 4.5
// test — stays with each engine as a plain per-node loop over the accessors
// below. Every pass shards over the ExecContext with static boundaries, so
// all values are bit-identical for any thread count and equal to evaluating
// KWiseHash pairs built from the same words.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "derand/seedbits.hpp"
#include "exec/exec.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"
#include "hashing/batch_eval.hpp"

namespace detcol {

class HashPairState {
 public:
  /// Builds the tables for the local graph `g`, whose node v has original id
  /// orig[v] and palette palettes.palette(orig[v]). All three must outlive
  /// the state and stay unmodified while it is in use. Seed layout:
  /// `independence` words for h1 (range `num_bins`), then `independence`
  /// words for h2 (range `num_bins` - 1). `tables`, when non-null, supplies
  /// shared power tables (hashing/batch_eval.hpp).
  HashPairState(const Graph& g, std::span<const NodeId> orig,
                const PaletteSet& palettes, std::uint64_t num_bins,
                unsigned independence, ExecContext exec,
                PowerTableProvider* tables);

  /// Which hash moved in the last load(); both on the first one.
  struct Moved {
    bool h1 = false;
    bool h2 = false;
    bool any() const { return h1 || h2; }
  };

  /// Load the candidate's words and refresh what depends on a moved hash.
  /// When nothing moved, every accessor returns exactly its previous value.
  Moved load(const SeedBits& seed);

  std::span<const std::uint32_t> bins() const { return bin_; }
  std::span<const std::uint32_t> deg_in_bin() const { return dprime_; }

  /// p'(v) under the loaded h2. Only meaningful for v in a color bin
  /// (bins()[v] < num_bins()): the last bin receives no colors.
  std::uint64_t pal_in_bin(NodeId v) const {
    const std::uint32_t bin = bin_[v];
    if (full_palette_[v]) return colors_in_bin_[bin - 1];
    std::uint64_t p = 0;
    for (std::size_t k = pal_off_[v]; k < pal_off_[v + 1]; ++k) {
      if (cbin_[pal_idx_[k]] == bin) ++p;
    }
    return p;
  }

  std::uint64_t num_bins() const { return b_; }
  std::size_t num_distinct_colors() const { return colors_.size(); }

 private:
  const Graph& g_;
  std::uint64_t b_;
  unsigned c_;
  ExecContext exec_;

  std::vector<Color> colors_;  // sorted union of the nodes' palettes (built
                               // first: h2_'s power table is over these)
  BatchKWiseEval h1_;          // points: original node ids, range b
  BatchKWiseEval h2_;          // points: distinct colors, range b-1
  // Per node: true if its palette equals the full color universe; otherwise
  // its colors as indices into colors_, flat in
  // pal_idx_[pal_off_[v] .. pal_off_[v+1]).
  std::vector<bool> full_palette_;
  std::vector<std::uint32_t> pal_idx_;
  std::vector<std::size_t> pal_off_;

  // bin_/dprime_ are recomputed only when h1 moved, cbin_/colors_in_bin_
  // only when h2 did.
  std::vector<std::uint32_t> bin_;            // per node: h1 bin 1..b
  std::vector<std::uint32_t> dprime_;         // per node: same-bin degree
  std::vector<std::uint32_t> cbin_;           // per distinct color: 1..b-1
  std::vector<std::uint64_t> colors_in_bin_;  // per color bin: |h2^-1(bin)|
  bool primed_ = false;  // a previous load() left valid state
};

}  // namespace detcol
