#include "core/hash_pair.hpp"

#include <algorithm>

#include "core/classify.hpp"
#include "util/check.hpp"

namespace detcol {
namespace {

/// Sorted union of the palettes of `orig`'s nodes.
std::vector<Color> color_universe(std::span<const NodeId> orig,
                                  const PaletteSet& palettes) {
  std::vector<Color> colors;
  for (const NodeId v : orig) {
    const auto p = palettes.palette(v);
    colors.insert(colors.end(), p.begin(), p.end());
  }
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  return colors;
}

std::uint64_t checked_bins(std::uint64_t b) {
  DC_CHECK(b >= 2, "a partition seed search needs at least 2 bins");
  return b;
}

}  // namespace

HashPairState::HashPairState(const Graph& g, std::span<const NodeId> orig,
                             const PaletteSet& palettes,
                             std::uint64_t num_bins, unsigned independence,
                             ExecContext exec, PowerTableProvider* tables)
    : g_(g),
      b_(checked_bins(num_bins)),
      c_(independence),
      exec_(exec),
      colors_(color_universe(orig, palettes)),
      h1_(acquire_power_table(
              tables, std::vector<std::uint64_t>(orig.begin(), orig.end()),
              c_),
          b_),
      h2_(acquire_power_table(tables, colors_, c_), b_ - 1) {
  DC_CHECK(orig.size() == g.num_nodes(), "orig map size mismatch");

  // Per-node color-universe index. Palettes are sorted and duplicate-free
  // (PaletteSet invariant), so a palette equals the universe iff the sizes
  // match; otherwise a merge walk maps each color to its universe slot.
  const NodeId n = g.num_nodes();
  full_palette_.assign(n, false);
  pal_off_.assign(static_cast<std::size_t>(n) + 1, 0);
  std::size_t partial_total = 0;
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t sz = palettes.palette_size(orig[v]);
    full_palette_[v] = sz == colors_.size();
    if (!full_palette_[v]) partial_total += sz;
    pal_off_[v + 1] = partial_total;
  }
  pal_idx_.reserve(partial_total);
  for (NodeId v = 0; v < n; ++v) {
    if (full_palette_[v]) continue;
    auto it = colors_.begin();
    for (const Color col : palettes.palette(orig[v])) {
      it = std::lower_bound(it, colors_.end(), col);
      DC_ASSERT(it != colors_.end() && *it == col);
      pal_idx_.push_back(static_cast<std::uint32_t>(it - colors_.begin()));
    }
  }
  bin_.assign(n, 0);
  cbin_.assign(colors_.size(), 0);
  colors_in_bin_.assign(b_ - 1, 0);
}

HashPairState::Moved HashPairState::load(const SeedBits& seed) {
  // Incremental coefficient load: the return values make the evaluation
  // prefix-aware. While the MCE walk fixes bits of one hash, the other
  // hash's words are untouched and everything derived from it is reused.
  Moved moved{h1_.load(seed.word_range(0, c_), exec_),
              h2_.load(seed.word_range(c_, c_), exec_)};
  if (!primed_) moved = {true, true};
  primed_ = true;

  if (moved.h1) {
    h1_.bins_into(bin_, /*offset=*/1, exec_);
    // d'(v) needs every neighbor's bin, so it runs as a second pass after
    // the bin fill's barrier.
    classify_detail::fill_deg_in_bin(g_, bin_, dprime_, exec_);
  }
  if (moved.h2) {
    // h2 once per distinct color (range mapping shards over exec_), plus
    // per-bin color counts for the full-palette fast path (serial: one add
    // per distinct color).
    h2_.bins_into(cbin_, /*offset=*/1, exec_);  // 1..b-1
    colors_in_bin_.assign(b_ - 1, 0);
    for (const std::uint32_t bin : cbin_) ++colors_in_bin_[bin - 1];
  }
  return moved;
}

}  // namespace detcol
