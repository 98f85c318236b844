#include "lowspace/seed_engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace detcol {
namespace {

std::vector<std::uint64_t> iota_points(std::uint64_t count) {
  std::vector<std::uint64_t> points(count);
  std::iota(points.begin(), points.end(), std::uint64_t{0});
  return points;
}

}  // namespace

LowSpaceSeedEngine::LowSpaceSeedEngine(const Graph& g,
                                       std::span<const NodeId> orig,
                                       const PaletteSet& palettes,
                                       std::uint64_t num_bins,
                                       unsigned independence, double slack_exp,
                                       ExecContext exec,
                                       PowerTableProvider* tables)
    : pair_(g, orig, palettes, num_bins, independence, exec, tables),
      exec_(exec) {
  const NodeId n = g.num_nodes();
  dev_target_.resize(n);
  slack_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    const double d = static_cast<double>(g.degree(v));
    dev_target_[v] = d / static_cast<double>(num_bins);
    slack_[v] = std::pow(std::max(d, 2.0), slack_exp);
  }
  good_.assign(n, 0);
}

std::uint64_t LowSpaceSeedEngine::violations(const SeedBits& seed) {
  if (!pair_.load(seed).any()) return cached_bad_;

  // Verdict pass: the exact Lemma 4.5 test of the naive implementation (the
  // float ops run on the precomputed per-node doubles, so they associate
  // identically). Shard-ordered integer sum.
  const std::uint64_t b = pair_.num_bins();
  const std::span<const std::uint32_t> bin = pair_.bins();
  const std::span<const std::uint32_t> deg_in_bin = pair_.deg_in_bin();
  cached_bad_ = parallel_reduce_shards(
      exec_, good_.size(), std::uint64_t{0},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::uint64_t bad = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const NodeId v = static_cast<NodeId>(i);
          const std::uint64_t dprime = deg_in_bin[v];
          bool ok = std::abs(static_cast<double>(dprime) - dev_target_[v]) <=
                    slack_[v];
          if (ok && bin[v] != b && pair_.pal_in_bin(v) <= dprime) ok = false;
          good_[v] = ok ? 1 : 0;
          if (!ok) ++bad;
        }
        return bad;
      },
      [](std::uint64_t acc, std::uint64_t part) { return acc + part; });
  return cached_bad_;
}

std::uint64_t lowspace_naive_violations(
    const Graph& g, std::span<const NodeId> orig, const PaletteSet& palettes,
    std::uint64_t num_bins, double slack_exp, const KWiseHash& h1,
    const KWiseHash& h2, std::vector<std::uint32_t>* bins_out,
    std::vector<char>* good_out) {
  std::uint64_t bad = 0;
  std::vector<std::uint32_t> bin(g.num_nodes());
  // Bulk h1 pass through the active field kernel, so the naive/engine
  // equivalence tests exercise the kernel on both sides of the comparison.
  const std::vector<std::uint64_t> pts(orig.begin(), orig.end());
  h1.eval_bins_many(pts, bin, /*offset=*/1);
  if (good_out != nullptr) good_out->assign(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::uint64_t dprime = 0;
    for (const NodeId u : g.neighbors(v)) {
      if (bin[u] == bin[v]) ++dprime;
    }
    const double d = static_cast<double>(g.degree(v));
    const double slack = std::pow(std::max(d, 2.0), slack_exp);
    bool ok = std::abs(static_cast<double>(dprime) -
                       d / static_cast<double>(num_bins)) <= slack;
    if (ok && bin[v] != num_bins) {
      std::uint64_t pprime = 0;
      for (const Color col : palettes.palette(orig[v])) {
        if (h2(col) + 1 == bin[v]) ++pprime;
      }
      if (pprime <= dprime) ok = false;
    }
    if (!ok) ++bad;
    if (good_out != nullptr) (*good_out)[v] = ok ? 1 : 0;
  }
  if (bins_out != nullptr) *bins_out = std::move(bin);
  return bad;
}

MisPhaseEngine::MisPhaseEngine(std::uint64_t num_vertices,
                               unsigned independence, ExecContext exec,
                               PowerTableProvider* tables)
    : c_(independence),
      eval_(acquire_power_table(tables, iota_points(num_vertices),
                                independence),
            /*range=*/1),
      exec_(exec) {}

bool MisPhaseEngine::load(const SeedBits& seed) {
  return eval_.load(seed.word_range(0, c_), exec_);
}

}  // namespace detcol
