#include "core/seed_eval.hpp"

namespace detcol {

std::pair<KWiseHash, KWiseHash> seed_hash_pair(const SeedBits& seed,
                                               unsigned independence,
                                               std::uint64_t num_bins) {
  KWiseHash h1(seed.word_range(0, independence), num_bins);
  KWiseHash h2(seed.word_range(independence, independence), num_bins - 1);
  return {std::move(h1), std::move(h2)};
}

SeedEvalEngine::SeedEvalEngine(const Instance& inst, const PaletteSet& palettes,
                               std::uint64_t n_orig,
                               const PartitionParams& params, ExecContext exec)
    : inst_(inst),
      pal_(palettes),
      n_orig_(n_orig),
      params_(params),
      exec_(exec),
      pair_(inst.graph, inst.orig, palettes,
            ::detcol::num_bins(inst.ell, params),  // the free function, not
                                                   // the member accessor
            params.independence, exec, params.tables) {}

const Classification& SeedEvalEngine::evaluate(const SeedBits& seed) {
  const HashPairState::Moved moved = pair_.load(seed);
  Classification& out = scratch_.cls;
  if (!moved.any()) return out;

  const NodeId n = inst_.n();
  const std::uint64_t b = pair_.num_bins();
  out.num_bins = b;
  if (moved.h1) {
    // classify_detail::finish reads the bins and d' from the scratch, and
    // d' is part of the returned classification.
    scratch_.raw_bin.assign(pair_.bins().begin(), pair_.bins().end());
    out.deg_in_bin.assign(pair_.deg_in_bin().begin(),
                          pair_.deg_in_bin().end());
  }

  // p'(v): memoized palette share. Every slot is written by its shard (the
  // serial assign() a resize leaves behind would be the one unsharded O(n)
  // pass of the pipeline).
  out.pal_in_bin.resize(n);
  parallel_for_shards(exec_, n, [&](std::size_t, std::size_t begin,
                                    std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId v = static_cast<NodeId>(i);
      // The last bin receives no colors.
      out.pal_in_bin[v] = scratch_.raw_bin[v] == b ? 0 : pair_.pal_in_bin(v);
    }
  });

  classify_detail::finish(inst_, pal_, n_orig_, params_, scratch_, exec_);
  return out;
}

}  // namespace detcol
