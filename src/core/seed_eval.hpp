// Batched seed-evaluation engine for derandomized partition (Lemma 3.9).
//
// One partition() call scores up to tens of thousands of candidate seeds on
// a *fixed* (instance, palettes) pair; a naive candidate costs O(n·Δ) field
// evaluations. SeedEvalEngine holds a HashPairState (core/hash_pair.hpp, the
// part it shares with the low-space engine) and adds the Definition 3.1
// verdict, with every buffer in a ClassifyScratch reused across evaluations.
//
// evaluate() is bit-identical to classify() with KWiseHash pairs built from
// the same seed: identical field elements, identical range mapping, and the
// goodness arithmetic runs through the same classify_detail::finish kernel.
// tests/test_seed_eval.cpp asserts full equality, and that select_seed picks
// bit-identical seeds whichever backend drives the cost function.
#pragma once

#include <cstdint>
#include <utility>

#include "core/classify.hpp"
#include "core/hash_pair.hpp"
#include "core/params.hpp"
#include "derand/seedbits.hpp"
#include "exec/exec.hpp"
#include "graph/palette.hpp"

namespace detcol {

class SeedEvalEngine {
 public:
  /// A HashPairState over `inst` / `palettes` (same lifetime rules) with
  /// b = num_bins(inst.ell, params); outputs are bit-identical for any
  /// thread count of `exec`.
  SeedEvalEngine(const Instance& inst, const PaletteSet& palettes,
                 std::uint64_t n_orig, const PartitionParams& params,
                 ExecContext exec = {});

  /// Exact classification under `seed` (layout: independence words for h1,
  /// then independence words for h2 — partition()'s seed layout). The
  /// returned reference points into engine-owned scratch and is valid until
  /// the next evaluate() call.
  const Classification& evaluate(const SeedBits& seed);

  /// Convenience for SeedCostFn: the acceptance cost of Corollary 3.10.
  double cost_size(const SeedBits& seed) { return evaluate(seed).cost_size; }

  std::uint64_t num_bins() const { return pair_.num_bins(); }
  std::size_t num_distinct_colors() const {
    return pair_.num_distinct_colors();
  }

 private:
  const Instance& inst_;
  const PaletteSet& pal_;
  std::uint64_t n_orig_;
  const PartitionParams& params_;
  ExecContext exec_;
  HashPairState pair_;
  ClassifyScratch scratch_;
};

/// Builds the two KWiseHash functions partition() derives from a seed (the
/// engine's evaluate() is bit-identical to classifying with this pair).
std::pair<KWiseHash, KWiseHash> seed_hash_pair(const SeedBits& seed,
                                               unsigned independence,
                                               std::uint64_t num_bins);

}  // namespace detcol
