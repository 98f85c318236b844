// Batched seed-evaluation engines for the low-space MPC layer (Theorem 1.4).
//
// Both seed searches of the layer score a fixed instance under thousands of
// nearby candidate seeds: LowSpacePartition (Algorithm 4) counts Lemma 4.5
// violators, the derandomized-Luby MIS phase (Section 4.1) evaluates a
// priority polynomial at every reduction vertex. LowSpaceSeedEngine holds
// the HashPairState that core/seed_eval.hpp's engine also uses
// (core/hash_pair.hpp) and adds the Lemma 4.5 verdict; MisPhaseEngine keeps
// the priorities current over a power table of the reduction-vertex ids.
//
// Every per-node pass shards over the engine's ExecContext with static shard
// boundaries (exec/exec.hpp), so violation counts, verdicts and priorities
// are bit-identical for any thread count. violations() equals the naive
// per-candidate recomputation bit for bit; tests/test_lowspace_engine.cpp
// asserts this and that select_seed picks identical seeds on either backend.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/hash_pair.hpp"
#include "derand/seedbits.hpp"
#include "exec/exec.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"
#include "hashing/batch_eval.hpp"
#include "hashing/kwise.hpp"

namespace detcol {

class LowSpaceSeedEngine {
 public:
  /// Arguments, lifetimes and seed layout as for HashPairState; `slack_exp`
  /// is the Lemma 4.5 degree-slack exponent.
  LowSpaceSeedEngine(const Graph& g, std::span<const NodeId> orig,
                     const PaletteSet& palettes, std::uint64_t num_bins,
                     unsigned independence, double slack_exp,
                     ExecContext exec = {},
                     PowerTableProvider* tables = nullptr);

  /// Number of Lemma 4.5 violators under `seed` — bit-identical to
  /// classifying every node from scratch with the KWiseHash pair built from
  /// the same words. Buffers are engine-owned and reused.
  std::uint64_t violations(const SeedBits& seed);

  /// SeedCostFn adapter.
  double cost(const SeedBits& seed) {
    return static_cast<double>(violations(seed));
  }

  /// Per-node h1 bins (1..b) of the last violations() call. Valid until the
  /// next call.
  std::span<const std::uint32_t> bins() const { return pair_.bins(); }

  /// Per-node Lemma 4.5 verdicts of the last violations() call: non-zero
  /// means the node keeps its color bin, zero diverts it to G0.
  std::span<const char> good() const { return good_; }

  std::uint64_t num_bins() const { return pair_.num_bins(); }
  std::size_t num_distinct_colors() const {
    return pair_.num_distinct_colors();
  }

 private:
  HashPairState pair_;
  ExecContext exec_;
  // Per node: its degree target d/b and slack (seed-independent doubles of
  // the Lemma 4.5 test, precomputed so every evaluation runs the identical
  // float ops).
  std::vector<double> dev_target_;
  std::vector<double> slack_;
  std::vector<char> good_;  // per node verdict of the last violations()
  std::uint64_t cached_bad_ = 0;
};

/// Reference oracle: the Lemma 4.5 violator count computed the naive way —
/// full h1/h2 evaluation per node and per palette color, d'/p' from scratch
/// — exactly as the pre-engine driver did. LowSpaceSeedEngine::violations()
/// must match it bit for bit; tests and benches diff the two backends
/// against this single implementation so they cannot drift apart.
/// `bins_out`/`good_out` (optional) receive the per-node bins and verdicts.
std::uint64_t lowspace_naive_violations(
    const Graph& g, std::span<const NodeId> orig, const PaletteSet& palettes,
    std::uint64_t num_bins, double slack_exp, const KWiseHash& h1,
    const KWiseHash& h2, std::vector<std::uint32_t>* bins_out = nullptr,
    std::vector<char>* good_out = nullptr);

/// Batched c-wise independent priorities for the derandomized-Luby phase
/// seeds: the priority polynomial evaluated at every reduction vertex, kept
/// current under word-diff loads. priority() is bit-identical to
/// KWiseHash::field_eval on the same seed words.
class MisPhaseEngine {
 public:
  MisPhaseEngine(std::uint64_t num_vertices, unsigned independence,
                 ExecContext exec = {}, PowerTableProvider* tables = nullptr);

  /// Load the candidate's coefficient words (layout: `independence` words
  /// from bit 0). Returns true when any priority moved — false means every
  /// vertex keeps its exact previous priority, so callers can reuse a phase
  /// simulation computed under the previous load.
  bool load(const SeedBits& seed);

  /// Field-value priority of reduction vertex x under the loaded seed.
  std::uint64_t priority(std::uint64_t x) const {
    return eval_.field_value(x);
  }

  ExecContext exec() const { return exec_; }

 private:
  unsigned c_;
  BatchKWiseEval eval_;
  ExecContext exec_;
};

}  // namespace detcol
