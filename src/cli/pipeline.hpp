// One dispatcher for every registered coloring pipeline, shared by the
// one-shot CLI (`detcol color`, the suite runner) and the serving layer.
// Keeping the dispatch in one place is what makes served responses
// byte-identical to one-shot runs: both sides execute the exact same
// pipeline code on the exact same Graph/PaletteSet, differing only in the
// ExecContext (the server hands down a thread-budgeted copy of its shared
// pool) and the optional PowerTableProvider (the server's per-instance
// table cache; null rebuilds tables per run, which never changes results).
#pragma once

#include <cstdint>
#include <string>

#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "graph/palette.hpp"

namespace detcol {
class PowerTableProvider;  // hashing/batch_eval.hpp
}

namespace detcol::cli {

/// Canonical pipeline names: reduce, randreduce, lowspace, mis, trial,
/// greedy ("colorreduce" is accepted as an alias of reduce by the suite
/// parser, not here).
bool pipeline_known(const std::string& algo);

/// True for pipelines that consume an ExecContext (--threads applies);
/// greedy is the sequential centralized baseline.
bool pipeline_threaded(const std::string& algo);

/// True for pipelines that can render a stats JSON document.
bool pipeline_has_stats(const std::string& algo);

/// True for the randomized baselines, which take `seed` as their algorithm
/// seed (trial, randreduce).
bool pipeline_seeded(const std::string& algo);

/// The registered names satisfying `pred`, in registry order, for
/// diagnostics: "reduce, randreduce, lowspace or mis".
std::string pipeline_names(bool (*pred)(const std::string&) = pipeline_known);

struct PipelineRun {
  Coloring coloring{0};
  std::uint64_t rounds = 0;  // model rounds where the pipeline reports them
  double wall_seconds = 0;
  std::string mpc_json;    // MPC cost block; empty for trial/greedy
  std::string stats_json;  // filled iff want_stats and pipeline_has_stats
};

/// Run `algo` on (g, palettes). `seed` feeds the randomized baselines
/// (trial, randreduce) and is ignored elsewhere. Throws UsageError on an
/// unknown algo name; pipeline failures (CheckError, DeadlineExceeded, ...)
/// propagate. Deterministic for every thread count/budget of `exec`; only
/// the "timing" block of stats_json and wall_seconds vary across runs.
PipelineRun run_pipeline(const std::string& algo, const Graph& g,
                         const PaletteSet& palettes, ExecContext exec,
                         std::uint64_t seed, bool want_stats,
                         PowerTableProvider* tables = nullptr);

}  // namespace detcol::cli
