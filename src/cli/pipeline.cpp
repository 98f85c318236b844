#include "cli/pipeline.hpp"

#include <utility>

#include "baselines/greedy.hpp"
#include "baselines/mis_coloring.hpp"
#include "baselines/random_trial.hpp"
#include "baselines/randomized_reduce.hpp"
#include "cli/spec.hpp"
#include "core/color_reduce.hpp"
#include "core/stats_export.hpp"
#include "lowspace/low_space.hpp"
#include "util/timer.hpp"

namespace detcol::cli {

namespace {

/// The one registry of pipeline names and what each accepts.
struct PipelineTraits {
  const char* name;
  bool threaded;
  bool stats;
  bool seeded;
};

constexpr PipelineTraits kPipelines[] = {
    {"reduce", true, true, false}, {"randreduce", true, true, true},
    {"lowspace", true, true, false}, {"mis", true, true, false},
    {"trial", true, false, true},   {"greedy", false, false, false},
};

/// The registry entry of `algo`; an unknown name gets the empty entry.
const PipelineTraits& traits(const std::string& algo) {
  static constexpr PipelineTraits kUnknown{"", false, false, false};
  for (const PipelineTraits& p : kPipelines) {
    if (algo == p.name) return p;
  }
  return kUnknown;
}

}  // namespace

bool pipeline_known(const std::string& algo) {
  return *traits(algo).name != '\0';
}

bool pipeline_threaded(const std::string& algo) {
  return traits(algo).threaded;
}

bool pipeline_has_stats(const std::string& algo) { return traits(algo).stats; }

bool pipeline_seeded(const std::string& algo) { return traits(algo).seeded; }

std::string pipeline_names(bool (*pred)(const std::string&)) {
  std::string out;
  std::string last;
  for (const PipelineTraits& p : kPipelines) {
    if (!pred(p.name)) continue;
    if (!last.empty()) out += (out.empty() ? "" : ", ") + last;
    last = p.name;
  }
  return out.empty() ? last : out + " or " + last;
}

PipelineRun run_pipeline(const std::string& algo, const Graph& g,
                         const PaletteSet& palettes, ExecContext exec,
                         std::uint64_t seed, bool want_stats,
                         PowerTableProvider* tables) {
  PipelineRun out;
  out.coloring = Coloring(g.num_nodes());
  WallTimer timer;
  if (algo == "reduce" || algo == "randreduce") {
    ColorReduceConfig cfg;
    cfg.exec = exec;
    cfg.part.tables = tables;
    ColorReduceResult r = algo == "reduce"
                              ? color_reduce(g, palettes, cfg)
                              : randomized_reduce(g, palettes, seed, cfg);
    out.rounds = r.ledger.total_rounds();
    out.mpc_json = mpc_costs_to_json(r.mpc);
    if (want_stats) out.stats_json = result_to_json(r);
    out.coloring = std::move(r.coloring);
  } else if (algo == "lowspace") {
    LowSpaceParams params;
    params.exec = exec;
    params.tables = tables;
    LowSpaceResult r = low_space_color(g, palettes, params);
    out.rounds = r.ledger.total_rounds();
    out.mpc_json = mpc_costs_to_json(r.mpc);
    if (want_stats) out.stats_json = lowspace_result_to_json(r, timer.seconds());
    out.coloring = std::move(r.coloring);
  } else if (algo == "mis") {
    MisParams params;
    params.exec = exec;
    params.tables = tables;
    MisBaselineResult r = mis_baseline_color(g, palettes, params);
    out.rounds = r.rounds;
    out.mpc_json = mpc_costs_to_json(r.mpc);
    if (want_stats) out.stats_json = mis_result_to_json(r, timer.seconds());
    out.coloring = std::move(r.coloring);
  } else if (algo == "trial") {
    RandomTrialResult r =
        random_trial_color(g, palettes, seed, kRandomTrialMaxRounds, exec);
    out.rounds = r.model_rounds;
    out.coloring = std::move(r.coloring);
  } else if (algo == "greedy") {
    GreedyResult r = greedy_baseline(g, palettes);
    out.coloring = std::move(r.coloring);
  } else {
    usage_error("unknown --algo '" + algo + "'");
  }
  out.wall_seconds = timer.seconds();
  return out;
}

}  // namespace detcol::cli
