// perfbench_driver — the compiled half of the repository benchmark.
//
// run.py owns the workloads, the timing loop, the serve client and the
// result line; this binary makes the library calls that need to happen in a
// fresh process:
//
//   envelope                      build facts; exit 3 on a non-optimized or
//                                 sanitizer build
//   gen   --out=F <graph flags>   write a generated graph (.dcg or edge list)
//   solve <graph> <palette> --algo=A --threads=T --setups=K --out=F
//         the calls `detcol color` makes: build_graph -> build_palettes ->
//         run_pipeline -> verify_coloring -> write the coloring file. Setup
//         (graph + palettes) repeats K times; the last copy is solved.
//   trace <graph> <palette> --algo=reduce|lowspace --out=F --trace-out=J
//         the per-layer run: spans around this file's own calls into each
//         module's public functions, at 4 threads and again at 1 thread,
//         written as Chrome trace events to J.
//
// Every subcommand prints one JSON object on stdout. Tracing lives only
// here, around library calls; nothing inside src/ is instrumented.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "cli/pipeline.hpp"
#include "cli/spec.hpp"
#include "core/color_reduce.hpp"
#include "core/partition.hpp"
#include "core/seed_eval.hpp"
#include "core/stats_export.hpp"
#include "derand/seedbits.hpp"
#include "derand/strategies.hpp"
#include "exec/exec.hpp"
#include "graph/coloring.hpp"
#include "graph/formats.hpp"
#include "hashing/batch_eval.hpp"
#include "hashing/kwise.hpp"
#include "hashing/simd_kernels.hpp"
#include "lowspace/low_space.hpp"
#include "lowspace/mis.hpp"
#include "lowspace/reduction.hpp"
#include "lowspace/seed_engine.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace detcol;

// Seeds evaluated by the seed_eval / violations spans (the mean is reported).
constexpr unsigned kEvalSeeds = 16;
// Default salts of color_reduce (ColorReduceConfig::salt) and
// low_space_color, so the spans see the pipelines' own root instances.
const std::uint64_t kReduceSalt = ColorReduceConfig{}.salt;
constexpr std::uint64_t kLowSpaceSalt = 0x10053ACEULL;

std::uint64_t peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

void write_coloring_file(const std::string& path, const Coloring& coloring,
                         const std::string& graph_spec,
                         const std::string& palette_spec) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  cli::write_coloring(os, coloring, graph_spec, palette_spec);
  os.flush();
  DC_CHECK(os.good(), "cannot write coloring file ", path);
}

// ---------------------------------------------------------------------------
// Span recorder: spans live in memory and are written once, at exit.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  double now_us() const { return clock_.seconds() * 1e6; }

  /// Close a span opened at `start_us`; returns its duration in seconds.
  double end(const std::string& name, unsigned tid, double start_us,
             std::string args = "{}") {
    const double dur = now_us() - start_us;
    events_.push_back(Event{name, tid, start_us, dur, std::move(args)});
    return dur / 1e6;
  }

  /// Chrome trace-event JSON: one process track for the workload, one
  /// thread track per pass (thread count).
  std::string to_json(const std::string& track) const {
    JsonWriter w;
    w.begin_object();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").begin_array();
    w.begin_object();
    w.key("ph").value("M");
    w.key("name").value("process_name");
    w.key("pid").value(1);
    w.key("tid").value(0);
    w.key("args").begin_object().key("name").value(track).end_object();
    w.end_object();
    for (const unsigned t : {1u, 4u}) {
      w.begin_object();
      w.key("ph").value("M");
      w.key("name").value("thread_name");
      w.key("pid").value(1);
      w.key("tid").value(t);
      w.key("args").begin_object();
      w.key("name").value(track + " t" + std::to_string(t));
      w.end_object();
      w.end_object();
    }
    for (const Event& e : events_) {
      w.begin_object();
      w.key("ph").value("X");
      w.key("cat").value(e.name.substr(0, e.name.find('.')));
      w.key("name").value(e.name);
      w.key("pid").value(1);
      w.key("tid").value(e.tid);
      w.key("ts").raw(cli::fmt_double(e.ts_us));
      w.key("dur").raw(cli::fmt_double(e.dur_us));
      w.key("args").raw(e.args);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

 private:
  struct Event {
    std::string name;
    unsigned tid;
    double ts_us;
    double dur_us;
    std::string args;
  };
  WallTimer clock_;
  std::vector<Event> events_;
};

/// Metric name -> (value, unit), in the order set; each name is set once.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    items_.push_back(Item{name, value, unit});
  }

  void emit(JsonWriter& w) const {
    w.begin_object();
    for (const Item& m : items_) {
      w.key(m.name).begin_object();
      w.key("value").raw(cli::fmt_double(m.value));
      w.key("unit").value(m.unit);
      w.end_object();
    }
    w.end_object();
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

std::string count_args(
    std::initializer_list<std::pair<const char*, std::uint64_t>> counts) {
  JsonWriter w;
  w.begin_object();
  for (const auto& [k, v] : counts) w.key(k).value(v);
  w.end_object();
  return w.str();
}

double to_d(std::uint64_t v) { return static_cast<double>(v); }

// ---------------------------------------------------------------------------
// envelope
// ---------------------------------------------------------------------------

int cmd_envelope() {
  bool optimized = true;
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  optimized = false;
#endif
  bool sanitized = std::string(PERFBENCH_SANITIZE).size() > 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  JsonWriter w;
  w.begin_object();
  w.key("compiler").value(PERFBENCH_COMPILER);
  w.key("cxx_flags").value(PERFBENCH_CXX_FLAGS);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("optimized").value(optimized);
  w.key("sanitizer").value(sanitized);
  w.key("field_kernel").value(active_simd_name());
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  if (!optimized || sanitized) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build\n",
                 sanitized ? "sanitizer" : "non-optimized");
    return 3;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// gen
// ---------------------------------------------------------------------------

int cmd_gen(const ArgParser& args) {
  const std::string out = cli::get_value_flag(args, "out", "");
  if (out.empty()) cli::usage_error("gen needs --out=FILE");
  const cli::GraphSource src = cli::build_graph(args, false);
  write_graph_file(out, src.graph);
  JsonWriter w;
  w.begin_object();
  w.key("n").value(std::uint64_t{src.graph.num_nodes()});
  w.key("m").value(std::uint64_t{src.graph.num_edges()});
  w.key("max_degree").value(std::uint64_t{src.graph.max_degree()});
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// solve: one untraced batch run, exactly the `detcol color` call sequence.
// ---------------------------------------------------------------------------

int cmd_solve(const ArgParser& args) {
  const std::string algo = cli::get_value_flag(args, "algo", "reduce");
  const std::string out = cli::get_value_flag(args, "out", "");
  const unsigned threads = cli::resolve_threads(args);
  const std::uint64_t setups =
      std::max<std::uint64_t>(1, cli::get_uint_strict(args, "setups", 1));
  if (out.empty()) cli::usage_error("solve needs --out=FILE");

  std::vector<double> setup_s;
  for (std::uint64_t i = 0; i + 1 < setups; ++i) {
    WallTimer t;
    const cli::GraphSource src = cli::build_graph(args, false);
    const cli::PaletteSource pal = cli::build_palettes(args, src.graph);
    setup_s.push_back(t.seconds());
  }
  WallTimer setup_timer;
  const cli::GraphSource src = cli::build_graph(args, false);
  const cli::PaletteSource pal = cli::build_palettes(args, src.graph);
  setup_s.push_back(setup_timer.seconds());

  const ExecHolder ex = make_exec_holder(threads);
  WallTimer solve_timer;
  const cli::PipelineRun run =
      cli::run_pipeline(algo, src.graph, pal.palettes, ex.exec, 1, false);
  const double pipeline_s = solve_timer.seconds();
  const VerifyResult v = verify_coloring(src.graph, pal.palettes, run.coloring);
  if (!v.ok) {
    std::fprintf(stderr, "perfbench: %s produced an INVALID coloring: %s\n",
                 algo.c_str(), v.issue.c_str());
    return 1;
  }
  write_coloring_file(out, run.coloring, src.spec, pal.spec);
  const double solve_s = solve_timer.seconds();

  JsonWriter w;
  w.begin_object();
  w.key("setup_s").begin_array();
  for (const double s : setup_s) w.raw(cli::fmt_double(s));
  w.end_array();
  w.key("solve_s").raw(cli::fmt_double(solve_s));
  w.key("pipeline_s").raw(cli::fmt_double(pipeline_s));
  w.key("rounds").value(run.rounds);
  w.key("colors_used")
      .value(std::uint64_t{cli::count_distinct_colors(run.coloring)});
  w.key("n").value(std::uint64_t{src.graph.num_nodes()});
  w.key("m").value(std::uint64_t{src.graph.num_edges()});
  w.key("max_degree").value(std::uint64_t{src.graph.max_degree()});
  w.key("peak_rss_kib").value(peak_rss_kib());
  w.key("mpc").raw(run.mpc_json.empty() ? "null" : run.mpc_json);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// trace: per-layer spans.
// ---------------------------------------------------------------------------

struct Input {
  cli::GraphSource src;
  cli::PaletteSource pal;
};

std::string sfx(unsigned threads) { return ".t" + std::to_string(threads); }

/// Graph-layer spans that every batch workload runs (4-thread pass only).
Input trace_load(const ArgParser& args, Tracer& tr, Metrics& m) {
  Input in;
  double t0 = tr.now_us();
  in.src = cli::build_graph(args, false);
  m.set("graph.load_s",
        tr.end("graph.load", 4, t0,
               count_args({{"n", in.src.graph.num_nodes()},
                           {"m", in.src.graph.num_edges()},
                           {"max_degree", in.src.graph.max_degree()}})),
        "s");
  t0 = tr.now_us();
  in.pal = cli::build_palettes(args, in.src.graph);
  const std::uint64_t words = in.pal.palettes.total_size();
  m.set("graph.palette_build_s",
        tr.end("graph.palette_build", 4, t0,
               count_args({{"palette_words", words}})),
        "s");
  m.set("graph.palette_words", to_d(words), "count");
  return in;
}

/// core + hashing spans at the root of ColorReduce; with `graph_layer` also
/// the graph spans on root bin 1 and the greedy leaf.
void trace_reduce_layers(const Graph& g, const PaletteSet& palettes,
                         unsigned threads, bool graph_layer, Tracer& tr,
                         Metrics& m) {
  const ExecHolder ex = make_exec_holder(threads);
  const ColorReduceConfig cfg;
  const PartitionParams& params = cfg.part;
  Instance root;
  root.graph = g;
  root.orig.resize(g.num_nodes());
  std::iota(root.orig.begin(), root.orig.end(), NodeId{0});
  root.ell = std::max(1.0, static_cast<double>(g.max_degree()));
  const std::uint64_t b = num_bins(root.ell, params);
  const unsigned c = params.independence;

  double t0 = 0;
  if (graph_layer) {
    std::vector<std::uint64_t> points(root.orig.begin(), root.orig.end());
    t0 = tr.now_us();
    const BatchKWiseEval eval(points, c, b);
    m.set("hashing.power_table_s",
          tr.end("hashing.power_table", threads, t0,
                 count_args({{"points", points.size()}, {"independence", c}})),
          "s");
  }

  t0 = tr.now_us();
  SeedEvalEngine engine(root, palettes, g.num_nodes(), params, ex.exec);
  m.set("core.seed_engine_build_s" + sfx(threads),
        tr.end("core.seed_engine_build", threads, t0,
               count_args({{"bins", b},
                           {"distinct_colors", engine.num_distinct_colors()}})),
        "s");

  const unsigned bits = 2 * KWiseHash::seed_bits(c);
  t0 = tr.now_us();
  std::uint64_t bad = 0;
  for (unsigned i = 0; i < kEvalSeeds; ++i) {
    bad += engine.evaluate(SeedBits::expand(bits, kReduceSalt, i)).num_bad_nodes;
  }
  m.set("core.seed_eval_s" + sfx(threads),
        tr.end("core.seed_eval", threads, t0,
               count_args({{"seeds", kEvalSeeds}, {"bad_nodes_sum", bad}})) /
            kEvalSeeds,
        "s");

  t0 = tr.now_us();
  const PartitionResult pr = partition(root, palettes, g.num_nodes(), params,
                                       nullptr, nullptr, kReduceSalt, ex.exec);
  m.set("core.partition_s" + sfx(threads),
        tr.end("core.partition", threads, t0,
               count_args({{"bins", pr.num_bins},
                           {"seed_evaluations", pr.seed.evaluations},
                           {"bad_nodes", pr.cls.num_bad_nodes}})),
        "s");
  if (!graph_layer) return;
  m.set("core.root_bins", to_d(pr.num_bins), "count");

  std::vector<NodeId> bin1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (pr.cls.bin_of[v] == 1) bin1.push_back(v);
  }
  t0 = tr.now_us();
  const Graph sub = induced_subgraph(g, bin1);
  m.set("graph.induced_subgraph_s",
        tr.end("graph.induced_subgraph", threads, t0,
               count_args({{"n", sub.num_nodes()}, {"m", sub.num_edges()}})),
        "s");

  PaletteSet restricted = palettes;
  t0 = tr.now_us();
  for (const NodeId v : bin1) {
    restricted.restrict(v, [&](Color col) { return pr.h2(col) == 0; });
  }
  m.set("graph.palette_restrict_s",
        tr.end("graph.palette_restrict", threads, t0,
               count_args({{"nodes", bin1.size()},
                           {"palette_words", restricted.total_size()}})),
        "s");

}

/// lowspace spans: the root seed engine and its violation counts, then the
/// descent along bin 1 (exactly the recursion's first branch) to the first
/// MIS instance, whose reduction graph and MIS run are timed.
void trace_lowspace_layers(const Graph& g, const PaletteSet& palettes,
                           unsigned threads, Tracer& tr, Metrics& m) {
  const ExecHolder ex = make_exec_holder(threads);
  LowSpaceParams p;
  p.exec = ex.exec;
  p.mis.exec = ex.exec;
  const double n = static_cast<double>(g.num_nodes());
  const std::uint64_t b = std::max<std::uint64_t>(2, ipow_floor(n, p.delta));
  const std::uint64_t low_deg = std::max<std::uint64_t>(
      2, ipow_floor(n, p.low_deg_coeff * p.delta));
  const unsigned c = p.independence;
  const unsigned bits = 2 * KWiseHash::seed_bits(c);

  PaletteSet pal = palettes;
  Graph cur = g;
  std::vector<NodeId> orig(g.num_nodes());
  std::iota(orig.begin(), orig.end(), NodeId{0});
  std::uint64_t salt = kLowSpaceSalt;
  for (unsigned depth = 0; depth < p.max_depth; ++depth) {
    std::vector<NodeId> high_local;
    for (NodeId v = 0; v < cur.num_nodes(); ++v) {
      if (cur.degree(v) > low_deg) high_local.push_back(v);
    }
    if (high_local.empty()) break;
    const Graph high = induced_subgraph(cur, high_local);
    std::vector<NodeId> high_orig;
    for (const NodeId l : high_local) high_orig.push_back(orig[l]);

    double t0 = tr.now_us();
    LowSpaceSeedEngine engine(high, high_orig, pal, b, c, p.slack_exp, p.exec);
    const double build_s = tr.end(
        "lowspace.seed_engine_build", threads, t0,
        count_args({{"depth", depth}, {"nodes", high.num_nodes()}}));
    if (depth == 0) {
      m.set("lowspace.seed_engine_build_s" + sfx(threads), build_s, "s");
      t0 = tr.now_us();
      std::uint64_t viol = 0;
      for (unsigned i = 0; i < kEvalSeeds; ++i) {
        viol += engine.violations(SeedBits::expand(bits, salt, i));
      }
      m.set("lowspace.violations_s" + sfx(threads),
            tr.end("lowspace.violations", threads, t0,
                   count_args({{"seeds", kEvalSeeds}, {"violations_sum", viol}})) /
                kEvalSeeds,
            "s");
    }
    const auto cost = [&engine](const SeedBits& s) { return engine.cost(s); };
    t0 = tr.now_us();
    const SeedSelectResult sel =
        select_seed(bits, cost, 0.0, p.seed, sub_seed(salt, 1));
    engine.violations(sel.seed);
    tr.end("lowspace.select_seed", threads, t0,
           count_args({{"depth", depth}, {"evaluations", sel.evaluations}}));

    const KWiseHash h2(sel.seed.word_range(c, c), b - 1);
    std::vector<NodeId> bin1_local;
    for (NodeId v = 0; v < high.num_nodes(); ++v) {
      if (engine.good()[v] != 0 && engine.bins()[v] == 1) {
        bin1_local.push_back(high_local[v]);
      }
    }
    // Root bin 1 is where the graph-layer spans of this workload sit.
    const bool graph_spans = depth == 0 && threads == 4;
    std::vector<NodeId> bin1_orig;
    for (const NodeId l : bin1_local) bin1_orig.push_back(orig[l]);
    t0 = tr.now_us();
    for (const NodeId v : bin1_orig) {
      pal.restrict(v, [&](Color col) { return h2(col) == 0; });
    }
    const double restrict_s = tr.end(
        "graph.palette_restrict", threads, t0,
        count_args({{"depth", depth}, {"nodes", bin1_orig.size()}}));
    t0 = tr.now_us();
    cur = induced_subgraph(cur, bin1_local);
    const double induced_s = tr.end(
        "graph.induced_subgraph", threads, t0,
        count_args({{"depth", depth}, {"n", cur.num_nodes()},
                    {"m", cur.num_edges()}}));
    if (graph_spans) {
      m.set("graph.palette_restrict_s", restrict_s, "s");
      m.set("graph.induced_subgraph_s", induced_s, "s");
    }
    orig = std::move(bin1_orig);
    salt = sub_seed(salt, 100);
  }

  std::vector<std::vector<Color>> lists(cur.num_nodes());
  for (NodeId v = 0; v < cur.num_nodes(); ++v) {
    const auto span = pal.palette(orig[v]);
    lists[v].assign(span.begin(), span.end());
  }
  double t0 = tr.now_us();
  const ReductionGraph red = build_reduction(cur, lists);
  const double red_s = tr.end(
      "lowspace.reduction_build", threads, t0,
      count_args({{"nodes", cur.num_nodes()},
                  {"vertices", red.num_vertices},
                  {"conflict_edges", red.num_conflict_edges}}));
  if (threads == 4) {
    m.set("lowspace.reduction_build_s", red_s, "s");
    m.set("lowspace.reduction_vertices", to_d(red.num_vertices), "count");
    m.set("lowspace.conflict_edges", to_d(red.num_conflict_edges), "count");
  }
  t0 = tr.now_us();
  const MisColorResult mis =
      mis_list_color(cur, lists, p.mis, sub_seed(salt, 7), nullptr);
  m.set("lowspace.mis_s" + sfx(threads),
        tr.end("lowspace.mis", threads, t0,
               count_args({{"nodes", cur.num_nodes()},
                           {"phases", mis.phases},
                           {"seed_evaluations", mis.seed_evaluations}})),
        "s");
}

int cmd_trace(const ArgParser& args) {
  const std::string algo = cli::get_value_flag(args, "algo", "reduce");
  const std::string out = cli::get_value_flag(args, "out", "");
  const std::string trace_out = cli::get_value_flag(args, "trace-out", "");
  const std::string track = cli::get_value_flag(args, "track", algo);
  if (algo != "reduce" && algo != "lowspace") {
    cli::usage_error("trace supports --algo=reduce or lowspace");
  }
  if (out.empty() || trace_out.empty()) {
    cli::usage_error("trace needs --out=FILE and --trace-out=FILE");
  }
  Tracer tr;
  Metrics m;
  const Input in = trace_load(args, tr, m);
  const Graph& g = in.src.graph;
  const PaletteSet& pal = in.pal.palettes;

  for (const unsigned threads : {4u, 1u}) {
    if (algo == "reduce") {
      trace_reduce_layers(g, pal, threads, threads == 4, tr, m);
    } else {
      trace_lowspace_layers(g, pal, threads, tr, m);
    }
  }

  Coloring greedy(g.num_nodes());
  double t0 = tr.now_us();
  DC_CHECK(greedy_color_all(g, pal, greedy), "greedy leaf failed");
  m.set("graph.greedy_leaf_s",
        tr.end("graph.greedy_leaf", 4, t0,
               count_args({{"nodes", g.num_nodes()}})),
        "s");

  // The whole pipeline at 4 threads, called through the module entry point
  // with the configuration run_pipeline uses, for depth times and counts.
  const ExecHolder ex = make_exec_holder(4);
  Coloring coloring(g.num_nodes());
  std::uint64_t rounds = 0;
  MpcCosts mpc;
  t0 = tr.now_us();
  const double solve_t0 = t0;
  if (algo == "reduce") {
    ColorReduceConfig cfg;
    cfg.exec = ex.exec;
    ColorReduceResult r = color_reduce(g, pal, cfg);
    tr.end("core.color_reduce", 4, t0,
           count_args({{"partitions", r.num_partitions},
                       {"seed_evaluations", r.total_seed_evaluations},
                       {"collects", r.num_collects},
                       {"max_depth", r.max_depth_reached}}));
    for (unsigned d = 0; d < 4; ++d) {
      m.set("core.depth" + std::to_string(d) + "_s",
            d < r.depth_seconds.size() ? r.depth_seconds[d] : 0.0, "s");
    }
    m.set("core.partitions", to_d(r.num_partitions), "count");
    m.set("core.seed_evaluations", to_d(r.total_seed_evaluations), "count");
    m.set("core.collects", to_d(r.num_collects), "count");
    m.set("core.max_depth", r.max_depth_reached, "count");
    rounds = r.ledger.total_rounds();
    mpc = std::move(r.mpc);
    coloring = std::move(r.coloring);
  } else {
    LowSpaceParams params;
    params.exec = ex.exec;
    LowSpaceResult r = low_space_color(g, pal, params);
    tr.end("lowspace.low_space_color", 4, t0,
           count_args({{"depth", r.depth_reached},
                       {"partitions", r.num_partitions},
                       {"mis_calls", r.num_mis_calls},
                       {"mis_phases", r.total_mis_phases}}));
    m.set("lowspace.mis_phases", to_d(r.total_mis_phases), "count");
    m.set("lowspace.depth", r.depth_reached, "count");
    m.set("lowspace.partitions", to_d(r.num_partitions), "count");
    m.set("lowspace.mis_calls", to_d(r.num_mis_calls), "count");
    m.set("lowspace.seed_evaluations", to_d(r.seed_evaluations), "count");
    m.set("lowspace.diverted", to_d(r.diverted_violators), "count");
    rounds = r.ledger.total_rounds();
    mpc = std::move(r.mpc);
    coloring = std::move(r.coloring);
  }
  t0 = tr.now_us();
  const VerifyResult v = verify_coloring(g, pal, coloring);
  m.set("graph.verify_s",
        tr.end("graph.verify", 4, t0, count_args({{"ok", v.ok ? 1u : 0u}})),
        "s");
  if (!v.ok) {
    std::fprintf(stderr, "perfbench: %s produced an INVALID coloring: %s\n",
                 algo.c_str(), v.issue.c_str());
    return 1;
  }
  t0 = tr.now_us();
  write_coloring_file(out, coloring, in.src.spec, in.pal.spec);
  tr.end("graph.write_coloring", 4, t0);
  const double solve_s = tr.end("solve", 4, solve_t0);
  m.set("trace.solve_s.t4", solve_s, "s");
  m.set("sim.total_words", to_d(mpc.ledger.total_words()), "count");
  m.set("sim.peak_local_words", to_d(mpc.peak_local_words), "count");

  {
    std::ofstream os(trace_out, std::ios::binary | std::ios::trunc);
    os << tr.to_json(track);
    os.flush();
    DC_CHECK(os.good(), "cannot write trace file ", trace_out);
  }
  JsonWriter w;
  w.begin_object();
  w.key("rounds").value(rounds);
  w.key("colors_used").value(std::uint64_t{cli::count_distinct_colors(coloring)});
  w.key("max_degree").value(std::uint64_t{g.max_degree()});
  w.key("mpc").raw(mpc_costs_to_json(mpc));
  w.key("peak_rss_kib").value(peak_rss_kib());
  w.key("metrics");
  m.emit(w);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver envelope|gen|solve|trace [flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const ArgParser args(argc - 1, argv + 1);
  try {
    if (cmd == "envelope") return cmd_envelope();
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "solve") return cmd_solve(args);
    if (cmd == "trace") return cmd_trace(args);
    cli::usage_error("unknown subcommand '" + cmd + "'");
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
