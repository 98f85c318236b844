#include "cli/suite.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "cli/request.hpp"
#include "cli/spec.hpp"
#include "exec/exec.hpp"
#include "hashing/simd_kernels.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

namespace detcol::cli {
namespace {

/// One graph declaration, built lazily the first time one of its cells runs.
/// A build failure (unreadable file, corrupt content, bad generator flags)
/// is captured here instead of thrown, so it marks only this graph's cells
/// as errors while the rest of the matrix proceeds.
struct GraphSlot {
  SuiteSpec::GraphDecl decl;
  bool attempted = false;
  bool failed = false;
  std::string error;
  Graph graph;
  PaletteSet palettes;
};

void ensure_graph(GraphSlot& slot, const std::string& palette_flags,
                  ExecContext exec) {
  if (slot.attempted) return;
  slot.attempted = true;
  try {
    slot.graph = build_graph(parse_spec(slot.decl.flags),
                             /*allow_algo_seed=*/false, GraphFormat::kAuto,
                             exec)
                     .graph;
    const std::string pal_flags =
        palette_flags.empty() ? "--palette=delta1" : palette_flags;
    slot.palettes = build_palettes(parse_spec(pal_flags), slot.graph).palettes;
  } catch (const std::exception& e) {  // UsageError, CheckError, bad_alloc
    slot.failed = true;
    slot.error = e.what();
    slot.graph = Graph();
    slot.palettes = PaletteSet();
  }
}

/// A cell's structured outcome: "ok" with the run's numbers, "timeout", or
/// "error" with a class — load, verify, or one of the shared taxonomy's.
struct CellOutcome {
  std::string status;
  std::string error_class;
  std::string message;
  std::uint64_t rounds = 0;
  std::uint64_t colors = 0;
  double wall_seconds = 0;
  std::string mpc_json;  // the pipeline's MPC cost block; empty for baselines

  void fail(const std::string& cls, const std::string& msg) {
    status = cls == "timeout" ? "timeout" : "error";
    if (cls != "timeout") error_class = cls;
    message = msg;
  }
};

/// One cell: `req` runs locally on the slot's instance or, with the spec's
/// 'server' directive, as a request against a running `detcol serve` (the
/// graph is still built locally for the report header, but the pipeline
/// runs server-side under the cell's thread budget; the response's
/// deterministic fields map onto the same cell schema).
CellOutcome run_cell(const SuiteSpec& spec, const GraphSlot& slot,
                     const serve::Request& req, ExecContext exec) {
  CellOutcome out;
  if (slot.failed) {
    out.fail("load", slot.error);
    return out;
  }
  try {
    DC_FAILPOINT("suite.cell");
    if (spec.server.empty()) {
      Execution ex = execute(req, slot.graph, slot.palettes, exec);
      if (!ex.verdict.ok) {
        out.fail("verify", ex.verdict.issue);
        return out;
      }
      out.rounds = ex.run.rounds;
      out.colors = ex.colors_used;
      out.wall_seconds = ex.run.wall_seconds;
      out.mpc_json = std::move(ex.run.mpc_json);
    } else {
      const Response resp = call_server(spec.server, req);
      if (!resp.ok) {
        out.fail(resp.error_class, resp.message);
        return out;
      }
      out.rounds = resp.count("rounds");
      out.colors = resp.count("colors_used");
      out.mpc_json = resp.span(resp.result("mpc"));
      const JsonValue* transient = resp.doc.find("transient");
      const JsonValue* wall =
          transient != nullptr ? transient->find("wall_seconds") : nullptr;
      if (wall != nullptr) out.wall_seconds = wall->number;
    }
    out.status = "ok";
  } catch (...) {
    const Failure f = classify_current_exception();
    // Client-side checks fail on connect or transport: an I/O problem.
    out.fail(!spec.server.empty() && f.error_class == "check" ? "io"
                                                              : f.error_class,
             f.message);
  }
  return out;
}

/// Render a suite cell's JSON object. `timing` off reports wall_seconds as 0
/// so full reports are byte-identical across runs (the resume tests rely on
/// this).
std::string render_cell_json(const std::string& graph,
                             const std::string& pipeline, unsigned threads,
                             const std::string& kernel, const CellOutcome& out,
                             bool timing) {
  JsonWriter w;
  w.begin_object();
  w.key("graph").value(graph);
  w.key("pipeline").value(pipeline);
  w.key("threads").value(threads);
  w.key("kernel").value(kernel);
  w.key("status").value(out.status);
  if (out.status == "ok") {
    w.key("rounds").value(out.rounds);
    w.key("colors_used").value(out.colors);
    w.key("wall_seconds").value(timing ? out.wall_seconds : 0.0);
    w.key("verified").value(true);
    if (!out.mpc_json.empty()) w.key("mpc").raw(out.mpc_json);
  } else {  // "timeout" or "error"
    if (out.status == "error") w.key("error_class").value(out.error_class);
    w.key("message").value(out.message);
  }
  w.end_object();
  return w.str();
}

}  // namespace

SuiteSpec parse_suite_spec(const std::string& text, const std::string& what) {
  SuiteSpec spec;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;
    std::vector<std::string> rest;
    for (std::string tok; ls >> tok;) rest.push_back(tok);
    const auto join = [](const std::vector<std::string>& tokens,
                         std::size_t from) {
      std::string out;
      for (std::size_t i = from; i < tokens.size(); ++i) {
        if (!out.empty()) out += ' ';
        out += tokens[i];
      }
      return out;
    };
    if (directive == "graph") {
      DC_CHECK(rest.size() >= 2, what, ":", line_no,
               ": 'graph' needs a name and flags (graph NAME --gen=... | "
               "--input=FILE)");
      for (const auto& g : spec.graphs) {
        DC_CHECK(g.name != rest[0], what, ":", line_no,
                 ": duplicate graph name '", rest[0], "'");
      }
      spec.graphs.push_back({rest[0], join(rest, 1)});
    } else if (directive == "palette") {
      DC_CHECK(!rest.empty(), what, ":", line_no, ": 'palette' needs flags");
      spec.palette_flags = join(rest, 0);
    } else if (directive == "pipelines") {
      DC_CHECK(!rest.empty(), what, ":", line_no,
               ": 'pipelines' needs at least one name");
      for (std::string name : rest) {
        if (name == "colorreduce") name = "reduce";
        DC_CHECK(pipeline_known(name), what, ":", line_no,
                 ": unknown pipeline '", name, "' (", pipeline_names(), ")");
        spec.pipelines.push_back(name);
      }
    } else if (directive == "threads") {
      DC_CHECK(!rest.empty(), what, ":", line_no,
               ": 'threads' needs at least one count");
      spec.threads.clear();
      for (const auto& tok : rest) {
        std::uint64_t t = 0;
        DC_CHECK(io_detail::parse_u64(tok, &t) && t >= 1 && t <= kMaxThreads,
                 what, ":", line_no, ": thread count must be in [1, ",
                 kMaxThreads, "], got '", tok, "'");
        spec.threads.push_back(static_cast<unsigned>(t));
      }
    } else if (directive == "kernels") {
      DC_CHECK(!rest.empty(), what, ":", line_no,
               ": 'kernels' needs at least one name");
      spec.kernels.clear();
      for (const auto& tok : rest) {
        // Resolve "auto" to the host's best kernel at parse time, so the
        // cell key is a concrete kernel name; a name this host cannot run
        // is a spec (data) error, like an out-of-range thread count.
        SimdKind kind = SimdKind::kScalar;
        std::string error;
        DC_CHECK(parse_simd_spec(tok, &kind, &error), what, ":", line_no,
                 ": ", error);
        const std::string name = simd_kind_name(kind);
        if (std::find(spec.kernels.begin(), spec.kernels.end(), name) ==
            spec.kernels.end()) {
          spec.kernels.push_back(name);
        }
      }
    } else if (directive == "server") {
      DC_CHECK(rest.size() == 1, what, ":", line_no,
               ": 'server' needs one endpoint (socket path or "
               "tcp:HOST:PORT)");
      spec.server = rest[0];
    } else if (directive == "seed") {
      DC_CHECK(rest.size() == 1 && io_detail::parse_u64(rest[0],
                                                        &spec.algo_seed),
               what, ":", line_no, ": 'seed' needs one unsigned integer");
    } else if (directive == "timeout_seconds") {
      DC_CHECK(rest.size() == 1, what, ":", line_no,
               ": 'timeout_seconds' needs one value");
      char* end = nullptr;
      spec.timeout_seconds = std::strtod(rest[0].c_str(), &end);
      DC_CHECK(!rest[0].empty() && *end == '\0' && spec.timeout_seconds > 0,
               what, ":", line_no,
               ": 'timeout_seconds' must be a positive number, got '",
               rest[0], "'");
    } else if (directive == "timing") {
      DC_CHECK(rest.size() == 1 && (rest[0] == "on" || rest[0] == "off"),
               what, ":", line_no, ": 'timing' needs 'on' or 'off'");
      spec.timing = rest[0] == "on";
    } else {
      DC_CHECK(false, what, ":", line_no, ": unknown directive '", directive,
               "' (graph, palette, pipelines, threads, kernels, server, "
               "seed, timeout_seconds, timing)");
    }
  }
  DC_CHECK(!spec.graphs.empty(), what, ": spec declares no 'graph' lines");
  DC_CHECK(!spec.pipelines.empty(), what,
           ": spec declares no 'pipelines' line");
  DC_CHECK(spec.server.empty() || spec.kernels.empty(), what,
           ": 'server' and 'kernels' are mutually exclusive (the kernel is "
           "the server's --simd selection)");
  return spec;
}

std::string run_suite(const SuiteSpec& spec, const SuiteOptions& opts,
                      bool* all_ok) {
  *all_ok = true;
  const bool via_server = !spec.server.empty();

  // --resume=REPORT: reload a prior (possibly partial) report of the same
  // spec; every cell it records is skipped and re-emitted byte-for-byte from
  // its raw span, so a clean run and a kill + resume produce identical
  // reports (with `timing off`). Problems in the report are data errors.
  std::map<std::string, std::string> resume_cells;  // key -> raw JSON object
  std::map<std::string, bool> resume_ok;            // key -> status == "ok"
  std::map<std::string, std::string> resume_graphs;  // name -> raw header row
  const auto cell_key = [](const std::string& graph,
                           const std::string& pipeline, unsigned threads,
                           const std::string& kernel) {
    return graph + '|' + pipeline + '|' + std::to_string(threads) + '|' +
           kernel;
  };
  if (!opts.resume_path.empty()) {
    const std::string& rpath = opts.resume_path;
    const std::string text = slurp_file(rpath);
    const JsonValue doc = parse_json(text, rpath);
    DC_CHECK(doc.find("detcol_suite") != nullptr, rpath,
             ": not a detcol suite report (no \"detcol_suite\" field)");
    const auto raw_of = [&](const JsonValue& v) {
      return text.substr(v.raw_begin, v.raw_end - v.raw_begin);
    };
    if (const JsonValue* rows = doc.find("graphs")) {
      for (const JsonValue& row : rows->items) {
        const JsonValue* name = row.find("name");
        // Rows checkpointed before their graph was built carry a "pending"
        // marker; the resumed run rebuilds those, so skip their stubs.
        if (name != nullptr && row.find("pending") == nullptr) {
          resume_graphs[name->string_value] = raw_of(row);
        }
      }
    }
    if (const JsonValue* rows = doc.find("cells")) {
      for (const JsonValue& row : rows->items) {
        const auto need = [&](const char* field) -> const JsonValue& {
          const JsonValue* v = row.find(field);
          DC_CHECK(v != nullptr, rpath, ": malformed cell entry (needs "
                   "graph, pipeline, threads, kernel, status)");
          return *v;
        };
        const auto key = cell_key(
            need("graph").string_value, need("pipeline").string_value,
            static_cast<unsigned>(need("threads").number),
            need("kernel").string_value);
        resume_cells[key] = raw_of(row);
        resume_ok[key] = need("status").string_value == "ok";
      }
    }
  }

  // One pool per distinct thread count, built up front; cells reuse them.
  // In server mode the cells run remotely, but graphs are still built
  // locally for the report header.
  std::map<unsigned, ExecHolder> holders;
  for (const unsigned t : spec.threads) {
    if (!holders.count(t)) holders.emplace(t, make_exec_holder(t));
  }
  if (!holders.count(1)) holders.emplace(1, make_exec_holder(1));
  const unsigned max_threads =
      *std::max_element(spec.threads.begin(), spec.threads.end());

  std::vector<GraphSlot> slots;
  slots.reserve(spec.graphs.size());
  for (const auto& decl : spec.graphs) slots.emplace_back().decl = decl;

  std::vector<std::string> cell_json;  // rendered cells, matrix order

  // Full report from the current state; called after every executed cell
  // (checkpoint) and once at the end. Graph header rows: fresh for built
  // graphs, load_error for failed ones, resumed raw for graphs whose cells
  // all came from --resume, and a "pending" stub for graphs not yet reached
  // (stubs appear only in checkpoints, never in a completed report).
  const auto render_report = [&]() {
    JsonWriter w;
    w.begin_object();
    w.key("detcol_suite").value(1);
    // The spec path as passed: reports should be portable.
    w.key("spec").value(opts.spec_path);
    w.key("host_cpus")
        .value(std::uint64_t{std::thread::hardware_concurrency()});
    if (via_server) w.key("server").value(spec.server);
    if (spec.timeout_seconds > 0) {
      w.key("timeout_seconds").value(spec.timeout_seconds);
    }
    w.key("graphs").begin_array();
    for (const GraphSlot& slot : slots) {
      if (!slot.attempted) {
        const auto resumed = resume_graphs.find(slot.decl.name);
        if (resumed != resume_graphs.end()) {
          w.raw(resumed->second);
          continue;
        }
      }
      w.begin_object();
      w.key("name").value(slot.decl.name);
      w.key("spec").value(slot.decl.flags);
      if (slot.failed) {
        w.key("load_error").value(slot.error);
      } else if (slot.attempted) {
        w.key("n").value(std::uint64_t{slot.graph.num_nodes()});
        w.key("m").value(std::uint64_t{slot.graph.num_edges()});
        w.key("max_degree").value(std::uint64_t{slot.graph.max_degree()});
      } else {
        w.key("pending").value(true);
      }
      w.end_object();
    }
    w.end_array();
    w.key("cells").begin_array();
    for (const std::string& cell : cell_json) w.raw(cell);
    w.end_array();
    w.end_object();
    return w.str();
  };

  // Kernel axis: the spec's resolved 'kernels' list, or the process-active
  // selection (--simd / $DETCOL_SIMD) when the spec is silent. Every engine
  // captures the kernel at construction, so selecting per cell is exact. In
  // server mode the kernel is whatever the server runs; cells record the
  // pseudo-kernel "server".
  const std::vector<std::string> suite_kernels =
      via_server ? std::vector<std::string>{"server"}
      : spec.kernels.empty()
          ? std::vector<std::string>{active_simd_name()}
          : spec.kernels;

  for (GraphSlot& slot : slots) {
    for (const std::string& pipeline : spec.pipelines) {
      // greedy is the sequential centralized baseline: collapse its thread
      // axis to one cell instead of re-running identical work — and its
      // kernel axis too (it does no field arithmetic at all).
      const std::vector<unsigned> cell_threads =
          pipeline == "greedy" ? std::vector<unsigned>{1} : spec.threads;
      const std::vector<std::string> cell_kernels =
          pipeline == "greedy"
              ? std::vector<std::string>{suite_kernels.front()}
              : suite_kernels;
      for (const unsigned t : cell_threads) {
        for (const std::string& kernel : cell_kernels) {
          const std::string key = cell_key(slot.decl.name, pipeline, t,
                                           kernel);
          const auto resumed = resume_cells.find(key);
          if (resumed != resume_cells.end()) {
            cell_json.push_back(resumed->second);
            *all_ok = *all_ok && resume_ok.at(key);
            continue;
          }
          ensure_graph(slot, spec.palette_flags, holders.at(max_threads).exec);
          if (!via_server) {
            std::string error;
            DC_CHECK(select_simd(kernel, &error), error);  // validated above
          }
          serve::Request req;
          req.op = "color";
          req.graph_spec = slot.decl.flags;
          req.palette_spec = spec.palette_flags;
          req.algo = pipeline;
          req.seed = spec.algo_seed;
          req.threads = t;
          req.timeout_seconds = spec.timeout_seconds;
          const CellOutcome out =
              run_cell(spec, slot, req, holders.at(t).exec);
          *all_ok = *all_ok && out.status == "ok";
          cell_json.push_back(render_cell_json(slot.decl.name, pipeline, t,
                                               kernel, out, spec.timing));
          if (!opts.quiet) {
            char ok_note[96];
            std::snprintf(ok_note, sizeof(ok_note),
                          "%llu colors, %llu rounds, %.3fs",
                          static_cast<unsigned long long>(out.colors),
                          static_cast<unsigned long long>(out.rounds),
                          out.wall_seconds);
            const std::string note =
                out.status == "ok" ? ok_note
                : out.status + (out.error_class.empty() ? "" : "/") +
                      out.error_class + " (" + out.message + ")";
            std::fprintf(stderr,
                         "suite: graph=%s pipeline=%s threads=%u kernel=%s "
                         "-> %s\n",
                         slot.decl.name.c_str(), pipeline.c_str(), t,
                         kernel.c_str(), note.c_str());
          }
          // Durable checkpoint after every executed cell: a killed run loses
          // at most the cell in flight, and --resume picks up from here.
          if (!opts.out_path.empty()) {
            atomic_write_file(opts.out_path, render_report() + "\n");
            DC_FAILPOINT("suite.checkpoint");
          }
        }
      }
    }
  }

  return render_report();
}

}  // namespace detcol::cli
