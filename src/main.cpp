// detcol — unified command-line driver for the detcolor library.
//
// Subcommands:
//   gen     generate a graph and write it (format from the --out extension)
//   color   color a graph (generated or read from file) and emit the coloring
//   verify  check a coloring file against its graph and palettes
//   stats   run ColorReduce and emit the full JSON stats document
//   convert read a graph in any supported format, write it in another
//   suite   run a {graph x pipeline x threads} matrix from a spec file
//   serve   persistent coloring service over a Unix-domain socket
//
// This file holds only flag parsing and output. The spec grammar, the
// coloring-file format, the pipeline dispatch, the request path (one check,
// one executor, one error taxonomy) and the suite runner live in src/cli/ —
// shared verbatim with the serving layer, which is what makes
// `detcol color --server=SOCK` responses byte-identical to one-shot runs.
//
// Typical session:
//   detcol color --n=1000 --p=0.02 --out=run.colors
//   detcol verify --coloring=run.colors
//
// Served session (amortizes graph + power-table setup across requests):
//   detcol serve --listen=/tmp/detcol.sock &
//   detcol color --n=1000 --p=0.02 --server=/tmp/detcol.sock --out=run.colors
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>

#include "cli/pipeline.hpp"
#include "cli/request.hpp"
#include "cli/spec.hpp"
#include "cli/suite.hpp"
#include "core/stats_export.hpp"
#include "exec/exec.hpp"
#include "graph/formats.hpp"
#include "graph/io.hpp"
#include "hashing/simd_kernels.hpp"
#include "serve/server.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/failpoint.hpp"

namespace detcol {
namespace {

using namespace ::detcol::cli;  // spec grammar + pipeline dispatch

constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;

const char kUsage[] = R"(detcol — deterministic (Δ+1)/(deg+1)-list coloring driver

Usage: detcol <command> [--flags]

Commands:
  gen     Generate a graph, write it to --out in the format its extension
          names (.dcg/.col/.graph/...); stdout and other names get the
          "n m" + edge-per-line list.
  color   Color a graph and write a self-describing coloring file to --out.
  verify  Check a coloring file; rebuilds graph/palettes from its header.
  stats   Run ColorReduce and emit the full stats JSON to --out.
  convert Read a graph in any supported format, write it as --to to --out.
  suite   Run a {graph x pipeline x threads} matrix from --spec, emit JSON.
  serve   Long-running coloring service on --listen=SOCKET (see below).
  help    Show this message.

Graph source (gen, color, stats, convert):
  --input=FILE       Read a graph file. The format is sniffed (edge list,
                     DIMACS "p edge", METIS adjacency, or the .dcg binary
                     CSR container — see docs/FORMATS.md).
  --gen=KIND         Generator when no --input: gnp (default), gnm, regular,
                     powerlaw, grid, ring, complete, bipartite, geometric,
                     planted, tree; or a scalable out-of-core family — ba
                     (preferential attachment, --d arcs/node), rgg (random
                     geometric, --radius), sgnm (~--m uniform edges), sgnp
                     (per-row G(n,p)). Scalable families stream to a .dcg
                     and are colored through the mmap read path, so they
                     scale past RAM; `gen` with one requires --out=FILE.dcg
                     and accepts --threads (output is bit-identical for
                     every thread count and is the canonical .dcg encoding).
  --n=N              Nodes (default 1000); also --m, --d, --p (default 0.02),
                     --beta, --avgdeg, --rows, --cols, --a, --b, --radius,
                     --k as each generator requires.
  --seed=S           Generator seed (default 1); identical flags always
                     reproduce the identical graph. Also the algorithm seed
                     for --algo=trial/randreduce.
  --cache=FILE       (color, stats, suite; scalable --gen only) Generate the
                     .dcg once at FILE and map it on later runs instead of
                     regenerating (a present cache is validated at map time
                     and cross-checked against --n). Without it the instance
                     streams to an unlinked temp file. Placement only — the
                     recorded graph spec never includes --cache.
  --mmap=1           (with --input, .dcg only) Map the file instead of
                     loading it: offsets validated eagerly, adjacency blocks
                     lazily on first touch, checksum/symmetry NOT re-checked
                     (see docs/FORMATS.md). Colors graphs larger than RAM;
                     results are byte-identical to the loaded path.

Palettes (color, stats):
  --palette=KIND     delta1 (default): uniform [Δ+1].
                     lists:  (Δ+1)-lists from [0, --color-space).
                     deg1:   (deg+1)-lists from [0, --color-space).
  --color-space=C    Color universe for lists/deg1 (default 1048576).
  --palette-seed=S   List-sampling seed (default 1).

Algorithm (color):
  --algo=NAME        reduce (default): ColorReduce, Theorem 1.1.
                     lowspace: low-space MPC coloring, Theorem 1.4.
                     greedy:   centralized sequential baseline.
                     mis:      deterministic MIS-reduction baseline.
                     trial:    randomized iterated color trial baseline.
                     randreduce: ColorReduce with seed search disabled.

Execution (color with --algo=reduce/randreduce/lowspace/mis/trial, stats,
convert):
  --threads=N        Host threads (sibling color-bin recursion +
                     seed-evaluation shards; baselines shard their per-node
                     passes; convert shards the text parse). Results are
                     bit-identical for every N.
                     Default: $DETCOL_THREADS, else 1.

Field kernel (all commands):
  --simd=KIND        Vector kernel for the F_(2^61-1) field passes: auto
                     (default: the best this host supports), scalar, avx2,
                     neon. Also readable from $DETCOL_SIMD; the flag wins.
                     Naming an ISA the host or build cannot run is a usage
                     error. Every kernel is bit-identical — forcing one
                     never changes any output, only throughput. The stats
                     and suite JSON record the selection as "kernel".

Convert:
  --from=FMT         Input format override: auto (default), edges, dimacs,
                     metis, dcg. Only applies with --input.
  --to=FMT           Output format; defaults to the --out extension
                     (.edges/.txt, .col/.dimacs, .graph/.metis, .dcg).

Suite (grammar in docs/FORMATS.md "Suite spec grammar"):
  --spec=FILE        Declarative scenario matrix, one directive per line:
                     graph NAME FLAGS... (repeatable), palette FLAGS...,
                     pipelines NAME... (reduce, randreduce, lowspace, mis,
                     trial, greedy), threads N..., kernels NAME... (auto,
                     scalar, avx2, neon), seed S (the trial and randreduce
                     algorithm seed), timeout_seconds S, timing on|off, and
                     server ENDPOINT (send every cell to a running `detcol
                     serve`). Runs every {graph x pipeline x threads x
                     kernel} cell and writes one JSON report to --out,
                     checkpointed after every cell. A failing or timed-out
                     cell becomes a structured "error"/"timeout" entry and
                     the rest of the matrix proceeds.
  --resume=REPORT    Skip every cell already recorded in REPORT (a prior,
                     possibly partial, report of the same spec), splicing
                     those entries into the new report byte-for-byte.

Serve (see docs/ARCHITECTURE.md "Serving layer", docs/FORMATS.md protocol):
  --listen=PATH      Unix-domain socket to listen on (required).
  --tcp-port=P       Also listen on 127.0.0.1:P.
  --threads=N        Shared worker pool size (default $DETCOL_THREADS or 1).
  --executors=N      Concurrent request executors (default 4).
  --queue-depth=N    Admission queue bound; beyond it requests get an
                     "overloaded" error frame (default 16).
  --cache-instances=N  Resident parsed graphs, LRU-evicted (default 8).
  --result-cache=N   Memoized responses (identical requests re-answered
                     without recomputation; sound because every pipeline is
                     deterministic). 0 disables. Default 64.
  --log=FILE         Append one JSON line per request, plus a final
                     {"event":"shutdown"} line after a graceful drain.

Server client (color, verify, stats):
  --server=ENDPOINT  Route the command through a running server instead of
                     computing locally: a socket path or "tcp:HOST:PORT".
                     --threads becomes the request's data-parallel budget;
                     outputs are byte-identical to the local run.

Fault injection (all commands):
  --failpoints=SPEC  Arm deterministic failpoints: "name@k[:action],..."
                     fires `action` (io, oom, check, timeout, kill) on the
                     k-th execution of the named site. Also readable from
                     $DETCOL_FAILPOINTS; the flag wins. See
                     docs/ARCHITECTURE.md "Failure model & fault injection".

Output (gen, color, stats):
  --out=FILE         Write to FILE instead of stdout.
  --stats=FILE       (color, reduce/randreduce/lowspace/mis) also dump run
                     JSON; every block except "timing" is bit-identical
                     across thread counts.
  --quiet            Suppress the run summary on stderr.

Verify:
  --coloring=FILE    Coloring file to check (or first positional argument).
  --graph=FILE       Override: check against this graph file (any format,
                     sniffed as for --input) instead of the header's graph
                     spec (local verify only).
  --proper-only      Skip palette-membership checking.

Exit status: 0 on success / valid coloring, 1 on failure or invalid
coloring, 2 on usage errors.
)";

/// Apply a global setting from --`flag` (wins) or the `env` variable:
/// --failpoints arms the fault-injection registry, --simd selects the field
/// kernel. A malformed spec, or an ISA this host cannot run, is a bad
/// invocation (exit 2) — never a silent no-op or fallback.
void init_global(const ArgParser& args, const char* flag, const char* env,
                 bool (*apply)(const std::string&, std::string*)) {
  std::string spec;
  std::string src = std::string("flag --") + flag;
  if (args.has(flag)) {
    spec = get_value_flag(args, flag, "");
  } else if (const char* value = std::getenv(env)) {
    src = env;
    spec = value;
  } else {
    return;
  }
  std::string error;
  if (!apply(spec, &error)) usage_error(src + ": " + error);
}

/// Writes via `fn` to --out if set, else to stdout. File targets go through
/// the atomic temp+fsync+rename writer, so an interrupted or failed run
/// never leaves a torn output file behind.
template <typename Fn>
void with_output(const ArgParser& args, Fn&& fn) {
  const std::string out = get_value_flag(args, "out", "-");
  if (out == "-" || out.empty()) {
    fn(std::cout);
    std::cout.flush();
    DC_CHECK(std::cout.good(), "write to stdout failed");
  } else {
    DC_FAILPOINT("out.write");
    atomic_write_stream(out, fn);
  }
}

// ---------------------------------------------------------------------------
// Requests: a color/stats command line is one serve::Request, checked by
// cli::check_request and then executed locally or sent to --server. The
// graph/palette flags are re-rendered as the raw spec strings the request
// carries; the server canonicalizes them through the same
// cli::build_graph/build_palettes this process runs locally.
// ---------------------------------------------------------------------------

/// "--flag=value ..." for each of `flags` given on the command line.
std::string render_flags(const ArgParser& args,
                         std::initializer_list<const char*> flags) {
  std::string out;
  for (const char* flag : flags) {
    if (!args.has(flag)) continue;
    if (!out.empty()) out += ' ';
    out += "--" + std::string(flag) + "=" + get_value_flag(args, flag, "");
  }
  return out;
}

std::string client_graph_spec(const ArgParser& args) {
  if (args.has("input")) {
    // Absolutize: the server may run in a different working directory.
    return "--input=" +
           std::filesystem::absolute(get_value_flag(args, "input", ""))
               .string();
  }
  const std::string flags = render_flags(args, kGraphFlags);
  return flags.empty() ? "--gen=gnp" : flags;  // no flags: the defaults
}

/// The checked request a color/stats command line describes — the same one
/// whether it runs locally or through --server.
serve::Request command_request(const ArgParser& args, const std::string& op) {
  serve::Request req;
  req.op = op;
  req.graph_spec = client_graph_spec(args);
  req.palette_spec = render_flags(args, kPaletteFlags);
  if (op == "color") {
    req.algo = get_value_flag(args, "algo", "reduce");
    req.seed = get_uint_strict(args, "seed", 1);
    req.want_stats = args.has("stats");
  }
  const unsigned threads = resolve_threads(args);
  check_request(req, args.has("threads"));
  // A $DETCOL_THREADS default does not apply to a sequential pipeline.
  req.threads = pipeline_threaded(req.algo) ? threads : 1;
  return req;
}

/// Non-ok response: print the server's diagnostic, map "usage" to exit 2
/// and everything else to exit 1.
int report_server_error(const char* cmd, const Response& resp) {
  std::fprintf(stderr, "detcol %s: server error (%s): %s\n", cmd,
               resp.error_class.c_str(), resp.message.c_str());
  return resp.error_class == "usage" ? kExitUsage : kExitFailure;
}

void write_stats(const std::string& path, const std::string& doc,
                 bool quiet) {
  write_json_file(path, doc);
  if (!quiet) std::fprintf(stderr, "wrote stats JSON to %s\n", path.c_str());
}

/// The verdict line `verify` prints, locally or through --server.
int report_verdict(bool ok, const std::string& issue, bool proper_only,
                   std::uint64_t n, std::uint64_t m, std::uint64_t colors) {
  if (!ok) {
    std::fprintf(stderr, "INVALID: %s\n", issue.c_str());
    return kExitFailure;
  }
  std::fprintf(stderr,
               "OK: proper%s coloring of n=%llu, m=%llu with %llu colors\n",
               proper_only ? "" : ", palette-respecting",
               static_cast<unsigned long long>(n),
               static_cast<unsigned long long>(m),
               static_cast<unsigned long long>(colors));
  return kExitOk;
}

// ---------------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------------

/// The scalable families stream straight into a .dcg container — the graph
/// never exists as a heap CSR, so the classic "build then write_edge_list"
/// shape below does not apply. They are the only `gen` path that accepts
/// --threads (sharded producers; output bit-identical for every count).
int cmd_gen_scalable(const ArgParser& args, ScalableFamily family) {
  const ScalableSource src =
      parse_scalable_spec(args, family, /*allow_algo_seed=*/false,
                          /*allow_cache=*/false);
  const std::string out = get_value_flag(args, "out", "");
  if (out.empty()) {
    usage_error(std::string("--gen=") + scalable_family_name(family) +
                " streams a .dcg container; --out=FILE.dcg is required");
  }
  if (format_from_extension(out) != GraphFormat::kDcg) {
    usage_error("--gen=" + std::string(scalable_family_name(family)) +
                " writes the .dcg container; --out must end in .dcg (use "
                "`detcol convert` for other formats)");
  }
  const ExecHolder ex = make_exec_holder(resolve_threads(args));
  const ScalableGenResult res = generate_scalable_dcg(src.gen, out, ex.exec);
  if (!get_bool_strict(args, "quiet")) {
    std::fprintf(stderr, "generated %s: n=%u, m=%llu, Delta=%u -> %s\n",
                 src.spec.c_str(), res.n,
                 static_cast<unsigned long long>(res.num_edges),
                 res.max_degree, out.c_str());
  }
  return kExitOk;
}

int cmd_gen(const ArgParser& args) {
  reject_unknown_flags(args, combine(kGraphFlags, {"out", "quiet", "threads"}));
  reject_positionals(args);
  if (ScalableFamily family;
      !args.has("input") &&
      parse_scalable_family(get_value_flag(args, "gen", "gnp"), &family)) {
    return cmd_gen_scalable(args, family);
  }
  if (args.has("threads")) {
    usage_error("--threads only applies to the scalable generators "
                "(--gen=ba, rgg, sgnm, sgnp)");
  }
  const GraphSource src = build_graph(args, /*allow_algo_seed=*/false);
  // A recognized --out extension picks the format, as in `convert`; stdout
  // and unrecognized extensions get the native edge list.
  const std::string out = get_value_flag(args, "out", "-");
  if (const GraphFormat fmt = format_from_extension(out);
      fmt != GraphFormat::kAuto) {
    write_graph_file(out, src.graph, fmt);
  } else {
    with_output(args,
                [&](std::ostream& os) { write_edge_list(os, src.graph); });
  }
  if (!get_bool_strict(args, "quiet")) {
    std::fprintf(stderr, "generated %s: n=%u, m=%zu, Delta=%u\n",
                 src.spec.c_str(), src.graph.num_nodes(),
                 src.graph.num_edges(), src.graph.max_degree());
  }
  return kExitOk;
}

int cmd_color(const ArgParser& args) {
  reject_unknown_flags(args, combine(kGraphFlags, kPaletteFlags,
                                     {"algo", "stats", "out", "quiet",
                                      "threads", "server"}));
  reject_positionals(args);
  const bool quiet = get_bool_strict(args, "quiet");
  const std::string stats_path = get_value_flag(args, "stats", "");
  const serve::Request req = command_request(args, "color");
  if (args.has("server")) {
    const Response resp = call_server(get_value_flag(args, "server", ""), req);
    if (!resp.ok) return report_server_error("color", resp);
    const std::string& file = resp.need("coloring_file").string_value;
    with_output(args, [&](std::ostream& os) { os << file; });
    if (!stats_path.empty()) write_stats(stats_path, resp.stats(), quiet);
    if (!quiet) {
      std::fprintf(stderr,
                   "colored %s with algo=%s via server: %llu colors used, "
                   "%llu model rounds; verified OK\n",
                   resp.need("graph").string_value.c_str(), req.algo.c_str(),
                   static_cast<unsigned long long>(resp.count("colors_used")),
                   static_cast<unsigned long long>(resp.count("rounds")));
    }
    return kExitOk;
  }
  // --seed doubles as the algorithm seed only for the randomized baselines;
  // anywhere else it must be consumed by the generator or rejected.
  const GraphSource src = build_graph(args, pipeline_seeded(req.algo));
  const Graph& g = src.graph;
  const PaletteSource pal = build_palettes(args, g);
  const ExecHolder ex = make_exec_holder(req.threads);
  const Execution run = execute(req, g, pal.palettes, ex.exec);
  if (!stats_path.empty()) write_stats(stats_path, run.run.stats_json, quiet);
  if (!run.verdict.ok) {
    std::fprintf(stderr, "detcol color: algorithm '%s' produced an INVALID "
                 "coloring: %s\n", req.algo.c_str(), run.verdict.issue.c_str());
    return kExitFailure;
  }
  with_output(args, [&](std::ostream& os) {
    write_coloring(os, run.run.coloring, src.spec, pal.spec);
  });
  if (!quiet) {
    const std::string round_note =
        run.run.rounds > 0
            ? ", " + std::to_string(run.run.rounds) + " model rounds"
            : "";
    std::fprintf(stderr,
                 "colored %s (n=%u, m=%zu, Delta=%u) with algo=%s: "
                 "%zu colors used%s; verified OK\n",
                 src.spec.c_str(), g.num_nodes(), g.num_edges(),
                 g.max_degree(), req.algo.c_str(), run.colors_used,
                 round_note.c_str());
  }
  return kExitOk;
}

int cmd_verify(const ArgParser& args) {
  reject_unknown_flags(args,
                       combine({"coloring", "graph", "proper-only", "server"}));
  std::string path = get_value_flag(args, "coloring", "");
  if (!args.positional().empty()) {
    // A positional is only the coloring file when --coloring wasn't given;
    // anything beyond that would be silently ignored, so reject it.
    if (!path.empty() || args.positional().size() > 1) {
      usage_error("verify takes exactly one coloring file");
    }
    path = args.positional().front();
  }
  if (path.empty()) usage_error("verify needs --coloring=FILE");
  const bool proper_only = get_bool_strict(args, "proper-only");
  if (args.has("server")) {
    if (args.has("graph")) {
      usage_error("--graph does not apply with --server (the graph file "
                  "lives on the client)");
    }
    serve::Request req;
    req.op = "verify";
    req.coloring_text = slurp_file(path);
    req.proper_only = proper_only;
    const Response resp = call_server(get_value_flag(args, "server", ""), req);
    // Any failed verification attempt — corrupt file, unknown spec — is a
    // data problem: exit 1, like the local path.
    if (!resp.ok) return report_verdict(false, resp.message, false, 0, 0, 0);
    const JsonValue* issue = resp.result("issue");
    return report_verdict(resp.need("valid").bool_value,
                          issue != nullptr ? issue->string_value : "",
                          resp.need("proper_only").bool_value,
                          resp.count("n"), resp.count("m"),
                          resp.count("colors_used"));
  }
  const ColoringFile file = read_coloring_file(path);
  const std::string graph_path = get_value_flag(args, "graph", "");
  if (graph_path.empty() && file.graph_spec.empty()) {
    usage_error("coloring file has no '# graph:' header; pass --graph=FILE");
  }
  Graph g;
  FileVerdict fv;
  const char* header = "graph";  // the recorded spec being rebuilt
  try {
    g = !graph_path.empty()
            ? read_graph_file(graph_path)
            : build_graph(parse_spec(file.graph_spec),
                          /*allow_algo_seed=*/false).graph;
    header = "palette";
    fv = verify_coloring_file(g, file, proper_only, [&](const std::string& s) {
      return std::make_shared<const PaletteSet>(
          build_palettes(parse_spec(s), g).palettes);
    });
  } catch (const UsageError& e) {
    // A spec recorded in the file that does not parse is a file problem.
    std::fprintf(stderr, "INVALID: corrupt '# %s:' header in %s: %s\n",
                 header, path.c_str(), e.what());
    return kExitFailure;
  }
  return report_verdict(fv.verdict.ok, fv.verdict.issue, fv.proper_only,
                        g.num_nodes(), g.num_edges(),
                        count_distinct_colors(file.coloring));
}

int cmd_stats(const ArgParser& args) {
  reject_unknown_flags(args, combine(kGraphFlags, kPaletteFlags,
                                     {"out", "quiet", "threads", "server"}));
  reject_positionals(args);
  get_bool_strict(args, "quiet");  // accepted as a no-op, but validated
  const serve::Request req = command_request(args, "stats");
  std::string doc;
  if (args.has("server")) {
    const Response resp = call_server(get_value_flag(args, "server", ""), req);
    if (!resp.ok) return report_server_error("stats", resp);
    doc = resp.stats();
  } else {
    const GraphSource src = build_graph(args, /*allow_algo_seed=*/false);
    const PaletteSource pal = build_palettes(args, src.graph);
    const ExecHolder ex = make_exec_holder(req.threads);
    Execution run = execute(req, src.graph, pal.palettes, ex.exec);
    DC_CHECK(run.verdict.ok, "ColorReduce produced an invalid coloring: ",
             run.verdict.issue);
    doc = std::move(run.run.stats_json);
  }
  with_output(args, [&](std::ostream& os) { os << doc << '\n'; });
  return kExitOk;
}

int cmd_convert(const ArgParser& args) {
  reject_unknown_flags(args, combine(kGraphFlags,
                                     {"from", "to", "out", "quiet",
                                      "threads"}));
  reject_positionals(args);
  const ExecHolder ex = make_exec_holder(resolve_threads(args));

  GraphFormat from = GraphFormat::kAuto;
  if (args.has("from")) {
    if (!args.has("input")) usage_error("--from only applies with --input");
    const std::string name = get_value_flag(args, "from", "auto");
    if (!parse_format_name(name, &from)) {
      usage_error("unknown --from format '" + name +
                  "' (auto, edges, dimacs, metis, dcg)");
    }
  }
  const GraphSource src =
      build_graph(args, /*allow_algo_seed=*/false, from, ex.exec);

  const std::string out = get_value_flag(args, "out", "");
  if (out.empty() || out == "-") {
    usage_error("convert needs --out=FILE (binary formats cannot go to a "
                "terminal)");
  }
  GraphFormat to = GraphFormat::kAuto;
  if (args.has("to")) {
    const std::string name = get_value_flag(args, "to", "auto");
    if (!parse_format_name(name, &to)) {
      usage_error("unknown --to format '" + name +
                  "' (edges, dimacs, metis, dcg)");
    }
  }
  if (to == GraphFormat::kAuto) to = format_from_extension(out);
  if (to == GraphFormat::kAuto) {
    usage_error("cannot infer --to from the extension of '" + out +
                "'; pass --to=edges|dimacs|metis|dcg");
  }
  write_graph_file(out, src.graph, to);
  if (!get_bool_strict(args, "quiet")) {
    std::fprintf(stderr, "converted %s (n=%u, m=%zu, Delta=%u) to %s: %s\n",
                 src.spec.c_str(), src.graph.num_nodes(),
                 src.graph.num_edges(), src.graph.max_degree(),
                 format_name(to), out.c_str());
  }
  return kExitOk;
}

int cmd_serve(const ArgParser& args) {
  reject_unknown_flags(
      args, combine({"listen", "tcp-port", "threads", "executors",
                     "queue-depth", "cache-instances", "result-cache", "log",
                     "quiet"}));
  reject_positionals(args);
  serve::ServeOptions opts;
  opts.listen_path = get_value_flag(args, "listen", "");
  if (opts.listen_path.empty()) usage_error("serve needs --listen=PATH");
  if (args.has("tcp-port")) {
    const std::uint64_t port = get_uint_strict(args, "tcp-port", 0);
    if (port == 0 || port > 65535) {
      usage_error("--tcp-port must be in [1, 65535]");
    }
    opts.tcp_port = static_cast<int>(port);
  }
  opts.threads = resolve_threads(args);
  const std::uint64_t executors = get_uint_strict(args, "executors", 4);
  if (executors < 1 || executors > 64) {
    usage_error("--executors must be in [1, 64]");
  }
  opts.executors = static_cast<unsigned>(executors);
  opts.queue_depth = get_uint_strict(args, "queue-depth", 16);
  if (opts.queue_depth < 1) usage_error("--queue-depth must be >= 1");
  opts.max_instances = get_uint_strict(args, "cache-instances", 8);
  if (opts.max_instances < 1) usage_error("--cache-instances must be >= 1");
  opts.result_cache = get_uint_strict(args, "result-cache", 64);
  opts.log_path = get_value_flag(args, "log", "");
  opts.quiet = get_bool_strict(args, "quiet");
  return serve::run_server(opts);
}

int cmd_suite(const ArgParser& args) {
  reject_unknown_flags(args, combine({"spec", "out", "quiet", "resume"}));
  reject_positionals(args);
  SuiteOptions opts;
  opts.spec_path = get_value_flag(args, "spec", "");
  if (opts.spec_path.empty()) usage_error("suite needs --spec=FILE");
  opts.quiet = get_bool_strict(args, "quiet");
  const SuiteSpec spec =
      parse_suite_spec(slurp_file(opts.spec_path), opts.spec_path);
  opts.out_path = get_value_flag(args, "out", "-");
  if (opts.out_path == "-") opts.out_path.clear();
  opts.resume_path = get_value_flag(args, "resume", "");
  if (args.has("resume") && opts.resume_path.empty()) {
    usage_error("--resume requires a report path");
  }
  bool all_ok = true;
  const std::string report = run_suite(spec, opts, &all_ok);
  with_output(args, [&](std::ostream& os) { os << report << '\n'; });
  if (!all_ok) {
    std::fprintf(stderr,
                 "suite: at least one cell failed, timed out, or did not "
                 "verify\n");
    return kExitFailure;
  }
  return kExitOk;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return kExitUsage;
  }
  const std::string command = argv[1];
  // ArgParser skips its argv[0]; handing it argv + 1 makes the subcommand
  // name the skipped slot and parses everything after it.
  const ArgParser args(argc - 1, argv + 1);
  init_global(args, "failpoints", "DETCOL_FAILPOINTS", arm_failpoints);
  init_global(args, "simd", "DETCOL_SIMD", select_simd);
  if (command == "gen") return cmd_gen(args);
  if (command == "color") return cmd_color(args);
  if (command == "verify") return cmd_verify(args);
  if (command == "stats") return cmd_stats(args);
  if (command == "convert") return cmd_convert(args);
  if (command == "suite") return cmd_suite(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "help" || command == "--help" || command == "-h") {
    std::fputs(kUsage, stdout);
    return kExitOk;
  }
  usage_error("unknown command '" + command + "'");
}

}  // namespace
}  // namespace detcol

int main(int argc, char** argv) {
  try {
    return detcol::run(argc, argv);
  } catch (...) {
    const detcol::cli::Failure f = detcol::cli::classify_current_exception();
    if (f.error_class == "usage") {
      std::fprintf(stderr, "detcol: %s\nRun `detcol help` for usage.\n",
                   f.message.c_str());
      return detcol::kExitUsage;
    }
    const char* prefix = f.error_class == "io"         ? "I/O error: "
                         : f.error_class == "internal" ? "unexpected error: "
                                                       : "";
    std::fprintf(stderr, "detcol: %s%s\n", prefix,
                 f.error_class == "oom" ? "out of memory" : f.message.c_str());
    return detcol::kExitFailure;
  }
}
