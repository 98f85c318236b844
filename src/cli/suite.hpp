// The suite runner behind `detcol suite`: a declarative {graph x pipeline x
// threads x kernel} matrix (grammar in docs/FORMATS.md "Suite spec
// grammar"). Every cell is one color request through the shared request
// path (cli/request.hpp), executed locally or — with the spec's `server`
// directive — sent to a running `detcol serve`. Each cell is isolated: a
// failure becomes a structured "error"/"timeout" entry and the rest of the
// matrix proceeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace detcol::cli {

/// Parsed suite spec. Spec problems are data errors (CheckError, exit 1) —
/// the spec is an input file, not the command line.
struct SuiteSpec {
  struct GraphDecl {
    std::string name;
    std::string flags;  // "--gen=... --n=..." or "--input=path"
  };
  std::vector<GraphDecl> graphs;
  std::string palette_flags;          // empty -> delta1
  std::vector<std::string> pipelines;  // canonical algo names
  std::vector<unsigned> threads{1};
  std::vector<std::string> kernels;  // resolved kernel names; empty -> the
                                     // process-active (--simd) selection
  std::string server;             // endpoint: run cells as served requests
  std::uint64_t algo_seed = 1;    // trial/randreduce algorithm seed
  double timeout_seconds = 0;     // per-cell wall budget; 0 = unlimited
  bool timing = true;             // false: report wall_seconds as 0
};

/// `what` names the spec's source in diagnostics ("file:line: ...").
SuiteSpec parse_suite_spec(const std::string& text, const std::string& what);

struct SuiteOptions {
  std::string spec_path;    // recorded in the report as passed
  std::string out_path;     // checkpoint after every cell; empty = none
  std::string resume_path;  // prior report whose cells are skipped
  bool quiet = false;       // no per-cell progress lines on stderr
};

/// Run every cell of `spec` and return the final report JSON. *all_ok is
/// false when any cell failed, timed out or did not verify.
std::string run_suite(const SuiteSpec& spec, const SuiteOptions& opts,
                      bool* all_ok);

}  // namespace detcol::cli
