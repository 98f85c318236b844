// The one request path. A `detcol color/stats/verify` one-shot, a suite
// cell and a served frame are each one serve::Request (serve/protocol.hpp):
// check_request() holds the rules every entry point enforces, execute() is
// the run -> verify -> count sequence, verify_coloring_file() checks a
// coloring file, and classify_current_exception() names any failure with
// one class from the shared taxonomy. The CLI and suite clients of a running
// server read its answer once through call_server().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cli/pipeline.hpp"
#include "cli/spec.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace detcol::cli {

/// Throws UsageError when `req` breaks a request rule: an unknown op; a
/// color/stats request without a graph spec, with an unknown algo, with
/// stats asked of an algo that has none, or with `threads_given` for a
/// sequential algo; a stats request naming any algo but reduce; a verify
/// request without coloring text. `threads_given` is the CLI's --threads
/// flag, or on the wire any "threads" other than the default 1.
void check_request(const serve::Request& req, bool threads_given);

struct Execution {
  PipelineRun run;
  VerifyResult verdict;
  std::size_t colors_used = 0;
};

/// Run a checked color/stats request on (g, palettes) under `exec` and the
/// request's deadline, then verify and count the coloring. A stats request
/// always renders the stats document. Failures propagate as exceptions; an
/// invalid coloring is returned in `verdict` for the caller to report.
Execution execute(const serve::Request& req, const Graph& g,
                  const PaletteSet& palettes, ExecContext exec,
                  PowerTableProvider* tables = nullptr);

struct FileVerdict {
  VerifyResult verdict;
  bool proper_only = false;  // palettes were not checked
};

/// Check a coloring file against `g`. Without palettes (`proper_only`, or a
/// file naming no palette) the coloring must be proper and complete;
/// otherwise `palettes(file.palette_spec)` supplies the lists it must
/// respect. Throws CheckError when the node counts differ.
FileVerdict verify_coloring_file(
    const Graph& g, const ColoringFile& file, bool proper_only,
    const std::function<std::shared_ptr<const PaletteSet>(
        const std::string&)>& palettes);

/// A failure named by the shared taxonomy: usage, timeout, check, oom, io
/// or internal.
struct Failure {
  std::string error_class;
  std::string message;
};

/// Classify the exception being handled; call only inside a catch block.
Failure classify_current_exception();

/// A server's answer to one request, parsed once.
struct Response {
  std::string raw;  // exact payload bytes
  JsonValue doc;
  bool ok = false;
  std::string error_class;  // when !ok
  std::string message;      // when !ok

  /// Member `key` of "result" (ok responses always carry one); nullptr when
  /// absent.
  const JsonValue* result(const char* key) const;
  /// Member `key` of "result"; throws CheckError when it is missing.
  const JsonValue& need(const char* key) const;
  std::uint64_t count(const char* key) const {
    return static_cast<std::uint64_t>(need(key).number);
  }
  /// Raw bytes of `v`, a value inside `doc`; empty for nullptr.
  std::string span(const JsonValue* v) const;
  /// Raw bytes of the stats document; throws CheckError when absent.
  std::string stats() const;
};

/// One request to the server at `endpoint`. Throws CheckError when the
/// server cannot be reached or the frame is broken.
Response call_server(const std::string& endpoint, const serve::Request& req);

}  // namespace detcol::cli
