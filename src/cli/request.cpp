#include "cli/request.hpp"

#include <new>
#include <system_error>

#include "serve/client.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"

namespace detcol::cli {

void check_request(const serve::Request& req, bool threads_given) {
  const std::string& op = req.op;
  if (op == "verify" && req.coloring_text.empty()) {
    usage_error("\"verify\" request needs a \"coloring\" file text");
  }
  if (op == "verify" || op == "info" || op == "ping" || op == "shutdown") {
    return;
  }
  if (op != "color" && op != "stats") usage_error("unknown op '" + op + "'");
  if (req.graph_spec.empty()) {
    usage_error("\"" + op + "\" request needs a \"graph\" spec");
  }
  if (!pipeline_known(req.algo)) {
    usage_error("unknown algo '" + req.algo + "' (" + pipeline_names() + ")");
  }
  if (op == "stats" && req.algo != "reduce") {
    usage_error("a \"stats\" request always runs algo reduce, not '" +
                req.algo + "'");
  }
  if (req.want_stats && !pipeline_has_stats(req.algo)) {
    usage_error("--stats is only supported with --algo=" +
                pipeline_names(pipeline_has_stats));
  }
  if (threads_given && !pipeline_threaded(req.algo)) {
    usage_error("--threads only applies to --algo=" +
                pipeline_names(pipeline_threaded));
  }
}

Execution execute(const serve::Request& req, const Graph& g,
                  const PaletteSet& palettes, ExecContext exec,
                  PowerTableProvider* tables) {
  // The deadline lives on this frame for the whole pipeline call; the exec
  // copy handed down carries a pointer to it (exec/exec.hpp lifetime rule).
  Deadline deadline;
  if (req.timeout_seconds > 0) {
    deadline = Deadline::after_seconds(req.timeout_seconds);
    exec.set_deadline(&deadline);
  }
  Execution out;
  out.run = run_pipeline(req.algo, g, palettes, exec, req.seed,
                         req.want_stats || req.op == "stats", tables);
  out.verdict = verify_coloring(g, palettes, out.run.coloring);
  out.colors_used = count_distinct_colors(out.run.coloring);
  return out;
}

FileVerdict verify_coloring_file(
    const Graph& g, const ColoringFile& file, bool proper_only,
    const std::function<std::shared_ptr<const PaletteSet>(
        const std::string&)>& palettes) {
  DC_CHECK(g.num_nodes() == file.coloring.color.size(), "graph has ",
           g.num_nodes(), " nodes but the coloring file has ",
           file.coloring.color.size(), " entries");
  FileVerdict out;
  out.proper_only = proper_only || file.palette_spec.empty();
  if (!out.proper_only) {
    out.verdict =
        verify_coloring(g, *palettes(file.palette_spec), file.coloring);
    return out;
  }
  out.verdict = verify_proper_partial(g, file.coloring);
  if (out.verdict.ok && !file.coloring.complete()) {
    out.verdict.ok = false;
    out.verdict.issue = "coloring is incomplete (" +
                        std::to_string(file.coloring.num_colored()) + " of " +
                        std::to_string(file.coloring.color.size()) +
                        " nodes colored)";
  }
  return out;
}

Failure classify_current_exception() {
  try {
    throw;
  } catch (const UsageError& e) {
    return {"usage", e.what()};
  } catch (const DeadlineExceeded& e) {
    return {"timeout", e.what()};
  } catch (const CheckError& e) {
    return {"check", e.what()};
  } catch (const std::bad_alloc&) {
    return {"oom", "allocation failure"};
  } catch (const std::system_error& e) {
    return {"io", e.what()};
  } catch (const std::exception& e) {
    return {"internal", e.what()};
  } catch (...) {
    return {"internal", "unknown exception"};
  }
}

const JsonValue* Response::result(const char* key) const {
  const JsonValue* r = doc.find("result");
  return r != nullptr ? r->find(key) : nullptr;
}

const JsonValue& Response::need(const char* key) const {
  const JsonValue* v = result(key);
  DC_CHECK(v != nullptr, "server response result lacks \"", key, "\"");
  return *v;
}

std::string Response::span(const JsonValue* v) const {
  return v != nullptr ? raw.substr(v->raw_begin, v->raw_end - v->raw_begin)
                      : std::string();
}

std::string Response::stats() const {
  const JsonValue* s = doc.find("stats");
  DC_CHECK(s != nullptr, "server returned no stats document");
  return span(s);
}

Response call_server(const std::string& endpoint, const serve::Request& req) {
  Response out;
  serve::ServeClient client(endpoint);
  out.doc = client.roundtrip(req, &out.raw);
  const JsonValue* ok = out.doc.find("ok");
  out.ok = ok != nullptr && ok->kind == JsonValue::Kind::kBool &&
           ok->bool_value;
  if (out.ok) {
    DC_CHECK(out.doc.find("result") != nullptr,
             "server response has no \"result\"");
  } else {
    const JsonValue* cls = out.doc.find("error_class");
    const JsonValue* msg = out.doc.find("message");
    out.error_class = cls != nullptr ? cls->string_value : "internal";
    out.message = msg != nullptr ? msg->string_value : "server error";
  }
  return out;
}

}  // namespace detcol::cli
