#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>

#include "cli/spec.hpp"
#include "graph/io.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace detcol::serve {
namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// read() loop; returns bytes read (< len only at EOF), or -1 on error.
ssize_t read_full(int fd, void* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t r =
        ::read(fd, static_cast<char*>(buf) + done, len - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r == 0) break;  // EOF
    done += static_cast<std::size_t>(r);
  }
  return static_cast<ssize_t>(done);
}

}  // namespace

FrameStatus read_frame(int fd, std::string* payload, std::string* error) {
  unsigned char header[kFrameHeaderBytes];
  const ssize_t got = read_full(fd, header, sizeof(header));
  if (got < 0) {
    if (error != nullptr) *error = errno_string("read");
    return FrameStatus::kError;
  }
  if (got == 0) return FrameStatus::kEof;
  if (static_cast<std::size_t>(got) < sizeof(header)) {
    if (error != nullptr) *error = "torn frame: EOF inside header";
    return FrameStatus::kError;
  }
  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    if (error != nullptr) *error = "bad frame magic (expected 'DCS1')";
    return FrameStatus::kError;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(header[4]) |
                            static_cast<std::uint32_t>(header[5]) << 8 |
                            static_cast<std::uint32_t>(header[6]) << 16 |
                            static_cast<std::uint32_t>(header[7]) << 24;
  if (len > kMaxFramePayload) {
    if (error != nullptr) {
      *error = "frame payload length " + std::to_string(len) +
               " exceeds the protocol limit";
    }
    return FrameStatus::kError;
  }
  payload->resize(len);
  if (len > 0) {
    const ssize_t body = read_full(fd, payload->data(), len);
    if (body < 0) {
      if (error != nullptr) *error = errno_string("read");
      return FrameStatus::kError;
    }
    if (static_cast<std::size_t>(body) < len) {
      if (error != nullptr) *error = "torn frame: EOF inside payload";
      return FrameStatus::kError;
    }
  }
  return FrameStatus::kOk;
}

bool write_frame(int fd, const std::string& payload, std::string* error) {
  if (payload.size() > kMaxFramePayload) {
    if (error != nullptr) *error = "frame payload exceeds the protocol limit";
    return false;
  }
  std::string buf;
  buf.reserve(kFrameHeaderBytes + payload.size());
  buf.append(reinterpret_cast<const char*>(kFrameMagic), 4);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (unsigned i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  buf += payload;
  std::size_t done = 0;
  while (done < buf.size()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not kill the
    // process. ENOTSOCK (socketpair tests use sockets, but keep pipes
    // working) falls back to plain write; run_server additionally ignores
    // SIGPIPE process-wide.
    ssize_t w = ::send(fd, buf.data() + done, buf.size() - done,
                       MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) {
      w = ::write(fd, buf.data() + done, buf.size() - done);
    }
    if (w < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = errno_string("write");
      return false;
    }
    done += static_cast<std::size_t>(w);
  }
  return true;
}

Request parse_request(const std::string& payload) {
  JsonValue doc;
  try {
    doc = parse_json(payload, "request");
  } catch (const CheckError& e) {
    throw cli::UsageError(e.what());
  }
  if (doc.kind != JsonValue::Kind::kObject) {
    throw cli::UsageError("request payload must be a JSON object");
  }
  Request req;
  // A present field of the wrong JSON type is a usage error.
  const auto field = [&](const char* key, JsonValue::Kind kind,
                         const char* type) {
    const JsonValue* v = doc.find(key);
    if (v != nullptr && v->kind != kind) {
      throw cli::UsageError(std::string("request field \"") + key +
                            "\" must be " + type);
    }
    return v;
  };
  const auto get_string = [&](const char* key, std::string* dst) {
    const JsonValue* v = field(key, JsonValue::Kind::kString, "a string");
    if (v != nullptr) *dst = v->string_value;
  };
  const auto get_bool = [&](const char* key, bool* dst) {
    const JsonValue* v = field(key, JsonValue::Kind::kBool, "a boolean");
    if (v != nullptr) *dst = v->bool_value;
  };
  const auto get_number = [&](const char* key, double* dst) {
    const JsonValue* v = field(key, JsonValue::Kind::kNumber, "a number");
    if (v != nullptr) *dst = v->number;
  };
  get_string("op", &req.op);
  if (req.op.empty()) throw cli::UsageError("request has no \"op\" field");
  get_string("graph", &req.graph_spec);
  get_string("palette", &req.palette_spec);
  get_string("algo", &req.algo);
  get_string("coloring", &req.coloring_text);
  get_bool("stats", &req.want_stats);
  get_bool("proper_only", &req.proper_only);
  // The seed is read from the number's own digits: a double cannot hold
  // every 64-bit seed, and a fraction or exponent is not a seed at all.
  const JsonValue* seed = field("seed", JsonValue::Kind::kNumber, "a number");
  if (seed != nullptr &&
      !io_detail::parse_u64(std::string_view(payload).substr(
                                seed->raw_begin,
                                seed->raw_end - seed->raw_begin),
                            &req.seed)) {
    throw cli::UsageError("request \"seed\" must be an integer in [0, 2^64)");
  }
  double threads = req.threads;
  get_number("threads", &threads);
  if (threads < 1 || threads > cli::kMaxThreads) {
    throw cli::UsageError("request \"threads\" must be in [1, " +
                          std::to_string(cli::kMaxThreads) + "]");
  }
  req.threads = static_cast<unsigned>(threads);
  get_number("timeout_seconds", &req.timeout_seconds);
  if (req.timeout_seconds < 0) {
    throw cli::UsageError("request \"timeout_seconds\" must be >= 0");
  }
  return req;
}

std::string render_request(const Request& req) {
  JsonWriter w;
  w.begin_object();
  w.key("op").value(req.op);
  if (!req.graph_spec.empty()) w.key("graph").value(req.graph_spec);
  if (!req.palette_spec.empty()) w.key("palette").value(req.palette_spec);
  if (req.algo != "reduce") w.key("algo").value(req.algo);
  if (req.seed != 1) w.key("seed").value(req.seed);
  if (req.threads != 1) w.key("threads").value(req.threads);
  if (req.want_stats) w.key("stats").value(true);
  if (req.timeout_seconds > 0) {
    w.key("timeout_seconds").value(req.timeout_seconds);
  }
  if (!req.coloring_text.empty()) w.key("coloring").value(req.coloring_text);
  if (req.proper_only) w.key("proper_only").value(true);
  w.end_object();
  return w.str();
}

std::string render_error(const std::string& error_class,
                         const std::string& message) {
  JsonWriter w;
  w.begin_object();
  w.key("ok").value(false);
  w.key("error_class").value(error_class);
  w.key("message").value(message);
  w.end_object();
  return w.str();
}

}  // namespace detcol::serve
