// Wire protocol of `detcol serve` (docs/FORMATS.md, "Serve wire protocol").
//
// Every message — request or response — is one frame:
//
//   offset  size  content
//   0       4     magic 'D' 'C' 'S' '1'
//   4       4     payload length, unsigned 32-bit little-endian
//   8       len   payload: one complete JSON object, UTF-8, no terminator
//
// Requests carry an "op" plus the same canonical flag-spec strings the
// one-shot CLI records in coloring headers ("--gen=... --n=...",
// "--palette=delta1"), so the server rebuilds bit-identical instances
// through the exact code path of `detcol color`. Responses are
// {"ok":true,"result":{...},"transient":{...}} — every byte of "result" is
// deterministic (identical for any server worker count and across cache
// hits/misses); "transient" holds the per-run noise (wall time, cache
// flags). Errors are {"ok":false,"error_class":...,"message":...}.
//
// The framing functions below are EINTR-safe, use MSG_NOSIGNAL on sends
// (a dead client must never SIGPIPE the server), and reject frames with a
// bad magic or an implausible length before allocating for the payload.
#pragma once

#include <cstdint>
#include <string>

namespace detcol::serve {

inline constexpr unsigned char kFrameMagic[4] = {'D', 'C', 'S', '1'};
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Hard payload ceiling: a length beyond this is a protocol violation, not
/// a big request (coloring files at the supported scales are far smaller).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

enum class FrameStatus {
  kOk,     // one complete frame read
  kEof,    // clean end of stream before any header byte
  kError,  // I/O failure, torn frame, bad magic, or oversize length
};

/// Read exactly one frame from `fd` into *payload. Retries on EINTR. EOF in
/// the middle of a frame is kError ("torn frame"), not kEof.
FrameStatus read_frame(int fd, std::string* payload, std::string* error);

/// Write one frame. Retries on EINTR and short writes; MSG_NOSIGNAL when
/// `fd` is a socket (falls back to plain write for pipes in tests).
bool write_frame(int fd, const std::string& payload, std::string* error);

// ---------------------------------------------------------------------------
// Request schema.
// ---------------------------------------------------------------------------

struct Request {
  std::string op;  // color | verify | stats | info | ping | shutdown

  // color / stats (stats implies algo=reduce + the stats JSON as result):
  std::string graph_spec;    // "--gen=..." / "--input=/abs/path"
  std::string palette_spec;  // empty = "--palette=delta1"
  std::string algo = "reduce";
  std::uint64_t seed = 1;        // any integer in [0, 2^64)
  unsigned threads = 1;          // per-request data-parallel budget
  bool want_stats = false;       // color: include the stats JSON document
  double timeout_seconds = 0;    // 0 = no per-request deadline

  // verify:
  std::string coloring_text;  // full self-describing coloring file
  bool proper_only = false;
};

/// Parse a request payload. Throws cli::UsageError on malformed JSON, a
/// missing op, or a field of the wrong type or out of range — the server
/// maps that to a "usage" error frame for this request only. The rules
/// between fields are cli::check_request's (cli/request.hpp).
Request parse_request(const std::string& payload);

/// Render a request payload (the client side of parse_request).
std::string render_request(const Request& req);

/// Render an error response frame payload.
std::string render_error(const std::string& error_class,
                         const std::string& message);

}  // namespace detcol::serve
