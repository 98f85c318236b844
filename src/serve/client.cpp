#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "cli/spec.hpp"
#include "util/check.hpp"

namespace detcol::serve {

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint out;
  if (spec.empty()) cli::usage_error("--server needs an endpoint");
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      cli::usage_error("--server=tcp:HOST:PORT expected, got '" + spec + "'");
    }
    out.tcp = true;
    out.path_or_host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    const std::uint64_t p =
        cli::parse_uint_strict(port, "--server port");
    if (p == 0 || p > 65535) {
      cli::usage_error("--server port out of range: " + port);
    }
    out.port = static_cast<int>(p);
    return out;
  }
  out.path_or_host = spec;
  return out;
}

ServeClient::ServeClient(const std::string& endpoint) {
  const Endpoint ep = parse_endpoint(endpoint);
  sockaddr_storage addr{};
  socklen_t len = 0;
  std::string where = ep.path_or_host;
  std::string hint;
  if (ep.tcp) {
    auto* in = reinterpret_cast<sockaddr_in*>(&addr);
    in->sin_family = AF_INET;
    in->sin_port = htons(static_cast<std::uint16_t>(ep.port));
    // Numeric host only (the server binds loopback; no resolver needed).
    DC_CHECK(::inet_pton(AF_INET, ep.path_or_host.c_str(), &in->sin_addr) ==
                 1,
             "--server host must be a numeric IPv4 address, got '",
             ep.path_or_host, "'");
    len = sizeof(sockaddr_in);
    where = "tcp " + ep.path_or_host + ":" + std::to_string(ep.port);
  } else {
    auto* un = reinterpret_cast<sockaddr_un*>(&addr);
    un->sun_family = AF_UNIX;
    DC_CHECK(ep.path_or_host.size() < sizeof(un->sun_path),
             "socket path too long: ", ep.path_or_host);
    std::memcpy(un->sun_path, ep.path_or_host.c_str(),
                ep.path_or_host.size() + 1);
    len = sizeof(sockaddr_un);
    hint = " (is `detcol serve --listen=" + ep.path_or_host + "` running?)";
  }
  fd_ = ::socket(addr.ss_family, SOCK_STREAM, 0);
  DC_CHECK(fd_ >= 0, "socket: ", std::strerror(errno));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), len) < 0) {
    const std::string why = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    DC_CHECK(false, "cannot connect to ", where, ": ", why, hint);
  }
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

JsonValue ServeClient::roundtrip(const Request& req, std::string* raw_out) {
  std::string error;
  DC_CHECK(write_frame(fd_, render_request(req), &error),
           "request send failed: ", error);
  std::string payload;
  const FrameStatus status = read_frame(fd_, &payload, &error);
  DC_CHECK(status != FrameStatus::kEof,
           "server closed the connection before responding");
  DC_CHECK(status == FrameStatus::kOk, "response read failed: ", error);
  if (raw_out != nullptr) *raw_out = payload;
  return parse_json(payload, "server response");
}

}  // namespace detcol::serve
