// The `bsr serve` transport: an AF_UNIX stream daemon over a Service.
//
// Wire protocol: newline-delimited JSON, one request object per line, one
// response object per line, in order, over a connection the client closes
// when done. Accepted connections queue onto a bounded ring drained by a
// worker pool; when the queue is full the acceptor answers immediately with
// a structured `overloaded` envelope and closes — clients never hang on a
// busy daemon (docs/SERVE.md "Backpressure").
//
// Shutdown (a `shutdown` request, SIGINT, or SIGTERM) is graceful: stop
// accepting, drain every queued and in-flight connection, join the workers,
// unlink the socket.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "serve/service.h"

namespace bsr::serve {

struct ServerOptions {
  std::string socket_path = "bsr.sock";
  int workers = 2;            ///< Worker threads draining the queue.
  std::size_t queue = 16;     ///< Accepted-connection queue bound.
  ServiceOptions service;
};

/// Runs the daemon until shutdown; returns 0 on clean exit. Writes a
/// one-line "listening" banner to `log` once the socket is bound (tests and
/// scripts wait for it before connecting). Throws UsageError when the
/// socket cannot be bound.
int run_server(const ServerOptions& opts, std::ostream& log);

/// Client leg: connects to `socket_path`, sends `request` as one line, and
/// returns the daemon's response line (without the trailing newline). A
/// response the daemon wrote before the send failed (an `overloaded`
/// refusal) is still returned. Throws UsageError on connect/IO failure.
std::string client_roundtrip(const std::string& socket_path,
                             const std::string& request);

/// Maps a response envelope to the client's exit code: 0 ok with payload
/// exit 0, 1 ok with findings, 2 usage, transport or analysis error, 3
/// daemon overloaded (docs/SERVE.md).
[[nodiscard]] int client_exit(const Json& response);

}  // namespace bsr::serve
