#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "util/errors.h"
#include "util/json.h"

namespace bsr::serve {

namespace {

// Set by the SIGINT/SIGTERM handler; the accept loop polls it alongside the
// Service's own stop flag. sig_atomic_t because handlers may not touch
// anything fancier.
volatile std::sig_atomic_t g_signalled = 0;

void on_signal(int) { g_signalled = 1; }

/// Writes all of `data` to `fd`, ignoring SIGPIPE (the peer may hang up
/// mid-response; that is its problem, not the daemon's).
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Serves one connection: reads newline-delimited requests until EOF,
/// answering each in order.
void serve_connection(int fd, Service& service) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl = 0;
    while ((nl = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.empty()) continue;
      if (!send_all(fd, service.handle_line(line))) {
        ::close(fd);
        return;
      }
    }
  }
  // Tolerate a final unterminated line: the CLI client sends exactly one.
  if (!buf.empty()) send_all(fd, service.handle_line(buf));
  ::close(fd);
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  usage_check(path.size() < sizeof(addr.sun_path),
              "socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

int run_server(const ServerOptions& opts, std::ostream& log) {
  usage_check(opts.workers >= 1, "--workers must be >= 1");
  usage_check(opts.queue >= 1, "--queue must be >= 1");

  const sockaddr_un addr = make_addr(opts.socket_path);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  usage_check(listener >= 0, "socket(): " + std::string(strerror(errno)));
  // A stale socket file from a crashed daemon would make bind fail; only
  // unlink what is actually a socket path nobody is listening on.
  ::unlink(opts.socket_path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string why = strerror(errno);
    ::close(listener);
    throw UsageError("bind(" + opts.socket_path + "): " + why);
  }
  if (::listen(listener, static_cast<int>(opts.queue)) != 0) {
    const std::string why = strerror(errno);
    ::close(listener);
    ::unlink(opts.socket_path.c_str());
    throw UsageError("listen(" + opts.socket_path + "): " + why);
  }

  Service service(opts.service);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> queue;  // accepted fds awaiting a worker
  bool draining = false;

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(opts.workers));
  for (int i = 0; i < opts.workers; ++i) {
    workers.emplace_back([&] {
      for (;;) {
        int fd = -1;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !queue.empty() || draining; });
          if (queue.empty()) return;  // draining and nothing left
          fd = queue.front();
          queue.pop_front();
        }
        serve_connection(fd, service);
      }
    });
  }

  g_signalled = 0;
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  struct sigaction old_int{};
  struct sigaction old_term{};
  ::sigaction(SIGINT, &sa, &old_int);
  ::sigaction(SIGTERM, &sa, &old_term);

  log << "bsr serve: listening on " << opts.socket_path << " (workers="
      << opts.workers << ", queue=" << opts.queue << ")\n"
      << std::flush;

  // Accept loop: poll with a short timeout so the stop flags are noticed
  // promptly even when no client ever connects.
  pollfd pfd{listener, POLLIN, 0};
  while (g_signalled == 0 && !service.stopping()) {
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) continue;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (queue.size() < opts.queue) {
        queue.push_back(fd);
        cv.notify_one();
        continue;
      }
    }
    // Queue full: structured refusal, then close. The client maps this to
    // exit 3 and may retry with backoff.
    send_all(fd,
             error_envelope("overloaded", "request queue full; retry later") +
                 "\n");
    ::close(fd);
  }

  // Graceful drain: no new connections, finish everything accepted.
  ::close(listener);
  {
    const std::lock_guard<std::mutex> lock(mu);
    draining = true;
  }
  cv.notify_all();
  for (std::thread& w : workers) w.join();
  ::unlink(opts.socket_path.c_str());
  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGTERM, &old_term, nullptr);
  log << "bsr serve: drained, bye\n" << std::flush;
  return 0;
}

std::string client_roundtrip(const std::string& socket_path,
                             const std::string& request) {
  const sockaddr_un addr = make_addr(socket_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  usage_check(fd >= 0, "socket(): " + std::string(strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw UsageError("connect(" + socket_path + "): " + why +
                     " (is `bsr serve` running?)");
  }
  std::string line = request;
  if (line.empty() || line.back() != '\n') line += '\n';
  // A full daemon writes its `overloaded` refusal and closes without
  // reading, so the send can fail with the answer already waiting: read it
  // before giving up.
  const bool sent = send_all(fd, line);
  if (sent) ::shutdown(fd, SHUT_WR);  // one request per connection
  std::string resp;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    resp.append(chunk, static_cast<std::size_t>(n));
    if (resp.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  const std::size_t nl = resp.find('\n');
  usage_check(sent || nl != std::string::npos,
              "send(" + socket_path + ") failed");
  usage_check(nl != std::string::npos,
              "daemon closed the connection without a response");
  return resp.substr(0, nl);
}

int client_exit(const Json& response) {
  if (!response.bool_or("ok", false)) {
    return response.str_or("error", "") == "overloaded" ? 3 : 2;
  }
  return response.num_or("exit", 0) == 0 ? 0 : 1;
}

}  // namespace bsr::serve
