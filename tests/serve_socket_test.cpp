// The `bsr serve` AF_UNIX daemon end to end: boot a real server on a
// scratch socket, drive it with the client leg, and exercise the paths the
// loopback tests cannot — cached repeats over the wire, bounded-queue
// overload with a structured refusal, and graceful shutdown that drains
// every accepted connection before exiting.
#include <gtest/gtest.h>

#include <unistd.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>

#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "serve/server.h"
#include "util/json.h"

namespace {

using namespace bsr;

constexpr const char* kLintStaticAlg1 =
    R"({"mode":"lint","protocols":["alg1"],"lint_mode":"static"})";

std::string scratch_socket(const char* tag) {
  return "serve_test_" + std::string(tag) + "_" + std::to_string(getpid()) +
         ".sock";
}

bool socket_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Boots run_server on a background thread and waits until the socket is
/// accepting. The daemon exits via a `shutdown` request.
class Daemon {
 public:
  explicit Daemon(serve::ServerOptions opts)
      : opts_(std::move(opts)), thread_([this] {
          exit_code_ = serve::run_server(opts_, log_);
        }) {
    for (int i = 0; i < 200 && !socket_exists(opts_.socket_path); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  ~Daemon() {
    if (thread_.joinable()) {
      try {
        (void)serve::client_roundtrip(opts_.socket_path,
                                      R"({"mode":"shutdown"})");
      } catch (const std::exception&) {
        // already shut down by the test body
      }
      thread_.join();
    }
  }

  [[nodiscard]] const std::string& socket() const {
    return opts_.socket_path;
  }
  [[nodiscard]] int join() {
    thread_.join();
    return exit_code_;
  }

 private:
  serve::ServerOptions opts_;
  std::ostringstream log_;
  int exit_code_ = -1;
  std::thread thread_;
};

TEST(ServeSocket, RoundtripThenCachedRepeat) {
  serve::ServerOptions opts;
  opts.socket_path = scratch_socket("roundtrip");
  Daemon daemon(opts);

  const std::string cold =
      serve::client_roundtrip(daemon.socket(), kLintStaticAlg1);
  const Json c = Json::parse(cold);
  EXPECT_TRUE(c.bool_or("ok", false)) << cold;
  EXPECT_FALSE(c.bool_or("cached", true));
  EXPECT_EQ(c.num_or("exit", -1), 0);

  const std::string warm =
      serve::client_roundtrip(daemon.socket(), kLintStaticAlg1);
  const Json w = Json::parse(warm);
  EXPECT_TRUE(w.bool_or("cached", false)) << warm;
  // Byte identity over the wire, modulo the documented `cached` flag.
  std::string recolored = cold;
  const std::size_t at = recolored.find("\"cached\":false");
  ASSERT_NE(at, std::string::npos);
  recolored.replace(at, 14, "\"cached\":true");
  EXPECT_EQ(recolored, warm);
}

TEST(ServeSocket, FullQueueAnswersOverloadedImmediately) {
  serve::ServerOptions opts;
  opts.socket_path = scratch_socket("overload");
  opts.workers = 1;
  opts.queue = 1;
  Daemon daemon(opts);

  // Occupy the single worker, then the single queue slot, with sleep
  // requests (the dispatch table's test aid for exactly this path). The
  // jthreads join on every exit path, including a failed assertion.
  const std::jthread busy([&] {
    (void)serve::client_roundtrip(daemon.socket(),
                                  R"({"mode":"sleep","ms":1200})");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::jthread queued([&] {
    (void)serve::client_roundtrip(daemon.socket(),
                                  R"({"mode":"sleep","ms":10})");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Worker busy, queue full: the acceptor must refuse with a structured
  // envelope right away rather than letting the client hang.
  const auto t0 = std::chrono::steady_clock::now();
  const std::string refusal =
      serve::client_roundtrip(daemon.socket(), R"({"mode":"stats"})");
  const auto waited = std::chrono::steady_clock::now() - t0;
  const Json r = Json::parse(refusal);
  EXPECT_FALSE(r.bool_or("ok", true)) << refusal;
  EXPECT_EQ(r.str_or("error", ""), "overloaded");
  EXPECT_EQ(serve::client_exit(r), 3);
  EXPECT_LT(std::chrono::duration<double>(waited).count(), 1.0);
}

TEST(ServeSocket, ClientReadsARefusalWrittenBeforeItsSendFails) {
  // The overloaded acceptor writes its refusal and closes without reading
  // the request. A request larger than the socket buffer then fails to
  // send, and the client must still return the refusal it can read.
  const std::string path = scratch_socket("refuse");
  const std::string refusal = R"({"ok":false,"error":"overloaded"})";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  ::unlink(path.c_str());
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  const std::jthread acceptor([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    const std::string line = refusal + "\n";
    (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
    ::close(fd);
  });

  const std::string big =
      R"({"mode":"stats","pad":")" + std::string(8u << 20, 'x') + "\"}";
  EXPECT_EQ(serve::client_roundtrip(path, big), refusal);
  ::close(listener);
  ::unlink(path.c_str());
}

TEST(ServeSocket, ShutdownDrainsAndUnlinksTheSocket) {
  serve::ServerOptions opts;
  opts.socket_path = scratch_socket("shutdown");
  Daemon daemon(opts);

  const std::string resp =
      serve::client_roundtrip(daemon.socket(), R"({"mode":"shutdown"})");
  EXPECT_NE(resp.find("\"stopping\":true"), std::string::npos);
  EXPECT_EQ(daemon.join(), 0);
  EXPECT_FALSE(socket_exists(daemon.socket()));
}

}  // namespace
