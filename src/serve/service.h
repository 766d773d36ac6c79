// The `bsr serve` request engine: one JSON line in, one JSON line out.
//
// Service is transport-agnostic — the AF_UNIX daemon (server.h), the
// `--loopback` client mode, and the tests all drive the same handle_line().
// Cacheable modes (see modes.h) are answered from an IR-keyed ResultCache:
// the key is the structural fingerprint of everything the analysis can
// observe — the reflected ProtocolIR, the ParamEnv, the claims, and the
// request options — so a hit is provably the same computation and is served
// byte-identical to the cold run with zero simulator steps. docs/SERVE.md
// is the full wire contract.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/cache.h"
#include "serve/modes.h"

namespace bsr {
class Json;
}  // namespace bsr

namespace bsr::analysis {
struct ProtocolSpec;
}  // namespace bsr::analysis

namespace bsr::serve {

/// The `{"ok":false,"error":<category>,"message":<message>}` envelope, no
/// trailing newline. Shared by Service and the transport's `overloaded`
/// refusal.
[[nodiscard]] std::string error_envelope(std::string_view category,
                                         std::string_view message);

struct ServiceOptions {
  std::size_t cache_entries = 1024;         ///< LRU entry budget.
  std::size_t cache_bytes = 64u << 20;      ///< LRU payload-byte budget.
  /// Registry override for tests (counting factories, custom specs);
  /// nullptr = analysis::builtin_protocols(). Must outlive the Service.
  const std::vector<analysis::ProtocolSpec>* registry = nullptr;
};

/// Per-mode request counters, exposed through the `stats` mode.
struct ModeCounters {
  std::uint64_t requests = 0;   ///< Completed requests (errors excluded).
  std::uint64_t cache_hits = 0;
  std::uint64_t total_us = 0;   ///< Wall time summed over those requests.
};

/// The request engine. handle_line is safe to call from several worker
/// threads at once; all shared state (cache, counters, fingerprint memo)
/// is internally synchronized.
class Service {
 public:
  explicit Service(ServiceOptions opts = {});

  /// Handles one request line (a JSON object) and returns the response
  /// line, newline-terminated. Never throws: malformed input becomes an
  /// `{"ok":false,...}` envelope.
  std::string handle_line(const std::string& line);

  /// True once a `shutdown` request has been accepted; the server stops
  /// accepting connections and drains.
  [[nodiscard]] bool stopping() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Cold analyses actually executed (cache misses that ran). The cache
  /// and zero-steps differential tests assert on this.
  [[nodiscard]] std::uint64_t analyses_run() const {
    return analyses_run_.load(std::memory_order_acquire);
  }

  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }

 private:
  struct Reply {
    std::string line;  ///< One envelope, no trailing newline.
    bool hit = false;
  };

  std::string handle_request(const Json& req);
  Reply dispatch(const ModeInfo& info, const Json& req);

  CacheEntry run_lint_cold(const Json& req);
  CacheEntry run_explore_cold(const Json& req);
  CacheEntry run_doc_cold();
  std::string stats_payload();

  std::uint64_t lint_key(const Json& req);
  std::uint64_t explore_key(const Json& req);
  std::uint64_t doc_key();
  std::uint64_t spec_fingerprint(const analysis::ProtocolSpec& spec);

  [[nodiscard]] const std::vector<analysis::ProtocolSpec>& registry() const;

  const ServiceOptions opts_;
  ResultCache cache_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> analyses_run_{0};

  std::mutex memo_mu_;  ///< Guards fp_memo_: one IR reflection per spec,
                        ///< shared across every request.
  std::unordered_map<const analysis::ProtocolSpec*, std::uint64_t> fp_memo_;

  std::mutex stats_mu_;  ///< Guards modes_.
  std::vector<ModeCounters> modes_;
};

}  // namespace bsr::serve
