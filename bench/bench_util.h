// Shared benchmark plumbing: pooled RSA identities (keygen dominates setup)
// and a tiny fixed-width table printer for the experiment summaries each
// bench emits before the google-benchmark timings.
#pragma once

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "pki/identity.h"

namespace tpnr::bench {

/// Deterministic identity pool shared within one bench process.
inline const pki::Identity& identity(const std::string& name,
                                     std::size_t bits = 1024) {
  static auto* pool = new std::map<std::string, pki::Identity>();
  const std::string key = name + "/" + std::to_string(bits);
  auto it = pool->find(key);
  if (it == pool->end()) {
    crypto::Drbg rng(crypto::sha256(common::to_bytes(key)));
    it = pool->emplace(key, pki::Identity(name, bits, rng)).first;
  }
  return it->second;
}

/// A fresh Identity named `id` reusing the pooled keypair `key_name` — the
/// cheap way to mint hundreds of actors (keygen dominates setup otherwise).
/// `bits` must stay >= 784: the evidence envelope's OAEP wrap needs a
/// ~98-byte modulus, so smaller fleet keys cannot seal evidence at all.
inline pki::Identity pooled_identity(const std::string& id,
                                     const std::string& key_name,
                                     std::size_t bits = 1024) {
  const pki::Identity& pooled = identity(key_name, bits);
  return {id, crypto::RsaKeyPair{pooled.public_key(), pooled.private_key()}};
}

/// Positive-integer env knob with a fallback.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// Boolean env knob: unset keeps the fallback, "0" means false, anything
/// else means true.
inline bool env_flag(const char* name, bool fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return !(env[0] == '0' && env[1] == '\0');
}

/// Shard/worker/event-store knobs from the environment (`TPNR_SHARDS`,
/// `TPNR_WORKERS`, `TPNR_TIMER_WHEEL`), so any bench re-runs sharded,
/// threaded, or on the legacy heap without a rebuild. This is the one env
/// contract every bench binary honors; protocol outcomes are invariant
/// under all three knobs by construction — only wall-clock changes.
inline net::NetworkOptions options_from_env() {
  net::NetworkOptions options;
  const auto parse = [](const char* name, std::uint32_t fallback) {
    const char* env = std::getenv(name);
    if (env == nullptr || *env == '\0') return fallback;
    const long value = std::strtol(env, nullptr, 10);
    return value > 0 ? static_cast<std::uint32_t>(value) : fallback;
  };
  options.shards = parse("TPNR_SHARDS", options.shards);
  options.workers = parse("TPNR_WORKERS", options.workers);
  options.use_timer_wheel =
      env_flag("TPNR_TIMER_WHEEL", options.use_timer_wheel);
  return options;
}

/// Process-wide peak resident set (ru_maxrss, KiB on Linux).
inline std::uint64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/// Prints a fixed-width table: header row then data rows.
inline void print_table(const std::string& title,
                        const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return;
  std::vector<std::size_t> widths(rows.front().size(), 0);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::printf("\n=== %s ===\n", title.c_str());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::string line;
    for (std::size_t i = 0; i < rows[r].size(); ++i) {
      std::string cell = rows[r][i];
      cell.resize(widths[i], ' ');
      line += cell;
      line += "  ";
    }
    std::printf("%s\n", line.c_str());
    if (r == 0) {
      std::string rule(line.size(), '-');
      std::printf("%s\n", rule.c_str());
    }
  }
}

inline std::string fmt(double value, int precision = 2) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

/// Where JsonLine records go: stdout by default; `TPNR_BENCH_JSON=<path>`
/// redirects them to that file (append mode) so CI collects a machine-
/// readable artifact instead of scraping stdout. Resolved once per process.
inline std::FILE* json_sink() {
  static std::FILE* sink = [] {
    const char* path = std::getenv("TPNR_BENCH_JSON");
    if (path == nullptr || *path == '\0') return stdout;
    std::FILE* file = std::fopen(path, "a");
    if (file == nullptr) {
      std::fprintf(stderr, "TPNR_BENCH_JSON: cannot open %s, using stdout\n",
                   path);
      return stdout;
    }
    return file;
  }();
  return sink;
}

/// One-line JSON emitter: every bench_* binary prints one
/// `{"bench":"...",...}` line per experiment summary, so a run's headline
/// numbers can be grepped and parsed uniformly across binaries.
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) { field("bench", bench); }

  JsonLine& field(const std::string& key, const std::string& value) {
    raw(key, '"' + escape(value) + '"');
    return *this;
  }
  JsonLine& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonLine& field(const std::string& key, bool value) {
    raw(key, value ? "true" : "false");
    return *this;
  }
  JsonLine& field(const std::string& key, double value, int precision = 4) {
    raw(key, fmt(value, precision));
    return *this;
  }
  JsonLine& field(const std::string& key, std::uint64_t value) {
    raw(key, std::to_string(value));
    return *this;
  }
  JsonLine& field(const std::string& key, std::int64_t value) {
    raw(key, std::to_string(value));
    return *this;
  }
  JsonLine& field(const std::string& key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }

  void print() const {
    std::FILE* sink = json_sink();
    std::fprintf(sink, "{%s}\n", body_.c_str());
    if (sink != stdout) std::fflush(sink);
  }

 private:
  static std::string escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buffer[8];
        // Promote via unsigned char: a sign-extended negative char would
        // otherwise print far more than 4 hex digits.
        std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buffer;
      } else {
        out += c;
      }
    }
    return out;
  }
  void raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += '"' + escape(key) + "\":" + value;
  }

  std::string body_;
};

/// Uniform per-process metadata record every bench binary emits once:
/// parallelism knobs in effect plus the process peak RSS. Tagged
/// `"record":"process_meta"` so determinism byte-diffs can filter it out —
/// RSS and core counts legitimately vary across configurations while every
/// other JsonLine record must not.
inline void emit_process_meta(const std::string& bench_name) {
  const net::NetworkOptions options = options_from_env();
  JsonLine(bench_name)
      .field("record", "process_meta")
      .field("shards", static_cast<std::uint64_t>(options.shards))
      .field("workers", static_cast<std::uint64_t>(options.workers))
      .field("timer_wheel", options.use_timer_wheel)
      .field("sha256_kernel", crypto::sha256_kernel_name())
      .field("hardware_cores",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("peak_rss_kb", peak_rss_kb())
      .print();
}

}  // namespace tpnr::bench
