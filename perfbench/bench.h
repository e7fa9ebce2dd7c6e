// Shared types of the repository benchmark. A workload is run as a series
// of rounds; each round builds a fresh world (timed as set-up), runs the
// workload's fixed shape in simulated time (timed), and checks its outputs.
// main.cpp aggregates rounds into the end-to-end and per-layer metrics that
// perfbench/METRICS.md defines.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "crypto/counters.h"
#include "crypto/drbg.h"
#include "pki/identity.h"
#include "trace.h"

namespace tpnr::nr {
struct ActorStats;
}  // namespace tpnr::nr
namespace tpnr::runtime {
struct EngineStats;
}  // namespace tpnr::runtime

namespace perfbench {

namespace common = tpnr::common;
namespace crypto = tpnr::crypto;
namespace pki = tpnr::pki;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What one round reports. Rates are (amount, wall seconds) pairs so that
/// main.cpp forms them once; layer values are only filled in traced rounds.
struct Round {
  double setup_s = 0.0;
  double ops = 0.0;  ///< the workload's operations counted by op_per_s
  double op_wall_s = 0.0;
  double mib = 0.0;  ///< user payload MiB counted by mib_per_s
  double mib_wall_s = 0.0;
  double run_wall_s = 0.0;  ///< every timed phase (trace overhead base)
  std::vector<common::SimTime> latencies;  ///< per operation, simulated
  std::uint64_t attempted = 0;  ///< operations with an expected outcome
  std::uint64_t failed = 0;     ///< operations that missed it
  std::vector<std::string> errors;  ///< failed checks, for stderr
  std::uint64_t wire_bytes = 0;     ///< network bytes delivered
  std::uint64_t completed = 0;      ///< operations completed
  std::string digest;               ///< protocol-outcome digest
  std::map<std::string, double> phase;  ///< per-phase rates
  std::map<std::string, double> layer;  ///< per-layer metrics (traced)
  double private_ops = 0.0;  ///< RSA private operations (traced)

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Seed of round `round` of a run seeded `seed`: every round of a run has
/// distinct inputs, so no process-wide cache carries answers across rounds.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round);

/// Fixed-name RSA identities, generated afresh in every round's set-up
/// (keygen is part of set_up cost) and shared by the actors of one role.
class KeyPool {
 public:
  explicit KeyPool(std::size_t bits) : bits_(bits) {}
  /// An Identity called `id` holding the pooled keypair `role`.
  pki::Identity identity(const std::string& id, const std::string& role);

 private:
  std::size_t bits_;
  std::map<std::string, crypto::RsaKeyPair> keys_;
};

/// Crypto counter deltas over one timed section.
struct CryptoDelta {
  crypto::CounterSnapshot before = crypto::counters().snapshot();
  [[nodiscard]] crypto::CounterSnapshot take() const;
};

/// Fills the crypto and crypto_service per-layer metrics from counter
/// deltas over the round's timed phases; `ops` is the round's operation
/// count.
void crypto_layer_metrics(const crypto::CounterSnapshot& delta, double ops,
                          Round& round);

using SpanTotals = std::map<std::string, trace::Totals>;

/// Fills the runtime.* per-layer metrics from the engine's counters and the
/// round's runtime.run spans (the round's timed wall time without spans).
void runtime_layer_metrics(const tpnr::runtime::EngineStats& engine,
                           const SpanTotals& spans, double ops, Round& round);

/// Mean duration in µs of the spans called `name` (0 when there are none).
double span_mean_us(const SpanTotals& spans, const std::string& name);

/// Sum of an actor's rejected_* counters.
std::uint64_t rejected_total(const tpnr::nr::ActorStats& stats);

// One round of each workload. `traced` turns span recording on for the
// timed phases and fills Round::layer.
Round fleet_store_round(std::uint64_t seed, bool traced);
Round object_lifecycle_round(std::uint64_t seed, bool traced);
Round transport_chaos_round(std::uint64_t seed, bool traced);

/// Crypto kernel probes at one workload's sizes, as per-layer metrics.
struct ProbeSizes {
  std::size_t key_bits = 1024;
  std::size_t object_bytes = 256;  ///< one-lane SHA-256 and Merkle input
  std::size_t chunk_bytes = 256;   ///< multi-lane SHA-256 message size
};
std::map<std::string, double> crypto_probes(const ProbeSizes& sizes);

}  // namespace perfbench
