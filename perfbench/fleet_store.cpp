// fleet_store: the bench_scale fleet shape as one open burst. Clients route
// single stores over a consistent-hash ring of providers; a seeded quarter
// of the clients start cold and take the directory detour; the last
// provider withholds receipts, so the clients it owns resolve through
// their hashed TTP partition (§4's unfair Bob). RSA private operations
// dominate, and this is the only workload that runs engine worker threads.
#include <algorithm>
#include <memory>
#include <numeric>

#include "bench.h"
#include "common/payload.h"
#include "common/serial.h"
#include "crypto/hash.h"
#include "crypto/verify_memo.h"
#include "net/network.h"
#include "nr/client.h"
#include "nr/directory.h"
#include "nr/evidence.h"
#include "nr/provider.h"
#include "nr/ttp.h"
#include "runtime/placement.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace tpnr;  // NOLINT(google-build-using-namespace)
using common::kMillisecond;

constexpr std::size_t kClients = 1000;
constexpr std::size_t kProviders = 8;
constexpr std::size_t kTtpPartitions = 4;
constexpr std::size_t kKeyBits = 1024;
constexpr std::size_t kObjectBytes = 256;
constexpr std::size_t kObjectPool = 16;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kWorkers = 2;

struct FleetClient {
  std::unique_ptr<crypto::Drbg> rng;
  std::unique_ptr<pki::Identity> identity;
  std::unique_ptr<nr::ClientActor> actor;
  std::string object_key;
  std::size_t owner = 0;
  bool cold = false;
};

struct FleetNode {
  std::unique_ptr<crypto::Drbg> rng;
  std::unique_ptr<pki::Identity> identity;
  std::unique_ptr<nr::ProviderActor> provider;
  std::unique_ptr<nr::TtpActor> ttp;
};

/// Everything one round builds before its timed burst.
struct World {
  explicit World(std::uint64_t seed)
      : network(seed, net::NetworkOptions{kShards, kWorkers, true}),
        ring(32) {}

  net::Network network;
  runtime::Placement ring;
  std::vector<std::string> provider_names;
  std::vector<std::string> partition_names;
  std::vector<FleetClient> clients;
  std::vector<FleetNode> providers;
  std::vector<FleetNode> ttps;
  std::unique_ptr<crypto::Drbg> dir_rng;
  std::unique_ptr<pki::Identity> dir_identity;
  std::unique_ptr<nr::DirectoryActor> directory;
  std::vector<common::Bytes> objects;
};

void build(World& w, std::uint64_t seed) {
  crypto::verify_memo_clear();
  KeyPool keys(kKeyBits);
  crypto::Drbg input_rng(seed);

  net::LinkConfig link;
  link.latency = 5 * kMillisecond;
  link.jitter = 2 * kMillisecond;
  w.network.set_default_link(link);

  for (std::size_t i = 0; i < kProviders; ++i) {
    w.provider_names.push_back("p-" + std::to_string(i));
    w.ring.add_provider(w.provider_names.back());
  }
  for (std::size_t i = 0; i < kTtpPartitions; ++i) {
    w.partition_names.push_back(
        nr::ttp_partition_name("ttp", static_cast<std::uint32_t>(i)));
  }

  // Exactly a quarter of the clients start cold, chosen by the seed.
  std::vector<std::size_t> order(kClients);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = kClients - 1; i > 0; --i) {
    std::swap(order[i], order[input_rng.uniform(i + 1)]);
  }
  std::vector<bool> cold(kClients, false);
  for (std::size_t i = 0; i < kClients / 4; ++i) cold[order[i]] = true;
  const std::string key_prefix =
      "obj-" + std::to_string(input_rng.next_u64() % 1000000) + "-";

  // Clients register first: endpoints are round-robined over shards in
  // registration order, so the client-side crypto spreads over every shard.
  w.clients.resize(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    FleetClient& c = w.clients[i];
    const std::string name = "c-" + std::to_string(i);
    c.rng = std::make_unique<crypto::Drbg>(seed * 7919 + i);
    c.identity =
        std::make_unique<pki::Identity>(keys.identity(name, "fleet-client"));
    c.actor = std::make_unique<nr::ClientActor>(name, w.network, *c.identity,
                                                *c.rng);
    c.actor->set_placement(&w.ring);
    c.actor->set_directory("dir");
    c.actor->set_ttp_partitions(w.partition_names);
    c.actor->reserve_txns(2);
    c.object_key = key_prefix + std::to_string(i);
    const std::string& owner = w.ring.owner(c.object_key);
    c.owner = static_cast<std::size_t>(
        std::find(w.provider_names.begin(), w.provider_names.end(), owner) -
        w.provider_names.begin());
    c.cold = cold[i];
  }
  w.providers.resize(kProviders);
  for (std::size_t i = 0; i < kProviders; ++i) {
    FleetNode& node = w.providers[i];
    node.rng = std::make_unique<crypto::Drbg>(seed * 104729 + i);
    node.identity = std::make_unique<pki::Identity>(
        keys.identity(w.provider_names[i], "fleet-provider"));
    node.provider = std::make_unique<nr::ProviderActor>(
        w.provider_names[i], w.network, *node.identity, *node.rng);
    node.provider->reserve_txns(kClients / kProviders + 1);
  }
  nr::ProviderBehavior unfair;
  unfair.send_store_receipts = false;
  w.providers.back().provider->set_behavior(unfair);

  w.ttps.resize(kTtpPartitions);
  for (std::size_t i = 0; i < kTtpPartitions; ++i) {
    FleetNode& node = w.ttps[i];
    node.rng = std::make_unique<crypto::Drbg>(seed * 1299709 + i);
    node.identity = std::make_unique<pki::Identity>(
        keys.identity(w.partition_names[i], "fleet-ttp"));
    node.ttp = std::make_unique<nr::TtpActor>(
        w.partition_names[i], w.network, *node.identity, *node.rng);
  }
  w.dir_rng = std::make_unique<crypto::Drbg>(seed * 15485863);
  w.dir_identity =
      std::make_unique<pki::Identity>(keys.identity("dir", "fleet-dir"));
  w.directory = std::make_unique<nr::DirectoryActor>(
      "dir", w.network, *w.dir_identity, *w.dir_rng, w.ring);

  for (std::size_t p = 0; p < kProviders; ++p) {
    w.directory->register_provider_key(w.provider_names[p],
                                       w.providers[p].identity->public_key());
    for (std::size_t t = 0; t < kTtpPartitions; ++t) {
      w.providers[p].provider->trust_peer(w.partition_names[t],
                                          w.ttps[t].identity->public_key());
      w.ttps[t].ttp->trust_peer(w.provider_names[p],
                                w.providers[p].identity->public_key());
    }
  }
  for (FleetClient& c : w.clients) {
    const std::string& name = c.actor->id();
    const crypto::RsaPublicKey& key = c.identity->public_key();
    c.actor->trust_peer("dir", w.dir_identity->public_key());
    w.directory->trust_peer(name, key);
    w.providers[c.owner].provider->trust_peer(name, key);
    if (!c.cold) {
      c.actor->trust_peer(w.provider_names[c.owner],
                          w.providers[c.owner].identity->public_key());
    }
    for (std::size_t t = 0; t < kTtpPartitions; ++t) {
      c.actor->trust_peer(w.partition_names[t],
                          w.ttps[t].identity->public_key());
      w.ttps[t].ttp->trust_peer(name, key);
    }
  }

  w.objects.resize(kObjectPool);
  for (auto& object : w.objects) object = input_rng.bytes(kObjectBytes);
}

}  // namespace

Round fleet_store_round(std::uint64_t seed, bool traced) {
  Round round;
  const auto setup_start = Clock::now();
  World w(seed);
  build(w, seed);
  round.setup_s = seconds_since(setup_start);

  trace::enable(traced);
  if (traced) trace::window_begin();
  const CryptoDelta crypto_delta;
  const common::PayloadCounters payload_before = common::Payload::counters();

  // All stores are due at t=0 (an open burst), posted into each client's
  // own execution context so client-side crypto runs on its shard.
  const auto run_start = Clock::now();
  for (std::size_t i = 0; i < kClients; ++i) {
    FleetClient& c = w.clients[i];
    const common::BytesView data(w.objects[i % w.objects.size()]);
    w.network.post(c.actor->id(), 0,
                   [&c, base = w.partition_names[0], data] {
                     trace::Scope span("nr.issue");
                     span.set_txn(c.actor->store_routed(base, c.object_key,
                                                        data));
                   });
  }
  {
    trace::Scope span("runtime.run");
    trace::set_fallback_parent(span.id());
    w.network.run(std::size_t{1} << 27);
    trace::set_fallback_parent(0);
  }
  round.run_wall_s = seconds_since(run_start);
  const crypto::CounterSnapshot crypto_used = crypto_delta.take();
  const common::PayloadCounters payload_after = common::Payload::counters();
  trace::enable(false);

  // Checks: every store completes, through the TTP exactly when its owner
  // is the unfair provider; a completed store holds an NRR that verifies
  // under its provider's key; none holds an abort receipt as well (§4).
  common::BinaryWriter digest;
  std::size_t resolved = 0;
  std::uint64_t cold_clients = 0;
  for (const FleetClient& c : w.clients) {
    const auto& txns = c.actor->routed_txns();
    cold_clients += c.cold ? 1 : 0;
    ++round.attempted;
    digest.str(c.actor->id());
    digest.u64(txns.size());
    if (txns.size() != 1) {
      ++round.failed;
      round.check(false, c.actor->id() + " issued " +
                             std::to_string(txns.size()) + " stores");
      continue;
    }
    const auto* txn = c.actor->transaction(txns.front());
    const bool unfair_owner = c.owner == kProviders - 1;
    const nr::TxnState expected = unfair_owner
                                      ? nr::TxnState::kResolvedCompleted
                                      : nr::TxnState::kCompleted;
    bool ok = txn->state == expected && txn->nrr && txn->nrr_header &&
              !txn->abort_receipt;
    if (ok) {
      ok = nr::verify_evidence_signatures(
          w.providers[c.owner].identity->public_key(), *txn->nrr_header,
          *txn->nrr);
    }
    digest.str(txns.front());
    digest.str(nr::txn_state_name(txn->state));
    digest.str(txn->provider);
    digest.str(txn->ttp);
    digest.u64(txn->nrr.has_value() ? 1 : 0);
    digest.i64(txn->finished_at);
    if (!ok) {
      ++round.failed;
      round.check(false, txns.front() + " ended " +
                             nr::txn_state_name(txn->state) +
                             " without the expected verifying evidence");
      continue;
    }
    ++round.completed;
    resolved += unfair_owner ? 1 : 0;
    // Due at t=0: the completion time is the latency.
    round.latencies.push_back(txn->finished_at);
  }
  round.check(w.directory->lookups_served() == cold_clients,
              "directory served " +
                  std::to_string(w.directory->lookups_served()) +
                  " lookups for " + std::to_string(cold_clients) +
                  " cold clients");
  const net::NetworkStats& stats = w.network.stats();
  digest.u64(w.directory->lookups_served());
  digest.u64(stats.messages_sent);
  digest.u64(stats.messages_delivered);
  digest.u64(stats.bytes_delivered);
  round.digest = common::to_hex(crypto::sha256(digest.data()));

  round.ops = static_cast<double>(round.completed);
  round.op_wall_s = round.run_wall_s;
  round.mib = static_cast<double>(round.completed * kObjectBytes) /
              (1024.0 * 1024.0);
  round.mib_wall_s = round.run_wall_s;
  round.wire_bytes = stats.bytes_delivered;

  if (traced) {
    const SpanTotals spans = trace::totals();
    const double ops = std::max(round.ops, 1.0);
    std::uint64_t rejects = rejected_total(w.directory->stats());
    for (const auto& c : w.clients) rejects += rejected_total(c.actor->stats());
    for (const auto& p : w.providers) {
      rejects += rejected_total(p.provider->stats());
    }
    for (const auto& t : w.ttps) rejects += rejected_total(t.ttp->stats());
    runtime_layer_metrics(w.network.engine().stats(), spans, ops, round);
    crypto_layer_metrics(crypto_used, ops, round);
    auto& m = round.layer;
    m["common.copy_bytes_per_user_byte"] =
        static_cast<double>(payload_after.copy_bytes -
                            payload_before.copy_bytes) /
        (ops * static_cast<double>(kObjectBytes));
    m["net.msgs_per_op"] = static_cast<double>(stats.messages_delivered) / ops;
    m["nr.issue_us_per_op"] = span_mean_us(spans, "nr.issue");
    m["nr.rejected"] = static_cast<double>(rejects);
    m["nr.resolved_share"] = static_cast<double>(resolved) / ops;
    m["nr.dir_lookups_per_op"] =
        static_cast<double>(w.directory->lookups_served()) / ops;
  }
  return round;
}

}  // namespace perfbench
