// object_lifecycle: one serial engine carrying large objects through their
// life: chunked writes, integrity-checked reads, sampled chunk audits and
// dynamic mutations with aggregate audits. Each phase is posted at once and
// drained before the next, and each is timed on its own, so a gain in one
// that costs another shows. It exercises hashing, the Merkle tree, Payload
// and the WAL, which the fleet barely touches; at 256 KiB objects the
// signed receipts still take a large share (crypto.private_share_est).
//
// Provider A holds 32 objects, which fit its 64-entry MerkleCache; provider
// B holds 96, which overflow it: the audit sub-phases measure proof serving
// from a cache that fits and from one that thrashes.
#include <algorithm>
#include <functional>
#include <memory>

#include "audit/auditor.h"
#include "audit/ledger.h"
#include "bench.h"
#include "common/payload.h"
#include "common/serial.h"
#include "crypto/hash.h"
#include "crypto/verify_memo.h"
#include "dyn/client.h"
#include "dyn/provider.h"
#include "net/network.h"
#include "nr/client.h"
#include "nr/evidence.h"
#include "nr/provider.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace tpnr;  // NOLINT(google-build-using-namespace)
using common::kMillisecond;
using common::SimTime;

constexpr std::size_t kClients = 4;
constexpr std::size_t kObjectsA = 32;  ///< fits MerkleCache's 64 entries
constexpr std::size_t kObjectsB = 96;  ///< overflows it
constexpr std::size_t kObjectBytes = 256 << 10;
constexpr std::size_t kChunkBytes = 4 << 10;
constexpr std::size_t kAuditChunksPerObject = 2;
constexpr std::size_t kDynObjects = 8;
constexpr std::size_t kDynChunks = 64;
constexpr std::size_t kMutationBatches = 6;
constexpr std::uint64_t kAggregateChunks = 16;
constexpr std::size_t kKeyBits = 1024;
/// Completion poll period for operations whose actors keep no completion
/// time (fetches, mutations): the resolution of their simulated latency.
constexpr SimTime kPollPeriod = 10;  // µs

constexpr double kMiB = 1024.0 * 1024.0;

/// The bench_dyn_audit mix: 3 updates, 3 appends, 2 erases.
enum class Mutation { kUpdate, kAppend, kErase };
constexpr Mutation kMix[] = {Mutation::kUpdate, Mutation::kUpdate,
                             Mutation::kUpdate, Mutation::kAppend,
                             Mutation::kAppend, Mutation::kAppend,
                             Mutation::kErase,  Mutation::kErase};

/// A persist::Journal that forwards to a Wal and times every append.
class TimedJournal final : public persist::Journal {
 public:
  explicit TimedJournal(persist::Wal& wal) : wal_(&wal) {}
  std::uint64_t record(persist::RecordType type,
                       common::BytesView payload) override {
    const trace::Scope span("persist.append");
    return wal_->record(type, payload);
  }

 private:
  persist::Wal* wal_;
};

/// One provider machine: actor identity plus its durable log.
struct Machine {
  Machine() : journal(wal) {}
  persist::Wal wal{persist::WalOptions{}};
  TimedJournal journal;
};

struct StoredObject {
  std::size_t client = 0;
  bool at_a = true;
  std::string key;
  std::string txn;
  SimTime read_done = -1;
};

struct World {
  explicit World(std::uint64_t seed) : network(seed), keys(kKeyBits) {}

  net::Network network;
  KeyPool keys;
  std::vector<pki::Identity> client_ids;
  std::vector<std::unique_ptr<crypto::Drbg>> rngs;
  std::vector<std::unique_ptr<nr::ClientActor>> clients;
  std::unique_ptr<pki::Identity> provider_a_id, provider_b_id, auditor_id,
      dyn_client_id, dyn_provider_id;
  Machine machine_a, machine_b, machine_dyn;
  std::unique_ptr<nr::ProviderActor> provider_a, provider_b;
  audit::AuditLedger ledger;
  std::unique_ptr<audit::AuditorActor> auditor;
  std::unique_ptr<dyn::DynClientActor> dyn_client;
  std::unique_ptr<dyn::DynProviderActor> dyn_provider;
  std::vector<StoredObject> objects;
  std::vector<common::Bytes> data;       ///< per object, 256 KiB
  std::vector<common::Bytes> dyn_data;   ///< per dyn object, 64 chunks
  std::vector<common::Bytes> mutation_chunks;
  std::vector<std::uint64_t> mutation_indices;  ///< raw draws, reduced later
  std::vector<std::vector<std::size_t>> audit_chunks;  ///< per object

  crypto::Drbg& rng(std::uint64_t seed) {
    rngs.push_back(std::make_unique<crypto::Drbg>(seed));
    return *rngs.back();
  }
};

void build(World& w, std::uint64_t seed) {
  crypto::verify_memo_clear();
  crypto::Drbg input(seed);
  net::LinkConfig link;
  link.latency = 5 * kMillisecond;
  link.jitter = 2 * kMillisecond;
  w.network.set_default_link(link);

  for (std::size_t i = 0; i < kClients; ++i) {
    w.client_ids.push_back(w.keys.identity("c-" + std::to_string(i), "client"));
  }
  w.provider_a_id =
      std::make_unique<pki::Identity>(w.keys.identity("pa", "provider"));
  w.provider_b_id =
      std::make_unique<pki::Identity>(w.keys.identity("pb", "provider"));
  w.auditor_id =
      std::make_unique<pki::Identity>(w.keys.identity("aud", "auditor"));
  w.dyn_client_id =
      std::make_unique<pki::Identity>(w.keys.identity("dc", "client"));
  w.dyn_provider_id =
      std::make_unique<pki::Identity>(w.keys.identity("dp", "provider"));

  for (std::size_t i = 0; i < kClients; ++i) {
    crypto::Drbg& rng = w.rng(seed + 11 + i);
    w.clients.push_back(std::make_unique<nr::ClientActor>(
        w.client_ids[i].id(), w.network, w.client_ids[i], rng));
  }
  w.provider_a = std::make_unique<nr::ProviderActor>(
      "pa", w.network, *w.provider_a_id, w.rng(seed + 21));
  w.provider_b = std::make_unique<nr::ProviderActor>(
      "pb", w.network, *w.provider_b_id, w.rng(seed + 22));
  w.auditor = std::make_unique<audit::AuditorActor>(
      "aud", w.network, *w.auditor_id, w.rng(seed + 23), w.ledger);
  w.dyn_client = std::make_unique<dyn::DynClientActor>(
      "dc", w.network, *w.dyn_client_id, w.rng(seed + 24), input.bytes(32));
  w.dyn_provider = std::make_unique<dyn::DynProviderActor>(
      "dp", w.network, *w.dyn_provider_id, w.rng(seed + 25));

  const std::pair<nr::ProviderActor*, Machine*> machines[] = {
      {w.provider_a.get(), &w.machine_a}, {w.provider_b.get(), &w.machine_b}};
  for (const auto& [provider, machine] : machines) {
    provider->set_journal(&machine->journal);
    provider->store().bind_journal(&machine->journal);
    provider->trust_peer("aud", w.auditor_id->public_key());
    for (std::size_t i = 0; i < kClients; ++i) {
      provider->trust_peer(w.client_ids[i].id(),
                           w.client_ids[i].public_key());
    }
  }
  w.dyn_provider->set_journal(&w.machine_dyn.journal);
  w.dyn_provider->store().bind_journal(&w.machine_dyn.journal);
  w.dyn_provider->trust_peer("dc", w.dyn_client_id->public_key());
  w.dyn_provider->trust_peer("aud", w.auditor_id->public_key());
  w.dyn_client->trust_peer("dp", w.dyn_provider_id->public_key());
  for (const auto& client : w.clients) {
    client->trust_peer("pa", w.provider_a_id->public_key());
    client->trust_peer("pb", w.provider_b_id->public_key());
  }
  w.auditor->trust_peer("pa", w.provider_a_id->public_key());
  w.auditor->trust_peer("pb", w.provider_b_id->public_key());
  w.auditor->trust_peer("dp", w.dyn_provider_id->public_key());

  // Inputs. Object i belongs to client i % kClients; the first kObjectsA
  // go to A.
  const std::string tag = std::to_string(input.next_u64() % 1000000);
  for (std::size_t i = 0; i < kObjectsA + kObjectsB; ++i) {
    StoredObject object;
    object.client = i % kClients;
    object.at_a = i < kObjectsA;
    object.key = "obj-" + tag + "-" + std::to_string(i);
    w.objects.push_back(object);
    w.data.push_back(input.bytes(kObjectBytes));
    std::vector<std::size_t> chunks;
    while (chunks.size() < kAuditChunksPerObject) {
      const std::size_t index = input.uniform(kObjectBytes / kChunkBytes);
      if (std::find(chunks.begin(), chunks.end(), index) == chunks.end()) {
        chunks.push_back(index);
      }
    }
    w.audit_chunks.push_back(chunks);
  }
  for (std::size_t i = 0; i < kDynObjects; ++i) {
    w.dyn_data.push_back(input.bytes(kDynChunks * kChunkBytes));
  }
  for (std::size_t i = 0; i < kDynObjects * kMutationBatches; ++i) {
    w.mutation_chunks.push_back(input.bytes(kChunkBytes));
    w.mutation_indices.push_back(input.next_u64());
  }
}

/// Drains the network inside a runtime.run span.
void run_network(net::Network& network) {
  const trace::Scope span("runtime.run");
  network.run(std::size_t{1} << 26);
}

/// Polls `done(i)` for i in [0, n) every kPollPeriod of simulated time,
/// calling `stamp(i, now)` from the first poll that sees it done. Stops once
/// every operation is done (or after kPollHorizon, leaving the rest
/// unstamped for the checks to fail), so it adds no events past the last
/// completion.
template <typename Done, typename Stamp>
void poll_completions(net::Network& network, std::size_t n, Done done,
                      Stamp stamp) {
  constexpr SimTime kPollHorizon = 60 * common::kSecond;
  auto remaining = std::make_shared<std::vector<std::size_t>>();
  for (std::size_t i = 0; i < n; ++i) remaining->push_back(i);
  const SimTime deadline = network.now() + kPollHorizon;
  // Pending timers hold the poll alive; the poll holds itself only weakly.
  auto poll = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> self = poll;
  *poll = [&network, remaining, done, stamp, self, deadline] {
    std::erase_if(*remaining, [&](std::size_t i) {
      if (!done(i)) return false;
      stamp(i, network.now());
      return true;
    });
    if (remaining->empty() || network.now() >= deadline) return;
    if (auto next = self.lock()) {
      network.schedule(kPollPeriod, [next] { (*next)(); });
    }
  };
  network.schedule(kPollPeriod, [poll] { (*poll)(); });
}

struct PhaseTimer {
  Clock::time_point start = Clock::now();
  double stop() const { return seconds_since(start); }
};

}  // namespace

Round object_lifecycle_round(std::uint64_t seed, bool traced) {
  Round round;
  const auto setup_start = Clock::now();
  World w(seed);
  build(w, seed);
  round.setup_s = seconds_since(setup_start);
  const std::size_t n_objects = w.objects.size();

  trace::enable(traced);
  if (traced) trace::window_begin();
  const CryptoDelta crypto_delta;
  const common::PayloadCounters payload_before = common::Payload::counters();
  common::BinaryWriter digest;

  // --- write: chunked stores, all posted at once --------------------------
  SimTime phase_start = w.network.now();
  PhaseTimer timer;
  for (std::size_t c = 0; c < kClients; ++c) {
    w.network.post(w.clients[c]->id(), 0, [&w, c] {
      for (std::size_t i = c; i < w.objects.size(); i += kClients) {
        StoredObject& object = w.objects[i];
        trace::Scope span("nr.issue");
        object.txn = w.clients[c]->store_chunked(
            object.at_a ? "pa" : "pb", "", object.key, w.data[i], kChunkBytes);
        span.set_txn(object.txn);
      }
    });
  }
  run_network(w.network);
  const double write_s = timer.stop();
  for (const StoredObject& object : w.objects) {
    ++round.attempted;
    const auto* txn = w.clients[object.client]->transaction(object.txn);
    const pki::Identity& provider =
        object.at_a ? *w.provider_a_id : *w.provider_b_id;
    const bool ok = txn != nullptr &&
                    txn->state == nr::TxnState::kCompleted && txn->nrr &&
                    txn->nrr_header && !txn->abort_receipt &&
                    nr::verify_evidence_signatures(provider.public_key(),
                                                   *txn->nrr_header,
                                                   *txn->nrr);
    if (!ok) {
      ++round.failed;
      round.check(false, "store " + object.key + " not completed with a "
                         "verifying NRR");
      continue;
    }
    digest.str(object.txn);
    digest.bytes(txn->data_hash);
    digest.i64(txn->finished_at);
    round.latencies.push_back(txn->finished_at - phase_start);
  }

  // --- read: integrity-checked fetch of every object ----------------------
  phase_start = w.network.now();
  timer = PhaseTimer{};
  for (std::size_t c = 0; c < kClients; ++c) {
    w.network.post(w.clients[c]->id(), 0, [&w, c] {
      for (std::size_t i = c; i < w.objects.size(); i += kClients) {
        const trace::Scope span("nr.issue", w.objects[i].txn);
        w.clients[c]->fetch(w.objects[i].txn);
      }
    });
  }
  poll_completions(
      w.network, n_objects,
      [&w](std::size_t i) {
        const StoredObject& o = w.objects[i];
        const auto* txn = w.clients[o.client]->transaction(o.txn);
        return txn == nullptr || txn->fetched;
      },
      [&w](std::size_t i, SimTime at) { w.objects[i].read_done = at; });
  run_network(w.network);
  const double read_s = timer.stop();
  for (const StoredObject& object : w.objects) {
    ++round.attempted;
    const auto* txn = w.clients[object.client]->transaction(object.txn);
    if (txn == nullptr || !txn->fetched || !txn->fetch_integrity_ok ||
        txn->fetched_data.size() != kObjectBytes) {
      ++round.failed;
      round.check(false, "fetch of " + object.key + " failed its check");
      continue;
    }
    digest.bytes(crypto::sha256(txn->fetched_data));
    round.latencies.push_back(object.read_done - phase_start);
  }

  // --- audit: sampled chunk challenges, provider A then provider B --------
  for (const StoredObject& object : w.objects) {
    round.check(w.auditor->watch(*w.clients[object.client], object.txn),
                "auditor refused to watch " + object.key);
  }
  const std::uint64_t audit_bytes_before =
      w.network.stats().topic("nr.audit").bytes_delivered;
  double audit_s = 0.0;
  std::size_t audits_issued = 0;
  for (const bool fit : {true, false}) {
    const CryptoDelta sub_delta;
    timer = PhaseTimer{};
    // One challenge per object per wave: concurrent challenges of one
    // transaction could be reordered by link jitter, and the provider's
    // §5.3 sequence screening rightly drops the overtaken one.
    for (std::size_t wave = 0; wave < kAuditChunksPerObject; ++wave) {
      for (std::size_t i = 0; i < n_objects; ++i) {
        if (w.objects[i].at_a != fit) continue;
        const trace::Scope span("audit.challenge", w.objects[i].txn);
        audits_issued +=
            w.auditor->challenge(w.objects[i].txn, w.audit_chunks[i][wave])
                ? 1
                : 0;
      }
      run_network(w.network);
    }
    audit_s += timer.stop();
    const crypto::CounterSnapshot used = sub_delta.take();
    const double served =
        static_cast<double>(used.tree_builds + used.tree_rebuilds_avoided);
    round.layer[fit ? "storage.tree_reuse_share.fit"
                    : "storage.tree_reuse_share.spill"] =
        served == 0.0 ? 0.0
                      : static_cast<double>(used.tree_rebuilds_avoided) /
                            served;
  }
  const std::uint64_t audit_bytes =
      w.network.stats().topic("nr.audit").bytes_delivered - audit_bytes_before;
  const std::size_t static_entries = w.ledger.size();
  round.check(audits_issued == n_objects * kAuditChunksPerObject,
              "only " + std::to_string(audits_issued) + " challenges issued");

  // --- mutate: dyn objects, mutation batches each followed by an
  // aggregate audit. The dyn stores themselves are untimed preparation.
  std::vector<std::string> dyn_keys;
  for (std::size_t i = 0; i < kDynObjects; ++i) {
    dyn_keys.push_back(w.objects.front().key + "-dyn-" + std::to_string(i));
    w.dyn_client->store_dyn("dp", "", dyn_keys.back(), w.dyn_data[i],
                            kChunkBytes);
  }
  run_network(w.network);
  for (const std::string& key : dyn_keys) {
    round.check(w.dyn_client->object(key) != nullptr &&
                    w.dyn_client->object(key)->chain.head_version() == 1 &&
                    w.auditor->watch_dyn(*w.dyn_client, key),
                "dyn object " + key + " not stored and watched");
  }
  double mutate_s = 0.0;
  std::uint64_t mutations_acked = 0;
  std::uint64_t mutation_bytes = 0;
  for (std::size_t batch = 0; batch < kMutationBatches; ++batch) {
    std::vector<SimTime> done_at(kDynObjects, -1);
    std::vector<std::uint64_t> target(kDynObjects, 0);
    const SimTime batch_start = w.network.now();
    const std::uint64_t bytes_before = w.network.stats().bytes_delivered;
    timer = PhaseTimer{};
    for (std::size_t i = 0; i < kDynObjects; ++i) {
      const std::string& key = dyn_keys[i];
      const auto* object = w.dyn_client->object(key);
      const std::size_t draw = batch * kDynObjects + i;
      const std::uint64_t index =
          w.mutation_indices[draw] % object->chain.head_chunk_count();
      const common::Bytes& chunk = w.mutation_chunks[draw];
      target[i] = object->chain.head_version() + 1;
      const trace::Scope span("dyn.mutate", object->txn_id);
      bool issued = false;
      switch (kMix[(batch + i) % std::size(kMix)]) {
        case Mutation::kUpdate:
          issued = w.dyn_client->update(key, index, chunk);
          break;
        case Mutation::kAppend:
          issued = w.dyn_client->append_chunk(key, chunk);
          break;
        case Mutation::kErase:
          issued = w.dyn_client->erase(key, index);
          break;
      }
      round.check(issued, "mutation of " + key + " refused");
    }
    poll_completions(
        w.network, kDynObjects,
        [&](std::size_t i) {
          const auto* object = w.dyn_client->object(dyn_keys[i]);
          return !object->pending.has_value();
        },
        [&](std::size_t i, SimTime at) { done_at[i] = at; });
    run_network(w.network);
    mutation_bytes += w.network.stats().bytes_delivered - bytes_before;
    for (std::size_t i = 0; i < kDynObjects; ++i) {
      ++round.attempted;
      const auto* object = w.dyn_client->object(dyn_keys[i]);
      if (object->chain.head_version() != target[i] || object->rejected != 0 ||
          object->timeouts != 0) {
        ++round.failed;
        round.check(false, "mutation of " + dyn_keys[i] + " not acknowledged");
        continue;
      }
      ++mutations_acked;
      round.latencies.push_back(done_at[i] - batch_start);
      digest.bytes(object->chain.head_hash());
    }
    for (std::size_t i = 0; i < kDynObjects; ++i) {
      const std::string& txn = w.dyn_client->object(dyn_keys[i])->txn_id;
      const trace::Scope span("audit.challenge", txn);
      round.check(w.auditor->challenge_aggregate(txn, kAggregateChunks),
                  "aggregate challenge of " + dyn_keys[i] + " refused");
    }
    run_network(w.network);
    mutate_s += timer.stop();
  }
  round.run_wall_s = write_s + read_s + audit_s + mutate_s;
  const crypto::CounterSnapshot crypto_used = crypto_delta.take();
  const common::PayloadCounters payload_after = common::Payload::counters();
  trace::enable(false);

  // Every audit, chunk and aggregate, must be verified.
  std::uint64_t audits_verified = 0;
  for (std::size_t i = 0; i < w.ledger.size(); ++i) {
    const audit::AuditEntry& entry = w.ledger.entries()[i];
    ++round.attempted;
    digest.str(entry.txn_id);
    digest.u64(entry.chunk_index);
    digest.u64(static_cast<std::uint64_t>(entry.verdict));
    if (entry.verdict != audit::AuditVerdict::kVerified) {
      ++round.failed;
      round.check(false, "audit of " + entry.txn_id + " chunk " +
                             std::to_string(entry.chunk_index) + ": " +
                             entry.detail);
      continue;
    }
    ++audits_verified;
    round.latencies.push_back(entry.concluded_at - entry.challenged_at);
  }
  round.check(w.ledger.size() == audits_issued + kMutationBatches * kDynObjects,
              "ledger holds " + std::to_string(w.ledger.size()) + " entries");
  round.check(w.ledger.verify_chain(), "audit ledger chain broken");

  // Recovery: replaying each provider's WAL restores the evidence of every
  // acknowledged store, and every recovered signature verifies.
  struct Log {
    Machine* machine;
    const char* provider;
    std::vector<std::string> acknowledged;  ///< txn ids it must restore
  };
  Log logs[] = {{&w.machine_a, "pa", {}},
                {&w.machine_b, "pb", {}},
                {&w.machine_dyn, "dp", {}}};
  for (const StoredObject& object : w.objects) {
    logs[object.at_a ? 0 : 1].acknowledged.push_back(object.txn);
  }
  for (const std::string& key : dyn_keys) {
    logs[2].acknowledged.push_back(w.dyn_client->object(key)->txn_id);
  }
  persist::RecoveryOptions options;
  for (const pki::Identity& id : w.client_ids) {
    options.signer_keys.emplace(id.id(), id.public_key());
  }
  options.signer_keys.emplace("dc", w.dyn_client_id->public_key());
  double recover_s = 0.0;
  std::uint64_t device_bytes = 0, payload_bytes = 0, flushes = 0;
  for (const Log& log : logs) {
    const persist::Wal& wal = log.machine->wal;
    options.durable_lsn = wal.durable_lsn();
    options.last_lsn = wal.last_lsn();
    const persist::DurableImage image = persist::capture_durable(nullptr, wal);
    trace::enable(traced);
    const auto start = Clock::now();
    persist::RecoveredState state;
    {
      const trace::Scope span("persist.recover");
      state = persist::Recovery::replay(image, options);
    }
    recover_s += seconds_since(start);
    trace::enable(false);
    round.check(state.report.sound() && state.report.evidence_failed == 0 &&
                    state.report.evidence_unverifiable == 0,
                std::string("recovery of ") + log.provider + " is not sound");
    std::vector<std::string> recovered;
    for (const persist::EvidenceRecord& record : state.evidence) {
      recovered.push_back(record.txn_id);
    }
    std::sort(recovered.begin(), recovered.end());
    for (const std::string& txn : log.acknowledged) {
      round.check(std::binary_search(recovered.begin(), recovered.end(), txn),
                  std::string("recovered log of ") + log.provider +
                      " lacks the evidence of " + txn);
    }
    device_bytes += wal.device_bytes();
    payload_bytes += wal.payload_bytes();
    flushes += wal.device_flushes();
  }
  round.digest = common::to_hex(crypto::sha256(digest.data()));

  const double written = static_cast<double>(n_objects * kObjectBytes) / kMiB;
  const net::NetworkStats& stats = w.network.stats();
  round.completed = round.attempted - round.failed;
  round.ops = static_cast<double>(audits_verified + mutations_acked);
  round.op_wall_s = audit_s + mutate_s;
  round.mib = 2.0 * written;
  round.mib_wall_s = write_s + read_s;
  round.wire_bytes = stats.bytes_delivered;
  round.phase["phase.write_mib_per_s"] = written / write_s;
  round.phase["phase.read_mib_per_s"] = written / read_s;
  round.phase["phase.audit_per_s"] =
      static_cast<double>(static_entries) / audit_s;
  round.phase["phase.mutate_per_s"] =
      static_cast<double>(mutations_acked) / mutate_s;

  if (traced) {
    const SpanTotals spans = trace::totals();
    const double ops = std::max(static_cast<double>(round.completed), 1.0);
    std::uint64_t rejects = rejected_total(w.provider_a->stats()) +
                            rejected_total(w.provider_b->stats()) +
                            rejected_total(w.auditor->stats()) +
                            rejected_total(w.dyn_client->stats()) +
                            rejected_total(w.dyn_provider->stats());
    for (const auto& c : w.clients) rejects += rejected_total(c->stats());
    runtime_layer_metrics(w.network.engine().stats(), spans, ops, round);
    crypto_layer_metrics(crypto_used, ops, round);
    auto& m = round.layer;
    m["common.copy_bytes_per_user_byte"] =
        static_cast<double>(payload_after.copy_bytes -
                            payload_before.copy_bytes) /
        (round.mib * kMiB);
    m["net.msgs_per_op"] = static_cast<double>(stats.messages_delivered) / ops;
    m["net.audit_bytes_per_audit"] =
        static_cast<double>(audit_bytes) /
        std::max(static_cast<double>(static_entries), 1.0);
    m["nr.issue_us_per_op"] = span_mean_us(spans, "nr.issue");
    m["nr.rejected"] = static_cast<double>(rejects);
    m["audit.retries"] = static_cast<double>(w.auditor->counters().retries);
    m["audit.no_responses"] =
        static_cast<double>(w.auditor->counters().no_responses);
    m["dyn.wire_bytes_per_mutation"] =
        static_cast<double>(mutation_bytes) /
        std::max(static_cast<double>(mutations_acked), 1.0);
    m["dyn.receipts_resent"] =
        static_cast<double>(w.dyn_provider->receipts_resent());
    m["persist.append_us"] = span_mean_us(spans, "persist.append");
    m["persist.device_bytes_per_payload_byte"] =
        payload_bytes == 0 ? 0.0
                           : static_cast<double>(device_bytes) /
                                 static_cast<double>(payload_bytes);
    m["persist.flushes_per_op"] =
        static_cast<double>(flushes) /
        static_cast<double>(n_objects + mutations_acked + kDynObjects);
    m["persist.recover_ms"] = recover_s * 1e3;
  }
  return round;
}

}  // namespace perfbench
