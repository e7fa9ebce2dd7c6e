// Dynamic-data protocol end-to-end inside the simulated network: versioned
// store/mutate exchanges, idempotent retries, aggregated audits through
// AuditorActor/AuditScheduler, stale/rollback detection, and the TTP
// dispute walk over chains produced by a real run.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "audit/scheduler.h"
#include "crypto/drbg.h"
#include "dyn/client.h"
#include "dyn/dispute.h"
#include "dyn/provider.h"
#include "net/network.h"

namespace tpnr::dyn {
namespace {

using common::Bytes;

constexpr std::size_t kChunkSize = 64;

const pki::Identity& pooled(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{80808});
    for (const char* id : {"alice", "bob", "auditor"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

class DynProtocolTest : public ::testing::Test {
 protected:
  DynProtocolTest()
      : network_(std::uint64_t{909}),
        rng_(std::uint64_t{910}),
        alice_id_(pooled("alice")),
        bob_id_(pooled("bob")),
        auditor_id_(pooled("auditor")),
        alice_("alice", network_, alice_id_, rng_,
               crypto::Drbg(std::uint64_t{911}).bytes(32),
               DynClientOptions{.mutate_retries = 2}),
        bob_("bob", network_, bob_id_, rng_),
        auditor_("auditor", network_, auditor_id_, rng_, ledger_) {
    alice_.trust_peer("bob", bob_id_.public_key());
    bob_.trust_peer("alice", alice_id_.public_key());
    bob_.trust_peer("auditor", auditor_id_.public_key());
    auditor_.trust_peer("bob", bob_id_.public_key());
  }

  /// Stores `chunk_count` full chunks as `key` and completes the exchange.
  const DynClientActor::DynObject& stored(const std::string& key,
                                          std::size_t chunk_count) {
    crypto::Drbg data_rng(std::uint64_t{chunk_count});
    alice_.store_dyn("bob", "ttp", key, data_rng.bytes(chunk_count * kChunkSize),
                     kChunkSize);
    network_.run();
    const auto* obj = alice_.object(key);
    EXPECT_NE(obj, nullptr);
    return *obj;
  }

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity bob_id_;
  pki::Identity auditor_id_;
  audit::AuditLedger ledger_;
  DynClientActor alice_;
  DynProviderActor bob_;
  audit::AuditorActor auditor_;
};

TEST_F(DynProtocolTest, StoreEstablishesMatchingCountersignedChains) {
  const auto& obj = stored("doc", 8);
  EXPECT_EQ(obj.receipts, 1u);
  EXPECT_FALSE(obj.pending.has_value());
  ASSERT_EQ(obj.chain.head_version(), 1u);
  EXPECT_EQ(obj.chain.head_root(), obj.mirror.tree.root());

  const auto* state = bob_.object_state("doc");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->client, "alice");
  EXPECT_EQ(state->chain.head_hash(), obj.chain.head_hash());
  EXPECT_EQ(state->mirror.tree.root(), obj.mirror.tree.root());
  EXPECT_EQ(bob_.store().version_of("doc"), 1u);

  // Both chains carry both parties' verifiable signatures.
  EXPECT_EQ(walk_chain(obj.chain.records(), alice_id_.public_key(),
                       bob_id_.public_key())
                .status,
            ChainStatus::kValid);
}

TEST_F(DynProtocolTest, AllMutationOpsAdvanceBothMirrorsInLockstep) {
  stored("doc", 8);
  crypto::Drbg data_rng(std::uint64_t{42});

  ASSERT_TRUE(alice_.update("doc", 3, data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_TRUE(alice_.insert("doc", 0, data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_TRUE(alice_.append_chunk("doc", data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_TRUE(alice_.erase("doc", 5));
  network_.run();

  const auto* obj = alice_.object("doc");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->receipts, 5u);
  EXPECT_EQ(obj->rejected, 0u);
  EXPECT_EQ(obj->timeouts, 0u);
  EXPECT_EQ(obj->chain.head_version(), 5u);
  EXPECT_EQ(obj->mirror.chunks.size(), 9u);  // 8 +insert +append −erase

  const auto* state = bob_.object_state("doc");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->chain.head_hash(), obj->chain.head_hash());
  EXPECT_EQ(state->mirror.tree.root(), obj->mirror.tree.root());
  EXPECT_EQ(state->mirror.chunks, obj->mirror.chunks);
  EXPECT_EQ(state->tags, obj->tags);
  EXPECT_EQ(bob_.store().version_of("doc"), 5u);

  // The store's bytes re-slice to exactly the client's mirror.
  const auto record = bob_.store().get("doc");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(split_chunks(record->data, kChunkSize), obj->mirror.chunks);
}

TEST_F(DynProtocolTest, RejectedMutationsRevertTheOptimisticMirror) {
  const Bytes root_before = stored("doc", 8).mirror.tree.root();
  crypto::Drbg data_rng(std::uint64_t{43});

  // Out-of-range and stride-breaking ops never leave the client.
  EXPECT_FALSE(alice_.update("doc", 8, data_rng.bytes(kChunkSize)));
  EXPECT_FALSE(alice_.insert("doc", 2, data_rng.bytes(kChunkSize / 2)));
  EXPECT_FALSE(alice_.update("no-such", 0, data_rng.bytes(kChunkSize)));

  // One mutation in flight at a time: the second call is refused locally.
  ASSERT_TRUE(alice_.update("doc", 1, data_rng.bytes(kChunkSize)));
  EXPECT_FALSE(alice_.update("doc", 2, data_rng.bytes(kChunkSize)));
  network_.run();

  const auto* obj = alice_.object("doc");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->chain.head_version(), 2u);
  EXPECT_NE(obj->mirror.tree.root(), root_before);
}

TEST_F(DynProtocolTest, WithheldReceiptsAreRetriedIdempotently) {
  stored("doc", 8);
  bob_.set_behavior({.send_receipts = false});
  crypto::Drbg data_rng(std::uint64_t{44});

  // The receipt comes back only after the provider turns fair again, so the
  // client's retries hit the already-committed version: the provider must
  // re-issue the receipt WITHOUT re-applying.
  network_.schedule(20 * common::kSecond,
                    [this] { bob_.set_behavior({.send_receipts = true}); });
  ASSERT_TRUE(alice_.update("doc", 2, data_rng.bytes(kChunkSize)));
  network_.run();

  const auto* obj = alice_.object("doc");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->receipts, 2u);  // the store's plus exactly one for the update
  EXPECT_EQ(obj->timeouts, 0u);
  EXPECT_EQ(obj->chain.head_version(), 2u);
  EXPECT_GE(bob_.receipts_resent(), 1u);

  const auto* state = bob_.object_state("doc");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->chain.head_version(), 2u);  // applied exactly once
  EXPECT_EQ(state->mirror.tree.root(), obj->mirror.tree.root());
}

TEST_F(DynProtocolTest, ExhaustedRetriesRevertToTheChainHead) {
  const auto& obj = stored("doc", 8);
  const Bytes root_before = obj.mirror.tree.root();
  const std::vector<Bytes> chunks_before = obj.mirror.chunks;
  bob_.set_behavior({.send_receipts = false});
  crypto::Drbg data_rng(std::uint64_t{45});

  ASSERT_TRUE(alice_.insert("doc", 3, data_rng.bytes(kChunkSize)));
  EXPECT_NE(alice_.object("doc")->mirror.tree.root(),
            root_before);  // optimistic
  network_.run();

  // All retries timed out: the mirror is back at the countersigned head.
  EXPECT_EQ(obj.timeouts, 1u);
  EXPECT_EQ(obj.receipts, 1u);  // just the store
  EXPECT_FALSE(obj.pending.has_value());
  EXPECT_EQ(obj.chain.head_version(), 1u);
  EXPECT_EQ(obj.mirror.tree.root(), root_before);
  EXPECT_EQ(obj.mirror.tree.root(), obj.chain.head_root());
  EXPECT_EQ(obj.mirror.chunks, chunks_before);

  // The provider DID apply it (receipts were only withheld) — the divergence
  // is visible, not silent: its chain is one version ahead.
  EXPECT_EQ(bob_.object_state("doc")->chain.head_version(), 2u);
}

TEST_F(DynProtocolTest, AggregatedAuditVerifiesLargeObjectEndToEnd) {
  stored("big", 80);
  ASSERT_TRUE(auditor_.watch_dyn(alice_, "big"));
  ASSERT_EQ(auditor_.dyn_targets().size(), 1u);
  const std::string txn = auditor_.dyn_targets().begin()->first;

  // Scheduler drives the aggregate mode: one compact challenge per round.
  audit::AuditScheduler scheduler(network_, auditor_,
                                  {.period = common::kSecond,
                                   .sampling_rate = 0.10,
                                   .max_outstanding = 8,
                                   .seed = 3,
                                   .max_rounds = 4,
                                   .mode = audit::ChallengeMode::kAggregate,
                                   .aggregate_count = 64});
  scheduler.start();
  network_.run();

  EXPECT_EQ(auditor_.counters().challenges, 4u);
  EXPECT_EQ(auditor_.counters().verified, 4u);
  EXPECT_EQ(auditor_.counters().flagged, 0u);
  EXPECT_EQ(auditor_.counters().no_responses, 0u);
  EXPECT_EQ(auditor_.outstanding(), 0u);
  ASSERT_EQ(ledger_.size(), 4u);
  EXPECT_TRUE(ledger_.verify_chain());
  for (const audit::AuditEntry& entry : ledger_.entries()) {
    EXPECT_EQ(entry.verdict, audit::AuditVerdict::kVerified);
    EXPECT_EQ(entry.object_key, "big");
    EXPECT_EQ(entry.chunk_index, audit::kAggregateIndex);
  }

  // Audits stay valid as the object mutates — the middle insert forces a
  // history-dependent tree shape, so the provider must answer over its
  // mirror's shape, not a canonical rebuild of the store bytes.
  crypto::Drbg data_rng(std::uint64_t{46});
  ASSERT_TRUE(alice_.update("big", 17, data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_TRUE(alice_.insert("big", 40, data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_TRUE(alice_.erase("big", 79));
  network_.run();
  ASSERT_TRUE(auditor_.challenge_aggregate(txn, 64));
  network_.run();
  EXPECT_EQ(auditor_.counters().verified, 5u);
  EXPECT_EQ(auditor_.counters().flagged, 0u);
}

TEST_F(DynProtocolTest, TamperedStoreFailsTheAggregateAlgebra) {
  const auto& obj = stored("doc", 80);
  ASSERT_TRUE(auditor_.watch_dyn(alice_, "doc"));
  const std::string txn = obj.txn_id;

  auto record = bob_.store().get("doc");
  ASSERT_TRUE(record.has_value());
  Bytes tampered(record->data.begin(), record->data.end());
  tampered[5 * kChunkSize + 1] ^= 0x01;
  ASSERT_TRUE(bob_.store().tamper("doc", tampered));

  ASSERT_TRUE(auditor_.challenge_aggregate(txn, 64));
  network_.run();
  EXPECT_EQ(auditor_.counters().flagged, 1u);
  ASSERT_EQ(ledger_.size(), 1u);
  EXPECT_EQ(ledger_.entries().back().verdict, audit::AuditVerdict::kMismatch);
}

TEST_F(DynProtocolTest, DroppedMutationSurfacesAsStaleVersion) {
  const auto& obj = stored("doc", 80);
  ASSERT_TRUE(auditor_.watch_dyn(alice_, "doc"));
  crypto::Drbg data_rng(std::uint64_t{47});

  // The store acknowledges the next mutation but never applies it: the
  // provider countersigns v2 while its durable state stays at v1.
  bob_.store().arm_stale_mutations(1);
  ASSERT_TRUE(alice_.update("doc", 9, data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_EQ(obj.chain.head_version(), 2u);
  ASSERT_EQ(bob_.store().version_of("doc"), 1u);

  ASSERT_TRUE(auditor_.challenge_aggregate(obj.txn_id, 64));
  network_.run();
  ASSERT_EQ(ledger_.size(), 1u);
  EXPECT_EQ(ledger_.entries().back().verdict,
            audit::AuditVerdict::kStaleVersion);
  EXPECT_EQ(auditor_.counters().flagged, 1u);
  // The injection is on the store's fault log with the audit to match.
  const auto faults = bob_.store().fault_log_for("doc");
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].kind, storage::FaultKind::kStaleVersion);
}

TEST_F(DynProtocolTest, RollbackAttackSurfacesAsRollbackVerdict) {
  const auto& obj = stored("doc", 80);
  ASSERT_TRUE(auditor_.watch_dyn(alice_, "doc"));
  crypto::Drbg data_rng(std::uint64_t{48});

  ASSERT_TRUE(alice_.update("doc", 30, data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_EQ(obj.chain.head_version(), 2u);

  // Silent revert: v1's bytes come back under a version claiming currency.
  ASSERT_TRUE(bob_.store().rollback_attack("doc"));
  ASSERT_EQ(bob_.store().version_of("doc"), 2u);

  ASSERT_TRUE(auditor_.challenge_aggregate(obj.txn_id, 64));
  network_.run();
  ASSERT_EQ(ledger_.size(), 1u);
  EXPECT_EQ(ledger_.entries().back().verdict, audit::AuditVerdict::kRollback);
  const auto faults = bob_.store().fault_log_for("doc");
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].kind, storage::FaultKind::kRollbackAttack);
}

TEST_F(DynProtocolTest, TtpWalksTheRealChainsToRuleDisputes) {
  const auto& obj = stored("doc", 8);
  crypto::Drbg data_rng(std::uint64_t{49});
  ASSERT_TRUE(alice_.update("doc", 1, data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_TRUE(alice_.append_chunk("doc", data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_EQ(obj.chain.head_version(), 3u);

  DynDisputeCase dispute;
  dispute.object_key = "doc";
  dispute.client_key = alice_id_.public_key();
  dispute.provider_key = bob_id_.public_key();
  dispute.chain = obj.chain.records();

  // Freshness dispute: the provider rolls back, then serves what its store
  // actually holds — the TTP classifies it from the chain alone.
  ASSERT_TRUE(bob_.store().rollback_attack("doc"));
  const auto record = bob_.store().get("doc");
  ASSERT_TRUE(record.has_value());
  const DynMerkleTree served = DynMerkleTree::build(
      chunk_views(split_chunks(record->data, kChunkSize)));
  dispute.served_version = record->version;  // still claims v3
  dispute.served_root = served.root();       // but these are v2's bytes
  const DynRuling ruling = resolve_dyn_dispute(dispute);
  EXPECT_EQ(ruling.kind, DynRulingKind::kProviderRollback);
  EXPECT_EQ(ruling.walk.status, ChainStatus::kValid);

  // Repudiation dispute over the same run: the client denies v3 but its
  // signature is on the provider-presented record — bound.
  dispute.served_version.reset();
  dispute.served_root.reset();
  dispute.chain = bob_.object_state("doc")->chain.records();
  dispute.repudiated_version = 3;
  EXPECT_EQ(resolve_dyn_dispute(dispute).kind, DynRulingKind::kClientBound);
}

}  // namespace
}  // namespace tpnr::dyn
