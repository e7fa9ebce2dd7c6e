// The fork-consistency protocol end-to-end on the simulated network:
// multi-client store/open/mutate through one provider-signed global order,
// retry and stale-catch-up flows, the equivocation attack with gossip
// detection, the kForkReport path into the auditor's ledger, and the
// storage layer's per-client divergent serving.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "common/serial.h"
#include "consistency/arbitration.h"
#include "consistency/client.h"
#include "consistency/provider.h"
#include "crypto/drbg.h"
#include "net/network.h"
#include "nr/evidence.h"

namespace tpnr::consistency {
namespace {

using common::Bytes;

constexpr std::size_t kChunkSize = 64;

const pki::Identity& pooled(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{73737});
    for (const char* id : {"alice", "carol", "bob", "auditor", "dave"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

/// Sends hand-built kConsOpRequests — ops a ConsClientActor would refuse
/// to build — and keeps the reasons of the provider's kConsOpError replies.
class RawSubmitter final : public nr::NrActor {
 public:
  using NrActor::NrActor;

  void submit(const std::string& provider, const dyn::SignedVersionRecord& rec,
              BytesView chunk, std::size_t chunk_size,
              const Bytes& observed_head) {
    common::BinaryWriter payload;
    payload.str(rec.record.object_key);
    payload.u8(static_cast<std::uint8_t>(rec.record.op));
    payload.u64(rec.record.chunk_index);
    payload.bytes(chunk);
    payload.u32(static_cast<std::uint32_t>(chunk_size));
    payload.bytes(rec.record.encode());
    payload.bytes(rec.client_sig);
    payload.bytes(observed_head);
    nr::NrMessage message;
    message.header =
        next_header(nr::MsgType::kConsOpRequest, provider, "ttp", "raw",
                    rec.record.new_root, network_->now() + common::kSecond);
    message.evidence = nr::make_evidence(*identity_, *peer_key(provider),
                                         message.header, *rng_);
    message.payload = payload.take();
    send(provider, std::move(message));
  }

  std::vector<std::string> errors;

 protected:
  void on_message(const nr::NrMessage& message) override {
    if (message.header.flag != nr::MsgType::kConsOpError) return;
    common::BinaryReader r(message.payload);
    (void)r.str();  // object key
    (void)r.u64();  // version
    errors.push_back(r.str());
  }
};

class ConsProtocolTest : public ::testing::Test {
 protected:
  ConsProtocolTest()
      : network_(std::uint64_t{930}),
        rng_(std::uint64_t{931}),
        alice_id_(pooled("alice")),
        carol_id_(pooled("carol")),
        bob_id_(pooled("bob")),
        auditor_id_(pooled("auditor")),
        alice_("alice", network_, alice_id_, rng_),
        carol_("carol", network_, carol_id_, rng_),
        bob_("bob", network_, bob_id_, rng_),
        auditor_("auditor", network_, auditor_id_, rng_, ledger_) {
    alice_.trust_peer("bob", bob_id_.public_key());
    alice_.trust_peer("carol", carol_id_.public_key());
    alice_.trust_peer("auditor", auditor_id_.public_key());
    carol_.trust_peer("bob", bob_id_.public_key());
    carol_.trust_peer("alice", alice_id_.public_key());
    carol_.trust_peer("auditor", auditor_id_.public_key());
    bob_.trust_peer("alice", alice_id_.public_key());
    bob_.trust_peer("carol", carol_id_.public_key());
    auditor_.trust_peer("alice", alice_id_.public_key());
    auditor_.trust_peer("carol", carol_id_.public_key());
    auditor_.trust_peer("bob", bob_id_.public_key());
  }

  /// Alice creates `key`, carol joins it; both end synchronized at v1.
  void shared_object(const std::string& key, std::size_t chunk_count) {
    crypto::Drbg data_rng(std::uint64_t{chunk_count + 7});
    alice_.store_shared("bob", "ttp", key,
                        data_rng.bytes(chunk_count * kChunkSize), kChunkSize);
    network_.run();
    ASSERT_TRUE(carol_.open_shared("bob", "ttp", key));
    network_.run();
    ASSERT_NE(alice_.object(key), nullptr);
    ASSERT_NE(carol_.object(key), nullptr);
    ASSERT_TRUE(carol_.object(key)->opened);
  }

  /// Forks `key` (alice on branch 0, carol on branch 1) and commits one
  /// divergent update on each branch.
  void forked_object(const std::string& key) {
    shared_object(key, 4);
    ASSERT_TRUE(bob_.fork_object(key, {{"alice", 0}, {"carol", 1}}));
    crypto::Drbg data_rng(std::uint64_t{555});
    ASSERT_TRUE(alice_.update(key, 0, data_rng.bytes(kChunkSize)));
    network_.run();
    ASSERT_TRUE(carol_.update(key, 0, data_rng.bytes(kChunkSize)));
    network_.run();
  }

  net::Network network_;
  crypto::Drbg rng_;
  pki::Identity alice_id_;
  pki::Identity carol_id_;
  pki::Identity bob_id_;
  pki::Identity auditor_id_;
  audit::AuditLedger ledger_;
  ConsClientActor alice_;
  ConsClientActor carol_;
  ConsProviderActor bob_;
  audit::AuditorActor auditor_;
};

TEST_F(ConsProtocolTest, StoreSharedCommitsGlobalPositionOne) {
  crypto::Drbg data_rng(std::uint64_t{11});
  alice_.store_shared("bob", "ttp", "doc", data_rng.bytes(4 * kChunkSize),
                      kChunkSize);
  network_.run();

  const auto* obj = alice_.object("doc");
  ASSERT_NE(obj, nullptr);
  EXPECT_TRUE(obj->opened);
  EXPECT_EQ(obj->receipts, 1u);
  EXPECT_FALSE(obj->pending.has_value());
  EXPECT_EQ(obj->chain.head_version(), 1u);
  ASSERT_TRUE(obj->checker.has_value());
  EXPECT_EQ(obj->checker->view().head_seq(), 1u);
  EXPECT_EQ(obj->checker->view().at(1)->view.client, "alice");
  EXPECT_EQ(obj->chain.head_root(), obj->mirror.tree.root());

  const auto* state = bob_.object_state("doc");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->creator, "alice");
  ASSERT_EQ(state->branches.size(), 1u);
  EXPECT_EQ(state->branches[0].views.head_hash(),
            obj->checker->view().head_hash());
  EXPECT_EQ(bob_.store().version_of("doc"), 1u);
  EXPECT_FALSE(bob_.store().equivocation_armed("doc"));
}

TEST_F(ConsProtocolTest, OpenSharedReplaysTheLogFromGenesis) {
  shared_object("doc", 4);
  const auto* alice_obj = alice_.object("doc");
  const auto* carol_obj = carol_.object("doc");
  EXPECT_EQ(carol_obj->chain.head_version(), alice_obj->chain.head_version());
  EXPECT_EQ(carol_obj->mirror.tree.root(), alice_obj->mirror.tree.root());
  EXPECT_EQ(carol_obj->mirror.chunks, alice_obj->mirror.chunks);
  EXPECT_EQ(carol_obj->checker->view().head_hash(),
            alice_obj->checker->view().head_hash());
  EXPECT_EQ(carol_obj->chunk_size, kChunkSize);
}

TEST_F(ConsProtocolTest, InterleavedClientsShareOneGlobalOrder) {
  shared_object("doc", 4);
  crypto::Drbg data_rng(std::uint64_t{22});

  ASSERT_TRUE(alice_.update("doc", 1, data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_TRUE(carol_.append_chunk("doc", data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_TRUE(alice_.insert("doc", 0, data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_TRUE(carol_.erase("doc", 2));
  network_.run();

  const auto* alice_obj = alice_.object("doc");
  const auto* carol_obj = carol_.object("doc");
  EXPECT_EQ(alice_obj->chain.head_version(), 5u);
  EXPECT_EQ(carol_obj->chain.head_version(), 5u);
  EXPECT_EQ(alice_obj->mirror.tree.root(), carol_obj->mirror.tree.root());
  EXPECT_EQ(alice_obj->mirror.chunks, carol_obj->mirror.chunks);
  EXPECT_EQ(alice_obj->receipts, 3u);  // store + two mutations
  EXPECT_EQ(carol_obj->receipts, 2u);
  EXPECT_EQ(alice_obj->rejected, 0u);
  EXPECT_EQ(carol_obj->rejected, 0u);

  // One global order: both checkers witnessed the identical commitment
  // chain, alternating submitters.
  const auto& commits = alice_obj->checker->view().commitments();
  ASSERT_EQ(commits.size(), 5u);
  EXPECT_EQ(commits[1].view.client, "alice");
  EXPECT_EQ(commits[2].view.client, "carol");
  EXPECT_EQ(commits[3].view.client, "alice");
  EXPECT_EQ(commits[4].view.client, "carol");
  EXPECT_EQ(alice_obj->checker->view().head_hash(),
            carol_obj->checker->view().head_hash());
  EXPECT_EQ(alice_obj->checker->suspicions(), 0u);
  EXPECT_FALSE(alice_obj->checker->forked());
}

TEST_F(ConsProtocolTest, DroppedCommitIsRetriedAndReceiptResent) {
  shared_object("doc", 4);

  // Eat the first bob -> alice envelope after the fixture settles: the
  // commit for alice's next update. Her receipt timer must retransmit and
  // bob must re-issue the receipt without re-applying.
  int drops = 0;
  network_.set_adversary("bob", "alice", [&](const net::Envelope&) {
    net::AdversaryAction action;
    if (drops == 0) {
      ++drops;
      action.kind = net::AdversaryAction::Kind::kDrop;
    }
    return action;
  });

  crypto::Drbg data_rng(std::uint64_t{33});
  ASSERT_TRUE(alice_.update("doc", 0, data_rng.bytes(kChunkSize)));
  network_.run();

  const auto* obj = alice_.object("doc");
  EXPECT_EQ(obj->receipts, 2u);  // store + the retried update
  EXPECT_FALSE(obj->pending.has_value());
  EXPECT_EQ(obj->chain.head_version(), 2u);
  EXPECT_EQ(bob_.receipts_resent(), 1u);
  EXPECT_EQ(obj->timeouts, 0u);
  const auto* state = bob_.object_state("doc");
  EXPECT_EQ(state->branches[0].chain.head_version(), 2u);  // applied once
}

TEST_F(ConsProtocolTest, StaleSubmissionCatchesUpAndResubmits) {
  shared_object("doc", 4);

  // Carol misses alice's commit entirely, then submits her own op against
  // her stale view. The provider bounces it with the missing suffix; carol
  // absorbs it, rebuilds the record against the caught-up head and
  // resubmits — no client-visible failure.
  network_.set_adversary("bob", "carol", [](const net::Envelope&) {
    net::AdversaryAction action;
    action.kind = net::AdversaryAction::Kind::kDrop;
    return action;
  });
  crypto::Drbg data_rng(std::uint64_t{44});
  ASSERT_TRUE(alice_.update("doc", 0, data_rng.bytes(kChunkSize)));
  network_.run();
  network_.clear_adversary("bob", "carol");

  EXPECT_EQ(carol_.object("doc")->chain.head_version(), 1u);  // missed it
  ASSERT_TRUE(carol_.update("doc", 1, data_rng.bytes(kChunkSize)));
  network_.run();

  const auto* carol_obj = carol_.object("doc");
  EXPECT_EQ(carol_obj->stale_resubmits, 1u);
  EXPECT_EQ(carol_obj->rejected, 0u);
  EXPECT_EQ(carol_obj->receipts, 1u);
  EXPECT_EQ(carol_obj->chain.head_version(), 3u);
  EXPECT_EQ(carol_obj->mirror.tree.root(),
            alice_.object("doc")->mirror.tree.root());
  EXPECT_GE(bob_.ops_rejected(), 1u);  // the stale bounce
  EXPECT_FALSE(carol_obj->checker->forked());  // lag is never a fork
}

TEST_F(ConsProtocolTest, AppendOffTheLeafCountIsRejected) {
  shared_object("doc", 4);
  pki::Identity dave_id(pooled("dave"));
  RawSubmitter dave("dave", network_, dave_id, rng_);
  dave.trust_peer("bob", bob_id_.public_key());
  bob_.trust_peer("dave", dave_id.public_key());

  // A client-signed kAppend at index count-1. It is in range for an insert
  // and claims exactly the insert's root, but an append must land at the
  // leaf count — the chunk-op rule the dyn provider already enforced.
  const auto* obj = alice_.object("doc");
  const std::uint64_t count = obj->mirror.tree.leaf_count();
  const Bytes chunk = crypto::Drbg(std::uint64_t{66}).bytes(kChunkSize);
  dyn::SignedVersionRecord rec;
  rec.record = obj->chain.next_record(
      "doc", dyn::MutateOp::kAppend, count - 1,
      obj->mirror.tree_after(dyn::MutateOp::kInsert, count - 1, chunk));
  rec.client_sig = dave_id.sign(rec.record.encode());
  dave.submit("bob", rec, chunk, kChunkSize,
              obj->checker->view().head_hash());
  network_.run();

  ASSERT_EQ(dave.errors.size(), 1u);
  EXPECT_EQ(dave.errors[0],
            dyn::chunk_op_fault_name(dyn::ChunkOpFault::kIndex));
  EXPECT_EQ(bob_.object_state("doc")->branches[0].chain.head_version(), 1u);
  EXPECT_EQ(alice_.object("doc")->chain.head_version(), 1u);
}

TEST_F(ConsProtocolTest, WithheldCommitsTimeOutWithoutAccusation) {
  shared_object("doc", 4);
  bob_.set_behavior(ConsProviderBehavior{.send_commits = false});

  crypto::Drbg data_rng(std::uint64_t{55});
  ASSERT_TRUE(alice_.update("doc", 0, data_rng.bytes(kChunkSize)));
  network_.run();

  const auto* obj = alice_.object("doc");
  EXPECT_EQ(obj->timeouts, 1u);
  EXPECT_FALSE(obj->pending.has_value());  // dropped after retries
  EXPECT_EQ(obj->chain.head_version(), 1u);
  // Silence is suspicious but never evidence: no fork, no report.
  EXPECT_FALSE(obj->checker->forked());
  EXPECT_EQ(alice_.forks_detected(), 0u);
}

TEST_F(ConsProtocolTest, GossipDetectsForkAndReportsToArbiter) {
  forked_object("doc");

  // Each victim's branch is internally perfect: no fork visible yet.
  EXPECT_EQ(alice_.forks_detected(), 0u);
  EXPECT_EQ(carol_.forks_detected(), 0u);

  GossipOptions gossip;
  gossip.rounds = 4;
  gossip.arbiter = "auditor";
  alice_.add_gossip_peer("carol");
  carol_.add_gossip_peer("alice");
  alice_.enable_gossip(gossip);
  carol_.enable_gossip(gossip);
  network_.run();

  // One round of comparing notes convicts: both clients latch a proof.
  EXPECT_GE(alice_.forks_detected() + carol_.forks_detected(), 1u);
  const EquivocationProof* proof = alice_.fork_proof("doc");
  if (proof == nullptr) proof = carol_.fork_proof("doc");
  ASSERT_NE(proof, nullptr);
  std::string why;
  EXPECT_TRUE(proof->valid(bob_id_.public_key(), &why)) << why;

  // The kForkReport reached the auditor and convicted in the ledger.
  EXPECT_GE(auditor_.counters().forks_detected, 1u);
  EXPECT_EQ(auditor_.counters().fork_reports_rejected, 0u);
  bool ledger_has_fork = false;
  for (const auto& entry : ledger_.entries()) {
    if (entry.verdict == audit::AuditVerdict::kForkDetected &&
        entry.object_key == "doc" && entry.provider == "bob") {
      ledger_has_fork = true;
    }
  }
  EXPECT_TRUE(ledger_has_fork);
  EXPECT_TRUE(ledger_.verify_chain());

  // The same proof convicts at arbitration without either client's
  // testimony.
  ForkDisputeCase dispute;
  dispute.object_key = "doc";
  dispute.provider_key = bob_id_.public_key();
  dispute.proof = *proof;
  EXPECT_EQ(resolve_fork_dispute(dispute).kind,
            ForkRulingKind::kProviderConvicted);
}

TEST_F(ConsProtocolTest, ArbitrationFromWitnessedViewsAlsoConvicts) {
  forked_object("doc");

  // Even with no latched proof, the two witnessed views handed to the TTP
  // synthesize one (the multi-party dispute path).
  ForkDisputeCase dispute;
  dispute.object_key = "doc";
  dispute.provider_key = bob_id_.public_key();
  dispute.accuser_view = alice_.object("doc")->checker->view().commitments();
  dispute.counter_view = carol_.object("doc")->checker->view().commitments();

  const ForkRuling ruling = resolve_fork_dispute(dispute);
  EXPECT_EQ(ruling.kind, ForkRulingKind::kProviderConvicted);
  ASSERT_TRUE(ruling.proof.has_value());
  EXPECT_EQ(ruling.proof->a.view.global_seq, 2u);  // first divergence

  // Accuser view alone (no counter-view): escalates, never convicts.
  dispute.counter_view.clear();
  EXPECT_EQ(resolve_fork_dispute(dispute).kind, ForkRulingKind::kEscalate);
}

TEST_F(ConsProtocolTest, EquivocationArmsDivergentStoreServing) {
  forked_object("doc");

  ASSERT_TRUE(bob_.forked("doc"));
  ASSERT_TRUE(bob_.store().equivocation_armed("doc"));

  auto alice_view = bob_.store().get_as("doc", "alice");
  auto carol_view = bob_.store().get_as("doc", "carol");
  ASSERT_TRUE(alice_view.has_value());
  ASSERT_TRUE(carol_view.has_value());
  EXPECT_EQ(alice_view->version, 2u);
  EXPECT_EQ(carol_view->version, 2u);
  EXPECT_FALSE(alice_view->data == carol_view->data)
      << "divergent branches must serve different bytes";

  // The divergence is in the per-key fault log as kEquivocation events.
  bool logged = false;
  for (const auto& event : bob_.store().fault_log_for("doc")) {
    logged = logged || event.kind == storage::FaultKind::kEquivocation;
  }
  EXPECT_TRUE(logged);
}

TEST_F(ConsProtocolTest, HonestRunWithGossipNeverAccuses) {
  shared_object("doc", 4);
  GossipOptions gossip;
  gossip.rounds = 3;
  gossip.arbiter = "auditor";
  alice_.add_gossip_peer("carol");
  carol_.add_gossip_peer("alice");
  alice_.enable_gossip(gossip);
  carol_.enable_gossip(gossip);

  crypto::Drbg data_rng(std::uint64_t{66});
  ASSERT_TRUE(alice_.update("doc", 0, data_rng.bytes(kChunkSize)));
  network_.run();
  ASSERT_TRUE(carol_.update("doc", 1, data_rng.bytes(kChunkSize)));
  network_.run();
  alice_.gossip_now();
  carol_.gossip_now();
  network_.run();

  EXPECT_EQ(alice_.forks_detected(), 0u);
  EXPECT_EQ(carol_.forks_detected(), 0u);
  EXPECT_FALSE(alice_.object("doc")->checker->forked());
  EXPECT_FALSE(carol_.object("doc")->checker->forked());
  EXPECT_EQ(auditor_.counters().forks_detected, 0u);
  EXPECT_EQ(ledger_.size(), 0u);
  EXPECT_GT(alice_.gossip_rounds(), 0u);
}

TEST_F(ConsProtocolTest, MalformedForkReportIsRejectedNotRecorded) {
  forked_object("doc");
  // A proof naming the wrong object convicts nobody.
  ForkDisputeCase dispute;
  const auto* alice_obj = alice_.object("doc");
  ASSERT_NE(alice_obj, nullptr);

  EquivocationProof bogus;
  bogus.object_key = "doc";
  bogus.a = *alice_obj->checker->view().at(1);
  bogus.b = *alice_obj->checker->view().at(1);  // identical halves
  EXPECT_FALSE(auditor_.report_fork("bob", "txn", "doc", bogus, "alice"));
  EXPECT_EQ(auditor_.counters().forks_detected, 0u);
  EXPECT_EQ(auditor_.counters().fork_reports_rejected, 1u);
  EXPECT_EQ(ledger_.size(), 0u);

  // An unknown provider key can never convict either.
  EXPECT_FALSE(auditor_.report_fork("mallory", "txn", "doc", bogus, "alice"));
  EXPECT_EQ(auditor_.counters().fork_reports_rejected, 2u);
}

}  // namespace
}  // namespace tpnr::consistency
