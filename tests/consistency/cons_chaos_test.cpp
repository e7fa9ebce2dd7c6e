// Chaos property tests for fork consistency, over a loss × duplication ×
// reorder × partition matrix of seeded trials:
//
//   * fork    => some honest client eventually holds a verifiable
//                EquivocationProof — even when the provider forever
//                partitions one victim group (the out-of-band gossip is
//                what closes that channel);
//   * no fork => ZERO accusations, no matter how badly the network
//                mangles delivery (the no-false-accusation property).
//
// Trials ride ReliableChannels exactly like production traffic, and every
// trial asserts the network's conservation invariant and bit-reproducible
// outcomes for a fixed seed.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "consistency/client.h"
#include "consistency/provider.h"
#include "crypto/drbg.h"
#include "net/network.h"
#include "net/reliable.h"

namespace tpnr::consistency {
namespace {

using common::Bytes;
using common::kMillisecond;
using common::kSecond;

constexpr std::size_t kChunkSize = 64;

const pki::Identity& pooled(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{74747});
    for (const char* id : {"alice", "carol", "bob"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

struct ForkTrialOutcome {
  bool carol_opened = false;
  std::uint64_t accusations = 0;  ///< forks_detected across both clients
  bool proof_valid = false;
  std::uint64_t alice_head = 0;
  std::uint64_t carol_head = 0;
  bool mirrors_equal = false;  ///< only meaningful for honest trials
  Bytes fingerprint;           ///< proof bytes (forked) / head hashes
};

/// One full trial. The low bits of `seed` pick the chaos dimensions, so 8
/// consecutive seeds cover the whole loss × dup × reorder matrix; `forked`
/// additionally cuts provider -> carol forever after the fork (the
/// "provider partitions the victims" scenario).
ForkTrialOutcome run_fork_trial(std::uint64_t seed, bool forked) {
  net::Network network(seed);
  crypto::Drbg rng(seed ^ 0x5eedf00dULL);
  pki::Identity alice_id = pooled("alice");
  pki::Identity carol_id = pooled("carol");
  pki::Identity bob_id = pooled("bob");
  ConsClientActor alice("alice", network, alice_id, rng);
  ConsClientActor carol("carol", network, carol_id, rng);
  ConsProviderActor bob("bob", network, bob_id, rng);
  alice.trust_peer("bob", bob_id.public_key());
  alice.trust_peer("carol", carol_id.public_key());
  carol.trust_peer("bob", bob_id.public_key());
  carol.trust_peer("alice", alice_id.public_key());
  bob.trust_peer("alice", alice_id.public_key());
  bob.trust_peer("carol", carol_id.public_key());
  alice.use_reliable(seed + 1);
  carol.use_reliable(seed + 2);
  bob.use_reliable(seed + 3);

  net::LinkConfig chaos;
  chaos.latency = 5 * kMillisecond;
  chaos.jitter = 10 * kMillisecond;
  if (seed & 1) chaos.loss_probability = 0.15;
  if (seed & 2) chaos.duplicate_probability = 0.1;
  if (seed & 4) {
    chaos.reorder_probability = 0.2;
    chaos.reorder_window = 50 * kMillisecond;
  }
  network.set_default_link(chaos);

  crypto::Drbg data_rng(seed * 2654435761ULL + 99);
  alice.store_shared("bob", "ttp", "obj", data_rng.bytes(4 * kChunkSize),
                     kChunkSize);
  network.run();
  carol.open_shared("bob", "ttp", "obj");
  network.run();

  alice.update("obj", 0, data_rng.bytes(kChunkSize));
  network.run();
  carol.update("obj", 1, data_rng.bytes(kChunkSize));
  network.run();

  if (forked) {
    bob.fork_object("obj", {{"alice", 0}, {"carol", 1}});
    alice.update("obj", 2, data_rng.bytes(kChunkSize));
    network.run();
    carol.update("obj", 2, data_rng.bytes(kChunkSize));
    network.run();
    // The provider now partitions its victim forever: carol can never
    // learn anything from bob again. Only gossip can save her.
    network.partition("bob", "carol", network.now(),
                      network.now() + 3600 * kSecond);
    alice.update("obj", 3, data_rng.bytes(kChunkSize));
    network.run();
  }

  GossipOptions gossip;
  gossip.period = 2 * kSecond;
  gossip.rounds = 6;
  alice.add_gossip_peer("carol");
  carol.add_gossip_peer("alice");
  alice.enable_gossip(gossip);
  carol.enable_gossip(gossip);
  network.run();

  ForkTrialOutcome outcome;
  const auto* alice_obj = alice.object("obj");
  const auto* carol_obj = carol.object("obj");
  EXPECT_NE(alice_obj, nullptr) << "seed " << seed;
  EXPECT_NE(carol_obj, nullptr) << "seed " << seed;
  if (alice_obj == nullptr || carol_obj == nullptr) return outcome;
  outcome.carol_opened = carol_obj->opened;
  outcome.accusations = alice.forks_detected() + carol.forks_detected();
  outcome.alice_head = alice_obj->chain.head_version();
  outcome.carol_head = carol_obj->chain.head_version();
  outcome.mirrors_equal =
      alice_obj->mirror.chunks == carol_obj->mirror.chunks &&
      alice_obj->mirror.tree.root() == carol_obj->mirror.tree.root();

  const EquivocationProof* proof = alice.fork_proof("obj");
  if (proof == nullptr) proof = carol.fork_proof("obj");
  if (proof != nullptr) {
    std::string why;
    outcome.proof_valid = proof->valid(bob_id.public_key(), &why);
    EXPECT_TRUE(outcome.proof_valid) << "seed " << seed << ": " << why;
    outcome.fingerprint = proof->encode();
  } else {
    outcome.fingerprint = alice_obj->checker->view().head_hash();
    const Bytes carol_head_hash = carol_obj->checker->view().head_hash();
    outcome.fingerprint.insert(outcome.fingerprint.end(),
                               carol_head_hash.begin(),
                               carol_head_hash.end());
  }

  // Conservation: every sent or duplicated message either landed or hit
  // exactly one drop bucket. Chaos must not leak envelopes.
  const net::NetworkStats& s = network.stats();
  EXPECT_EQ(s.messages_sent + s.messages_duplicated,
            s.messages_delivered + s.messages_dropped_loss +
                s.messages_dropped_adversary + s.messages_dropped_partition +
                s.messages_dropped_endpoint_down)
      << "seed " << seed;
  return outcome;
}

TEST(ConsChaosPropertyTest, ForksAreAlwaysDetectedWithVerifiableProof) {
  // Seeds 8..15 sweep every loss/dup/reorder combination once (seed low
  // bits), each with the forever-partitioned victim. Detection must be
  // 100%: some honest client ends the trial holding a valid proof.
  for (std::uint64_t seed = 8; seed < 16; ++seed) {
    const ForkTrialOutcome outcome = run_fork_trial(seed, /*forked=*/true);
    EXPECT_TRUE(outcome.carol_opened) << "seed " << seed;
    EXPECT_GE(outcome.accusations, 1u) << "seed " << seed;
    EXPECT_TRUE(outcome.proof_valid) << "seed " << seed;
  }
}

TEST(ConsChaosPropertyTest, HonestRunsNeverAccuseUnderChaos) {
  // Same chaos matrix, no fork: zero accusations in every trial and the
  // reliable channels still converge both mirrors onto one history.
  for (std::uint64_t seed = 8; seed < 16; ++seed) {
    const ForkTrialOutcome outcome = run_fork_trial(seed, /*forked=*/false);
    EXPECT_TRUE(outcome.carol_opened) << "seed " << seed;
    EXPECT_EQ(outcome.accusations, 0u) << "seed " << seed;
    EXPECT_FALSE(outcome.proof_valid) << "seed " << seed;
    EXPECT_EQ(outcome.alice_head, 3u) << "seed " << seed;
    EXPECT_EQ(outcome.carol_head, 3u) << "seed " << seed;
    EXPECT_TRUE(outcome.mirrors_equal) << "seed " << seed;
  }
}

TEST(ConsChaosPropertyTest, TrialsAreBitReproducible) {
  const ForkTrialOutcome first = run_fork_trial(13, /*forked=*/true);
  const ForkTrialOutcome second = run_fork_trial(13, /*forked=*/true);
  EXPECT_EQ(first.accusations, second.accusations);
  EXPECT_EQ(first.alice_head, second.alice_head);
  EXPECT_EQ(first.carol_head, second.carol_head);
  EXPECT_EQ(first.fingerprint, second.fingerprint);

  const ForkTrialOutcome honest_a = run_fork_trial(14, /*forked=*/false);
  const ForkTrialOutcome honest_b = run_fork_trial(14, /*forked=*/false);
  EXPECT_EQ(honest_a.fingerprint, honest_b.fingerprint);
}

}  // namespace
}  // namespace tpnr::consistency
