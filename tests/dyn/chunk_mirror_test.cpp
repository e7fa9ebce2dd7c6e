// The versioned-object core shared by the dyn/ and consistency/ actors: the
// chunk-op rule, apply-and-verify with restore, write-through to the store,
// and the SignedVersionRecord countersignature and resubmission match.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "dyn/chunk_mirror.h"
#include "persist/journal.h"
#include "persist/records.h"
#include "pki/identity.h"
#include "storage/backend.h"

namespace tpnr::dyn {
namespace {

using common::Bytes;

constexpr std::size_t kChunkSize = 16;
constexpr std::size_t kShortTail = 5;

/// Four chunks; the last one is short when `short_tail`.
ChunkMirror make_mirror(bool short_tail) {
  crypto::Drbg rng(std::uint64_t{4242});
  const std::size_t size =
      3 * kChunkSize + (short_tail ? kShortTail : kChunkSize);
  return ChunkMirror::build(rng.bytes(size), kChunkSize);
}

Bytes bytes_of(std::size_t size) {
  crypto::Drbg rng(std::uint64_t{size + 99});
  return rng.bytes(size);
}

struct RuleCase {
  const char* name;
  MutateOp op;
  std::uint64_t index;
  std::size_t chunk_bytes;
  bool short_tail;  ///< mirror's last chunk is short
  ChunkOpFault expect;
};

// Every op against: in range, out of range, short interior chunk, oversize
// chunk, append after a short tail, append off the leaf count, erase with
// bytes, empty chunk.
const RuleCase kRuleCases[] = {
    {"update interior", MutateOp::kUpdate, 1, kChunkSize, false,
     ChunkOpFault::kOk},
    {"update short tail", MutateOp::kUpdate, 3, kShortTail, false,
     ChunkOpFault::kOk},
    {"update grows short tail", MutateOp::kUpdate, 3, kChunkSize, true,
     ChunkOpFault::kOk},
    {"update out of range", MutateOp::kUpdate, 4, kChunkSize, false,
     ChunkOpFault::kIndex},
    {"update short interior", MutateOp::kUpdate, 1, kShortTail, false,
     ChunkOpFault::kShortInterior},
    {"update oversize", MutateOp::kUpdate, 3, kChunkSize + 1, false,
     ChunkOpFault::kOversize},
    {"update empty", MutateOp::kUpdate, 1, 0, false,
     ChunkOpFault::kEmptyChunk},

    {"insert head", MutateOp::kInsert, 0, kChunkSize, false,
     ChunkOpFault::kOk},
    {"insert at end short", MutateOp::kInsert, 4, kShortTail, false,
     ChunkOpFault::kOk},
    {"insert out of range", MutateOp::kInsert, 5, kChunkSize, false,
     ChunkOpFault::kIndex},
    {"insert short interior", MutateOp::kInsert, 2, kShortTail, false,
     ChunkOpFault::kShortInterior},
    {"insert oversize", MutateOp::kInsert, 0, kChunkSize + 1, false,
     ChunkOpFault::kOversize},
    {"insert after short tail", MutateOp::kInsert, 4, kChunkSize, true,
     ChunkOpFault::kShortTail},
    {"insert before short tail", MutateOp::kInsert, 3, kChunkSize, true,
     ChunkOpFault::kOk},
    {"insert empty", MutateOp::kInsert, 1, 0, false,
     ChunkOpFault::kEmptyChunk},

    {"append", MutateOp::kAppend, 4, kChunkSize, false, ChunkOpFault::kOk},
    {"append short", MutateOp::kAppend, 4, kShortTail, false,
     ChunkOpFault::kOk},
    {"append off the leaf count", MutateOp::kAppend, 3, kChunkSize, false,
     ChunkOpFault::kIndex},
    {"append at index 0", MutateOp::kAppend, 0, kChunkSize, false,
     ChunkOpFault::kIndex},
    {"append out of range", MutateOp::kAppend, 5, kChunkSize, false,
     ChunkOpFault::kIndex},
    {"append oversize", MutateOp::kAppend, 4, kChunkSize + 1, false,
     ChunkOpFault::kOversize},
    {"append after short tail", MutateOp::kAppend, 4, kChunkSize, true,
     ChunkOpFault::kShortTail},
    {"append empty", MutateOp::kAppend, 4, 0, false,
     ChunkOpFault::kEmptyChunk},

    {"erase head", MutateOp::kErase, 0, 0, false, ChunkOpFault::kOk},
    {"erase short tail", MutateOp::kErase, 3, 0, true, ChunkOpFault::kOk},
    {"erase interior of short-tail object", MutateOp::kErase, 1, 0, true,
     ChunkOpFault::kOk},
    {"erase out of range", MutateOp::kErase, 4, 0, false,
     ChunkOpFault::kIndex},
    {"erase with bytes", MutateOp::kErase, 1, kChunkSize, false,
     ChunkOpFault::kErasePayload},

    {"store on an existing object", MutateOp::kStore, 0, kChunkSize, false,
     ChunkOpFault::kNotAMutation},
};

/// The op replayed through DynMerkleTree's own chunk-level calls — the
/// reference the shared apply must reproduce node for node.
DynMerkleTree reference_tree(const ChunkMirror& mirror, MutateOp op,
                             std::uint64_t index, const Bytes& chunk) {
  DynMerkleTree tree = mirror.tree.clone();
  if (op == MutateOp::kUpdate) tree.update(index, chunk);
  if (op == MutateOp::kInsert || op == MutateOp::kAppend) {
    tree.insert(index, chunk);
  }
  if (op == MutateOp::kErase) tree.erase(index);
  return tree;
}

std::vector<Bytes> reference_chunks(std::vector<Bytes> chunks, MutateOp op,
                                    std::uint64_t index, const Bytes& chunk) {
  const auto at = chunks.begin() + static_cast<std::ptrdiff_t>(index);
  if (op == MutateOp::kUpdate) *at = chunk;
  if (op == MutateOp::kInsert || op == MutateOp::kAppend) {
    chunks.insert(at, chunk);
  }
  if (op == MutateOp::kErase) chunks.erase(at);
  return chunks;
}

VersionRecord claim(MutateOp op, std::uint64_t index,
                    const DynMerkleTree& after) {
  VersionRecord record;
  record.object_key = "doc";
  record.version = 2;
  record.op = op;
  record.chunk_index = index;
  record.chunk_count = after.leaf_count();
  record.new_root = after.root();
  return record;
}

/// The mirror is byte-for-byte what it was: chunks, every leaf, the root,
/// and the cached interior hashes (the reference recomputation agrees).
void expect_unchanged(const ChunkMirror& mirror, const ChunkMirror& before) {
  EXPECT_EQ(mirror.chunks, before.chunks);
  EXPECT_EQ(mirror.tree.leaf_hashes(), before.tree.leaf_hashes());
  EXPECT_EQ(mirror.tree.root(), before.tree.root());
  EXPECT_EQ(mirror.tree.height(), before.tree.height());
  EXPECT_EQ(mirror.tree.recompute_root_reference(), before.tree.root());
}

TEST(ChunkMirrorTest, RuleTableCoversEveryOp) {
  for (const RuleCase& c : kRuleCases) {
    SCOPED_TRACE(c.name);
    const ChunkMirror mirror = make_mirror(c.short_tail);
    EXPECT_EQ(
        mirror.check(c.op, c.index, bytes_of(c.chunk_bytes), kChunkSize),
        c.expect);
  }
}

TEST(ChunkMirrorTest, AcceptedOpsApplyExactlyLikeTheReference) {
  for (const RuleCase& c : kRuleCases) {
    if (c.expect != ChunkOpFault::kOk) continue;
    SCOPED_TRACE(c.name);
    const Bytes chunk = bytes_of(c.chunk_bytes);
    ChunkMirror mirror = make_mirror(c.short_tail);
    const DynMerkleTree want = reference_tree(mirror, c.op, c.index, chunk);
    const std::vector<Bytes> want_chunks =
        reference_chunks(mirror.chunks, c.op, c.index, chunk);

    ASSERT_EQ(mirror.apply_record(claim(c.op, c.index, want), chunk),
              ChunkOpFault::kOk);
    EXPECT_EQ(mirror.chunks, want_chunks);
    EXPECT_EQ(mirror.tree.root(), want.root());
    EXPECT_EQ(mirror.tree.height(), want.height());
    EXPECT_EQ(mirror.tree.recompute_root_reference(), want.root());
    EXPECT_TRUE(claim(c.op, c.index, want).matches(mirror.tree));
  }
}

TEST(ChunkMirrorTest, TreeAfterReusesACallerLeafHashAndLeavesTheMirror) {
  for (const RuleCase& c : kRuleCases) {
    if (c.expect != ChunkOpFault::kOk) continue;
    SCOPED_TRACE(c.name);
    const Bytes chunk = bytes_of(c.chunk_bytes);
    const ChunkMirror mirror = make_mirror(c.short_tail);
    const DynMerkleTree want = reference_tree(mirror, c.op, c.index, chunk);
    const Bytes leaf_hash = c.op == MutateOp::kErase
                                ? Bytes{}
                                : DynMerkleTree::hash_chunk(chunk);
    const DynMerkleTree after =
        mirror.tree_after(c.op, c.index, chunk, leaf_hash);
    EXPECT_EQ(after.root(), want.root());
    EXPECT_EQ(after.height(), want.height());
    expect_unchanged(mirror, make_mirror(c.short_tail));
    if (c.op == MutateOp::kErase) continue;

    // The supplied hash is what lands in the tree: the chunk is not hashed
    // again.
    const Bytes other = bytes_of(c.chunk_bytes + 1);
    EXPECT_EQ(mirror
                  .tree_after(c.op, c.index, chunk,
                              DynMerkleTree::hash_chunk(other))
                  .root(),
              reference_tree(mirror, c.op, c.index, other).root());
  }
}

TEST(ChunkMirrorTest, ClaimedRootOrCountMismatchLeavesTheMirrorUntouched) {
  for (const RuleCase& c : kRuleCases) {
    if (c.expect != ChunkOpFault::kOk) continue;
    SCOPED_TRACE(c.name);
    const Bytes chunk = bytes_of(c.chunk_bytes);
    const ChunkMirror before = make_mirror(c.short_tail);
    const DynMerkleTree want = reference_tree(before, c.op, c.index, chunk);

    VersionRecord wrong_root = claim(c.op, c.index, want);
    wrong_root.new_root[0] ^= 0x01;
    ChunkMirror mirror = make_mirror(c.short_tail);
    EXPECT_EQ(mirror.apply_record(wrong_root, chunk),
              ChunkOpFault::kRootMismatch);
    expect_unchanged(mirror, before);

    VersionRecord wrong_count = claim(c.op, c.index, want);
    ++wrong_count.chunk_count;
    EXPECT_EQ(mirror.apply_record(wrong_count, chunk),
              ChunkOpFault::kRootMismatch);
    expect_unchanged(mirror, before);

    // A restored mirror still takes the honest claim.
    EXPECT_EQ(mirror.apply_record(claim(c.op, c.index, want), chunk),
              ChunkOpFault::kOk);
    EXPECT_EQ(mirror.tree.root(), want.root());
  }
}

TEST(ChunkMirrorTest, ApplyToItemsEditsParallelVectors) {
  std::vector<std::uint64_t> tags = {10, 11, 12};
  apply_to_items(tags, MutateOp::kUpdate, 1, std::uint64_t{21});
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{10, 21, 12}));
  apply_to_items(tags, MutateOp::kInsert, 0, std::uint64_t{30});
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{30, 10, 21, 12}));
  apply_to_items(tags, MutateOp::kAppend, 4, std::uint64_t{40});
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{30, 10, 21, 12, 40}));
  apply_to_items(tags, MutateOp::kErase, 2, std::uint64_t{0});
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{30, 10, 12, 40}));
}

TEST(ChunkMirrorTest, FaultsHaveDistinctNames) {
  std::map<std::string, int> seen;
  for (int f = 0; f <= static_cast<int>(ChunkOpFault::kRootMismatch); ++f) {
    ++seen[chunk_op_fault_name(static_cast<ChunkOpFault>(f))];
  }
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(ChunkOpFault::kRootMismatch) + 1);
}

/// Captures the MutationRecords an ObjectStore journals.
class CapturingJournal final : public persist::Journal {
 public:
  std::uint64_t record(persist::RecordType type,
                       common::BytesView payload) override {
    if (type == persist::RecordType::kObjectMutate) {
      mutations.push_back(persist::MutationRecord::decode(payload));
    }
    return ++lsn_;
  }
  std::vector<persist::MutationRecord> mutations;

 private:
  std::uint64_t lsn_ = 0;
};

TEST(ChunkMirrorTest, WriteToStoresTheBytesAndJournalsTheRecord) {
  storage::ObjectStore store(std::make_unique<storage::MemoryBackend>());
  CapturingJournal journal;
  store.bind_journal(&journal);
  ChunkMirror mirror = make_mirror(false);
  const Bytes original = mirror.concat();
  ASSERT_EQ(original.size(), 4 * kChunkSize);

  VersionRecord store_record = claim(MutateOp::kStore, 0, mirror.tree);
  store_record.version = 1;
  mirror.write_to(store, "doc", store_record, 5);
  EXPECT_EQ(store.version_of("doc"), 1u);
  EXPECT_TRUE(journal.mutations.empty());  // a store is a put

  const Bytes chunk = bytes_of(kChunkSize);
  const DynMerkleTree want =
      reference_tree(mirror, MutateOp::kInsert, 2, chunk);
  VersionRecord record = claim(MutateOp::kInsert, 2, want);
  record.old_root = mirror.tree.root();
  ASSERT_EQ(mirror.apply_record(record, chunk), ChunkOpFault::kOk);
  mirror.write_to(store, "doc", record, 9);

  const auto served = store.get("doc");
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->version, 2u);
  EXPECT_EQ(Bytes(served->data.view().begin(), served->data.view().end()),
            mirror.concat());
  ASSERT_EQ(journal.mutations.size(), 1u);
  const persist::MutationRecord& journaled = journal.mutations[0];
  EXPECT_EQ(journaled.key, "doc");
  EXPECT_EQ(journaled.op, static_cast<std::uint8_t>(MutateOp::kInsert));
  EXPECT_EQ(journaled.chunk_index, 2u);
  EXPECT_EQ(journaled.chunk_count, 5u);
  EXPECT_EQ(journaled.old_root, record.old_root);
  EXPECT_EQ(journaled.new_root, record.new_root);
}

// --- SignedVersionRecord: countersignature and resubmission match ---------

const pki::Identity& pooled(const std::string& name) {
  static const auto* pool = [] {
    auto* identities = new std::map<std::string, pki::Identity>();
    crypto::Drbg rng(std::uint64_t{31313});
    for (const char* id : {"client", "provider", "other"}) {
      identities->emplace(id, pki::Identity(id, 1024, rng));
    }
    return identities;
  }();
  return pool->at(name);
}

SignedVersionRecord client_signed() {
  const ChunkMirror mirror = make_mirror(false);
  SignedVersionRecord signed_record;
  signed_record.record = claim(MutateOp::kUpdate, 1, mirror.tree);
  signed_record.record.old_root = DynMerkleTree::empty_root();
  signed_record.record.chunk_tag = 77;
  signed_record.record.prev_record_hash = VersionRecord::genesis_link();
  signed_record.client_sig =
      pooled("client").sign(signed_record.record.encode());
  return signed_record;
}

TEST(SignedVersionRecordTest, CountersignRoundTripsThroughVerifyProvider) {
  SignedVersionRecord rec = client_signed();
  rec.countersign(pooled("provider"));
  EXPECT_TRUE(rec.verify_provider(pooled("provider").public_key()));
  EXPECT_TRUE(rec.verify(pooled("client").public_key(),
                         pooled("provider").public_key()));
  EXPECT_FALSE(rec.verify_provider(pooled("other").public_key()));

  // The countersigned message is record.encode() ‖ client_sig.
  Bytes material = rec.record.encode();
  material.insert(material.end(), rec.client_sig.begin(),
                  rec.client_sig.end());
  EXPECT_EQ(rec.provider_sig, pooled("provider").sign(material));

  // It survives the wire and binds both the record and the client sig.
  const SignedVersionRecord decoded =
      SignedVersionRecord::decode(rec.encode());
  EXPECT_TRUE(decoded.verify_provider(pooled("provider").public_key()));
  SignedVersionRecord other_record = rec;
  ++other_record.record.chunk_tag;
  EXPECT_FALSE(other_record.verify_provider(pooled("provider").public_key()));
  SignedVersionRecord other_sig = rec;
  other_sig.client_sig.back() ^= 0x01;
  EXPECT_FALSE(other_sig.verify_provider(pooled("provider").public_key()));
}

TEST(SignedVersionRecordTest, SameSubmissionMatchesOnlyTheIdenticalPair) {
  SignedVersionRecord committed = client_signed();
  committed.countersign(pooled("provider"));
  const SignedVersionRecord retry = client_signed();  // no countersignature
  EXPECT_TRUE(committed.same_submission(retry.record, retry.client_sig));

  VersionRecord moved = retry.record;
  ++moved.chunk_index;
  EXPECT_FALSE(committed.same_submission(moved, retry.client_sig));
  VersionRecord rerooted = retry.record;
  rerooted.new_root.back() ^= 0x01;
  EXPECT_FALSE(committed.same_submission(rerooted, retry.client_sig));
  VersionRecord retagged = retry.record;
  ++retagged.chunk_tag;
  EXPECT_FALSE(committed.same_submission(retagged, retry.client_sig));

  const Bytes foreign_sig = pooled("other").sign(retry.record.encode());
  EXPECT_FALSE(committed.same_submission(retry.record, foreign_sig));
  EXPECT_FALSE(committed.same_submission(retry.record, Bytes{}));
}

}  // namespace
}  // namespace tpnr::dyn
