#include "dyn/version_chain.h"

#include <cstddef>
#include <utility>
#include <vector>

#include "common/serial.h"
#include "crypto/hash.h"
#include "crypto/rsa.h"
#include "dyn/dyn_merkle.h"
#include "pki/identity.h"

namespace tpnr::dyn {

std::string mutate_op_name(MutateOp op) {
  switch (op) {
    case MutateOp::kStore:
      return "store";
    case MutateOp::kUpdate:
      return "update";
    case MutateOp::kInsert:
      return "insert";
    case MutateOp::kAppend:
      return "append";
    case MutateOp::kErase:
      return "erase";
  }
  return "?";
}

bool index_fits(MutateOp op, std::uint64_t index, std::uint64_t count) {
  if (op == MutateOp::kAppend) return index == count;
  if (op == MutateOp::kInsert) return index <= count;
  return op != MutateOp::kStore && index < count;  // update, erase
}

Bytes VersionRecord::encode() const {
  common::BinaryWriter w;
  w.str("tpnr.dyn.version.v1");  // domain separation from other signed blobs
  w.str(object_key);
  w.u64(version);
  w.u8(static_cast<std::uint8_t>(op));
  w.u64(chunk_index);
  w.u64(chunk_count);
  w.bytes(old_root);
  w.bytes(new_root);
  w.u64(chunk_tag);
  w.bytes(prev_record_hash);
  return w.take();
}

VersionRecord VersionRecord::decode(BytesView data) {
  common::BinaryReader r(data);
  if (r.str() != "tpnr.dyn.version.v1") {
    throw common::SerialError("VersionRecord: bad magic");
  }
  VersionRecord out;
  out.object_key = r.str();
  out.version = r.u64();
  const std::uint8_t op = r.u8();
  if (op < 1 || op > 5) throw common::SerialError("VersionRecord: bad op");
  out.op = static_cast<MutateOp>(op);
  out.chunk_index = r.u64();
  out.chunk_count = r.u64();
  out.old_root = r.bytes();
  out.new_root = r.bytes();
  out.chunk_tag = r.u64();
  out.prev_record_hash = r.bytes();
  r.expect_done();
  return out;
}

Bytes VersionRecord::hash() const { return crypto::sha256(encode()); }

bool VersionRecord::matches(const DynMerkleTree& tree) const {
  return tree.leaf_count() == chunk_count &&
         common::constant_time_equal(tree.root(), new_root);
}

const Bytes& VersionRecord::genesis_link() {
  static const Bytes zeros(32, 0);
  return zeros;
}

Bytes SignedVersionRecord::encode() const {
  common::BinaryWriter w;
  w.bytes(record.encode());
  w.bytes(client_sig);
  w.bytes(provider_sig);
  return w.take();
}

SignedVersionRecord SignedVersionRecord::decode(BytesView data) {
  common::BinaryReader r(data);
  SignedVersionRecord out;
  out.record = VersionRecord::decode(r.bytes());
  out.client_sig = r.bytes();
  out.provider_sig = r.bytes();
  r.expect_done();
  return out;
}

namespace {

/// What the provider countersigns: the encoded record ‖ client_sig.
Bytes countersigned_message(BytesView encoded_record, BytesView client_sig) {
  return common::concat({encoded_record, client_sig});
}

}  // namespace

void SignedVersionRecord::countersign(const pki::Identity& provider) {
  provider_sig =
      provider.sign(countersigned_message(record.encode(), client_sig));
}

bool SignedVersionRecord::same_submission(const VersionRecord& other,
                                          BytesView other_client_sig) const {
  return common::constant_time_equal(record.encode(), other.encode()) &&
         common::constant_time_equal(client_sig, other_client_sig);
}

bool SignedVersionRecord::verify_client(
    const crypto::RsaPublicKey& client) const {
  return pki::Identity::verify(client, record.encode(), client_sig);
}

bool SignedVersionRecord::verify_provider(
    const crypto::RsaPublicKey& provider) const {
  return pki::Identity::verify(
      provider, countersigned_message(record.encode(), client_sig),
      provider_sig);
}

bool SignedVersionRecord::verify(const crypto::RsaPublicKey& client,
                                 const crypto::RsaPublicKey& provider) const {
  return verify_client(client) && verify_provider(provider);
}

namespace {

bool fail(std::string* why, std::string message) {
  if (why != nullptr) *why = std::move(message);
  return false;
}

/// Structural continuity of `rec` against the current head. Shared by
/// VersionChain::append and walk_chain so both enforce the same rules.
bool extends_head(const VersionRecord& rec, std::uint64_t head_version,
                  BytesView head_root, std::uint64_t head_chunk_count,
                  BytesView head_hash, std::string* why) {
  if (rec.version != head_version + 1) {
    return fail(why, "version " + std::to_string(rec.version) +
                         " does not follow " + std::to_string(head_version));
  }
  if ((rec.op == MutateOp::kStore) != (rec.version == 1)) {
    return fail(why, "store op must be (exactly) the first record");
  }
  if (!common::constant_time_equal(rec.old_root, head_root)) {
    return fail(why, "old_root does not match chain head root");
  }
  if (!common::constant_time_equal(rec.prev_record_hash, head_hash)) {
    return fail(why, "prev_record_hash does not match chain head");
  }
  std::uint64_t expect_count = head_chunk_count;
  switch (rec.op) {
    case MutateOp::kStore:
      expect_count = rec.chunk_count;  // free choice, but must be non-empty
      if (rec.chunk_count == 0) return fail(why, "store of zero chunks");
      break;
    case MutateOp::kUpdate:
      break;  // count unchanged
    case MutateOp::kInsert:
    case MutateOp::kAppend:
      expect_count = head_chunk_count + 1;
      break;
    case MutateOp::kErase:
      if (head_chunk_count == 0) return fail(why, "erase on empty object");
      expect_count = head_chunk_count - 1;
      break;
  }
  if (rec.chunk_count != expect_count) {
    return fail(why, "chunk_count inconsistent with op");
  }
  if (rec.op != MutateOp::kStore &&
      !index_fits(rec.op, rec.chunk_index, head_chunk_count)) {
    return fail(why, mutate_op_name(rec.op) + " index out of range");
  }
  return true;
}

}  // namespace

bool VersionChain::extends(const VersionRecord& rec, std::string* why) const {
  if (!records_.empty() &&
      rec.object_key != records_.front().record.object_key) {
    return fail(why, "record for a different object");
  }
  return extends_head(rec, head_version(), head_root(), head_chunk_count(),
                      head_hash(), why);
}

bool VersionChain::append(SignedVersionRecord rec, std::string* why) {
  if (!extends(rec.record, why)) return false;
  records_.push_back(std::move(rec));
  return true;
}

std::uint64_t VersionChain::head_version() const noexcept {
  return records_.empty() ? 0 : records_.back().record.version;
}

const Bytes& VersionChain::head_root() const {
  return records_.empty() ? DynMerkleTree::empty_root()
                          : records_.back().record.new_root;
}

std::uint64_t VersionChain::head_chunk_count() const noexcept {
  return records_.empty() ? 0 : records_.back().record.chunk_count;
}

Bytes VersionChain::head_hash() const {
  return records_.empty() ? VersionRecord::genesis_link()
                          : records_.back().record.hash();
}

VersionRecord VersionChain::next_record(const std::string& object_key,
                                        MutateOp op, std::uint64_t index,
                                        const DynMerkleTree& after,
                                        std::uint64_t chunk_tag) const {
  VersionRecord record;
  record.object_key = object_key;
  record.version = head_version() + 1;
  record.op = op;
  record.chunk_index = index;
  record.chunk_count = after.leaf_count();
  record.old_root = head_root();
  record.new_root = after.root();
  record.chunk_tag = chunk_tag;
  record.prev_record_hash = head_hash();
  return record;
}

std::optional<std::uint64_t> VersionChain::version_of_root(
    BytesView root) const {
  // Newest first: after an update that restores earlier bytes, the HIGHEST
  // version owning this root is the honest interpretation.
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (common::constant_time_equal(it->record.new_root, root)) {
      return it->record.version;
    }
  }
  return std::nullopt;
}

std::string chain_status_name(ChainStatus status) {
  switch (status) {
    case ChainStatus::kValid:
      return "valid";
    case ChainStatus::kEmpty:
      return "empty";
    case ChainStatus::kBrokenLink:
      return "broken-link";
    case ChainStatus::kBadClientSig:
      return "bad-client-sig";
    case ChainStatus::kBadProviderSig:
      return "bad-provider-sig";
  }
  return "?";
}

ChainWalkResult walk_chain(std::span<const SignedVersionRecord> records,
                           const crypto::RsaPublicKey& client_key,
                           const crypto::RsaPublicKey& provider_key) {
  ChainWalkResult result;
  if (records.empty()) return result;

  std::uint64_t head_version = 0;
  Bytes head_root = DynMerkleTree::empty_root();
  std::uint64_t head_count = 0;
  Bytes head_hash = VersionRecord::genesis_link();
  const std::string& object = records.front().record.object_key;

  // Structural pass first: replay the links up to the first break, keeping
  // each linked record's encoded bytes and countersigned message. The
  // client signatures then run as ONE rsa_verify_many group under the
  // client key, the countersignatures as another under the provider key —
  // each group sharing its key's Montgomery context. The verdict is the
  // earliest failure in original walk order (link, then client sig, then
  // provider sig per record), exactly as the per-record walk reported it.
  std::size_t linked = records.size();  // records that extend the chain
  std::string link_why;
  std::vector<Bytes> encoded(records.size());
  std::vector<Bytes> countersigned(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const VersionRecord& rec = records[i].record;
    result.at_version = rec.version;
    std::string why;
    if (rec.object_key != object) {
      linked = i;
      link_why = "record for a different object";
      break;
    }
    if (!extends_head(rec, head_version, head_root, head_count, head_hash,
                      &why)) {
      linked = i;
      link_why = std::move(why);
      break;
    }
    encoded[i] = rec.encode();
    countersigned[i] =
        countersigned_message(encoded[i], records[i].client_sig);
    head_version = rec.version;
    head_root = rec.new_root;
    head_count = rec.chunk_count;
    head_hash = rec.hash();
  }
  std::vector<crypto::RsaVerifyItem> client_items(linked);
  std::vector<crypto::RsaVerifyItem> provider_items(linked);
  for (std::size_t i = 0; i < linked; ++i) {
    client_items[i] = {crypto::HashKind::kSha256, BytesView(encoded[i]),
                       BytesView(records[i].client_sig)};
    provider_items[i] = {crypto::HashKind::kSha256,
                         BytesView(countersigned[i]),
                         BytesView(records[i].provider_sig)};
  }
  const std::vector<bool> client_ok =
      crypto::rsa_verify_many(client_key, client_items);
  const std::vector<bool> provider_ok =
      crypto::rsa_verify_many(provider_key, provider_items);
  for (std::size_t i = 0; i < linked; ++i) {
    const VersionRecord& rec = records[i].record;
    if (!client_ok[i]) {
      result.status = ChainStatus::kBadClientSig;
      result.at_version = rec.version;
      result.detail = "client signature fails on " + mutate_op_name(rec.op);
      return result;
    }
    if (!provider_ok[i]) {
      result.status = ChainStatus::kBadProviderSig;
      result.at_version = rec.version;
      result.detail =
          "provider countersignature fails on " + mutate_op_name(rec.op);
      return result;
    }
  }
  if (linked < records.size()) {
    result.status = ChainStatus::kBrokenLink;
    result.at_version = records[linked].record.version;
    result.detail = std::move(link_why);
    return result;
  }
  result.status = ChainStatus::kValid;
  result.at_version = head_version;
  result.detail = "chain intact through version " + std::to_string(head_version);
  return result;
}

}  // namespace tpnr::dyn
