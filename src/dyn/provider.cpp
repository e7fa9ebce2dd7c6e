#include "dyn/provider.h"

#include <utility>

#include "common/serial.h"
#include "crypto/hash.h"
#include "nr/evidence.h"
#include "storage/backend.h"

namespace tpnr::dyn {

namespace {

constexpr common::SimTime kReplyWindow = 30 * common::kSecond;

}  // namespace

DynProviderActor::DynProviderActor(std::string id, net::Network& network,
                                   pki::Identity& identity,
                                   crypto::Drbg& rng)
    : NrActor(std::move(id), network, identity, rng),
      store_(std::make_unique<storage::MemoryBackend>()) {
  store_.bind_clock(&network.clock());
}

const DynProviderActor::DynObjectState* DynProviderActor::object_state(
    const std::string& object_key) const {
  const auto it = objects_.find(object_key);
  return it == objects_.end() ? nullptr : &it->second;
}

void DynProviderActor::on_message(const nr::NrMessage& message) {
  switch (message.header.flag) {
    case nr::MsgType::kDynStoreRequest:
      handle_dyn_store(message);
      break;
    case nr::MsgType::kMutateRequest:
      handle_mutate(message);
      break;
    case nr::MsgType::kAggChallenge:
      handle_agg_challenge(message);
      break;
    default:
      break;
  }
}

void DynProviderActor::send_receipt(const std::string& client,
                                    const std::string& txn_id,
                                    nr::MsgType flag,
                                    const SignedVersionRecord& rec) {
  if (!behavior_.send_receipts) return;
  const crypto::RsaPublicKey* client_key = peer_key(client);
  if (client_key == nullptr) return;
  nr::MessageHeader header =
      next_header(flag, client, /*ttp=*/"", txn_id, rec.record.new_root,
                  network_->now() + kReplyWindow);
  Bytes evidence = nr::make_evidence(*identity_, *client_key, header, *rng_);

  common::BinaryWriter payload;
  payload.str(rec.record.object_key);
  payload.bytes(rec.encode());

  nr::NrMessage reply;
  reply.header = std::move(header);
  reply.payload = payload.take();
  reply.evidence = std::move(evidence);
  send(client, std::move(reply));
}

void DynProviderActor::send_mutate_error(const std::string& client,
                                         const std::string& txn_id,
                                         const std::string& object_key,
                                         std::uint64_t version,
                                         const std::string& reason) {
  ++mutations_rejected_;
  common::BinaryWriter payload;
  payload.str(object_key);
  payload.u64(version);
  payload.str(reason);

  nr::NrMessage reply;
  reply.header = next_header(nr::MsgType::kMutateError, client, /*ttp=*/"",
                             txn_id, Bytes{}, network_->now() + kReplyWindow);
  reply.payload = payload.take();
  send(client, std::move(reply));
}

void DynProviderActor::handle_dyn_store(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  const crypto::RsaPublicKey* sender_key = peer_key(h.sender);

  std::string object_key;
  std::uint32_t chunk_size = 0;
  Bytes data;
  std::vector<std::uint64_t> tags;
  VersionRecord record;
  Bytes client_sig;
  try {
    common::BinaryReader r(message.payload);
    object_key = r.str();
    chunk_size = r.u32();
    data = r.bytes();
    const std::uint32_t tag_count = r.u32();
    tags.reserve(tag_count);
    for (std::uint32_t i = 0; i < tag_count; ++i) tags.push_back(r.u64());
    record = VersionRecord::decode(r.bytes());
    client_sig = r.bytes();
    r.expect_done();
  } catch (const common::SerialError&) {
    ++stats_.rejected_bad_hash;
    return;
  }
  if (chunk_size == 0 || data.empty()) {
    ++stats_.rejected_bad_hash;
    return;
  }

  // The record IS the agreement: the header must bind to its new_root and
  // the client signature must cover it.
  if (!common::constant_time_equal(h.data_hash, record.new_root)) {
    ++stats_.rejected_bad_hash;
    return;
  }
  SignedVersionRecord signed_record;
  signed_record.record = std::move(record);
  signed_record.client_sig = std::move(client_sig);
  if (!signed_record.verify_client(*sender_key)) {
    ++stats_.rejected_bad_evidence;
    return;
  }
  const VersionRecord& rec = signed_record.record;

  // Idempotent re-store: same version-1 record for a known object → only
  // the receipt is re-issued (the chain already holds the countersigned
  // copy). A different record under a known key is a conflict.
  const auto existing = objects_.find(object_key);
  if (existing != objects_.end()) {
    const SignedVersionRecord& committed = existing->second.chain.records()[0];
    if (committed.same_submission(rec, signed_record.client_sig)) {
      ++receipts_resent_;
      send_receipt(h.sender, h.txn_id, nr::MsgType::kDynStoreReceipt,
                   committed);
    } else {
      send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                        "object exists under a different record");
    }
    return;
  }

  // Recompute the committed facts from the bytes the client actually sent.
  DynObjectState state;
  state.txn_id = h.txn_id;
  state.client = h.sender;
  state.chunk_size = chunk_size;
  state.mirror = ChunkMirror::build(data, chunk_size);
  state.tags = std::move(tags);
  if (!state.chain.extends(rec) || rec.object_key != object_key ||
      state.tags.size() != state.mirror.chunks.size() ||
      !rec.matches(state.mirror.tree)) {
    ++stats_.rejected_bad_hash;
    return;
  }

  const auto nro =
      nr::open_evidence(*identity_, *sender_key, h, message.evidence);
  if (!nro) {
    ++stats_.rejected_bad_evidence;
    return;
  }

  signed_record.countersign(*identity_);
  std::string why;
  if (!state.chain.append(signed_record, &why)) {
    ++stats_.rejected_bad_hash;  // cannot happen for a validated v1 record
    return;
  }

  common::Payload stored(std::move(data));
  const Bytes data_md5 = crypto::md5(stored);
  store_.put(object_key, std::move(stored), data_md5, network_->now());
  journal_evidence("dyn-nro", h.txn_id, h.sender, object_key, chunk_size, h,
                   *nro);
  const auto [it, inserted] = objects_.emplace(object_key, std::move(state));
  send_receipt(h.sender, h.txn_id, nr::MsgType::kDynStoreReceipt,
               it->second.chain.records().back());
}

void DynProviderActor::handle_mutate(const nr::NrMessage& message) {
  const nr::MessageHeader& h = message.header;
  const crypto::RsaPublicKey* sender_key = peer_key(h.sender);

  std::string object_key;
  std::uint8_t op_byte = 0;
  std::uint64_t index = 0;
  Bytes chunk;
  std::uint64_t tag = 0;
  VersionRecord record;
  Bytes client_sig;
  try {
    common::BinaryReader r(message.payload);
    object_key = r.str();
    op_byte = r.u8();
    index = r.u64();
    chunk = r.bytes();
    tag = r.u64();
    record = VersionRecord::decode(r.bytes());
    client_sig = r.bytes();
    r.expect_done();
  } catch (const common::SerialError&) {
    ++stats_.rejected_bad_hash;
    return;
  }

  const auto it = objects_.find(object_key);
  if (it == objects_.end()) {
    send_mutate_error(h.sender, h.txn_id, object_key, record.version,
                      "unknown object");
    return;
  }
  DynObjectState& state = it->second;
  if (h.sender != state.client) {
    ++stats_.rejected_bad_evidence;  // only the storing identity may mutate
    return;
  }

  // Envelope consistency: the loose payload fields must restate the signed
  // record, the header must bind to its new_root, and the client signature
  // must verify — all before any state is touched.
  if (record.object_key != object_key ||
      static_cast<std::uint8_t>(record.op) != op_byte ||
      record.chunk_index != index || record.chunk_tag != tag ||
      !common::constant_time_equal(h.data_hash, record.new_root)) {
    ++stats_.rejected_bad_hash;
    return;
  }
  SignedVersionRecord signed_record;
  signed_record.record = std::move(record);
  signed_record.client_sig = std::move(client_sig);
  if (!signed_record.verify_client(*sender_key)) {
    ++stats_.rejected_bad_evidence;
    return;
  }
  const VersionRecord& rec = signed_record.record;

  // Version-number idempotency (the retry contract): an already-committed
  // version re-issues its receipt verbatim; nothing is re-applied. The
  // SAME record is required — a different record under a committed version
  // is a conflict, not a retry.
  const std::uint64_t head = state.chain.head_version();
  if (rec.version >= 1 && rec.version <= head) {
    const SignedVersionRecord& committed =
        state.chain.records()[rec.version - 1];
    if (committed.same_submission(rec, signed_record.client_sig)) {
      ++receipts_resent_;
      send_receipt(h.sender, h.txn_id, nr::MsgType::kMutateReceipt,
                   committed);
    } else {
      send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                        "version already committed to a different record");
    }
    return;
  }
  if (rec.version != head + 1) {
    send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                      "version gap");
    return;
  }
  if (!common::constant_time_equal(rec.old_root, state.chain.head_root()) ||
      !common::constant_time_equal(rec.prev_record_hash,
                                   state.chain.head_hash())) {
    send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                      "old root does not match the committed head");
    return;
  }

  // Structural validation against the committed mirror — the same chunk-op
  // rule the client enforces before signing.
  ChunkOpFault fault =
      state.mirror.check(rec.op, index, chunk, state.chunk_size);
  if (fault == ChunkOpFault::kErasePayload ||
      (rec.op == MutateOp::kErase && tag != 0)) {
    ++stats_.rejected_bad_hash;
    return;
  }
  if (fault != ChunkOpFault::kOk) {
    send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                      chunk_op_fault_name(fault));
    return;
  }

  const auto nro =
      nr::open_evidence(*identity_, *sender_key, h, message.evidence);
  if (!nro) {
    ++stats_.rejected_bad_evidence;
    return;
  }

  // Apply only if the op lands on the claimed post-op root — a mismatch
  // leaves the mirror as it was and rejects.
  fault = state.mirror.apply_record(rec, std::move(chunk));
  if (fault != ChunkOpFault::kOk) {
    send_mutate_error(h.sender, h.txn_id, object_key, rec.version,
                      chunk_op_fault_name(fault));
    return;
  }
  apply_to_items(state.tags, rec.op, index, tag);

  // Commit: countersign, extend the chain, and write the mutated object
  // through to the store (which journals a MutationRecord). A store that
  // ACKs but drops the write — arm_stale_mutations() — diverges here, and
  // the next audit answered from the store exposes it.
  signed_record.countersign(*identity_);
  std::string why;
  if (!state.chain.append(signed_record, &why)) {
    throw common::ProtocolError(
        "DynProviderActor: validated record does not extend the chain: " +
        why);
  }
  state.mirror.write_to(store_, object_key, rec, network_->now());
  journal_evidence("dyn-nro", h.txn_id, h.sender, object_key,
                   state.chunk_size, h, *nro);
  send_receipt(h.sender, h.txn_id, nr::MsgType::kMutateReceipt,
               state.chain.records().back());
}

void DynProviderActor::handle_agg_challenge(const nr::NrMessage& message) {
  if (!behavior_.respond_to_audit) return;
  const nr::MessageHeader& h = message.header;
  const crypto::RsaPublicKey* sender_key = peer_key(h.sender);

  std::string object_key;
  AggChallenge challenge;
  try {
    common::BinaryReader r(message.payload);
    object_key = r.str();
    challenge.seed = r.u64();
    challenge.count = r.u64();
    r.expect_done();
  } catch (const common::SerialError&) {
    ++stats_.rejected_bad_hash;
    return;
  }
  const auto it = objects_.find(object_key);
  if (it == objects_.end()) return;  // silence → auditor times out
  const DynObjectState& state = it->second;

  // Answer from the STORE, not the mirror: re-slice whatever the store
  // serves right now, and report the store's version. When the served bytes
  // equal the committed mirror (the honest steady state), the proof is
  // built over the MIRROR tree — incremental AVL shapes are history-
  // dependent, so only that tree reproduces the countersigned head root
  // after inserts/erases. A diverged store — dropped mutation, rollback,
  // tamper — cannot use the mirror's shape honestly; it falls back to a
  // self-consistent canonical rebuild whose (version, root) pair the
  // auditor classifies against the client's chain head.
  const auto record = store_.get(object_key);
  if (!record) return;
  const std::vector<Bytes> served =
      split_chunks(record->data, state.chunk_size);
  const bool matches_mirror = served == state.mirror.chunks;
  DynMerkleTree rebuilt;
  if (!matches_mirror) rebuilt = DynMerkleTree::build(chunk_views(served));
  const DynMerkleTree& tree = matches_mirror ? state.mirror.tree : rebuilt;
  std::vector<std::uint64_t> tags = state.tags;
  tags.resize(served.size(), 0);  // length-match; a diverged store fails anyway

  const AggResponse response =
      make_agg_response(challenge, tree, chunk_views(served), tags,
                        state.chunk_size, record->version);
  const Bytes response_bytes = response.encode();

  nr::MessageHeader header = next_header(
      nr::MsgType::kAggResponse, h.sender, h.ttp, h.txn_id,
      crypto::sha256(response_bytes), network_->now() + kReplyWindow);
  Bytes evidence;
  if (sender_key != nullptr) {
    evidence = nr::make_evidence(*identity_, *sender_key, header, *rng_);
  }

  common::BinaryWriter payload;
  payload.str(object_key);
  payload.bytes(response_bytes);

  nr::NrMessage reply;
  reply.header = std::move(header);
  reply.payload = payload.take();
  reply.evidence = std::move(evidence);
  send(h.sender, std::move(reply));
}

}  // namespace tpnr::dyn
