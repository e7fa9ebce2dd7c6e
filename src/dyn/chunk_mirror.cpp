#include "dyn/chunk_mirror.h"

#include "common/payload.h"
#include "crypto/hash.h"

namespace tpnr::dyn {

std::string chunk_op_fault_name(ChunkOpFault fault) {
  static constexpr const char* kNames[] = {
      "ok",
      "store op on an existing object",
      "chunk index out of range",
      "erase carries chunk bytes",
      "mutation carries no chunk bytes",
      "chunk exceeds the object's chunk size",
      "interior chunk must be full stride",
      "append after a short tail breaks the stride",
      "claimed new root does not match the applied op",
  };
  return kNames[static_cast<std::size_t>(fault)];
}

ChunkMirror ChunkMirror::build(BytesView data, std::size_t chunk_size) {
  ChunkMirror mirror;
  mirror.chunks = split_chunks(data, chunk_size);
  mirror.tree = DynMerkleTree::build(chunk_views(mirror.chunks));
  return mirror;
}

ChunkOpFault ChunkMirror::check(MutateOp op, std::uint64_t index,
                                BytesView chunk,
                                std::size_t chunk_size) const {
  if (op == MutateOp::kStore) return ChunkOpFault::kNotAMutation;
  const std::uint64_t count = tree.leaf_count();
  if (!index_fits(op, index, count)) return ChunkOpFault::kIndex;
  if (op == MutateOp::kErase) {
    return chunk.empty() ? ChunkOpFault::kOk : ChunkOpFault::kErasePayload;
  }
  if (chunk.empty()) return ChunkOpFault::kEmptyChunk;
  if (chunk.size() > chunk_size) return ChunkOpFault::kOversize;
  const bool inserting = op != MutateOp::kUpdate;  // insert or append
  const bool at_tail = inserting ? index == count : index + 1 == count;
  if (!at_tail && chunk.size() != chunk_size) {
    return ChunkOpFault::kShortInterior;
  }
  if (inserting && at_tail && count > 0 &&
      chunks[count - 1].size() != chunk_size) {
    return ChunkOpFault::kShortTail;
  }
  return ChunkOpFault::kOk;
}

DynMerkleTree ChunkMirror::tree_after(MutateOp op, std::uint64_t index,
                                      BytesView chunk, Bytes leaf_hash) const {
  DynMerkleTree after = tree.clone();
  if (op == MutateOp::kErase) {
    after.erase(index);
    return after;
  }
  if (leaf_hash.empty()) leaf_hash = DynMerkleTree::hash_chunk(chunk);
  if (op == MutateOp::kUpdate) {
    after.update_leaf(index, std::move(leaf_hash));
  } else {
    after.insert_leaf(index, std::move(leaf_hash));
  }
  return after;
}

ChunkOpFault ChunkMirror::apply_record(const VersionRecord& record,
                                       Bytes chunk) {
  DynMerkleTree after = tree_after(record.op, record.chunk_index, chunk);
  if (!record.matches(after)) return ChunkOpFault::kRootMismatch;
  tree = std::move(after);
  apply_to_items(chunks, record.op, record.chunk_index, std::move(chunk));
  return ChunkOpFault::kOk;
}

Bytes ChunkMirror::concat() const {
  std::size_t total = 0;
  for (const Bytes& chunk : chunks) total += chunk.size();
  Bytes out;
  out.reserve(total);
  for (const Bytes& chunk : chunks) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

void ChunkMirror::write_to(storage::ObjectStore& store, const std::string& key,
                           const VersionRecord& record,
                           common::SimTime now) const {
  common::Payload stored(concat());
  const Bytes data_md5 = crypto::md5(stored);
  if (record.op == MutateOp::kStore) {
    store.put(key, std::move(stored), data_md5, now);
    return;
  }
  store.mutate(key, std::move(stored), data_md5, now,
               {.op = static_cast<std::uint8_t>(record.op),
                .chunk_index = record.chunk_index,
                .chunk_count = record.chunk_count,
                .old_root = record.old_root,
                .new_root = record.new_root});
}

}  // namespace tpnr::dyn
