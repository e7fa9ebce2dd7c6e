// The versioned-object core shared by the dyn/ and consistency/ actors.
//
// Clients and providers of dynamic and shared objects all keep the same
// mirror: the chunk bytes plus the rank-annotated tree over them.
// ChunkMirror is that state and the one home of the chunk-op rules:
//   * check: the index/stride rule — the store serves reads at a fixed
//     chunk_size stride, so only the LAST chunk may be short, and an append
//     lands exactly at the leaf count;
//   * apply_record: the tree moves first, and only if the op lands on the
//     claimed chunk_count/new_root; the chunks follow;
//   * write_to: the committed bytes and the record's storage::MutationInfo
//     go to the object store.
// Each actor keeps its own reaction to a fault (an error reply, a counter).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "dyn/dyn_merkle.h"
#include "dyn/version_chain.h"
#include "storage/object_store.h"

namespace tpnr::dyn {

/// What the chunk-op rule found wrong with a mutation.
enum class ChunkOpFault : std::uint8_t {
  kOk,
  kNotAMutation,   ///< kStore against an existing object
  kIndex,          ///< index out of range, or an append not at the end
  kErasePayload,   ///< an erase carrying chunk bytes
  kEmptyChunk,     ///< an update/insert/append without bytes
  kOversize,       ///< a chunk longer than the object's chunk size
  kShortInterior,  ///< a short chunk anywhere but the tail
  kShortTail,      ///< appending after a short last chunk
  kRootMismatch,   ///< the op does not land on the claimed count/root
};
std::string chunk_op_fault_name(ChunkOpFault fault);

/// Applies `op` at `index` to a per-chunk vector (chunk bytes, PoR tags):
/// kUpdate replaces, kInsert/kAppend insert before `index`, kErase removes
/// (ignoring `item`).
template <typename T>
void apply_to_items(std::vector<T>& items, MutateOp op, std::uint64_t index,
                    T item) {
  const auto at = items.begin() + static_cast<std::ptrdiff_t>(index);
  if (op == MutateOp::kUpdate) *at = std::move(item);
  if (op == MutateOp::kInsert || op == MutateOp::kAppend) {
    items.insert(at, std::move(item));
  }
  if (op == MutateOp::kErase) items.erase(at);
}

struct ChunkMirror {
  std::vector<Bytes> chunks;
  DynMerkleTree tree;

  /// `data` split at `chunk_size` under the canonical tree (a kStore).
  static ChunkMirror build(BytesView data, std::size_t chunk_size);

  /// The index/stride rule for one mutation.
  [[nodiscard]] ChunkOpFault check(MutateOp op, std::uint64_t index,
                                   BytesView chunk,
                                   std::size_t chunk_size) const;
  /// The tree after a check()-passed op. Every caller runs this same
  /// tree-op sequence, so the history-dependent shapes agree. Pass
  /// `leaf_hash` = DynMerkleTree::hash_chunk(chunk) if already computed.
  [[nodiscard]] DynMerkleTree tree_after(MutateOp op, std::uint64_t index,
                                         BytesView chunk,
                                         Bytes leaf_hash = {}) const;
  /// Applies `record`'s check()-passed op if it lands on the claimed
  /// chunk_count and new_root; otherwise kRootMismatch, mirror untouched.
  [[nodiscard]] ChunkOpFault apply_record(const VersionRecord& record,
                                          Bytes chunk);

  /// The object bytes, chunks back to back.
  [[nodiscard]] Bytes concat() const;
  /// Writes concat() to `store` as `record` commits it: a put for kStore,
  /// otherwise a mutate journaled with the record's MutationInfo.
  void write_to(storage::ObjectStore& store, const std::string& key,
                const VersionRecord& record, common::SimTime now) const;
};

}  // namespace tpnr::dyn
