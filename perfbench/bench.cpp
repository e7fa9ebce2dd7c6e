// Helpers shared by the workload rounds.
#include "bench.h"
#include "crypto/hash.h"
#include "crypto/rsa.h"
#include "nr/actor.h"
#include "runtime/engine.h"

namespace perfbench {

using namespace tpnr;  // NOLINT(google-build-using-namespace)

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  const common::Bytes digest = crypto::sha256(common::to_bytes(
      "perfbench/" + std::to_string(seed) + "/" + std::to_string(round)));
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < 8; ++i) out = (out << 8) | digest[i];
  return out >> 1;  // keep clear of signed-conversion edge cases
}

pki::Identity KeyPool::identity(const std::string& id,
                                const std::string& role) {
  auto it = keys_.find(role);
  if (it == keys_.end()) {
    crypto::Drbg rng(crypto::sha256(
        common::to_bytes("perfbench-key/" + role + "/" +
                         std::to_string(bits_))));
    it = keys_.emplace(role, crypto::rsa_generate(bits_, rng)).first;
  }
  return {id, it->second};
}

crypto::CounterSnapshot CryptoDelta::take() const {
  const crypto::CounterSnapshot after = crypto::counters().snapshot();
  crypto::CounterSnapshot d;
  const auto sub = [&](std::uint64_t crypto::CounterSnapshot::* field) {
    d.*field = after.*field - before.*field;
  };
  for (const auto field :
       {&crypto::CounterSnapshot::scalar_blocks,
        &crypto::CounterSnapshot::mb_lane_blocks,
        &crypto::CounterSnapshot::mb_batches,
        &crypto::CounterSnapshot::mb_dispatch_jobs,
        &crypto::CounterSnapshot::hmac_midstate_hits,
        &crypto::CounterSnapshot::hmac_midstate_misses,
        &crypto::CounterSnapshot::tree_builds,
        &crypto::CounterSnapshot::tree_rebuilds_avoided,
        &crypto::CounterSnapshot::verify_memo_hits,
        &crypto::CounterSnapshot::verify_memo_misses,
        &crypto::CounterSnapshot::mont_modmuls,
        &crypto::CounterSnapshot::classic_modmuls,
        &crypto::CounterSnapshot::crt_signs,
        &crypto::CounterSnapshot::classic_signs,
        &crypto::CounterSnapshot::batch_verify_groups,
        &crypto::CounterSnapshot::batch_verify_items,
        &crypto::CounterSnapshot::service_jobs,
        &crypto::CounterSnapshot::service_flushes,
        &crypto::CounterSnapshot::service_inline_jobs}) {
    sub(field);
  }
  return d;
}

namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void crypto_layer_metrics(const crypto::CounterSnapshot& d, double ops,
                          Round& round) {
  auto& m = round.layer;
  round.private_ops = static_cast<double>(d.crt_signs + d.classic_signs);
  m["crypto_service.jobs_per_flush"] = ratio(d.service_jobs, d.service_flushes);
  m["crypto_service.inline_jobs"] = static_cast<double>(d.service_inline_jobs);
  m["crypto_service.verify_group_size"] =
      ratio(d.batch_verify_items, d.batch_verify_groups);
  m["crypto.private_ops_per_op"] = round.private_ops / ops;
  m["crypto.modmuls_per_op"] =
      static_cast<double>(d.mont_modmuls + d.classic_modmuls) / ops;
  m["crypto.verify_memo_hit_share"] =
      ratio(d.verify_memo_hits, d.verify_memo_hits + d.verify_memo_misses);
  m["crypto.lane_fill"] = d.lane_fill_rate();
  m["crypto.scalar_block_share"] =
      ratio(d.scalar_blocks, d.scalar_blocks + d.mb_lane_blocks);
}

void runtime_layer_metrics(const runtime::EngineStats& engine,
                           const SpanTotals& spans, double ops, Round& round) {
  const auto run = spans.find("runtime.run");
  const double run_s =
      run != spans.end() ? run->second.seconds : round.run_wall_s;
  auto& m = round.layer;
  m["runtime.run_s"] = run_s;
  const auto events = static_cast<double>(engine.events_executed);
  m["runtime.events_per_op"] = events / ops;
  m["runtime.events_per_s"] = events / run_s;
  m["runtime.parallel_round_share"] =
      ratio(engine.parallel_rounds, engine.rounds);
  m["runtime.cross_shard_share"] =
      ratio(engine.cross_shard_events, engine.events_executed);
}

double span_mean_us(const SpanTotals& spans, const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.mean_us();
}

std::uint64_t rejected_total(const nr::ActorStats& s) {
  return s.rejected_unknown_sender + s.rejected_expired + s.rejected_replay +
         s.rejected_bad_sequence + s.rejected_bad_hash +
         s.rejected_bad_evidence + s.rejected_wrong_addressee;
}

}  // namespace perfbench
