// Crypto kernel probes. They run only in the traced run, after every timed
// phase, so they never touch an end-to-end number.
#include <algorithm>
#include <functional>

#include "bench.h"
#include "crypto/hash.h"
#include "crypto/merkle.h"
#include "crypto/rsa.h"
#include "crypto/sha256_mb.h"
#include "trace.h"

namespace perfbench {

using namespace tpnr;  // NOLINT(google-build-using-namespace)

namespace {

/// Median seconds per call of `fn`, over batches of `per_batch` calls run
/// for about `budget_s` in all (at least five batches).
double median_seconds(const std::function<void()>& fn, std::size_t per_batch,
                      double budget_s) {
  std::vector<double> batches;
  const auto start = Clock::now();
  while (batches.size() < 5 || seconds_since(start) < budget_s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < per_batch; ++i) fn();
    batches.push_back(seconds_since(t0) / static_cast<double>(per_batch));
  }
  std::nth_element(batches.begin(), batches.begin() + batches.size() / 2,
                   batches.end());
  return batches[batches.size() / 2];
}

}  // namespace

std::map<std::string, double> crypto_probes(const ProbeSizes& sizes) {
  constexpr double kBudget = 0.15;
  constexpr double kMiB = 1024.0 * 1024.0;
  std::map<std::string, double> m;
  crypto::Drbg rng(std::uint64_t{20100913});
  const crypto::RsaKeyPair key = crypto::rsa_generate(sizes.key_bits, rng);
  const common::Bytes message = rng.bytes(32);
  const common::Bytes signature =
      crypto::rsa_sign(key.priv, crypto::HashKind::kSha256, message);
  const common::Bytes sealed = crypto::rsa_encrypt(key.pub, message, rng);
  const common::Bytes object = rng.bytes(sizes.object_bytes);
  std::vector<common::Bytes> chunks;
  for (int i = 0; i < 8; ++i) chunks.push_back(rng.bytes(sizes.chunk_bytes));
  const std::vector<common::BytesView> chunk_views(chunks.begin(),
                                                   chunks.end());
  bool ok = true;
  std::size_t sink = 0;

  const auto probe = [&](const char* name, const std::function<void()>& fn,
                         std::size_t per_batch) {
    const trace::Scope span(name);
    return median_seconds(fn, per_batch, kBudget);
  };
  m["crypto.rsa_private_us"] =
      1e6 * probe("crypto.probe.rsa_sign", [&] {
        sink += crypto::rsa_sign(key.priv, crypto::HashKind::kSha256, message)
                    .size();
      }, 16);
  m["crypto.rsa_public_us"] =
      1e6 * probe("crypto.probe.rsa_verify", [&] {
        ok = ok && crypto::rsa_verify(key.pub, crypto::HashKind::kSha256,
                                      message, signature);
      }, 64);
  m["crypto.oaep_decrypt_us"] =
      1e6 * probe("crypto.probe.rsa_decrypt", [&] {
        ok = ok && crypto::rsa_decrypt(key.priv, sealed) == message;
      }, 16);
  const double sha_s = probe("crypto.probe.sha256", [&] {
    sink += crypto::sha256(object)[0];
  }, std::max<std::size_t>(1, (1 << 20) / sizes.object_bytes));
  m["crypto.sha256_mib_per_s"] =
      static_cast<double>(sizes.object_bytes) / kMiB / sha_s;
  const double mb_s = probe("crypto.probe.sha256_many", [&] {
    sink += crypto::sha256_many(chunk_views).size();
  }, std::max<std::size_t>(1, (1 << 20) / (8 * sizes.chunk_bytes)));
  m["crypto.sha256_mb_mib_per_s"] =
      static_cast<double>(8 * sizes.chunk_bytes) / kMiB / mb_s;
  const double merkle_s = probe("crypto.probe.merkle_build", [&] {
    const crypto::MerkleTree tree(object, 4096);
    sink += tree.root()[0];
  }, std::max<std::size_t>(1, (1 << 20) / sizes.object_bytes));
  m["crypto.merkle_build_ms_per_mib"] =
      1e3 * merkle_s / (static_cast<double>(sizes.object_bytes) / kMiB);
  if (!ok || sink == 0) m["crypto.probe_failed"] = 1.0;
  return m;
}

}  // namespace perfbench
