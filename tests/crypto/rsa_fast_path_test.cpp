// The RSA fast path must be a pure speedup: Montgomery/CIOS modexp, CRT
// signing and batched verification all have to be bit-for-bit identical to
// the classic big-integer path they replace. These tests pin that down with
// randomized equivalence sweeps (512/1024/2048-bit, plus moduli from one
// to 32 words), sign/verify round trips checked against
// BigInt::mod_pow_classic as the oracle, exact product counts,
// corrupted-signature rejection, and the rsa_verify_many / verify-memo
// interplay.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "crypto/bigint.h"
#include "crypto/counters.h"
#include "crypto/rsa.h"

namespace tpnr::crypto {
namespace {

using common::Bytes;
using common::BytesView;
using common::CryptoError;
using common::to_bytes;

/// The classic public op, sig^e mod n through the schoolbook ladder, as the
/// k-byte block a PKCS#1 check compares (empty when sig >= n).
Bytes classic_public(const RsaPublicKey& pub, BytesView sig) {
  const BigInt s = BigInt::from_bytes(sig);
  if (s.compare(pub.n) >= 0) return {};
  return s.mod_pow_classic(pub.e, pub.n).to_bytes(pub.modulus_bytes());
}

/// The classic full-width private op, block^d mod n, no CRT.
Bytes classic_private(const RsaPrivateKey& priv, BytesView block) {
  return BigInt::from_bytes(block)
      .mod_pow_classic(priv.d, priv.n)
      .to_bytes((priv.n.bit_length() + 7) / 8);
}

/// The same key without CRT factors: rsa_sign must take the full-width
/// exponentiation for it.
RsaPrivateKey without_factors(const RsaPrivateKey& priv) {
  return RsaPrivateKey(priv.n, priv.e, priv.d, BigInt(), BigInt());
}

BigInt random_odd_modulus(std::size_t bits, Drbg& rng) {
  BigInt m;
  do {
    m = BigInt::random_bits(bits, rng);
  } while (!m.is_odd());
  return m;
}

TEST(MontgomeryEquivalence, PowMatchesClassicModPowOnRandomOperands) {
  Drbg rng(std::uint64_t{0xfeed});
  for (const std::size_t bits : {512, 1024, 2048}) {
    const BigInt m = random_odd_modulus(bits, rng);
    const Montgomery mont(m);
    for (int i = 0; i < 4; ++i) {
      const BigInt base = BigInt::random_below(m, rng);
      // Mix short and full-width exponents: short ones exercise the binary
      // ladder, long ones the 4-bit fixed window.
      const BigInt exp = (i % 2 == 0) ? BigInt::random_bits(16 + bits / 64, rng)
                                      : BigInt::random_bits(bits, rng);
      const BigInt classic = base.mod_pow_classic(exp, m);
      EXPECT_EQ(mont.pow(base, exp).compare(classic), 0)
          << bits << "-bit modulus, iteration " << i;
    }
  }
}

// Moduli of 1, 7, 8, 9, 13, 16, 17 and 32 64-bit words: the instantiated
// widths (8 and 16), their neighbours, and the generic width from one word
// to 2048 bits. Each width gets a random modulus and a top-heavy one just
// below 2^(64 words), where intermediate sums overflow into the carry word
// and the final conditional subtract runs often.
TEST(MontgomeryEquivalence, PowMatchesClassicAcrossWidths) {
  Drbg rng(std::uint64_t{0x51de});
  for (const std::size_t words : {1, 7, 8, 9, 13, 16, 17, 32}) {
    const std::size_t bits = 64 * words;
    const auto gap = static_cast<std::int64_t>(2 * (rng.next_u64() % 1000) + 1);
    const BigInt top_heavy = BigInt(1).shifted_left(bits) - BigInt(gap);
    for (const BigInt& m : {random_odd_modulus(bits, rng), top_heavy}) {
      const Montgomery mont(m);
      std::vector<BigInt> bases = {BigInt(0), BigInt(1), m - BigInt(1),
                                   m - BigInt(2), BigInt::random_below(m, rng),
                                   BigInt::random_below(m, rng)};
      // Top-heavy bases: within 2^64 of n.
      bases.push_back(m - BigInt::random_bits(64, rng).mod(m - BigInt(1)) -
                      BigInt(1));
      for (const BigInt& base : bases) {
        for (const BigInt& exp :
             {BigInt(2), BigInt(65537), BigInt::random_bits(bits, rng)}) {
          EXPECT_EQ(mont.pow(base, exp).compare(base.mod_pow_classic(exp, m)),
                    0)
              << words << " words, base " << base.to_hex() << ", exp "
              << exp.to_hex();
        }
        // pow(x, 2) is one squaring between the conversions; it agrees
        // with the general product.
        const BigInt x = mont.to_mont(base);
        const BigInt x_times_x = mont.from_mont(mont.mul(x, x));
        EXPECT_EQ(mont.pow(base, BigInt(2)).compare(x_times_x), 0)
            << words << " words, base " << base.to_hex();
      }
    }
  }
}

TEST(MontgomeryEquivalence, OperandsOutsideTheResidueRangeAreRejected) {
  // An operand wider than n would overrun the s-word limb buffer, so every
  // single-product call rejects anything outside [0, n).
  const Montgomery mont(BigInt(0xf1));
  const BigInt wide = BigInt(1).shifted_left(200);
  EXPECT_THROW((void)mont.to_mont(wide), CryptoError);
  EXPECT_THROW((void)mont.from_mont(wide), CryptoError);
  EXPECT_THROW((void)mont.mul(wide, BigInt(1)), CryptoError);
  EXPECT_THROW((void)mont.mul(BigInt(1), wide), CryptoError);
  EXPECT_THROW((void)mont.to_mont(BigInt(0xf1)), CryptoError);  // x == n
  EXPECT_THROW((void)mont.to_mont(BigInt(-1)), CryptoError);
  // pow reduces its base first, so a wide base is fine there.
  EXPECT_EQ(mont.pow(wide, BigInt(3)).compare(
                wide.mod_pow_classic(BigInt(3), BigInt(0xf1))),
            0);
  EXPECT_EQ(mont.from_mont(mont.to_mont(BigInt(0xf0))).compare(BigInt(0xf0)),
            0);
}

// crypto.modmuls_per_op is read off mont_modmuls; pin exactly what one
// exponentiation adds so the metric cannot drift silently.
TEST(MontgomeryEquivalence, PowCountsEveryProductOnce) {
  Drbg rng(std::uint64_t{0xc0de});
  const BigInt m = random_odd_modulus(512, rng);
  const Montgomery mont(m);
  const BigInt base = BigInt::random_below(m, rng);
  const auto delta = [&](const BigInt& exp) {
    const std::uint64_t before = counters().mont_modmuls.load();
    (void)mont.pow(base, exp);
    return counters().mont_modmuls.load() - before;
  };
  // Binary ladder (<= 20 bits): to-Montgomery, one square per bit below the
  // top, one multiply per set bit below the top, from-Montgomery.
  for (const std::int64_t e : {1, 2, 3, 17, 65537, (1 << 20) - 1}) {
    const BigInt exp(e);
    std::uint64_t ones = 0;
    for (std::size_t i = 0; i < exp.bit_length(); ++i) ones += exp.bit(i);
    EXPECT_EQ(delta(exp), 1 + (exp.bit_length() - 1) + (ones - 1) + 1)
        << "exp " << e;
  }
  // 4-bit window: to-Montgomery, R mod n, table rows 2..15, four squares
  // per window, one multiply per non-zero nibble, from-Montgomery.
  for (const BigInt& exp : {BigInt(1 << 20), BigInt::random_bits(21, rng),
                            BigInt::random_bits(512, rng),
                            BigInt::random_bits(1021, rng)}) {
    const std::size_t windows = (exp.bit_length() + 3) / 4;
    std::uint64_t nonzero = 0;
    for (std::size_t w = 0; w < windows; ++w) {
      bool any = false;
      for (std::size_t i = 0; i < 4; ++i) any = any || exp.bit(4 * w + i);
      nonzero += any;
    }
    EXPECT_EQ(delta(exp), 1 + 1 + 14 + 4 * windows + nonzero + 1)
        << "exp " << exp.to_hex();
  }
  // x^0 = 1 without a product; each single-product call counts one.
  EXPECT_EQ(delta(BigInt(0)), 0u);
  const std::uint64_t before = counters().mont_modmuls.load();
  (void)mont.mul(mont.to_mont(base), mont.from_mont(base));
  EXPECT_EQ(counters().mont_modmuls.load() - before, 3u);
}

TEST(MontgomeryEquivalence, MulAndConversionRoundTrip) {
  Drbg rng(std::uint64_t{0xc0ffee});
  for (const std::size_t bits : {512, 1024, 2048}) {
    const BigInt m = random_odd_modulus(bits, rng);
    const Montgomery mont(m);
    for (int i = 0; i < 4; ++i) {
      const BigInt a = BigInt::random_below(m, rng);
      const BigInt b = BigInt::random_below(m, rng);
      EXPECT_EQ(mont.from_mont(mont.to_mont(a)).compare(a), 0);
      const BigInt product =
          mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b)));
      EXPECT_EQ(product.compare((a * b).mod(m)), 0)
          << bits << "-bit modulus, iteration " << i;
    }
  }
}

TEST(MontgomeryEquivalence, EdgeOperands) {
  Drbg rng(std::uint64_t{7});
  const BigInt m = random_odd_modulus(512, rng);
  const Montgomery mont(m);
  const BigInt x = BigInt::random_below(m, rng);
  EXPECT_EQ(mont.pow(x, BigInt(0)).compare(BigInt(1)), 0);  // x^0 = 1
  EXPECT_EQ(mont.pow(x, BigInt(1)).compare(x), 0);
  EXPECT_EQ(mont.pow(BigInt(0), BigInt(5)).compare(BigInt(0)), 0);
  EXPECT_EQ(mont.pow(m - BigInt(1), BigInt(2)).compare(BigInt(1)), 0);
}

TEST(MontgomeryEquivalence, RejectsUnusableModulus) {
  EXPECT_THROW(Montgomery(BigInt(4)), CryptoError);   // even
  EXPECT_THROW(Montgomery(BigInt(1)), CryptoError);   // too small
  EXPECT_THROW(Montgomery(BigInt(0)), CryptoError);
}

TEST(MontgomeryEquivalence, ModPowDispatcherMatchesClassicBothWays) {
  Drbg rng(std::uint64_t{31337});
  const BigInt m = random_odd_modulus(1024, rng);
  const BigInt base = BigInt::random_below(m, rng);
  const BigInt exp = BigInt::random_bits(1024, rng);
  // Odd modulus: mod_pow dispatches to Montgomery.
  EXPECT_EQ(base.mod_pow(exp, m).compare(base.mod_pow_classic(exp, m)), 0);
  // Even modulus: mod_pow falls back to the classic ladder.
  const BigInt even = m + BigInt(1);
  EXPECT_EQ(base.mod_pow(exp, even).compare(base.mod_pow_classic(exp, even)),
            0);
}

// Key generation dominates the suite's runtime; share one keypair per size.
class RsaFastPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Drbg rng(std::uint64_t{2026});
    k512_ = new RsaKeyPair(rsa_generate(512, rng));
    k1024_ = new RsaKeyPair(rsa_generate(1024, rng));
    k2048_ = new RsaKeyPair(rsa_generate(2048, rng));
  }
  static void TearDownTestSuite() {
    delete k512_;
    delete k1024_;
    delete k2048_;
    k512_ = k1024_ = k2048_ = nullptr;
  }
  static std::vector<const RsaKeyPair*> all_keys() {
    return {k512_, k1024_, k2048_};
  }

  static RsaKeyPair* k512_;
  static RsaKeyPair* k1024_;
  static RsaKeyPair* k2048_;
};

RsaKeyPair* RsaFastPathTest::k512_ = nullptr;
RsaKeyPair* RsaFastPathTest::k1024_ = nullptr;
RsaKeyPair* RsaFastPathTest::k2048_ = nullptr;

TEST_F(RsaFastPathTest, SignVerifyRoundTripAcrossSizesAndPaths) {
  for (const RsaKeyPair* key : all_keys()) {
    const Bytes msg = to_bytes("round trip at " +
                               std::to_string(key->pub.modulus_bytes() * 8));
    const Bytes fast_sig = rsa_sign(key->priv, HashKind::kSha256, msg);
    EXPECT_TRUE(rsa_verify(key->pub, HashKind::kSha256, msg, fast_sig));
    // The classic public op recovers a PKCS#1 v1.5 type-1 block ...
    const Bytes em = classic_public(key->pub, fast_sig);
    ASSERT_EQ(em.size(), key->pub.modulus_bytes());
    EXPECT_EQ(em[0], 0x00);
    EXPECT_EQ(em[1], 0x01);
    // ... and the classic full-width private op over that block reproduces
    // the CRT signature bit for bit, as does rsa_sign on a factorless key.
    const Bytes classic_sig = classic_private(key->priv, em);
    EXPECT_EQ(fast_sig, classic_sig);
    EXPECT_EQ(fast_sig,
              rsa_sign(without_factors(key->priv), HashKind::kSha256, msg));
    EXPECT_TRUE(rsa_verify(key->pub, HashKind::kSha256, msg, classic_sig));
  }
}

TEST_F(RsaFastPathTest, CrtSignsAreCountedAndClassicSignsAreNot) {
  const Bytes msg = to_bytes("counter attribution");
  {
    const std::uint64_t crt_before = counters().crt_signs.load();
    const std::uint64_t classic_before = counters().classic_signs.load();
    (void)rsa_sign(k1024_->priv, HashKind::kSha256, msg);
    EXPECT_GT(counters().crt_signs.load(), crt_before);
    EXPECT_EQ(counters().classic_signs.load(), classic_before);
  }
  {
    const std::uint64_t before = counters().classic_signs.load();
    (void)rsa_sign(without_factors(k1024_->priv), HashKind::kSha256, msg);
    EXPECT_GT(counters().classic_signs.load(), before);
  }
}

TEST_F(RsaFastPathTest, CorruptedSignaturesRejectedOnBothPaths) {
  Drbg rng(std::uint64_t{17});
  for (const RsaKeyPair* key : all_keys()) {
    const Bytes msg = to_bytes("tamper target");
    const Bytes good = rsa_sign(key->priv, HashKind::kSha256, msg);
    const Bytes em = classic_public(key->pub, good);
    for (int i = 0; i < 4; ++i) {
      Bytes bad = good;
      const std::size_t at = rng.next_u64() % bad.size();
      bad[at] ^= static_cast<std::uint8_t>(1 + (rng.next_u64() % 255));
      EXPECT_FALSE(rsa_verify(key->pub, HashKind::kSha256, msg, bad));
      EXPECT_NE(classic_public(key->pub, bad), em);
    }
  }
}

TEST_F(RsaFastPathTest, VerifyManyMatchesSingleVerifies) {
  const std::vector<Bytes> msgs = {
      to_bytes("batch zero"), to_bytes("batch one"), to_bytes("batch two"),
      to_bytes("batch three")};
  std::vector<Bytes> sigs;
  sigs.reserve(msgs.size());
  for (const Bytes& m : msgs) {
    sigs.push_back(rsa_sign(k1024_->priv, HashKind::kSha256, m));
  }
  sigs[2][5] ^= 0x40;  // one corrupted signature in the middle

  std::vector<RsaVerifyItem> items;
  items.reserve(msgs.size() + 1);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    items.push_back(
        {HashKind::kSha256, BytesView(msgs[i]), BytesView(sigs[i])});
  }
  // A signature from a DIFFERENT key must fail under this key.
  const Bytes foreign = rsa_sign(k512_->priv, HashKind::kSha256, msgs[0]);
  items.push_back({HashKind::kSha256, BytesView(msgs[0]), BytesView(foreign)});

  const std::uint64_t groups_before = counters().batch_verify_groups.load();
  const std::uint64_t items_before = counters().batch_verify_items.load();
  const std::vector<bool> batch = rsa_verify_many(k1024_->pub, items);
  ASSERT_EQ(batch.size(), items.size());
  EXPECT_GT(counters().batch_verify_groups.load(), groups_before);
  EXPECT_GE(counters().batch_verify_items.load(),
            items_before + items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(batch[i], rsa_verify(k1024_->pub, items[i].kind,
                                   items[i].message, items[i].signature))
        << "item " << i;
  }
  EXPECT_TRUE(batch[0]);
  EXPECT_FALSE(batch[2]);
  EXPECT_FALSE(batch[4]);
}

TEST_F(RsaFastPathTest, VerifyManyFeedsAndConsultsTheMemo) {
  const Bytes msg = to_bytes("memoized batch item");
  const Bytes sig = rsa_sign(k1024_->priv, HashKind::kSha256, msg);
  const std::vector<RsaVerifyItem> items = {
      {HashKind::kSha256, BytesView(msg), BytesView(sig)}};

  const std::vector<bool> first = rsa_verify_many(k1024_->pub, items);
  const std::uint64_t hits_before = counters().verify_memo_hits.load();
  const std::vector<bool> second = rsa_verify_many(k1024_->pub, items);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(second[0]);
  // The repeat run answers from the memo the first run fed.
  EXPECT_GT(counters().verify_memo_hits.load(), hits_before);
}

TEST_F(RsaFastPathTest, VerifyManyEmptyBatch) {
  EXPECT_TRUE(rsa_verify_many(k1024_->pub, {}).empty());
}

TEST_F(RsaFastPathTest, CachedMontContextIsSharedAndCorrect) {
  const auto ctx1 = k1024_->pub.mont_context();
  const auto ctx2 = k1024_->pub.mont_context();
  ASSERT_NE(ctx1, nullptr);
  EXPECT_EQ(ctx1.get(), ctx2.get());  // built once, shared thereafter
  Drbg rng(std::uint64_t{5});
  const BigInt x = BigInt::random_below(k1024_->pub.n, rng);
  EXPECT_EQ(ctx1->pow(x, k1024_->pub.e)
                .compare(x.mod_pow_classic(k1024_->pub.e, k1024_->pub.n)),
            0);
}

TEST(RsaKeyContexts, CopiesOfAFreshPairShareTheContextsBuiltAtGeneration) {
  Drbg rng(std::uint64_t{2027});
  const RsaKeyPair original = rsa_generate(784, rng);  // OAEP-wrap minimum
  const RsaKeyPair copy = original;  // copied before any operation
  ASSERT_NE(copy.priv.crt_context(), nullptr);
  ASSERT_NE(copy.pub.mont_context(), nullptr);
  EXPECT_EQ(copy.priv.crt_context().get(), original.priv.crt_context().get());
  EXPECT_EQ(copy.pub.mont_context().get(), original.pub.mont_context().get());

  const Bytes message = to_bytes("shared contexts");
  const Bytes sig = rsa_sign(copy.priv, HashKind::kSha256, message);
  EXPECT_TRUE(rsa_verify(original.pub, HashKind::kSha256, message, sig));
  EXPECT_EQ(rsa_decrypt(original.priv, rsa_encrypt(copy.pub, message, rng)),
            message);
}

}  // namespace
}  // namespace tpnr::crypto
