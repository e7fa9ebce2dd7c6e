#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/drbg.h"
#include "crypto/hash.h"
#include "crypto/hmac.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/sha512.h"

namespace tpnr::crypto {
namespace {

using common::to_bytes;
using common::to_hex;

std::string hex_digest(HashKind kind, const std::string& input) {
  return to_hex(digest(kind, to_bytes(input)));
}

// FIPS 180-4 / NIST CAVS short-message vectors.
TEST(ShaTest, Sha1Known) {
  EXPECT_EQ(hex_digest(HashKind::kSha1, ""),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex_digest(HashKind::kSha1, "abc"),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex_digest(HashKind::kSha1,
                       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(ShaTest, Sha256Known) {
  EXPECT_EQ(
      hex_digest(HashKind::kSha256, ""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      hex_digest(HashKind::kSha256, "abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex_digest(HashKind::kSha256,
                 "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(ShaTest, Sha224Known) {
  EXPECT_EQ(hex_digest(HashKind::kSha224, "abc"),
            "23097d223405d8228642a477bda255b32aadbce4bda0b3f7e36c9da7");
  EXPECT_EQ(hex_digest(HashKind::kSha224, ""),
            "d14a028c2a3a2bc9476102bb288234c415a2b01f828ea62ac5b3e42f");
}

TEST(ShaTest, Sha512Known) {
  EXPECT_EQ(hex_digest(HashKind::kSha512, "abc"),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
  EXPECT_EQ(hex_digest(HashKind::kSha512, ""),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(ShaTest, Sha384Known) {
  EXPECT_EQ(hex_digest(HashKind::kSha384, "abc"),
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed"
            "8086072ba1e7cc2358baeca134c825a7");
}

TEST(ShaTest, MillionAs) {
  // FIPS 180-4 long vector: one million repetitions of 'a'.
  const common::Bytes data(1000000, 'a');
  EXPECT_EQ(
      to_hex(digest(HashKind::kSha256, data)),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  EXPECT_EQ(to_hex(digest(HashKind::kSha1, data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(ShaTest, IncrementalMatchesOneShotAllVariants) {
  common::Bytes data(517);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 1);
  }
  for (HashKind kind : {HashKind::kSha1, HashKind::kSha224, HashKind::kSha256,
                        HashKind::kSha384, HashKind::kSha512}) {
    auto h = make_hash(kind);
    h->update(common::BytesView(data).subspan(0, 100));
    h->update(common::BytesView(data).subspan(100, 200));
    h->update(common::BytesView(data).subspan(300));
    EXPECT_EQ(h->finish(), digest(kind, data)) << hash_name(kind);
  }
}

TEST(ShaTest, BlockAndDigestSizes) {
  EXPECT_EQ(make_hash(HashKind::kSha1)->digest_size(), 20u);
  EXPECT_EQ(make_hash(HashKind::kSha224)->digest_size(), 28u);
  EXPECT_EQ(make_hash(HashKind::kSha256)->digest_size(), 32u);
  EXPECT_EQ(make_hash(HashKind::kSha384)->digest_size(), 48u);
  EXPECT_EQ(make_hash(HashKind::kSha512)->digest_size(), 64u);
  EXPECT_EQ(make_hash(HashKind::kSha256)->block_size(), 64u);
  EXPECT_EQ(make_hash(HashKind::kSha512)->block_size(), 128u);
}

TEST(ShaTest, HashNames) {
  EXPECT_EQ(hash_name(HashKind::kMd5), "md5");
  EXPECT_EQ(hash_name(HashKind::kSha256), "sha256");
  EXPECT_EQ(hash_name(HashKind::kSha512), "sha512");
}

TEST(ShaTest, PaddingEdgeLengths) {
  // SHA-512 pads to 112 mod 128; exercise the wrap-around path.
  for (std::size_t n : {111u, 112u, 113u, 127u, 128u, 129u, 255u, 256u}) {
    const common::Bytes data(n, 'q');
    auto h = make_hash(HashKind::kSha512);
    h->update(data);
    EXPECT_EQ(h->finish(), digest(HashKind::kSha512, data)) << n;
  }
}

// --- SHA-256 block kernels -------------------------------------------------
// Each kernel is driven through Sha256/Sha224 pinned to it, and directly
// through its block function, against the FIPS vectors and the portable
// rounds (the oracle).

constexpr const char* kNoShaNi =
    "SHA-NI kernel not built or the CPU lacks the SHA extensions";

struct KernelCase {
  const char* name;
  detail::Sha256BlockFn (*get)();
};

detail::Sha256BlockFn portable_kernel() {
  return &detail::sha256_blocks_portable;
}

const KernelCase kKernelCases[] = {
    {"portable", &portable_kernel},
    {"sha_ni", &detail::sha256_shani_kernel},
};

class Sha256KernelTest : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    kernel_ = GetParam().get();
    if (kernel_ == nullptr) GTEST_SKIP() << kNoShaNi;
  }

  [[nodiscard]] std::string sha256_hex(common::BytesView data) const {
    Sha256 h(kernel_);
    h.update(data);
    return to_hex(h.finish());
  }
  [[nodiscard]] std::string sha224_hex(common::BytesView data) const {
    Sha224 h(kernel_);
    h.update(data);
    return to_hex(h.finish());
  }

  detail::Sha256BlockFn kernel_ = nullptr;
};

const std::string kMsg448 =
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
const std::string kMsg896 =
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnop"
    "jklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";

TEST_P(Sha256KernelTest, Fips180Vectors) {
  EXPECT_EQ(sha256_hex(to_bytes("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex(to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex(to_bytes(kMsg448)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(sha256_hex(to_bytes(kMsg896)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(sha256_hex(common::Bytes(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256KernelTest, Sha224Vectors) {
  EXPECT_EQ(sha224_hex(to_bytes("")),
            "d14a028c2a3a2bc9476102bb288234c415a2b01f828ea62ac5b3e42f");
  EXPECT_EQ(sha224_hex(to_bytes("abc")),
            "23097d223405d8228642a477bda255b32aadbce4bda0b3f7e36c9da7");
  EXPECT_EQ(sha224_hex(to_bytes(kMsg448)),
            "75388b16512776cc5dba5da1fd890150b0c6455cb4f58b1952522525");
  EXPECT_EQ(sha224_hex(to_bytes(kMsg896)),
            "c97ca9a559850ce97a04a96def6d99a9e0e0e2ab14e6b8df265fc0b3");
  EXPECT_EQ(sha224_hex(common::Bytes(1000000, 'a')),
            "20794655980c91d8bbb4c1ea97618a4bf03f42581948b2ee4ee7ad67");
}

TEST_P(Sha256KernelTest, RandomLengthsAndSplitsMatchThePortableOracle) {
  Drbg rng(std::uint64_t{0x5a256});
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = rng.uniform(4097);
    const common::Bytes data = rng.bytes(len);
    Sha256 oracle(&detail::sha256_blocks_portable);
    oracle.update(data);
    Sha224 oracle224(&detail::sha256_blocks_portable);
    oracle224.update(data);

    // Feed the same bytes in up to four random pieces.
    Sha256 h(kernel_);
    Sha224 h224(kernel_);
    std::size_t pos = 0;
    for (int piece = 0; piece < 3 && pos < len; ++piece) {
      const std::size_t take = rng.uniform(len - pos + 1);
      const common::BytesView part = common::BytesView(data).subspan(pos, take);
      h.update(part);
      h224.update(part);
      pos += take;
    }
    h.update(common::BytesView(data).subspan(pos));
    h224.update(common::BytesView(data).subspan(pos));
    EXPECT_EQ(h.finish(), oracle.finish()) << "len " << len;
    EXPECT_EQ(h224.finish(), oracle224.finish()) << "len " << len;
  }
}

TEST_P(Sha256KernelTest, MultiBlockRunInOneCallMatchesBlockByBlock) {
  Drbg rng(std::uint64_t{0x5a257});
  const common::Bytes data = rng.bytes(64 * 40);
  const std::array<std::uint32_t, 8> start = {
      0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
      0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 16u, 40u}) {
    std::array<std::uint32_t, 8> expected = start;
    for (std::size_t b = 0; b < n; ++b) {
      detail::sha256_blocks_portable(expected.data(), data.data() + 64 * b, 1);
    }
    std::array<std::uint32_t, 8> got = start;
    kernel_(got.data(), data.data(), n);
    EXPECT_EQ(got, expected) << n << " blocks";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256KernelTest, ::testing::ValuesIn(kKernelCases),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return std::string(info.param.name);
    });

TEST(Sha256KernelCrossTest, MidstateResumesUnderTheOtherKernel) {
  const detail::Sha256BlockFn shani = detail::sha256_shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << kNoShaNi;
  const detail::Sha256BlockFn portable = &detail::sha256_blocks_portable;
  Drbg rng(std::uint64_t{0x5a258});
  const common::Bytes prefix = rng.bytes(64 * 5);
  const common::Bytes suffix = rng.bytes(333);
  common::Bytes whole = prefix;
  whole.insert(whole.end(), suffix.begin(), suffix.end());
  const common::Bytes expected = digest(HashKind::kSha256, whole);

  for (const auto& [from, to] :
       {std::pair{portable, shani}, std::pair{shani, portable}}) {
    Sha256 exporter(from);
    exporter.update(prefix);
    const Sha256Midstate mid = exporter.midstate();
    Sha256 resumer(to);
    resumer.restore(mid);
    resumer.update(suffix);
    EXPECT_EQ(resumer.finish(), expected);
  }
}

TEST(Sha256KernelCrossTest, HmacRfc4231VectorsOnTheDispatchedCore) {
  // HmacKeyState's midstates and resumed hashes run on the dispatched
  // kernel, whichever this host picked.
  struct Vector {
    common::Bytes key;
    common::Bytes data;
    const char* sha224;
    const char* sha256;
  };
  common::Bytes key4(25);
  for (std::size_t i = 0; i < key4.size(); ++i) {
    key4[i] = static_cast<std::uint8_t>(i + 1);
  }
  const std::vector<Vector> vectors = {
      {common::Bytes(20, 0x0b), to_bytes("Hi There"),
       "896fb1128abbdf196832107cd49df33f47b4b1169912ba4f53684b22",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "a30e01098bc6dbbf45690f3a7e9e6d0f8bbea2a39e6148008fd05e44",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {common::Bytes(20, 0xaa), common::Bytes(50, 0xdd),
       "7fb3cb3588c6c1f6ffa9694d7d6ad2649365b0c1f65d69d1ec8333ea",
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, common::Bytes(50, 0xcd),
       "6c11506874013cac6a2abc1bb382627cec6a90d86efc012de7afec5a",
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {common::Bytes(131, 0xaa),
       to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "95e9a0db962095adaebe9b2d6f0dbce2d499f112f2d2b7273fa6870e",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {common::Bytes(131, 0xaa),
       to_bytes("This is a test using a larger than block-size key and a "
                "larger than block-size data. The key needs to be hashed "
                "before being used by the HMAC algorithm."),
       "3a854166ac5d9f023f54d517d0b39dbd946770db9c2b95c9f6f565d1",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    const Vector& v = vectors[i];
    EXPECT_EQ(to_hex(HmacKeyState(HashKind::kSha224, v.key).mac(v.data)),
              v.sha224)
        << "case " << i;
    EXPECT_EQ(to_hex(HmacKeyState(HashKind::kSha256, v.key).mac(v.data)),
              v.sha256)
        << "case " << i;
  }
}

TEST(Sha256KernelCrossTest, DispatchPicksShaNiWhenAvailable) {
  const detail::Sha256BlockFn shani = detail::sha256_shani_kernel();
  if (shani != nullptr) {
    EXPECT_EQ(detail::sha256_dispatched_kernel(), shani);
    EXPECT_STREQ(sha256_kernel_name(), "sha_ni");
  } else {
    EXPECT_EQ(detail::sha256_dispatched_kernel(),
              &detail::sha256_blocks_portable);
    EXPECT_STREQ(sha256_kernel_name(), "portable");
  }
}

// Leaves the state untouched: a digest from it is the IV itself.
void frozen_kernel(std::uint32_t* /*state*/, const std::uint8_t* /*blocks*/,
                   std::size_t /*nblocks*/) noexcept {}

TEST(Sha256KernelCrossTest, FreshKeepsThePinnedKernel) {
  const Sha256 pinned(&frozen_kernel);
  const auto again = pinned.fresh();
  again->update(to_bytes("abc"));
  EXPECT_EQ(to_hex(again->finish()),
            "6a09e667bb67ae853c6ef372a54ff53a510e527f9b05688c1f83d9ab5be0cd19");
}

}  // namespace
}  // namespace tpnr::crypto
