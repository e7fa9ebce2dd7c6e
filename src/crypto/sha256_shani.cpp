// SHA-256 block kernel on the x86 SHA extensions, compiled with
// -msha -msse4.1 (see crypto/CMakeLists). Only sha256.cpp's dispatch calls
// into this TU, and only after __builtin_cpu_supports("sha") — nothing else
// may be defined here, or a host without the extensions could fault on an
// incidentally vectorized symbol. Hence no standard-library headers beyond
// the integer types.
//
// The state lives in two registers in the order SHA256RNDS2 wants (ABEF and
// CDGH), loaded once per call and kept there across every block of the run.
// Each 4-round group adds its round constants to one message vector, runs
// two SHA256RNDS2 steps, and advances the schedule with SHA256MSG1/MSG2.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace tpnr::crypto::detail {

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};

}  // namespace

// Rounds 4g..4g+3 on message words `m` (W[4g..4g+3]).
#define TPNR_SHANI_ROUNDS(g, m)                                             \
  do {                                                                      \
    __m128i wk = _mm_add_epi32(                                             \
        (m), _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * (g)))); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                           \
    wk = _mm_shuffle_epi32(wk, 0x0E);                                       \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);                           \
  } while (0)

// Finishes W[4g+4..4g+7] in `next` (already through MSG1) from the group's
// words `cur` and the previous group's `prev`.
#define TPNR_SHANI_MSG2(next, cur, prev)                                    \
  (next) = _mm_sha256msg2_epu32(                                            \
      _mm_add_epi32((next), _mm_alignr_epi8((cur), (prev), 4)), (cur))

// Starts W[4g+12..4g+15] in `prev` (the group before this one).
#define TPNR_SHANI_MSG1(prev, cur) (prev) = _mm_sha256msg1_epu32((prev), (cur))

// Loads block word vector i, byte-swapped to big-endian word order.
#define TPNR_SHANI_LOAD(i)                                                  \
  _mm_shuffle_epi8(                                                         \
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * (i))), \
      bswap)

void sha256_blocks_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                         std::size_t nblocks) noexcept {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // state[0..3] = DCBA, state[4..7] = HGFE (little-endian lanes).
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;

    __m128i m0 = TPNR_SHANI_LOAD(0);
    TPNR_SHANI_ROUNDS(0, m0);
    __m128i m1 = TPNR_SHANI_LOAD(1);
    TPNR_SHANI_ROUNDS(1, m1);
    TPNR_SHANI_MSG1(m0, m1);
    __m128i m2 = TPNR_SHANI_LOAD(2);
    TPNR_SHANI_ROUNDS(2, m2);
    TPNR_SHANI_MSG1(m1, m2);
    __m128i m3 = TPNR_SHANI_LOAD(3);
    TPNR_SHANI_ROUNDS(3, m3);
    TPNR_SHANI_MSG2(m0, m3, m2);
    TPNR_SHANI_MSG1(m2, m3);

    TPNR_SHANI_ROUNDS(4, m0);
    TPNR_SHANI_MSG2(m1, m0, m3);
    TPNR_SHANI_MSG1(m3, m0);
    TPNR_SHANI_ROUNDS(5, m1);
    TPNR_SHANI_MSG2(m2, m1, m0);
    TPNR_SHANI_MSG1(m0, m1);
    TPNR_SHANI_ROUNDS(6, m2);
    TPNR_SHANI_MSG2(m3, m2, m1);
    TPNR_SHANI_MSG1(m1, m2);
    TPNR_SHANI_ROUNDS(7, m3);
    TPNR_SHANI_MSG2(m0, m3, m2);
    TPNR_SHANI_MSG1(m2, m3);

    TPNR_SHANI_ROUNDS(8, m0);
    TPNR_SHANI_MSG2(m1, m0, m3);
    TPNR_SHANI_MSG1(m3, m0);
    TPNR_SHANI_ROUNDS(9, m1);
    TPNR_SHANI_MSG2(m2, m1, m0);
    TPNR_SHANI_MSG1(m0, m1);
    TPNR_SHANI_ROUNDS(10, m2);
    TPNR_SHANI_MSG2(m3, m2, m1);
    TPNR_SHANI_MSG1(m1, m2);
    TPNR_SHANI_ROUNDS(11, m3);
    TPNR_SHANI_MSG2(m0, m3, m2);
    TPNR_SHANI_MSG1(m2, m3);

    TPNR_SHANI_ROUNDS(12, m0);
    TPNR_SHANI_MSG2(m1, m0, m3);
    TPNR_SHANI_MSG1(m3, m0);
    TPNR_SHANI_ROUNDS(13, m1);
    TPNR_SHANI_MSG2(m2, m1, m0);
    TPNR_SHANI_ROUNDS(14, m2);
    TPNR_SHANI_MSG2(m3, m2, m1);
    TPNR_SHANI_ROUNDS(15, m3);

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef TPNR_SHANI_LOAD
#undef TPNR_SHANI_MSG1
#undef TPNR_SHANI_MSG2
#undef TPNR_SHANI_ROUNDS

}  // namespace tpnr::crypto::detail
