// Internal: the SHA-256 block kernels behind Sha256Core, for the dispatch
// in sha256.cpp, the batch engine's pinned scalar path and the kernel
// equivalence tests. Every kernel has the Sha256BlockFn signature and
// produces the same state for the same input.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/sha256.h"

namespace tpnr::crypto::detail {

/// The FIPS 180-4 rounds in portable C++: the fallback on CPUs without the
/// SHA extensions, and the oracle every other kernel is tested against.
void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t nblocks) noexcept;

/// The SHA-NI kernel, or nullptr when it is not compiled in or the CPU
/// lacks the SHA extensions.
[[nodiscard]] Sha256BlockFn sha256_shani_kernel() noexcept;

/// The kernel a default-constructed Sha256/Sha224 runs on: SHA-NI when
/// available, otherwise the portable rounds. Chosen once per process.
[[nodiscard]] Sha256BlockFn sha256_dispatched_kernel() noexcept;

}  // namespace tpnr::crypto::detail
