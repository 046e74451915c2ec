// Private declarations shared by the kernel-registry translation units
// (kernels.cpp and the per-ISA backend TUs). Not installed: the public
// surface is uhd/common/kernels.hpp.
#ifndef UHD_COMMON_KERNELS_DETAIL_HPP
#define UHD_COMMON_KERNELS_DETAIL_HPP

#include <cstddef>
#include <cstdint>

#include "uhd/common/kernels.hpp"

namespace uhd::kernels::detail {

/// Per-thread, 64-byte aligned scratch of at least `bytes` bytes, grown on
/// demand and reused across calls (the pointer is valid until the calling
/// thread's next request). Defined in kernels.cpp, which is compiled
/// without wide-ISA flags, so the per-ISA TUs get a buffer without
/// instantiating a container template under -mavx*.
[[nodiscard]] std::uint8_t* thread_scratch(std::size_t bytes);

/// Pinned byte-at-a-time oracle backend (the permanent reference).
[[nodiscard]] const kernel_table& scalar_table() noexcept;

/// Portable 64-bit word-parallel backend (any 64-bit machine).
[[nodiscard]] const kernel_table& swar_table() noexcept;

#ifdef UHD_KERNELS_HAVE_AVX2
/// 256-bit backend (TU compiled with -mavx2; runtime-probe gated).
[[nodiscard]] const kernel_table& avx2_table() noexcept;
#endif

#ifdef UHD_KERNELS_HAVE_AVX512
/// 512-bit backend (TU compiled with -mavx512f -mavx512bw; runtime-probe
/// gated, VPOPCNTDQ selected inside the TU when the probe reports it).
[[nodiscard]] const kernel_table& avx512_table() noexcept;
#endif

} // namespace uhd::kernels::detail

#endif // UHD_COMMON_KERNELS_DETAIL_HPP
