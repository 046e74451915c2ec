// Minimal binary serialization helpers (little-endian, versioned headers)
// used for model save/load and dataset caching.
#ifndef UHD_COMMON_IO_HPP
#define UHD_COMMON_IO_HPP

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "uhd/common/error.hpp"

namespace uhd::io {

/// Write a 32-bit magic + version header.
void write_header(std::ostream& os, std::uint32_t magic, std::uint32_t version);

/// Read and validate a header; throws uhd::error on magic mismatch or if the
/// stored version exceeds `max_version`. Returns the stored version.
std::uint32_t read_header(std::istream& is, std::uint32_t magic, std::uint32_t max_version);

void write_u32(std::ostream& os, std::uint32_t v);
void write_u64(std::ostream& os, std::uint64_t v);
void write_i64(std::ostream& os, std::int64_t v);
void write_f64(std::ostream& os, double v);
void write_string(std::ostream& os, const std::string& s);

std::uint32_t read_u32(std::istream& is);
std::uint64_t read_u64(std::istream& is);
std::int64_t read_i64(std::istream& is);
double read_f64(std::istream& is);
std::string read_string(std::istream& is);

/// Write a span of trivially-copyable elements (length-prefixed), straight
/// from the caller's storage — no intermediate copy.
template <typename T>
void write_pod_span(std::ostream& os, std::span<const T> v);

/// Write a vector of trivially-copyable elements (length-prefixed).
template <typename T>
void write_pod_vector(std::ostream& os, const std::vector<T>& v);

/// Read a vector of trivially-copyable elements written by write_pod_vector
/// whose length must be `expected`: a stream claiming any other length
/// fails before anything is allocated.
template <typename T>
std::vector<T> read_pod_vector(std::istream& is, std::size_t expected);

// --- implementation of templates -----------------------------------------

void write_bytes(std::ostream& os, const void* data, std::size_t n);
void read_bytes(std::istream& is, void* data, std::size_t n);

template <typename T>
void write_pod_span(std::ostream& os, std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>, "POD serialization only");
    write_u64(os, static_cast<std::uint64_t>(v.size()));
    if (!v.empty()) write_bytes(os, v.data(), v.size() * sizeof(T));
}

template <typename T>
void write_pod_vector(std::ostream& os, const std::vector<T>& v) {
    write_pod_span(os, std::span<const T>(v.data(), v.size()));
}

template <typename T>
std::vector<T> read_pod_vector(std::istream& is, std::size_t expected) {
    static_assert(std::is_trivially_copyable_v<T>, "POD serialization only");
    const std::uint64_t n = read_u64(is);
    UHD_REQUIRE(n == expected, "serialized vector length mismatch");
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n != 0) read_bytes(is, v.data(), v.size() * sizeof(T));
    return v;
}

} // namespace uhd::io

#endif // UHD_COMMON_IO_HPP
