#include "nn/bitpack.hpp"

#include <array>
#include <cstring>

#include "common/error.hpp"
#include "common/fixed_point.hpp"

namespace pimdnn::nn {

std::vector<std::uint32_t> bitpack_signs(std::span<const float> values) {
  std::vector<std::uint32_t> out(words_for_bits(values.size()), 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= 0.0f) {
      out[i / 32] |= (std::uint32_t{1} << (i % 32));
    }
  }
  return out;
}

std::vector<std::uint32_t> bitpack_bits(std::span<const int> bits) {
  std::vector<std::uint32_t> out(words_for_bits(bits.size()), 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    require(bits[i] == 0 || bits[i] == 1, "bitpack_bits: values must be 0/1");
    if (bits[i] == 1) {
      out[i / 32] |= (std::uint32_t{1} << (i % 32));
    }
  }
  return out;
}

namespace {

/// The eight {0,1} ints of every byte value, LSB first: unpacking copies
/// one row per byte instead of shifting out each bit.
using ByteBits = std::array<std::array<int, 8>, 256>;

constexpr ByteBits make_byte_bits() {
  ByteBits t{};
  for (unsigned v = 0; v < 256; ++v) {
    for (unsigned b = 0; b < 8; ++b) {
      t[v][b] = static_cast<int>((v >> b) & 1u);
    }
  }
  return t;
}

constexpr ByteBits kByteBits = make_byte_bits();

} // namespace

void unpack_bits(std::span<const std::uint32_t> packed, std::span<int> bits) {
  if (words_for_bits(bits.size()) > packed.size()) {
    throw UsageError("unpack_bits: packed vector too small");
  }
  const std::size_t n = bits.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const unsigned byte = (packed[i / 32] >> (i % 32)) & 0xffu;
    std::memcpy(&bits[i], kByteBits[byte].data(), sizeof(kByteBits[byte]));
  }
  for (; i < n; ++i) {
    bits[i] = static_cast<int>((packed[i / 32] >> (i % 32)) & 1u);
  }
}

int bit_at(std::span<const std::uint32_t> packed, std::size_t i) {
  require(i / 32 < packed.size(), "bit_at out of range");
  return static_cast<int>((packed[i / 32] >> (i % 32)) & 1u);
}

std::int32_t binary_dot(std::span<const std::uint32_t> a,
                        std::span<const std::uint32_t> b, std::size_t n) {
  require(a.size() >= words_for_bits(n) && b.size() >= words_for_bits(n),
          "binary_dot: packed vectors too small");
  std::int32_t match = 0;
  for (std::size_t w = 0; w * 32 < n; ++w) {
    std::uint32_t x = ~(a[w] ^ b[w]);
    const std::size_t remaining = n - w * 32;
    if (remaining < 32) {
      x &= (std::uint32_t{1} << remaining) - 1;
    }
    match += popcount32(x);
  }
  return 2 * match - static_cast<std::int32_t>(n);
}

} // namespace pimdnn::nn
