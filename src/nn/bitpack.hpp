// Bit packing for binarized tensors.
//
// eBNN's "exclusive utilization of binarized weights ... simplify the
// convolutions to a stream of bitwise computation, followed by
// accumulations" (thesis §4.1.1). Values are the signs of real weights:
// bit 1 encodes +1, bit 0 encodes -1. A binary dot product of `n` packed
// positions is then `2*popcount(xnor(a,b) & mask) - n`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pimdnn::nn {

/// Packs the signs of `values` (>=0 -> 1, <0 -> 0) into 32-bit words,
/// little-endian within a word (element i lands in bit i%32 of word i/32).
std::vector<std::uint32_t> bitpack_signs(std::span<const float> values);

/// Packs explicit {0,1} bits.
std::vector<std::uint32_t> bitpack_bits(std::span<const int> bits);

/// Unpacks the first `bits.size()` bits of `packed` into `bits` as {0,1}
/// (the inverse of bitpack_bits).
void unpack_bits(std::span<const std::uint32_t> packed, std::span<int> bits);

/// Extracts bit `i` from a packed vector.
int bit_at(std::span<const std::uint32_t> packed, std::size_t i);

/// Binary dot product of `n` positions of two packed vectors:
/// sum over i of (a_i==b_i ? +1 : -1) = 2*popcount(~(a^b) & mask) - n.
std::int32_t binary_dot(std::span<const std::uint32_t> a,
                        std::span<const std::uint32_t> b, std::size_t n);

/// Number of 32-bit words needed to hold `n` bits.
constexpr std::size_t words_for_bits(std::size_t n) {
  return (n + 31) / 32;
}

} // namespace pimdnn::nn
