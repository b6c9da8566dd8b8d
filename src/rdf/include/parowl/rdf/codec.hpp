#pragma once

// Compact binary triple codec — the single wire/disk format of the data
// plane.  Snapshots, file-transport batch envelopes, and worker checkpoints
// all serialize triples as *blocks*; a checkpoint is built from the
// codec's varints, u64le words and blocks throughout, sealed by one digest
// over all its bytes that the loader checks before decoding anything.
// A block is
//
//   +------+---------------+---------------------+------------------+
//   | 0xB7 | varint count  | varint payload_len  | payload ...      |
//   +------+---------------+---------------------+------------------+
//   | u64 checksum (chained triple_digest of the decoded sequence)  |
//   +----------------------------------------------------------------+
//
// The payload stores, per triple, the zigzag-varint *delta* of each field
// against the previous triple (s against previous s, p against p, o against
// o; the first triple deltas against 0).  Sorted blocks compress best, but
// the encoding is order-preserving, so insertion-ordered logs round-trip
// bit-identically.  The trailing checksum is order-sensitive: a decoded
// block is guaranteed to be the exact sequence that was encoded, so a bit
// flip, truncation, or splice anywhere in the block fails decode.
//
// Dictionaries are serialized as front-coded term tables (shared prefix
// length + suffix per term — IRIs share long namespace prefixes) with a
// trailing content digest covering every kind and lexical form.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "parowl/rdf/dictionary.hpp"
#include "parowl/rdf/term.hpp"

namespace parowl::rdf::codec {

// ---------------------------------------------------------------- varints

/// Append `v` as a LEB128 varint (1..10 bytes).
void put_varint(std::string& out, std::uint64_t v);

/// Parse one varint off the front of `in`; false on truncation/overflow.
bool get_varint(std::string_view& in, std::uint64_t& v);

/// Read one varint from a stream; false on truncation/overflow.
bool get_varint(std::istream& in, std::uint64_t& v);

/// Append `v` as 8 little-endian bytes.
void put_u64le(std::string& out, std::uint64_t v);

/// Parse 8 little-endian bytes off the front of `in`.
bool get_u64le(std::string_view& in, std::uint64_t& v);
bool get_u64le(std::istream& in, std::uint64_t& v);

/// Zigzag mapping: small signed deltas become small unsigned varints.
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// ----------------------------------------------------------- triple blocks

/// Order-sensitive digest of a triple sequence (rdf::triple_digest
/// chained through util::mix64).
[[nodiscard]] std::uint64_t sequence_digest(std::span<const Triple> ts);

/// Triples per block when writing long logs (`write_blocks`).
inline constexpr std::size_t kBlockTriples = 1 << 16;

/// Append one self-contained checksummed block encoding `ts` (order
/// preserved) to `out`.
void encode_block(std::span<const Triple> ts, std::string& out);

/// Decode one block off the front of `in`, appending to `out`.  Returns
/// false (and sets *error) on truncation, malformed varints, or checksum
/// mismatch; `in` is left unspecified on failure.
bool decode_block(std::string_view& in, std::vector<Triple>& out,
                  std::string* error = nullptr);

/// Stream variant of decode_block.
bool read_block(std::istream& in, std::vector<Triple>& out,
                std::string* error = nullptr);

/// Write `ts` as a sequence of blocks of at most `block_triples` each.
/// Returns the number of bytes written.
std::size_t write_blocks(std::ostream& out, std::span<const Triple> ts,
                         std::size_t block_triples = kBlockTriples);

/// Read blocks until exactly `expected` triples have been decoded,
/// invoking `sink(t)` for each in order.  Returns false on any block
/// failure or if a block overshoots `expected`.
bool read_blocks(std::istream& in, std::uint64_t expected,
                 const std::function<void(const Triple&)>& sink,
                 std::string* error = nullptr);

/// Convenience: encoded size of `ts` as blocks, without keeping the bytes.
[[nodiscard]] std::size_t encoded_size(std::span<const Triple> ts);

// ------------------------------------------------------------ term tables

/// Append the front-coded term table for ids [1, dict.size()] plus the
/// trailing content digest.  Returns the number of bytes written.
std::size_t write_terms(std::ostream& out, const Dictionary& dict);

/// Read `count` front-coded terms into `dict` (interning in id order) and
/// validate the trailing digest.  Returns false with *error on malformed
/// input; `dict` may hold a partial table on failure.
bool read_terms(std::istream& in, std::uint64_t count, Dictionary& dict,
                std::string* error = nullptr);

}  // namespace parowl::rdf::codec
