#include "parowl/rdf/codec.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "parowl/util/strings.hpp"

namespace parowl::rdf::codec {

namespace {

constexpr std::uint8_t kBlockMagic = 0xB7;
constexpr std::uint64_t kSequenceSeed = 0x70617277626C6B31ULL;  // "parwblk1"
constexpr std::uint64_t kTermSeed = 0x7061727774726D31ULL;      // "parwtrm1"

bool fail(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
  return false;
}

/// Decode the delta payload of a block in place.  Kept separate so the
/// string_view and istream entry points share one implementation.
bool decode_payload(std::string_view payload, std::uint64_t count,
                    std::uint64_t checksum, std::vector<Triple>& out,
                    std::string* error) {
  Triple prev{};
  std::uint64_t digest = kSequenceSeed;
  const std::size_t base = out.size();
  out.reserve(base + count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Triple t;
    TermId* fields[3] = {&t.s, &t.p, &t.o};
    const TermId prevs[3] = {prev.s, prev.p, prev.o};
    for (int f = 0; f < 3; ++f) {
      std::uint64_t raw = 0;
      if (!get_varint(payload, raw)) {
        return fail(error, "truncated triple block payload");
      }
      const std::int64_t value =
          static_cast<std::int64_t>(prevs[f]) + zigzag_decode(raw);
      if (value < 0 || value > 0xFFFFFFFFLL) {
        return fail(error, "triple id out of range in block");
      }
      *fields[f] = static_cast<TermId>(value);
    }
    digest = util::mix64(digest ^ triple_digest(t));
    out.push_back(t);
    prev = t;
  }
  if (!payload.empty()) {
    out.resize(base);
    return fail(error, "trailing bytes in triple block payload");
  }
  if (digest != checksum) {
    out.resize(base);
    return fail(error, "triple block checksum mismatch");
  }
  return true;
}

}  // namespace

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool get_varint(std::string_view& in, std::uint64_t& v) {
  v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (in.empty()) return false;
    const auto byte = static_cast<std::uint8_t>(in.front());
    in.remove_prefix(1);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical 10th bytes that would overflow 64 bits.
      return shift < 63 || byte <= 1;
    }
  }
  return false;  // unterminated after 10 bytes
}

bool get_varint(std::istream& in, std::uint64_t& v) {
  v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    const int c = in.get();
    if (c == std::char_traits<char>::eof()) return false;
    const auto byte = static_cast<std::uint8_t>(c);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return shift < 63 || byte <= 1;
    }
  }
  return false;
}

void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

bool get_u64le(std::string_view& in, std::uint64_t& v) {
  if (in.size() < 8) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(in[static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  in.remove_prefix(8);
  return true;
}

bool get_u64le(std::istream& in, std::uint64_t& v) {
  char buf[8];
  if (!in.read(buf, 8)) return false;
  std::string_view view(buf, 8);
  return get_u64le(view, v);
}

std::uint64_t sequence_digest(std::span<const Triple> ts) {
  std::uint64_t digest = kSequenceSeed;
  for (const Triple& t : ts) digest = util::mix64(digest ^ triple_digest(t));
  return digest;
}

void encode_block(std::span<const Triple> ts, std::string& out) {
  std::string payload;
  payload.reserve(ts.size() * 6 + 8);
  Triple prev{};
  for (const Triple& t : ts) {
    put_varint(payload, zigzag_encode(static_cast<std::int64_t>(t.s) -
                                      static_cast<std::int64_t>(prev.s)));
    put_varint(payload, zigzag_encode(static_cast<std::int64_t>(t.p) -
                                      static_cast<std::int64_t>(prev.p)));
    put_varint(payload, zigzag_encode(static_cast<std::int64_t>(t.o) -
                                      static_cast<std::int64_t>(prev.o)));
    prev = t;
  }
  out.push_back(static_cast<char>(kBlockMagic));
  put_varint(out, ts.size());
  put_varint(out, payload.size());
  out += payload;
  put_u64le(out, sequence_digest(ts));
}

bool decode_block(std::string_view& in, std::vector<Triple>& out,
                  std::string* error) {
  if (in.empty()) return fail(error, "truncated triple block");
  if (static_cast<std::uint8_t>(in.front()) != kBlockMagic) {
    return fail(error, "bad triple block magic");
  }
  in.remove_prefix(1);
  std::uint64_t count = 0;
  std::uint64_t payload_len = 0;
  if (!get_varint(in, count) || !get_varint(in, payload_len)) {
    return fail(error, "truncated triple block header");
  }
  // Each triple needs at least 3 payload bytes; a cheap sanity bound that
  // stops hostile headers from reserving absurd vectors.
  if (count > payload_len && count != 0) {
    return fail(error, "triple block count/payload mismatch");
  }
  if (in.size() < 8 || in.size() - 8 < payload_len) {
    return fail(error, "truncated triple block");
  }
  const std::string_view payload = in.substr(0, payload_len);
  in.remove_prefix(payload_len);
  std::uint64_t checksum = 0;
  get_u64le(in, checksum);
  return decode_payload(payload, count, checksum, out, error);
}

bool read_block(std::istream& in, std::vector<Triple>& out,
                std::string* error) {
  const int magic = in.get();
  if (magic == std::char_traits<char>::eof()) {
    return fail(error, "truncated triple block");
  }
  if (static_cast<std::uint8_t>(magic) != kBlockMagic) {
    return fail(error, "bad triple block magic");
  }
  std::uint64_t count = 0;
  std::uint64_t payload_len = 0;
  if (!get_varint(in, count) || !get_varint(in, payload_len)) {
    return fail(error, "truncated triple block header");
  }
  if (count > payload_len && count != 0) {
    return fail(error, "triple block count/payload mismatch");
  }
  std::string payload;
  // Read in bounded slabs so a corrupt length cannot force one huge
  // allocation before the stream runs dry.
  std::uint64_t remaining = payload_len;
  while (remaining > 0) {
    const std::size_t slab =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, 1 << 16));
    const std::size_t old = payload.size();
    payload.resize(old + slab);
    if (!in.read(payload.data() + old, static_cast<std::streamsize>(slab))) {
      return fail(error, "truncated triple block");
    }
    remaining -= slab;
  }
  std::uint64_t checksum = 0;
  if (!get_u64le(in, checksum)) return fail(error, "truncated triple block");
  return decode_payload(payload, count, checksum, out, error);
}

std::size_t write_blocks(std::ostream& out, std::span<const Triple> ts,
                         std::size_t block_triples) {
  if (block_triples == 0) block_triples = kBlockTriples;
  std::size_t bytes = 0;
  std::string buf;
  std::size_t off = 0;
  // An empty log still writes one (empty) block so readers always see at
  // least one checksummed unit.
  do {
    const std::size_t n = std::min(block_triples, ts.size() - off);
    buf.clear();
    encode_block(ts.subspan(off, n), buf);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    bytes += buf.size();
    off += n;
  } while (off < ts.size());
  return bytes;
}

bool read_blocks(std::istream& in, std::uint64_t expected,
                 const std::function<void(const Triple&)>& sink,
                 std::string* error) {
  std::uint64_t seen = 0;
  std::vector<Triple> block;
  bool first = true;
  while (seen < expected || first) {
    first = false;
    block.clear();
    if (!read_block(in, block, error)) return false;
    if (seen + block.size() > expected) {
      return fail(error, "triple block overruns declared count");
    }
    for (const Triple& t : block) sink(t);
    seen += block.size();
    if (block.empty() && seen < expected) {
      return fail(error, "empty triple block before declared count");
    }
  }
  return true;
}

std::size_t encoded_size(std::span<const Triple> ts) {
  std::ostringstream sink;
  return write_blocks(sink, ts);
}

std::size_t write_terms(std::ostream& out, const Dictionary& dict) {
  std::string buf;
  std::uint64_t digest = kTermSeed;
  std::string_view prev;
  std::size_t bytes = 0;
  for (TermId id = 1; id <= dict.size(); ++id) {
    const std::string& lex = dict.lexical(id);
    const TermKind kind = dict.kind(id);
    std::size_t shared = 0;
    const std::size_t limit = std::min(prev.size(), lex.size());
    while (shared < limit && prev[shared] == lex[shared]) ++shared;
    buf.clear();
    buf.push_back(static_cast<char>(kind));
    put_varint(buf, shared);
    put_varint(buf, lex.size() - shared);
    buf.append(lex, shared, lex.size() - shared);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    bytes += buf.size();
    digest = util::mix64(digest ^ util::fnv1a64(lex) ^
                         util::mix64(static_cast<std::uint64_t>(kind)));
    prev = lex;  // deque-backed storage: the reference stays valid
  }
  buf.clear();
  put_u64le(buf, digest);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  return bytes + buf.size();
}

bool read_terms(std::istream& in, std::uint64_t count, Dictionary& dict,
                std::string* error) {
  std::uint64_t digest = kTermSeed;
  std::string prev;
  std::string cur;
  dict.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const int kind_byte = in.get();
    if (kind_byte == std::char_traits<char>::eof()) {
      return fail(error, "truncated term entry");
    }
    if (kind_byte > static_cast<int>(TermKind::kLiteral)) {
      return fail(error, "invalid term kind");
    }
    const auto kind = static_cast<TermKind>(kind_byte);
    std::uint64_t shared = 0;
    std::uint64_t suffix_len = 0;
    if (!get_varint(in, shared) || !get_varint(in, suffix_len)) {
      return fail(error, "truncated term entry");
    }
    if (shared > prev.size()) {
      return fail(error, "invalid term prefix length");
    }
    cur.assign(prev, 0, static_cast<std::size_t>(shared));
    // Chunked read: never trust a length field with a single allocation.
    std::uint64_t remaining = suffix_len;
    while (remaining > 0) {
      const std::size_t slab =
          static_cast<std::size_t>(std::min<std::uint64_t>(remaining, 1 << 16));
      const std::size_t old = cur.size();
      cur.resize(old + slab);
      if (!in.read(cur.data() + old, static_cast<std::streamsize>(slab))) {
        return fail(error, "truncated term lexical");
      }
      remaining -= slab;
    }
    const TermId id = dict.intern(cur, kind);
    if (id != static_cast<TermId>(i + 1)) {
      return fail(error, "duplicate term in snapshot");
    }
    digest = util::mix64(digest ^ util::fnv1a64(cur) ^
                         util::mix64(static_cast<std::uint64_t>(kind)));
    std::swap(prev, cur);
  }
  std::uint64_t stored = 0;
  if (!get_u64le(in, stored)) return fail(error, "truncated term table");
  if (stored != digest) return fail(error, "term table checksum mismatch");
  return true;
}

}  // namespace parowl::rdf::codec
