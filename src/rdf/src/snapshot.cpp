#include "parowl/rdf/snapshot.hpp"

#include <array>
#include <cstring>
#include <istream>
#include <ostream>

#include "parowl/rdf/codec.hpp"
#include "parowl/util/strings.hpp"

namespace parowl::rdf {
namespace {

constexpr char kMagic[4] = {'P', 'A', 'R', 'O'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kVersionEquality = 3;

void put_u32(std::ostream& out, std::uint32_t v) {
  const std::array<char, 4> bytes{
      static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
      static_cast<char>((v >> 16) & 0xff),
      static_cast<char>((v >> 24) & 0xff)};
  out.write(bytes.data(), 4);
}

bool get_u32(std::istream& in, std::uint32_t& v) {
  std::array<char, 4> bytes;
  if (!in.read(bytes.data(), 4)) {
    return false;
  }
  v = static_cast<std::uint8_t>(bytes[0]) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[1])) << 8) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[2]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[3]))
       << 24);
  return true;
}

bool set_error(std::string* error, std::string_view message) {
  if (error) {
    *error = std::string(message);
  }
  return false;
}

void put_varint(std::ostream& out, std::uint64_t v) {
  std::string buf;
  codec::put_varint(buf, v);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

/// Encode the equality trailer: four varint-counted sections, member ids
/// delta-encoded (export order is sorted by member), then the chained
/// digest over every encoded value.
std::string encode_equality(const EqualityClassMap& eq) {
  std::string buf;
  std::uint64_t digest = 0;
  const auto put = [&](std::uint64_t v) {
    codec::put_varint(buf, v);
    digest = util::mix64(digest ^ v);
  };
  put(eq.members.size());
  TermId prev = 0;
  for (const auto& [member, rep] : eq.members) {
    put(member - prev);
    put(rep);
    prev = member;
  }
  put(eq.literals.size());
  for (const auto& [rep, lit] : eq.literals) {
    put(rep);
    put(lit);
  }
  put(eq.self_terms.size());
  prev = 0;
  for (const TermId id : eq.self_terms) {
    put(id - prev);
    prev = id;
  }
  put(eq.raw_edges.size());
  for (const Triple& t : eq.raw_edges) {
    put(t.s);
    put(t.p);
    put(t.o);
  }
  codec::put_u64le(buf, digest);
  return buf;
}

bool decode_equality(std::istream& in, std::uint64_t terms,
                     EqualityClassMap& eq, std::string* error) {
  std::uint64_t digest = 0;
  bool ok = true;
  const auto get = [&]() -> std::uint64_t {
    std::uint64_t v = 0;
    if (!codec::get_varint(in, v)) {
      ok = false;
      return 0;
    }
    digest = util::mix64(digest ^ v);
    return v;
  };
  const auto valid_term = [terms](std::uint64_t id) {
    return id != kAnyTerm && id <= terms;
  };
  const std::uint64_t member_count = get();
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; ok && i < member_count; ++i) {
    const std::uint64_t member = prev + get();
    const std::uint64_t rep = get();
    if (!valid_term(member) || !valid_term(rep)) {
      return set_error(error, "equality map references unknown term");
    }
    eq.members.emplace_back(static_cast<TermId>(member),
                            static_cast<TermId>(rep));
    prev = member;
  }
  const std::uint64_t literal_count = get();
  for (std::uint64_t i = 0; ok && i < literal_count; ++i) {
    const std::uint64_t rep = get();
    const std::uint64_t lit = get();
    if (!valid_term(rep) || !valid_term(lit)) {
      return set_error(error, "equality map references unknown term");
    }
    eq.literals.emplace_back(static_cast<TermId>(rep),
                             static_cast<TermId>(lit));
  }
  const std::uint64_t self_count = get();
  prev = 0;
  for (std::uint64_t i = 0; ok && i < self_count; ++i) {
    const std::uint64_t id = prev + get();
    if (!valid_term(id)) {
      return set_error(error, "equality map references unknown term");
    }
    eq.self_terms.push_back(static_cast<TermId>(id));
    prev = id;
  }
  const std::uint64_t raw_count = get();
  for (std::uint64_t i = 0; ok && i < raw_count; ++i) {
    const std::uint64_t s = get();
    const std::uint64_t p = get();
    const std::uint64_t o = get();
    if (!valid_term(s) || !valid_term(p) || !valid_term(o)) {
      return set_error(error, "equality map references unknown term");
    }
    eq.raw_edges.push_back(Triple{static_cast<TermId>(s),
                                  static_cast<TermId>(p),
                                  static_cast<TermId>(o)});
  }
  if (!ok) {
    return set_error(error, "truncated equality map");
  }
  std::uint64_t expected = 0;
  if (!codec::get_u64le(in, expected) || expected != digest) {
    return set_error(error, "equality map digest mismatch");
  }
  return true;
}

}  // namespace

SnapshotStats save_snapshot(std::ostream& out, const Dictionary& dict,
                            const TripleStore& store,
                            const EqualityClassMap* equality) {
  const bool with_equality = equality != nullptr && !equality->empty();
  SnapshotStats stats;
  out.write(kMagic, 4);
  put_u32(out, with_equality ? kVersionEquality : kVersion);
  stats.bytes = 8;

  std::string head;
  codec::put_varint(head, dict.size());
  out.write(head.data(), static_cast<std::streamsize>(head.size()));
  stats.bytes += head.size();
  stats.bytes += codec::write_terms(out, dict);
  stats.terms = dict.size();

  put_varint(out, store.size());
  head.clear();
  codec::put_varint(head, store.size());
  stats.bytes += head.size();
  stats.bytes += codec::write_blocks(out, store.triples());
  stats.triples = store.size();

  if (with_equality) {
    const std::string trailer = encode_equality(*equality);
    out.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
    stats.bytes += trailer.size();
  }
  return stats;
}

SnapshotStats save_snapshot(std::ostream& out, const Dictionary& dict,
                            const TripleStore& store) {
  return save_snapshot(out, dict, store, nullptr);
}

namespace {

bool load_snapshot_impl(std::istream& in, Dictionary& dict,
                        TripleStore& store, EqualityClassMap* equality,
                        std::string* error) {
  if (dict.size() != 0 || !store.empty()) {
    return set_error(error, "dictionary/store must be empty");
  }
  char magic[4];
  if (!in.read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return set_error(error, "bad magic");
  }
  std::uint32_t version = 0;
  if (!get_u32(in, version) ||
      (version != kVersion && version != kVersionEquality)) {
    return set_error(error, "unsupported snapshot version");
  }
  if (version == kVersionEquality && equality == nullptr) {
    return set_error(error,
                     "snapshot carries an equality class map; load it "
                     "through an equality-aware reader");
  }

  std::uint64_t terms = 0;
  if (!codec::get_varint(in, terms)) {
    return set_error(error, "truncated term table");
  }
  std::string codec_error;
  if (!codec::read_terms(in, terms, dict, &codec_error)) {
    return set_error(error, codec_error);
  }

  std::uint64_t triples = 0;
  if (!codec::get_varint(in, triples)) {
    return set_error(error, "truncated triple count");
  }
  bool in_range = true;
  const auto sink = [&store, &in_range, terms](const Triple& t) {
    if (t.s == kAnyTerm || t.s > terms || t.p == kAnyTerm || t.p > terms ||
        t.o == kAnyTerm || t.o > terms) {
      in_range = false;
      return;
    }
    store.insert(t);
  };
  if (!codec::read_blocks(in, triples, sink, &codec_error)) {
    return set_error(error, codec_error);
  }
  if (!in_range) {
    return set_error(error, "triple references unknown term");
  }
  if (version == kVersionEquality &&
      !decode_equality(in, terms, *equality, error)) {
    return false;
  }
  // A shrunken triple count would otherwise silently drop trailing blocks.
  if (in.peek() != std::char_traits<char>::eof()) {
    return set_error(error, "trailing bytes after snapshot");
  }
  return true;
}

}  // namespace

bool load_snapshot(std::istream& in, Dictionary& dict, TripleStore& store,
                   std::string* error) {
  return load_snapshot_impl(in, dict, store, nullptr, error);
}

bool load_snapshot(std::istream& in, Dictionary& dict, TripleStore& store,
                   EqualityClassMap& equality, std::string* error) {
  equality = EqualityClassMap{};
  return load_snapshot_impl(in, dict, store, &equality, error);
}

obs::FieldList fields(const SnapshotStats& s) {
  return {
      {"terms", s.terms},
      {"triples", s.triples},
      {"bytes", s.bytes},
  };
}

}  // namespace parowl::rdf
