#include "parowl/rdf/turtle.hpp"

#include <cctype>
#include <istream>
#include <sstream>
#include <unordered_map>

namespace parowl::rdf {
namespace {

constexpr std::string_view kRdfTypeIri =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
constexpr std::string_view kXsdInteger =
    "http://www.w3.org/2001/XMLSchema#integer";
constexpr std::string_view kXsdDecimal =
    "http://www.w3.org/2001/XMLSchema#decimal";
constexpr std::string_view kXsdBoolean =
    "http://www.w3.org/2001/XMLSchema#boolean";

/// Character-level parser over a document (or a fragment of one, when
/// seeded with the environment and global position of the fragment start).
/// Triples go into a store, which counts duplicates, or onto a plain list,
/// whose reader deduplicates them itself.
class TurtleParser {
 public:
  TurtleParser(std::string_view text, Dictionary& dict, TripleStore* store,
               std::vector<Triple>* list, TurtleEnv env = {},
               std::size_t line_base = 0, std::size_t byte_base = 0)
      : text_(text),
        line_base_(line_base),
        byte_base_(byte_base),
        dict_(dict),
        store_(store),
        list_(list),
        prefixes_(std::move(env.prefixes)),
        base_(std::move(env.base)) {}

  ParseStats run() {
    while (skip_ws(), !eof()) {
      if (!statement()) {
        ++stats_.bad_lines;
        if (stats_.first_error.empty()) {
          const std::size_t line = line_base_ + line_of(error_pos_);
          const std::size_t byte = byte_base_ + error_pos_;
          stats_.first_error = format_parse_error(
              line, byte, error_.empty() ? "malformed statement" : error_);
          stats_.first_error_line = line;
          stats_.first_error_offset = byte;
        }
        recover();
      }
    }
    return stats_;
  }

  /// Prefix/base state after run() — the environment a fragment starting
  /// right after this text would inherit in a serial parse.
  [[nodiscard]] TurtleEnv env() && {
    return TurtleEnv{std::move(prefixes_), std::move(base_)};
  }

 private:
  // ---------------------------------------------------------------- lexing
  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return eof() ? '\0' : text_[pos_]; }
  char take() { return eof() ? '\0' : text_[pos_++]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (!eof() && take() != '\n') {
        }
      } else {
        break;
      }
    }
  }

  bool match_char(char c) {
    skip_ws();
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Case-insensitive keyword match (whole word).
  bool match_keyword(std::string_view word) {
    skip_ws();
    if (pos_ + word.size() > text_.size()) {
      return false;
    }
    for (std::size_t i = 0; i < word.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(text_[pos_ + i])) !=
          std::tolower(static_cast<unsigned char>(word[i]))) {
        return false;
      }
    }
    const std::size_t after = pos_ + word.size();
    if (after < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[after])) ||
         text_[after] == '_' || text_[after] == ':')) {
      return false;  // longer identifier or a prefixed name, not the keyword
    }
    pos_ = after;
    return true;
  }

  bool fail(std::string message) {
    error_ = std::move(message);
    // Anchor the diagnostic to the last meaningful character: skip_ws may
    // have moved past the offending line's newline (e.g. a directive
    // truncated at end of input would otherwise report the next line).
    std::size_t pos = pos_ < text_.size() ? pos_ : text_.size();
    while (pos > 0 &&
           std::isspace(static_cast<unsigned char>(text_[pos - 1]))) {
      --pos;
    }
    error_pos_ = pos;
    return false;
  }

  /// 1-based line number of byte offset `pos` (for error messages).
  [[nodiscard]] std::size_t line_of(std::size_t pos) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
      }
    }
    return line;
  }

  /// Skip to just past the next '.' (statement recovery).
  void recover() {
    while (!eof() && take() != '.') {
    }
  }

  // --------------------------------------------------------------- grammar
  bool statement() {
    skip_ws();
    if (match_keyword("@prefix") || match_keyword("PREFIX")) {
      return prefix_directive();
    }
    if (match_keyword("@base") || match_keyword("BASE")) {
      return base_directive();
    }
    return triples();
  }

  bool prefix_directive() {
    skip_ws();
    // pname ':'
    std::string name;
    while (!eof() && peek() != ':') {
      const char c = take();
      if (std::isspace(static_cast<unsigned char>(c))) {
        return fail("whitespace in prefix name");
      }
      name += c;
    }
    if (!match_char(':')) {
      return fail("expected ':' in @prefix");
    }
    TermId iri_id = kAnyTerm;
    if (!iri_ref(iri_id)) {
      return false;
    }
    prefixes_[name] = dict_.lexical(iri_id);
    match_char('.');  // '.' required for @prefix, absent for PREFIX
    return true;
  }

  bool base_directive() {
    TermId iri_id = kAnyTerm;
    if (!iri_ref(iri_id)) {
      return false;
    }
    base_ = dict_.lexical(iri_id);
    match_char('.');
    return true;
  }

  bool triples() {
    TermId subject = kAnyTerm;
    if (!term(subject, /*object_position=*/false)) {
      return false;
    }
    if (!predicate_object_list(subject)) {
      return false;
    }
    if (!match_char('.')) {
      return fail("expected '.' after triples");
    }
    return true;
  }

  bool predicate_object_list(TermId subject) {
    for (;;) {
      TermId predicate = kAnyTerm;
      skip_ws();
      if (match_keyword("a")) {
        predicate = dict_.intern_iri(kRdfTypeIri);
      } else if (!term(predicate, /*object_position=*/false)) {
        return false;
      }
      // Object list.
      for (;;) {
        TermId object = kAnyTerm;
        if (!term(object, /*object_position=*/true)) {
          return false;
        }
        ++stats_.triples;
        if (list_ != nullptr) {
          list_->push_back({subject, predicate, object});
        } else if (!store_->insert({subject, predicate, object})) {
          ++stats_.duplicates;
        }
        if (!match_char(',')) {
          break;
        }
      }
      if (!match_char(';')) {
        return true;
      }
      // A trailing ';' before '.' is legal Turtle.
      skip_ws();
      if (peek() == '.') {
        return true;
      }
    }
  }

  // ----------------------------------------------------------------- terms
  bool iri_ref(TermId& out) {
    skip_ws();
    if (peek() != '<') {
      return fail("expected <IRI>");
    }
    ++pos_;
    std::string iri;
    while (!eof() && peek() != '>') {
      iri += take();
    }
    if (!match_char('>')) {
      return fail("unterminated IRI");
    }
    // Resolve relative IRIs against @base (simple concatenation semantics:
    // enough for the sliced ontologies this subset targets).
    if (!base_.empty() && iri.find("://") == std::string::npos) {
      iri = base_ + iri;
    }
    out = dict_.intern_iri(iri);
    return true;
  }

  bool term(TermId& out, bool object_position) {
    skip_ws();
    const char c = peek();
    if (c == '<') {
      return iri_ref(out);
    }
    if (c == '_') {
      ++pos_;
      if (take() != ':') {
        return fail("malformed blank node");
      }
      std::string label;
      while (!eof() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                        peek() == '_' || peek() == '-')) {
        label += take();
      }
      if (label.empty()) {
        return fail("empty blank node label");
      }
      out = dict_.intern_blank(label);
      return true;
    }
    if (c == '"') {
      if (!object_position) {
        return fail("literal outside object position");
      }
      return literal(out);
    }
    if (c == '(' || c == '[') {
      return fail("collections/anonymous blank nodes are not supported");
    }
    if (object_position &&
        (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
         c == '+')) {
      return numeric_literal(out);
    }
    if (object_position && match_keyword("true")) {
      out = dict_.intern_literal(std::string("\"true\"^^<") +
                                 std::string(kXsdBoolean) + ">");
      return true;
    }
    if (object_position && match_keyword("false")) {
      out = dict_.intern_literal(std::string("\"false\"^^<") +
                                 std::string(kXsdBoolean) + ">");
      return true;
    }
    return prefixed_name(out);
  }

  bool literal(TermId& out) {
    std::string decorated;
    decorated += take();  // opening quote
    while (!eof() && peek() != '"') {
      const char c = take();
      decorated += c;
      if (c == '\\' && !eof()) {
        decorated += take();
      }
    }
    if (eof()) {
      return fail("unterminated literal");
    }
    decorated += take();  // closing quote
    // Optional @lang or ^^datatype.
    if (peek() == '@') {
      while (!eof() && !std::isspace(static_cast<unsigned char>(peek())) &&
             peek() != ';' && peek() != ',' && peek() != '.') {
        decorated += take();
      }
    } else if (peek() == '^') {
      ++pos_;
      if (take() != '^') {
        return fail("malformed datatype suffix");
      }
      TermId dt = kAnyTerm;
      skip_ws();
      if (peek() == '<') {
        if (!iri_ref(dt)) {
          return false;
        }
      } else if (!prefixed_name(dt)) {
        return false;
      }
      decorated += "^^<" + dict_.lexical(dt) + ">";
    }
    out = dict_.intern_literal(decorated);
    return true;
  }

  bool numeric_literal(TermId& out) {
    std::string digits;
    bool decimal = false;
    if (peek() == '-' || peek() == '+') {
      digits += take();
    }
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                      peek() == '.')) {
      // A '.' followed by a non-digit is the statement terminator.
      if (peek() == '.') {
        if (pos_ + 1 >= text_.size() ||
            !std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
          break;
        }
        decimal = true;
      }
      digits += take();
    }
    if (digits.empty() || digits == "-" || digits == "+") {
      return fail("malformed number");
    }
    const std::string_view type = decimal ? kXsdDecimal : kXsdInteger;
    out = dict_.intern_literal("\"" + digits + "\"^^<" + std::string(type) +
                               ">");
    return true;
  }

  bool prefixed_name(TermId& out) {
    skip_ws();
    std::string prefix;
    while (!eof() && peek() != ':' &&
           (std::isalnum(static_cast<unsigned char>(peek())) ||
            peek() == '_' || peek() == '-')) {
      prefix += take();
    }
    if (!match_char(':')) {
      return fail("expected prefixed name");
    }
    std::string local;
    while (!eof() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                      peek() == '_' || peek() == '-' || peek() == '%')) {
      local += take();
    }
    const auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return fail("unknown prefix '" + prefix + "'");
    }
    out = dict_.intern_iri(it->second + local);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t error_pos_ = 0;
  std::size_t line_base_ = 0;
  std::size_t byte_base_ = 0;
  Dictionary& dict_;
  TripleStore* store_;
  std::vector<Triple>* list_;
  std::unordered_map<std::string, std::string> prefixes_;
  std::string base_;
  std::string error_;
  ParseStats stats_;
};

}  // namespace

ParseStats parse_turtle(std::istream& in, Dictionary& dict,
                        TripleStore& store) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_turtle_text(buffer.str(), dict, store);
}

ParseStats parse_turtle_text(std::string_view text, Dictionary& dict,
                             TripleStore& store) {
  dict.reserve(Dictionary::estimate_terms(text.size()));
  return TurtleParser(text, dict, &store, nullptr).run();
}

ParseStats parse_turtle_fragment(std::string_view fragment, Dictionary& dict,
                                 std::vector<Triple>& out,
                                 const TurtleEnv& env, std::size_t line_base,
                                 std::size_t byte_base) {
  return TurtleParser(fragment, dict, nullptr, &out, env, line_base,
                      byte_base)
      .run();
}

TurtleSpans scan_turtle_spans(std::string_view text) {
  TurtleSpans spans;
  enum class State { kNormal, kComment, kLiteral, kIri };
  State state = State::kNormal;
  std::size_t newlines = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') ++newlines;
    switch (state) {
      case State::kComment:
        if (c == '\n') state = State::kNormal;
        break;
      case State::kLiteral:
        if (c == '\\') {
          // Escaped character: skip it (it may be an escaped quote).
          ++i;
          if (i < text.size() && text[i] == '\n') ++newlines;
        } else if (c == '"') {
          state = State::kNormal;
        }
        break;
      case State::kIri:
        if (c == '>') state = State::kNormal;
        break;
      case State::kNormal:
        if (c == '#') {
          state = State::kComment;
        } else if (c == '"') {
          state = State::kLiteral;
        } else if (c == '<') {
          state = State::kIri;
        } else if (c == '.') {
          // A '.' followed by a digit may be the fraction point of a
          // decimal literal, which the parser consumes mid-statement.
          // Skipping it only merges two spans — always safe.
          const bool digit_next =
              i + 1 < text.size() &&
              std::isdigit(static_cast<unsigned char>(text[i + 1]));
          if (!digit_next) {
            spans.ends.push_back(i + 1);
            spans.newlines.push_back(newlines);
          }
        }
        break;
    }
  }
  return spans;
}

bool turtle_span_declares(std::string_view span) {
  // Find the first token start (the parser's skip_ws also eats comments).
  std::size_t i = 0;
  while (i < span.size()) {
    const char c = span[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (c == '#') {
      while (i < span.size() && span[i] != '\n') ++i;
    } else {
      break;
    }
  }
  const std::string_view rest = span.substr(i);
  const auto starts_keyword = [&rest](std::string_view word) {
    if (rest.size() < word.size()) return false;
    for (std::size_t k = 0; k < word.size(); ++k) {
      if (std::tolower(static_cast<unsigned char>(rest[k])) !=
          std::tolower(static_cast<unsigned char>(word[k]))) {
        return false;
      }
    }
    // Same word-boundary rule as the parser's match_keyword: a longer
    // identifier or prefixed name is not the keyword.
    if (rest.size() > word.size()) {
      const char after = rest[word.size()];
      if (std::isalnum(static_cast<unsigned char>(after)) || after == '_' ||
          after == ':') {
        return false;
      }
    }
    return true;
  };
  return starts_keyword("@prefix") || starts_keyword("PREFIX") ||
         starts_keyword("@base") || starts_keyword("BASE");
}

TurtleEnv scan_turtle_env(std::string_view span, const TurtleEnv& env) {
  // Run the real parser against scratch tables: directive keyword matching,
  // relative-IRI resolution, and failure/recovery semantics are then exactly
  // those of a serial pass over the same bytes.
  Dictionary scratch_dict;
  std::vector<Triple> scratch_triples;
  TurtleParser parser(span, scratch_dict, nullptr, &scratch_triples, env);
  parser.run();
  return std::move(parser).env();
}

}  // namespace parowl::rdf
