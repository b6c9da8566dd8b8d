#include "parowl/query/sparql_parser.hpp"

#include <cctype>
#include <string>

#include "parowl/ontology/vocabulary.hpp"
#include "parowl/util/strings.hpp"

namespace parowl::query {
namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

SparqlParser::SparqlParser(rdf::Dictionary& dict)
    : dict_(dict), rdf_type_(dict.intern_iri(ontology::iri::kRdfType)) {
  add_prefix("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#");
  add_prefix("rdfs", "http://www.w3.org/2000/01/rdf-schema#");
  add_prefix("owl", "http://www.w3.org/2002/07/owl#");
}

void SparqlParser::add_prefix(std::string name, std::string iri) {
  prefixes_[std::move(name)] = std::move(iri);
}

std::optional<SelectQuery> SparqlParser::parse(std::string_view text,
                                               std::string* error) {
  auto fail = [error](std::string_view message) -> std::optional<SelectQuery> {
    if (error) {
      *error = std::string(message);
    }
    return std::nullopt;
  };

  // Tokenize up front; split trailing '.' into its own token.
  struct { std::string_view text; } sc{text};
  std::vector<std::string> tokens;
  {
    while (true) {
      // Manual scan to preserve '.' separation.
      while (!sc.text.empty() &&
             (std::isspace(static_cast<unsigned char>(sc.text.front())) ||
              sc.text.front() == '#')) {
        if (sc.text.front() == '#') {
          const auto eol = sc.text.find('\n');
          sc.text = eol == std::string_view::npos
                        ? std::string_view()
                        : sc.text.substr(eol + 1);
        } else {
          sc.text.remove_prefix(1);
        }
      }
      if (sc.text.empty()) {
        break;
      }
      const char c = sc.text.front();
      if (c == '{' || c == '}') {
        tokens.emplace_back(1, c);
        sc.text.remove_prefix(1);
        continue;
      }
      if (c == '<') {
        const auto end = sc.text.find('>');
        if (end == std::string_view::npos) {
          return fail("unterminated IRI");
        }
        tokens.emplace_back(sc.text.substr(0, end + 1));
        sc.text.remove_prefix(end + 1);
        continue;
      }
      if (c == '"') {
        std::size_t end = 1;
        while (end < sc.text.size() && sc.text[end] != '"') {
          end += sc.text[end] == '\\' ? 2 : 1;
        }
        if (end >= sc.text.size()) {
          return fail("unterminated literal");
        }
        ++end;
        while (end < sc.text.size() && sc.text[end] != ' ' &&
               sc.text[end] != '\t' && sc.text[end] != '\n' &&
               sc.text[end] != '}' && sc.text[end] != '.') {
          ++end;
        }
        tokens.emplace_back(sc.text.substr(0, end));
        sc.text.remove_prefix(end);
        continue;
      }
      std::size_t end = 0;
      while (end < sc.text.size() &&
             !std::isspace(static_cast<unsigned char>(sc.text[end])) &&
             sc.text[end] != '{' && sc.text[end] != '}') {
        ++end;
      }
      std::string token(sc.text.substr(0, end));
      sc.text.remove_prefix(end);
      // Separate a trailing triple-terminator '.'.
      if (token.size() > 1 && token.back() == '.') {
        token.pop_back();
        tokens.push_back(std::move(token));
        tokens.emplace_back(".");
        continue;
      }
      tokens.push_back(std::move(token));
    }
  }

  std::size_t pos = 0;
  auto peek = [&]() -> std::string_view {
    return pos < tokens.size() ? std::string_view(tokens[pos])
                               : std::string_view();
  };
  auto take = [&]() -> std::string_view {
    return pos < tokens.size() ? std::string_view(tokens[pos++])
                               : std::string_view();
  };

  SelectQuery query;
  std::unordered_map<std::string, int> var_ids;
  auto variable = [&](std::string_view name) {
    const auto [it, fresh] = var_ids.try_emplace(
        std::string(name), static_cast<int>(var_ids.size()));
    if (fresh) {
      query.variable_names.emplace_back(name);
    }
    return it->second;
  };

  // PREFIX declarations: they hold for this query only.  A later one
  // overrides an earlier one, and either overrides a registered prefix.
  std::unordered_map<std::string, std::string> declared;
  while (iequals(peek(), "PREFIX")) {
    take();
    std::string name(take());
    if (name.empty() || name.back() != ':') {
      return fail("PREFIX name must end with ':'");
    }
    name.pop_back();
    const std::string_view iri = take();
    if (iri.size() < 2 || iri.front() != '<' || iri.back() != '>') {
      return fail("PREFIX expects <iri>");
    }
    declared[std::move(name)] = iri.substr(1, iri.size() - 2);
  }

  // SELECT clause.
  if (!iequals(take(), "SELECT")) {
    return fail("expected SELECT");
  }
  if (iequals(peek(), "DISTINCT")) {
    take();
    query.distinct = true;
  }
  bool select_star = false;
  while (!peek().empty() && !iequals(peek(), "WHERE") && peek() != "{") {
    const std::string_view tok = take();
    if (tok == "*") {
      select_star = true;
    } else if (tok.front() == '?') {
      query.projection.push_back(variable(tok.substr(1)));
    } else {
      return fail("SELECT expects ?variables or *");
    }
  }
  if (iequals(peek(), "WHERE")) {
    take();
  }
  if (take() != "{") {
    return fail("expected '{' to open the graph pattern");
  }

  // Graph pattern.
  const auto namespace_of =
      [&](const std::string& name) -> const std::string* {
    if (const auto it = declared.find(name); it != declared.end()) {
      return &it->second;
    }
    const auto it = prefixes_.find(name);
    return it == prefixes_.end() ? nullptr : &it->second;
  };
  auto parse_term = [&](std::string_view tok,
                        bool object_position) -> std::optional<rules::AtomTerm> {
    if (tok.empty()) {
      return std::nullopt;
    }
    if (tok.front() == '?') {
      const int v = variable(tok.substr(1));
      if (v >= rules::kMaxRuleVars) {
        return std::nullopt;
      }
      return rules::AtomTerm::var(v);
    }
    if (tok == "a") {
      return rules::AtomTerm::constant(rdf_type_);
    }
    if (tok.front() == '<' && tok.back() == '>') {
      return rules::AtomTerm::constant(
          dict_.intern_iri(tok.substr(1, tok.size() - 2)));
    }
    if (tok.front() == '"') {
      if (!object_position) {
        return std::nullopt;
      }
      return rules::AtomTerm::constant(dict_.intern_literal(tok));
    }
    const auto colon = tok.find(':');
    if (colon == std::string_view::npos) {
      return std::nullopt;
    }
    const std::string* ns = namespace_of(std::string(tok.substr(0, colon)));
    if (ns == nullptr) {
      return std::nullopt;
    }
    return rules::AtomTerm::constant(
        dict_.intern_iri(*ns + std::string(tok.substr(colon + 1))));
  };

  while (peek() != "}") {
    if (peek().empty()) {
      return fail("unterminated graph pattern");
    }
    rules::Atom atom;
    const auto s = parse_term(take(), false);
    const auto p = parse_term(take(), false);
    const auto o = parse_term(take(), true);
    if (!s || !p || !o) {
      return fail("malformed triple pattern");
    }
    atom.s = *s;
    atom.p = *p;
    atom.o = *o;
    if (query.where.size() == rules::kMaxBodyAtoms) {
      return fail("graph pattern has more than " +
                  std::to_string(rules::kMaxBodyAtoms) + " triple patterns");
    }
    query.where.push_back(atom);
    if (peek() == ".") {
      take();
    }
  }
  take();  // '}'

  // Optional LIMIT.
  if (iequals(peek(), "LIMIT")) {
    take();
    const std::string_view n = take();
    std::size_t value = 0;
    for (const char c : n) {
      if (c < '0' || c > '9') {
        return fail("LIMIT expects a number");
      }
      value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    query.limit = value;
  }
  if (!peek().empty()) {
    return fail("unexpected trailing tokens");
  }

  if (query.where.empty()) {
    return fail("empty graph pattern");
  }
  if (select_star || query.projection.empty()) {
    query.projection.clear();
    for (int v = 0; v < query.num_vars(); ++v) {
      query.projection.push_back(v);
    }
  }
  return query;
}

}  // namespace parowl::query
