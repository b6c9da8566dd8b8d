#include "parowl/rules/rule_parser.hpp"

#include <istream>
#include <string>

#include "parowl/util/strings.hpp"

namespace parowl::rules {
namespace {

struct Cursor {
  std::string_view rest;
  void skip_ws() {
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
      rest.remove_prefix(1);
    }
  }
  bool eat(char c) {
    skip_ws();
    if (!rest.empty() && rest.front() == c) {
      rest.remove_prefix(1);
      return true;
    }
    return false;
  }
  bool eat(std::string_view tok) {
    skip_ws();
    if (rest.starts_with(tok)) {
      rest.remove_prefix(tok.size());
      return true;
    }
    return false;
  }
};

bool is_term_char(char c) {
  return c != ' ' && c != '\t' && c != ')' && c != '(' && c != '\0';
}

}  // namespace

RuleParser::RuleParser(rdf::Dictionary& dict) : dict_(dict) {
  // Ubiquitous namespaces are always available.
  add_prefix("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#");
  add_prefix("rdfs", "http://www.w3.org/2000/01/rdf-schema#");
  add_prefix("owl", "http://www.w3.org/2002/07/owl#");
}

void RuleParser::add_prefix(std::string name, std::string iri) {
  prefixes_[std::move(name)] = std::move(iri);
}

std::optional<Rule> RuleParser::parse_rule(std::string_view line,
                                           std::string* error) {
  const auto trimmed = util::trim(line);
  if (trimmed.empty() || trimmed.front() == '#') {
    if (error) error->clear();
    return std::nullopt;
  }

  std::unordered_map<std::string, int> var_index;
  auto fail = [&](std::string_view msg) -> std::optional<Rule> {
    if (error) *error = std::string(msg);
    return std::nullopt;
  };

  Cursor cur{trimmed};

  // Optional "name:" label (must not look like a prefixed term in parens).
  std::string name = "rule";
  {
    const auto colon = cur.rest.find(':');
    const auto paren = cur.rest.find('(');
    if (colon != std::string_view::npos &&
        (paren == std::string_view::npos || colon < paren)) {
      name = std::string(util::trim(cur.rest.substr(0, colon)));
      cur.rest.remove_prefix(colon + 1);
    }
  }

  auto parse_term = [&](Cursor& c, AtomTerm& out, std::string& err) -> bool {
    c.skip_ws();
    if (c.rest.empty()) {
      err = "unexpected end of atom";
      return false;
    }
    if (c.rest.front() == '?') {
      std::size_t end = 1;
      while (end < c.rest.size() && is_term_char(c.rest[end])) {
        ++end;
      }
      const std::string vname(c.rest.substr(1, end - 1));
      if (vname.empty()) {
        err = "empty variable name";
        return false;
      }
      c.rest.remove_prefix(end);
      const auto [it, fresh] =
          var_index.try_emplace(vname, static_cast<int>(var_index.size()));
      if (fresh && it->second >= kMaxRuleVars) {
        err = "too many variables in rule";
        return false;
      }
      out = AtomTerm::var(it->second);
      return true;
    }
    if (c.rest.front() == '<') {
      const auto end = c.rest.find('>');
      if (end == std::string_view::npos) {
        err = "unterminated IRI";
        return false;
      }
      out = AtomTerm::constant(dict_.intern_iri(c.rest.substr(1, end - 1)));
      c.rest.remove_prefix(end + 1);
      return true;
    }
    if (c.rest.front() == '"') {
      std::size_t end = 1;
      while (end < c.rest.size() && c.rest[end] != '"') {
        ++end;
      }
      if (end >= c.rest.size()) {
        err = "unterminated literal";
        return false;
      }
      out = AtomTerm::constant(
          dict_.intern_literal(c.rest.substr(0, end + 1)));
      c.rest.remove_prefix(end + 1);
      return true;
    }
    // prefix:local
    std::size_t end = 0;
    while (end < c.rest.size() && is_term_char(c.rest[end])) {
      ++end;
    }
    const auto token = c.rest.substr(0, end);
    const auto colon = token.find(':');
    if (colon == std::string_view::npos) {
      err = "expected prefixed name, got '" + std::string(token) + "'";
      return false;
    }
    const std::string prefix(token.substr(0, colon));
    const auto pit = prefixes_.find(prefix);
    if (pit == prefixes_.end()) {
      err = "unknown prefix '" + prefix + "'";
      return false;
    }
    out = AtomTerm::constant(
        dict_.intern_iri(pit->second + std::string(token.substr(colon + 1))));
    c.rest.remove_prefix(end);
    return true;
  };

  auto parse_atom = [&](Cursor& c, Atom& atom, std::string& err) -> bool {
    if (!c.eat('(')) {
      err = "expected '('";
      return false;
    }
    if (!parse_term(c, atom.s, err) || !parse_term(c, atom.p, err) ||
        !parse_term(c, atom.o, err)) {
      return false;
    }
    if (!c.eat(')')) {
      err = "expected ')'";
      return false;
    }
    return true;
  };

  Rule rule;
  rule.name = std::move(name);
  std::string err;

  // Body atoms until "->".
  for (;;) {
    cur.skip_ws();
    if (cur.rest.starts_with("->")) {
      break;
    }
    if (cur.rest.empty()) {
      return fail("missing '->'");
    }
    Atom atom;
    if (!parse_atom(cur, atom, err)) {
      return fail(err);
    }
    if (rule.body.size() == kMaxBodyAtoms) {
      return fail("rule body has more than " + std::to_string(kMaxBodyAtoms) +
                  " atoms");
    }
    rule.body.push_back(atom);
  }
  cur.eat("->");
  if (!parse_atom(cur, rule.head, err)) {
    return fail(err);
  }
  cur.skip_ws();
  if (!cur.rest.empty()) {
    return fail("trailing characters after head atom");
  }
  rule.num_vars = static_cast<int>(var_index.size());
  if (!rule.well_formed()) {
    return fail("rule is not well-formed (empty body or unsafe head)");
  }
  return rule;
}

std::optional<RuleSet> RuleParser::parse(std::istream& in,
                                         std::string* error) {
  RuleSet out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') {
      continue;
    }
    if (trimmed.starts_with("@prefix")) {
      // @prefix name: <iri>
      auto rest = util::trim(trimmed.substr(7));
      const auto colon = rest.find(':');
      if (colon == std::string_view::npos) {
        if (error) {
          *error = "line " + std::to_string(line_no) + ": bad @prefix";
        }
        return std::nullopt;
      }
      const std::string pname(util::trim(rest.substr(0, colon)));
      rest = util::trim(rest.substr(colon + 1));
      if (rest.size() < 2 || rest.front() != '<' || rest.back() != '>') {
        if (error) {
          *error = "line " + std::to_string(line_no) + ": bad @prefix IRI";
        }
        return std::nullopt;
      }
      add_prefix(pname, std::string(rest.substr(1, rest.size() - 2)));
      continue;
    }
    std::string err;
    auto rule = parse_rule(line, &err);
    if (!rule) {
      if (error) {
        *error = "line " + std::to_string(line_no) + ": " + err;
      }
      return std::nullopt;
    }
    out.add(std::move(*rule));
  }
  return out;
}

}  // namespace parowl::rules
