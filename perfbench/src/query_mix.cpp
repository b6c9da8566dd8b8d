#include "query_mix.hpp"

#include <algorithm>
#include <stdexcept>

#include "common.hpp"
#include "parowl/gen/lubm.hpp"
#include "parowl/gen/lubm_queries.hpp"
#include "parowl/query/sparql_parser.hpp"

namespace perfbench {
namespace {

// The generator's shape: departments per university, faculty per
// department (gen::LubmOptions defaults, which every workload uses).
const std::uint32_t kDepartments =
    parowl::gen::LubmOptions{}.departments_per_university;
const std::uint32_t kFaculty =
    parowl::gen::LubmOptions{}.faculty_per_department;

// Every kScanEvery-th request is a constant-free scan (the four scan
// templates in turn, 0.5% of the stream each).
constexpr std::uint64_t kScanEvery = 50;

// The constants gen::lubm_queries() is written against.
constexpr const char* kProfessor0 =
    "<http://www.Department0.Univ0.edu/FullProfessor0>";
constexpr const char* kDepartment0 = "<http://www.Univ0.edu/Department0>";
constexpr const char* kUniversity0 = "<http://www.Univ0.edu>";

void replace_all(std::string& text, const std::string& from,
                 const std::string& to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
}

std::string professor_iri(std::uint32_t u, std::uint32_t d,
                          std::uint32_t f) {
  // Faculty f of a department is a full / associate / assistant professor
  // by f % 10 (the generator's 30/35/35 split).
  const char* label = f % 10 < 3   ? "FullProfessor"
                      : f % 10 < 6 ? "AssociateProfessor"
                                   : "AssistantProfessor";
  return "<http://www.Department" + std::to_string(d) + ".Univ" +
         std::to_string(u) + ".edu/" + label + std::to_string(f) + ">";
}

}  // namespace

Zipf::Zipf(std::uint32_t n) {
  double total = 0.0;
  for (std::uint32_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) {
    c /= total;
  }
}

std::uint32_t Zipf::draw(std::mt19937_64& rng) const {
  const double x = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), x);
  return static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

QueryMix::QueryMix(std::uint32_t universities, std::uint64_t seed)
    : rng_(seed),
      universities_(universities),
      departments_(kDepartments),
      faculty_(kFaculty) {
  for (const parowl::gen::LubmQuery& q : parowl::gen::lubm_queries()) {
    const int number = std::stoi(q.name.substr(1));
    if (number == 9) {
      continue;  // excluded: Student x Faculty cross product
    }
    std::string text = q.sparql;
    // The PREFIX must stay on its own line: the result cache's key
    // normaliser reads '#' as a comment to end of line.
    if (text.find(">\n") == std::string::npos) {
      throw std::runtime_error("LUBM query text lost its PREFIX line");
    }
    replace_all(text, kProfessor0, "{P}");
    replace_all(text, kDepartment0, "{D}");
    replace_all(text, kUniversity0, "{U}");
    templates_.push_back({number, std::move(text)});
  }
  for (const Template& t : templates_) {
    (is_scan(t.number) ? scans_ : points_).push_back(t.number);
  }
}

bool QueryMix::is_scan(int q) { return q == 1 || q == 2 || q == 6 || q == 14; }

std::vector<int> QueryMix::templates() const {
  std::vector<int> out;
  for (const Template& t : templates_) {
    out.push_back(t.number);
  }
  return out;
}

std::string QueryMix::instantiate(int q, std::uint32_t u, std::uint32_t d,
                                  std::uint32_t f) const {
  for (const Template& t : templates_) {
    if (t.number == q) {
      std::string text = t.text;
      replace_all(text, "{P}", professor_iri(u, d, f));
      replace_all(text, "{D}",
                  "<http://www.Univ" + std::to_string(u) + ".edu/Department" +
                      std::to_string(d) + ">");
      replace_all(text, "{U}", "<http://www.Univ" + std::to_string(u) +
                                   ".edu>");
      return text;
    }
  }
  throw std::runtime_error("unknown LUBM template Q" + std::to_string(q));
}

QueryRequest QueryMix::next() {
  // Stratified: scans at a fixed period, point templates in shuffled rounds
  // that use each template once, so every stretch of the stream has the
  // stated proportions; only the constants are random.
  const std::uint64_t n = count_++;
  int q = 0;
  if (n % kScanEvery == kScanEvery - 1) {
    q = scans_[(n / kScanEvery) % scans_.size()];
  } else {
    if (round_.empty()) {
      round_ = points_;
      std::shuffle(round_.begin(), round_.end(), rng_);
    }
    q = round_.back();
    round_.pop_back();
  }
  const std::uint32_t u = universities_.draw(rng_);
  const std::uint32_t d = departments_.draw(rng_);
  const std::uint32_t f = faculty_.draw(rng_);
  return {q, instantiate(q, u, d, f)};
}

void add_query_eval_metrics(const parowl::rdf::TripleStore& store,
                            parowl::rdf::Dictionary& dict,
                            std::uint32_t universities, Result& result) {
  const QueryMix mix(universities, 0);
  parowl::query::SparqlParser parser(dict);
  std::uint64_t rows = 0;
  std::uint64_t answers = 0;
  for (const int q : mix.templates()) {
    // Points: five spread-out instantiations, two evaluations each.
    // Scans have one text; three evaluations.
    const int instances = QueryMix::is_scan(q) ? 1 : 5;
    const int repeats = QueryMix::is_scan(q) ? 3 : 2;
    std::vector<double> times;
    for (int i = 0; i < instances; ++i) {
      const auto k = static_cast<std::uint32_t>(i);
      const std::string text = mix.instantiate(
          q, (7 * k) % universities, k % kDepartments, (5 * k) % kFaculty);
      std::string error;
      const auto parsed = parser.parse(text, &error);
      if (!parsed) {
        std::string why = "Q";
        why += std::to_string(q);
        why += " does not parse: ";
        why += error;
        result.fail(std::move(why));
        continue;
      }
      for (int r = 0; r < repeats; ++r) {
        const Clock::time_point t0 = Clock::now();
        const parowl::query::ResultSet answer =
            parowl::query::evaluate(store, *parsed);
        times.push_back(seconds_between(t0, Clock::now()));
        rows += answer.size();
        ++answers;
      }
    }
    result.add("query.q" + std::to_string(q) + ".eval_s", median(times), "s");
  }
  result.add("query.rows_per_answer",
             answers == 0 ? 0.0
                          : static_cast<double>(rows) /
                                static_cast<double>(answers),
             "rows");
}

}  // namespace perfbench
