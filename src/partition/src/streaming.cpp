#include "parowl/partition/streaming.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "parowl/util/timer.hpp"

namespace parowl::partition {
namespace {

constexpr std::uint32_t kUnassigned = 0xffffffffu;

/// Internal re-windowing size, in edges.  Incoming chunks of any shape are
/// re-cut into fixed windows so the assignment is independent of ingest
/// chunking (and hence of `--load-threads`).
constexpr std::size_t kWindow = 4096;

/// HDRF balance weight λ: 0 = pure replication greed, larger values push
/// toward equal loads.
constexpr double kHdrfLambda = 1.0;

/// One engine for both streaming heuristics; they differ only in how a
/// window's unassigned vertices pick partitions.  All iteration is over
/// first-seen dense ids or partition indices, never hash-map order, so the
/// result is a pure function of the triple sequence and the options.
class StreamingImpl final : public Partitioner {
 public:
  StreamingImpl(const PartitionerOptions& options, const rdf::Dictionary* dict,
                std::uint32_t num_partitions, const ExcludedTerms* exclude)
      : options_(options),
        dict_(dict),
        exclude_(exclude),
        k_(num_partitions) {
    if (num_partitions == 0) {
      throw std::invalid_argument("streaming partitioner: k must be >= 1");
    }
    if (num_partitions > 64) {
      throw std::invalid_argument(
          "streaming partitioners support at most 64 partitions "
          "(replica sets are 64-bit masks)");
    }
    loads_.assign(k_, 0);
    cut_matrix_.assign(static_cast<std::size_t>(k_) * k_, 0);
    window_.reserve(kWindow);
  }

  void ingest(std::span<const rdf::Triple> chunk) override {
    for (const rdf::Triple& t : chunk) {
      ++triples_ingested_;
      if (excluded(t.s)) {
        continue;
      }
      if (options_.type_predicate != rdf::kAnyTerm &&
          t.p == options_.type_predicate) {
        push(t.s, t.s);  // the object is a class IRI, not a vertex
        continue;
      }
      if (t.o != t.s && dict_ != nullptr && dict_->is_resource(t.o) &&
          !excluded(t.o)) {
        push(t.s, t.o);
      } else {
        push(t.s, t.s);
      }
    }
  }

  PartitionPlan finalize() override {
    process_window();
    util::Stopwatch watch;
    PartitionPlan plan;
    plan.partitions = k_;
    plan.seed = options_.seed;
    plan.algorithm = to_string(options_.kind);
    plan.triples_ingested = triples_ingested_;
    plan.peak_state_entries =
        peak_state_ + static_cast<std::size_t>(k_) * k_ + 2 * k_;
    if (csr_vertices_ > 0) {
      plan.assignment.assign(csr_vertices_, 0);
      for (std::size_t v = 0; v < csr_vertices_; ++v) {
        const auto it = index_.find(static_cast<std::uint32_t>(v));
        plan.assignment[v] = it != index_.end() ? owners_[it->second]
                                                : least_loaded(1);
      }
    } else {
      plan.owners.reserve(keys_.size());
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        plan.owners.emplace(keys_[i], owners_[i]);
      }
    }
    plan.metrics = metrics_from_state();
    plan.partition_seconds = ingest_seconds_ + watch.elapsed_seconds();
    return plan;
  }

  [[nodiscard]] std::string name() const override {
    return options_.kind == PartitionerKind::kHdrf ? "HDRF" : "NE";
  }

  /// CSR replay: vertex ids are the stream keys; each merged undirected
  /// edge is fed once, in vertex order, so the result is deterministic.
  void ingest_csr(const Graph& graph) {
    csr_vertices_ = graph.num_vertices();
    csr_weights_ = &graph.vwgt;
    for (std::uint32_t v = 0; v < csr_vertices_; ++v) {
      ++triples_ingested_;
      if (graph.xadj[v + 1] == graph.xadj[v]) {
        push(v, v);
        continue;
      }
      for (const std::uint32_t u : graph.neighbors(v)) {
        if (u > v) {
          push(v, u);
        }
      }
    }
  }

 private:
  // --- stream state: all O(|V| + k^2 + window) ---

  bool excluded(rdf::TermId term) const {
    return exclude_ != nullptr && exclude_->contains(term);
  }

  std::uint32_t intern(std::uint32_t key) {
    const auto [it, fresh] =
        index_.try_emplace(key, static_cast<std::uint32_t>(keys_.size()));
    if (fresh) {
      keys_.push_back(key);
      owners_.push_back(kUnassigned);
      degrees_.push_back(0);
      masks_.push_back(0);
      weights_.push_back(
          csr_weights_ != nullptr && key < csr_weights_->size()
              ? (*csr_weights_)[key]
              : 1);
    }
    return it->second;
  }

  void push(std::uint32_t key_a, std::uint32_t key_b) {
    const std::uint32_t a = intern(key_a);
    const std::uint32_t b = key_b == key_a ? a : intern(key_b);
    window_.push_back({a, b});
    peak_state_ = std::max(peak_state_, keys_.size() + window_.size());
    if (window_.size() >= kWindow) {
      process_window();
    }
  }

  // Progressive balance cap: a partition is eligible for weight w only if
  // that keeps it within (1 + slack) x the running proportional share.
  // The fallback (least-loaded) is itself <= the average, so the final
  // loads obey max_load <= (1 + slack) * total / k + max_vertex_weight.
  bool eligible(std::uint32_t p, std::uint64_t w) const {
    const double cap = (1.0 + options_.balance_slack) *
                       (static_cast<double>(assigned_weight_ + w) / k_);
    return static_cast<double>(loads_[p] + w) <= cap;
  }

  std::uint32_t least_loaded(std::uint64_t /*w*/) const {
    std::uint32_t best = 0;
    for (std::uint32_t p = 1; p < k_; ++p) {
      if (loads_[p] < loads_[best]) {
        best = p;
      }
    }
    return best;
  }

  void assign_node(std::uint32_t id, std::uint32_t p) {
    owners_[id] = p;
    masks_[id] |= std::uint64_t{1} << p;
    loads_[p] += weights_[id];
    assigned_weight_ += weights_[id];
  }

  void account_edge(std::uint32_t a, std::uint32_t b) {
    const std::uint32_t pa = owners_[a];
    const std::uint32_t pb = owners_[b];
    masks_[a] |= std::uint64_t{1} << pb;
    masks_[b] |= std::uint64_t{1} << pa;
    if (pa != pb) {
      const auto lo = std::min(pa, pb);
      const auto hi = std::max(pa, pb);
      ++cut_matrix_[static_cast<std::size_t>(lo) * k_ + hi];
    }
  }

  // --- windowing ---

  struct Entry {
    std::uint32_t a;
    std::uint32_t b;
  };

  void process_window() {
    if (window_.empty()) {
      return;
    }
    util::Stopwatch watch;
    switch (options_.kind) {
      case PartitionerKind::kHdrf:
        process_hdrf();
        break;
      case PartitionerKind::kNe:
        process_ne();
        break;
      case PartitionerKind::kMultilevel:
        throw std::logic_error("multilevel is not a streaming kind");
    }
    window_.clear();
    ingest_seconds_ += watch.elapsed_seconds();
  }

  void process_hdrf() {
    for (const Entry& e : window_) {
      if (e.a == e.b) {
        if (owners_[e.a] == kUnassigned) {
          assign_node(e.a, pick_balanced(weights_[e.a]));
        }
        continue;
      }
      ++degrees_[e.a];
      ++degrees_[e.b];
      const bool ua = owners_[e.a] == kUnassigned;
      const bool ub = owners_[e.b] == kUnassigned;
      if (ua || ub) {
        const std::uint32_t p = pick_hdrf(e.a, e.b, ua, ub);
        if (ua) {
          assign_node(e.a, p);
        }
        if (ub) {
          assign_node(e.b, p);
        }
      }
      account_edge(e.a, e.b);
    }
  }

  /// HDRF score: replica affinity weighted by normalized partial degree
  /// (the lower-degree endpoint "follows" its partner, so high-degree hubs
  /// absorb the replication) plus λ x a normalized load gap.
  std::uint32_t pick_hdrf(std::uint32_t a, std::uint32_t b, bool ua,
                          bool ub) const {
    const double da = static_cast<double>(degrees_[a]);
    const double db = static_cast<double>(degrees_[b]);
    const double theta_a = da / (da + db);
    const std::uint64_t need =
        (ua ? weights_[a] : 0) + (ub ? weights_[b] : 0);
    std::uint64_t max_load = 0;
    std::uint64_t min_load = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t p = 0; p < k_; ++p) {
      max_load = std::max(max_load, loads_[p]);
      min_load = std::min(min_load, loads_[p]);
    }
    const double spread =
        1e-9 + static_cast<double>(max_load) - static_cast<double>(min_load);
    std::uint32_t best = kUnassigned;
    std::uint32_t fallback = 0;
    double best_score = 0.0;
    for (std::uint32_t p = 0; p < k_; ++p) {
      double score = 0.0;
      if ((masks_[a] >> p) & 1u) {
        score += 1.0 + (1.0 - theta_a);
      }
      if ((masks_[b] >> p) & 1u) {
        score += 1.0 + theta_a;
      }
      score += kHdrfLambda *
               (static_cast<double>(max_load) -
                static_cast<double>(loads_[p])) /
               spread;
      if (loads_[p] < loads_[fallback]) {
        fallback = p;
      }
      if (eligible(p, need) && (best == kUnassigned || score > best_score)) {
        best = p;
        best_score = score;
      }
    }
    return best != kUnassigned ? best : fallback;
  }

  /// Pure balance pick (isolated vertices): least-loaded eligible.
  std::uint32_t pick_balanced(std::uint64_t w) const {
    std::uint32_t best = kUnassigned;
    std::uint32_t fallback = 0;
    for (std::uint32_t p = 0; p < k_; ++p) {
      if (loads_[p] < loads_[fallback]) {
        fallback = p;
      }
      if (eligible(p, w) &&
          (best == kUnassigned || loads_[p] < loads_[best])) {
        best = p;
      }
    }
    return best != kUnassigned ? best : fallback;
  }

  /// Window-local adjacency (first-appearance node order + per-node
  /// neighbor lists) for NE.  State is proportional to the window, not the
  /// stream.
  struct WindowView {
    std::vector<std::uint32_t> nodes;                 // first-appearance order
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> adj;
  };

  WindowView build_window_view() {
    WindowView view;
    view.nodes.reserve(window_.size());
    auto touch = [&](std::uint32_t id) {
      if (window_epoch_of_.size() <= id) {
        window_epoch_of_.resize(keys_.size(), 0);
      }
      if (window_epoch_of_[id] != window_epoch_) {
        window_epoch_of_[id] = window_epoch_;
        view.nodes.push_back(id);
      }
    };
    ++window_epoch_;
    for (const Entry& e : window_) {
      touch(e.a);
      if (e.b != e.a) {
        touch(e.b);
        view.adj[e.a].push_back(e.b);
        view.adj[e.b].push_back(e.a);
      }
    }
    return view;
  }

  void process_ne() {
    const WindowView view = build_window_view();
    const std::size_t region_cap =
        std::max<std::size_t>(2, view.nodes.size() / k_);
    std::vector<std::uint32_t> region;
    std::vector<double> affinity(k_, 0.0);
    ++region_epoch_;
    if (region_epoch_of_.size() < keys_.size()) {
      region_epoch_of_.resize(keys_.size(), 0);
    }
    for (const std::uint32_t seed : view.nodes) {
      if (owners_[seed] != kUnassigned ||
          region_epoch_of_[seed] == region_epoch_) {
        continue;
      }
      // Grow a BFS region through unassigned window neighbors.
      region.clear();
      region.push_back(seed);
      region_epoch_of_[seed] = region_epoch_;
      for (std::size_t head = 0;
           head < region.size() && region.size() < region_cap; ++head) {
        const auto it = view.adj.find(region[head]);
        if (it == view.adj.end()) {
          continue;
        }
        for (const std::uint32_t u : it->second) {
          if (region.size() >= region_cap) {
            break;
          }
          if (owners_[u] == kUnassigned &&
              region_epoch_of_[u] != region_epoch_) {
            region_epoch_of_[u] = region_epoch_;
            region.push_back(u);
          }
        }
      }
      // Boundary affinity: partitions already holding region neighbors.
      std::fill(affinity.begin(), affinity.end(), 0.0);
      std::uint64_t region_weight = 0;
      for (const std::uint32_t v : region) {
        region_weight += weights_[v];
        if (const auto it = view.adj.find(v); it != view.adj.end()) {
          for (const std::uint32_t u : it->second) {
            if (owners_[u] != kUnassigned) {
              affinity[owners_[u]] += 1.0;
            }
          }
        }
      }
      std::uint32_t best = kUnassigned;
      std::uint32_t fallback = 0;
      double best_score = 0.0;
      for (std::uint32_t p = 0; p < k_; ++p) {
        // Affinity first, least-loaded among equals.
        const double score = affinity[p] * static_cast<double>(k_) -
                             1e-6 * static_cast<double>(loads_[p]);
        if (loads_[p] < loads_[fallback]) {
          fallback = p;
        }
        if (eligible(p, region_weight) &&
            (best == kUnassigned || score > best_score)) {
          best = p;
          best_score = score;
        }
      }
      const std::uint32_t p = best != kUnassigned ? best : fallback;
      for (const std::uint32_t v : region) {
        assign_node(v, p);
      }
    }
    for (const Entry& e : window_) {
      if (e.a != e.b) {
        account_edge(e.a, e.b);
      }
    }
  }

  // --- plan assembly ---

  PartitionMetrics metrics_from_state() const {
    std::uint64_t cut = 0;
    for (const std::uint64_t c : cut_matrix_) {
      cut += c;
    }
    return metrics_from_replica_masks(masks_, loads_, cut);
  }

  PartitionerOptions options_;
  const rdf::Dictionary* dict_;
  const ExcludedTerms* exclude_;
  std::uint32_t k_;

  // Dense per-node state, parallel arrays indexed by first-seen id.
  std::unordered_map<std::uint32_t, std::uint32_t> index_;  // key -> id
  std::vector<std::uint32_t> keys_;      // id -> key (TermId or vertex id)
  std::vector<std::uint32_t> owners_;    // id -> partition (or kUnassigned)
  std::vector<std::uint32_t> degrees_;   // id -> partial degree (HDRF)
  std::vector<std::uint64_t> masks_;     // id -> replica bitmask
  std::vector<std::uint64_t> weights_;   // id -> vertex weight

  std::vector<std::uint64_t> loads_;       // partition -> assigned weight
  std::vector<std::uint64_t> cut_matrix_;  // [lo * k + hi] cross edges
  std::uint64_t assigned_weight_ = 0;

  std::vector<Entry> window_;
  std::vector<std::uint32_t> window_epoch_of_;
  std::uint32_t window_epoch_ = 0;
  std::vector<std::uint32_t> region_epoch_of_;
  std::uint32_t region_epoch_ = 0;

  std::size_t csr_vertices_ = 0;
  const std::vector<std::uint64_t>* csr_weights_ = nullptr;

  std::size_t triples_ingested_ = 0;
  std::size_t peak_state_ = 0;
  double ingest_seconds_ = 0.0;
};

}  // namespace

std::unique_ptr<Partitioner> make_streaming_partitioner(
    const PartitionerOptions& options, const rdf::Dictionary& dict,
    std::uint32_t num_partitions, const ExcludedTerms* exclude) {
  if (options.kind == PartitionerKind::kMultilevel) {
    throw std::invalid_argument(
        "multilevel is not a streaming partitioner; use make_partitioner");
  }
  return std::make_unique<StreamingImpl>(options, &dict, num_partitions,
                                         exclude);
}

PartitionPlan streaming_csr_plan(const Graph& graph, int k,
                                 const PartitionerOptions& options) {
  util::Stopwatch watch;
  StreamingImpl impl(options, nullptr, static_cast<std::uint32_t>(k),
                     nullptr);
  impl.ingest_csr(graph);
  PartitionPlan plan = impl.finalize();
  // The full graph exists here, so score the assignment exactly.
  plan.metrics = compute_graph_metrics(graph, plan.assignment, k);
  plan.partition_seconds = watch.elapsed_seconds();
  return plan;
}

}  // namespace parowl::partition
