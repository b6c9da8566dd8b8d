#include "parowl/partition/multilevel.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>

#include "parowl/util/rng.hpp"
#include "parowl/util/timer.hpp"

namespace parowl::partition {
namespace {

using util::Rng;

/// Stop coarsening once the graph has at most this many vertices.
constexpr std::size_t kCoarsenTo = 96;

/// FM passes per level.
constexpr int kRefinePasses = 6;

/// Heavy-edge matching: visit vertices in random order; match each
/// unmatched vertex with its unmatched neighbor of heaviest edge weight.
/// match[v] == v means unmatched (contracts to a singleton).
std::vector<std::uint32_t> heavy_edge_matching(const Graph& g, Rng& rng) {
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  std::vector<std::uint32_t> match(n);
  std::iota(match.begin(), match.end(), 0u);
  std::vector<bool> matched(n, false);

  for (const std::uint32_t v : order) {
    if (matched[v]) {
      continue;
    }
    std::uint32_t best = v;
    std::uint64_t best_w = 0;
    for (std::size_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::uint32_t u = g.adjncy[e];
      if (!matched[u] && u != v && g.adjwgt[e] > best_w) {
        best_w = g.adjwgt[e];
        best = u;
      }
    }
    matched[v] = true;
    if (best != v) {
      matched[best] = true;
      match[v] = best;
      match[best] = v;
    }
  }
  return match;
}

/// Contract matched pairs into coarse vertices.  Fills `coarse_of` (fine
/// vertex -> coarse vertex).
Graph contract(const Graph& g, const std::vector<std::uint32_t>& match,
               std::vector<std::uint32_t>& coarse_of) {
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  coarse_of.assign(n, 0);
  std::uint32_t next = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (match[v] >= v) {  // representative: self-matched or smaller endpoint
      coarse_of[v] = next;
      if (match[v] != v) {
        coarse_of[match[v]] = next;
      }
      ++next;
    }
  }

  std::vector<std::uint64_t> vwgt(next, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    vwgt[coarse_of[v]] += g.vwgt[v];
  }

  std::vector<WeightedEdge> edges;
  edges.reserve(g.adjncy.size() / 2);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::size_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::uint32_t u = g.adjncy[e];
      if (u < v) {
        continue;  // each undirected edge once
      }
      const std::uint32_t cv = coarse_of[v];
      const std::uint32_t cu = coarse_of[u];
      if (cv != cu) {
        edges.push_back(WeightedEdge{cv, cu, g.adjwgt[e]});
      }
    }
  }
  return build_graph(next, edges, vwgt);
}

std::uint64_t bisection_cut(const Graph& g,
                            const std::vector<std::uint8_t>& side) {
  std::uint64_t cut = 0;
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::uint32_t u = g.adjncy[e];
      if (u > v && side[u] != side[v]) {
        cut += g.adjwgt[e];
      }
    }
  }
  return cut;
}

/// Fiduccia–Mattheyses refinement of a bisection: hill-climbing moves with
/// rollback to the best prefix, respecting the balance envelope.
void fm_refine(const Graph& g, std::vector<std::uint8_t>& side,
               std::uint64_t target0, double tolerance, int passes) {
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  if (n == 0) {
    return;
  }
  const std::uint64_t total = g.total_vwgt;
  const auto max0 = static_cast<std::uint64_t>(
      static_cast<double>(target0) * (1.0 + tolerance));
  const auto max1 = static_cast<std::uint64_t>(
      static_cast<double>(total - target0) * (1.0 + tolerance));

  std::vector<std::int64_t> gain(n);
  std::vector<bool> locked(n);

  for (int pass = 0; pass < passes; ++pass) {
    // gain(v) = (cut edges incident to v) - (internal edges incident to v):
    // the cut reduction from moving v to the other side.
    std::uint64_t w0 = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (side[v] == 0) {
        w0 += g.vwgt[v];
      }
      std::int64_t gv = 0;
      for (std::size_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
        const auto w = static_cast<std::int64_t>(g.adjwgt[e]);
        gv += (side[g.adjncy[e]] != side[v]) ? w : -w;
      }
      gain[v] = gv;
    }
    std::uint64_t w1 = total - w0;
    std::fill(locked.begin(), locked.end(), false);

    // Lazy max-heaps of (gain, vertex), one per current side.
    using Item = std::pair<std::int64_t, std::uint32_t>;
    std::priority_queue<Item> heap[2];
    for (std::uint32_t v = 0; v < n; ++v) {
      heap[side[v]].push({gain[v], v});
    }

    struct Move {
      std::uint32_t v;
      std::int64_t gain;
    };
    std::vector<Move> moves;
    moves.reserve(n);
    std::int64_t cum = 0, best_cum = 0;
    std::size_t best_prefix = 0;
    int stall = 0;
    const int stall_limit = 256;

    while (stall < stall_limit) {
      // Pick the best feasible move across both heaps.
      int from = -1;
      std::uint32_t v = 0;
      std::int64_t best_gain = 0;
      for (int s = 0; s < 2; ++s) {
        while (!heap[s].empty()) {
          const auto [gv, cand] = heap[s].top();
          if (locked[cand] || side[cand] != s || gain[cand] != gv) {
            heap[s].pop();  // stale entry
            continue;
          }
          // Feasible iff the destination stays within its envelope.
          const std::uint64_t dest_w = (s == 0 ? w1 : w0) + g.vwgt[cand];
          const std::uint64_t dest_max = (s == 0 ? max1 : max0);
          if (dest_w > dest_max) {
            heap[s].pop();  // cannot move now; may requeue after others move
            continue;
          }
          if (from == -1 || gv > best_gain) {
            from = s;
            v = cand;
            best_gain = gv;
          }
          break;
        }
      }
      if (from == -1) {
        break;  // no feasible moves remain
      }
      heap[from].pop();
      locked[v] = true;
      side[v] = static_cast<std::uint8_t>(1 - from);
      if (from == 0) {
        w0 -= g.vwgt[v];
        w1 += g.vwgt[v];
      } else {
        w1 -= g.vwgt[v];
        w0 += g.vwgt[v];
      }
      cum += best_gain;
      moves.push_back(Move{v, best_gain});
      if (cum > best_cum) {
        best_cum = cum;
        best_prefix = moves.size();
        stall = 0;
      } else {
        ++stall;
      }
      // Update neighbor gains.
      for (std::size_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
        const std::uint32_t u = g.adjncy[e];
        if (locked[u]) {
          continue;
        }
        const auto w = static_cast<std::int64_t>(g.adjwgt[e]);
        // v changed side: edges to v flip between internal and cut.
        gain[u] += (side[u] == side[v]) ? -2 * w : 2 * w;
        heap[side[u]].push({gain[u], u});
      }
    }

    // Roll back moves beyond the best prefix.
    for (std::size_t i = moves.size(); i > best_prefix; --i) {
      const auto& m = moves[i - 1];
      side[m.v] = static_cast<std::uint8_t>(1 - side[m.v]);
    }
    if (best_cum <= 0) {
      break;  // pass achieved nothing; stop
    }
  }
}

/// Greedy BFS-grown initial bisection on the coarsest graph: grow side 0
/// from a random seed until it reaches target0 weight; restart BFS from an
/// unvisited vertex when a component is exhausted.  Several attempts, best
/// cut wins.
std::vector<std::uint8_t> initial_bisection(const Graph& g,
                                            std::uint64_t target0,
                                            const PartitionerOptions& options,
                                            Rng& rng) {
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  std::vector<std::uint8_t> best(n, 1);
  std::uint64_t best_cut = ~0ULL;

  const int attempts = 4;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    std::vector<std::uint8_t> side(n, 1);
    std::vector<bool> visited(n, false);
    std::queue<std::uint32_t> frontier;
    std::uint64_t w0 = 0;

    while (w0 < target0) {
      if (frontier.empty()) {
        // Seed (or re-seed for the next component) at a random unvisited
        // vertex.
        std::uint32_t seed = 0;
        bool found = false;
        const std::uint32_t start = static_cast<std::uint32_t>(rng.below(n));
        for (std::uint32_t i = 0; i < n; ++i) {
          const std::uint32_t cand = (start + i) % n;
          if (!visited[cand]) {
            seed = cand;
            found = true;
            break;
          }
        }
        if (!found) {
          break;  // everything visited
        }
        visited[seed] = true;
        frontier.push(seed);
      }
      const std::uint32_t v = frontier.front();
      frontier.pop();
      side[v] = 0;
      w0 += g.vwgt[v];
      for (const std::uint32_t u : g.neighbors(v)) {
        if (!visited[u]) {
          visited[u] = true;
          frontier.push(u);
        }
      }
    }

    fm_refine(g, side, target0, options.balance_slack, kRefinePasses);
    const std::uint64_t cut = bisection_cut(g, side);
    if (cut < best_cut) {
      best_cut = cut;
      best = std::move(side);
    }
  }
  return best;
}

/// Multilevel bisection of `g` with side-0 weight target `target0`.
std::vector<std::uint8_t> bisect(const Graph& g, std::uint64_t target0,
                                 const PartitionerOptions& options, Rng& rng) {
  if (g.num_vertices() <= kCoarsenTo) {
    return initial_bisection(g, target0, options, rng);
  }

  const auto match = heavy_edge_matching(g, rng);
  std::vector<std::uint32_t> coarse_of;
  Graph coarse = contract(g, match, coarse_of);

  // Coarsening stalls on graphs with few contractible edges; bail out to
  // the initial partitioner rather than recurse forever.
  if (coarse.num_vertices() >
      static_cast<std::size_t>(0.97 * static_cast<double>(g.num_vertices()))) {
    return initial_bisection(g, target0, options, rng);
  }

  const auto coarse_side = bisect(coarse, target0, options, rng);

  std::vector<std::uint8_t> side(g.num_vertices());
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    side[v] = coarse_side[coarse_of[v]];
  }
  fm_refine(g, side, target0, options.balance_slack, kRefinePasses);
  return side;
}

/// Extract the subgraph induced by vertices with side[v] == s.
struct Subgraph {
  Graph graph;
  std::vector<std::uint32_t> orig;  // subgraph vertex -> parent vertex
};

Subgraph induce(const Graph& g, const std::vector<std::uint8_t>& side,
                std::uint8_t s) {
  Subgraph sub;
  std::vector<std::uint32_t> local(g.num_vertices(),
                                   ~static_cast<std::uint32_t>(0));
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    if (side[v] == s) {
      local[v] = static_cast<std::uint32_t>(sub.orig.size());
      sub.orig.push_back(v);
    }
  }
  std::vector<std::uint64_t> vwgt(sub.orig.size());
  std::vector<WeightedEdge> edges;
  for (std::uint32_t sv = 0; sv < sub.orig.size(); ++sv) {
    const std::uint32_t v = sub.orig[sv];
    vwgt[sv] = g.vwgt[v];
    for (std::size_t e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const std::uint32_t u = g.adjncy[e];
      if (u > v && side[u] == s) {
        edges.push_back(WeightedEdge{sv, local[u], g.adjwgt[e]});
      }
    }
  }
  sub.graph = build_graph(sub.orig.size(), edges, vwgt);
  return sub;
}

void kway(const Graph& g, int k, std::uint32_t base,
          const PartitionerOptions& options, Rng& rng,
          const std::vector<std::uint32_t>& to_parent,
          std::vector<std::uint32_t>& assignment) {
  if (k <= 1 || g.num_vertices() == 0) {
    for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
      assignment[to_parent[v]] = base;
    }
    return;
  }
  const int k0 = k / 2;
  const auto target0 = static_cast<std::uint64_t>(
      static_cast<double>(g.total_vwgt) * k0 / k);
  const auto side = bisect(g, target0, options, rng);

  const Subgraph s0 = induce(g, side, 0);
  const Subgraph s1 = induce(g, side, 1);

  std::vector<std::uint32_t> parent0(s0.orig.size()), parent1(s1.orig.size());
  for (std::uint32_t v = 0; v < s0.orig.size(); ++v) {
    parent0[v] = to_parent[s0.orig[v]];
  }
  for (std::uint32_t v = 0; v < s1.orig.size(); ++v) {
    parent1[v] = to_parent[s1.orig[v]];
  }
  kway(s0.graph, k0, base, options, rng, parent0, assignment);
  kway(s1.graph, k - k0, base + static_cast<std::uint32_t>(k0), options, rng,
       parent1, assignment);
}

/// Raw k-way assignment — the only direct entry into the multilevel
/// machinery; every caller goes through the Partitioner API.
std::vector<std::uint32_t> multilevel_assign(const Graph& graph, int k,
                                             const PartitionerOptions& options) {
  assert(k >= 1);
  std::vector<std::uint32_t> assignment(graph.num_vertices(), 0);
  if (k > 1 && graph.num_vertices() > 0) {
    Rng rng(options.seed);
    std::vector<std::uint32_t> identity(graph.num_vertices());
    std::iota(identity.begin(), identity.end(), 0u);
    kway(graph, k, 0, options, rng, identity, assignment);
  }
  return assignment;
}

}  // namespace

PartitionPlan multilevel_csr_plan(const Graph& graph, int k,
                                  const PartitionerOptions& options) {
  util::Stopwatch watch;
  PartitionPlan plan;
  plan.assignment = multilevel_assign(graph, k, options);
  plan.metrics = compute_graph_metrics(graph, plan.assignment, k);
  plan.partitions = static_cast<std::uint32_t>(k);
  plan.seed = options.seed;
  plan.algorithm = "multilevel";
  plan.triples_ingested = graph.num_edges();
  plan.peak_state_entries = graph.num_vertices() + 2 * graph.num_edges();
  plan.partition_seconds = watch.elapsed_seconds();
  return plan;
}

void MultilevelPartitioner::ingest(std::span<const rdf::Triple> chunk) {
  buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
}

PartitionPlan MultilevelPartitioner::finalize() {
  util::Stopwatch watch;
  const ResourceGraph rg = build_resource_graph(buffer_, *dict_, exclude_);
  PartitionPlan plan =
      multilevel_csr_plan(rg.graph, static_cast<int>(k_), options_);
  plan.owners.reserve(rg.node_term.size());
  for (std::uint32_t v = 0; v < rg.node_term.size(); ++v) {
    plan.owners.emplace(rg.node_term[v], plan.assignment[v]);
  }
  plan.assignment.clear();
  plan.assignment.shrink_to_fit();
  plan.triples_ingested = buffer_.size();
  plan.peak_state_entries =
      buffer_.size() + rg.node_term.size() + 2 * rg.graph.num_edges();
  plan.partition_seconds = watch.elapsed_seconds();
  return plan;
}

}  // namespace parowl::partition
