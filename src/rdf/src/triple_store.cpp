#include "parowl/rdf/triple_store.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

#include "parowl/util/thread_team.hpp"

namespace parowl::rdf {

TripleStore::TripleStore() = default;

// Copy/move are user-provided only because the lazy endpoint index carries
// an atomic watermark and a mutex.  Copying locks the source so a snapshot
// clone (serve::Updater's copy-on-update) is safe against concurrent
// readers lazily building the source's endpoint postings.
TripleStore::TripleStore(const TripleStore& other) { *this = other; }

TripleStore& TripleStore::operator=(const TripleStore& other) {
  if (this == &other) {
    return *this;
  }
  std::scoped_lock lock(other.endpoint_mu_);
  log_ = other.log_;
  set_ = other.set_;
  predicate_slot_ = other.predicate_slot_;
  predicate_arena_ = other.predicate_arena_;
  predicates_ = other.predicates_;
  subject_index_ = other.subject_index_;
  object_index_ = other.object_index_;
  endpoint_built_.store(other.endpoint_built_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  endpoint_builds_.store(
      other.endpoint_builds_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  return *this;
}

TripleStore::TripleStore(TripleStore&& other) noexcept {
  *this = std::move(other);
}

TripleStore& TripleStore::operator=(TripleStore&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  log_ = std::move(other.log_);
  set_ = std::move(other.set_);
  predicate_slot_ = std::move(other.predicate_slot_);
  predicate_arena_ = std::move(other.predicate_arena_);
  predicates_ = std::move(other.predicates_);
  subject_index_ = std::move(other.subject_index_);
  object_index_ = std::move(other.object_index_);
  endpoint_built_.store(other.endpoint_built_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  endpoint_builds_.store(
      other.endpoint_builds_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  other.clear();
  return *this;
}

void TripleStore::build_endpoint_tail() const {
  std::scoped_lock lock(endpoint_mu_);
  std::size_t i = endpoint_built_.load(std::memory_order_relaxed);
  if (i < log_.size()) {
    endpoint_builds_.fetch_add(1, std::memory_order_relaxed);
  }
  for (; i < log_.size(); ++i) {
    const Triple& t = log_[i];
    const auto log_index = static_cast<std::uint32_t>(i);
    subject_index_.list(t.s).push_back(log_index);
    object_index_.list(t.o).push_back(log_index);
  }
  endpoint_built_.store(i, std::memory_order_release);
}

std::size_t TripleStore::insert_all(std::span<const Triple> ts,
                                   unsigned threads) {
  if (threads <= 1 || ts.size() <= 1) {
    std::size_t added = 0;
    for (const Triple& t : ts) {
      added += insert(t) ? 1 : 0;
    }
    return added;
  }
  util::ThreadTeam team(threads);
  return insert_all(ts, team);
}

std::size_t TripleStore::insert_all(std::span<const Triple> ts,
                                   util::ThreadTeam& team) {
  const unsigned members = team.size();
  // The bulk path indexes the batch and the log with 32-bit positions.
  if (members <= 1 || ts.size() <= 1 ||
      log_.size() + ts.size() > std::numeric_limits<std::uint32_t>::max()) {
    return insert_all(ts, 1u);
  }

  // 1. Dedup.  Member m owns the filter shards s with s % members == m and
  // walks the batch in order, so each shard sees its triples in batch
  // order and keeps the first occurrence.  Each member lists the batch
  // indices it admitted, ascending.
  std::vector<std::vector<std::uint32_t>> fresh(members);
  team.run([&](unsigned m) {
    std::vector<std::uint32_t>& mine = fresh[m];
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const std::size_t hash = TripleHash{}(ts[i]);
      const std::size_t shard = set_shard(hash);
      if (shard % members == m && set_[shard].insert(ts[i], hash)) {
        mine.push_back(static_cast<std::uint32_t>(i));
      }
    }
  });
  std::size_t added = 0;
  for (const auto& f : fresh) {
    added += f.size();
  }
  if (added == 0) {
    return 0;
  }

  // 2. Ordered compaction.  Member r copies the admitted triples of batch
  // range r to the log; the range's output offset is the number of
  // admitted triples before it, counted from the sorted index lists.
  const std::size_t before = log_.size();
  log_.resize(before + added);
  const auto range_begin = [&](std::size_t r) {
    return ts.size() * r / members;
  };
  const auto admitted_before = [&](std::size_t i) {
    std::size_t n = 0;
    for (const auto& f : fresh) {
      n += static_cast<std::size_t>(
          std::lower_bound(f.begin(), f.end(), i) - f.begin());
    }
    return n;
  };
  team.run([&](unsigned r) {
    const std::size_t lo = range_begin(r);
    const std::size_t hi = range_begin(r + 1);
    std::vector<std::uint8_t> keep(hi - lo, 0);
    for (const auto& f : fresh) {
      for (auto it = std::lower_bound(f.begin(), f.end(), lo);
           it != f.end() && *it < hi; ++it) {
        keep[*it - lo] = 1;
      }
    }
    std::size_t out = before + admitted_before(lo);
    for (std::size_t i = lo; i < hi; ++i) {
      if (keep[i - lo] != 0) {
        log_[out++] = ts[i];
      }
    }
  });
  fresh = {};

  // 3. New predicates in first-seen order, and each touched predicate's
  // new log positions, in log order.
  std::vector<std::vector<std::uint32_t>> rows(predicate_arena_.size());
  TermId last_p = kAnyTerm;
  std::vector<std::uint32_t>* last_rows = nullptr;
  for (std::size_t i = before; i < log_.size(); ++i) {
    const TermId p = log_[i].p;
    if (p != last_p) {
      std::uint32_t& pslot = predicate_slot_[p];
      if (pslot == 0) {
        predicate_arena_.emplace_back();
        pslot = static_cast<std::uint32_t>(predicate_arena_.size());
        predicates_.push_back(p);
        rows.emplace_back();
      }
      last_p = p;
      last_rows = &rows[pslot - 1];
    }
    last_rows->push_back(static_cast<std::uint32_t>(i));
  }

  // 4. Index fill: three independent tasks per touched predicate, the
  // biggest first so the longest task starts earliest.
  struct Task {
    std::uint32_t slot;
    std::uint32_t part;  // 0 triples, 1 subject->objects, 2 object->subjects
  };
  std::vector<Task> tasks;
  for (std::uint32_t slot = 0; slot < rows.size(); ++slot) {
    if (!rows[slot].empty()) {
      for (std::uint32_t part = 0; part < 3; ++part) {
        tasks.push_back(Task{slot, part});
      }
    }
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [&rows](const Task& a, const Task& b) {
                     return rows[a.slot].size() > rows[b.slot].size();
                   });
  team.for_each(tasks.size(), [&](std::size_t k) {
    const Task task = tasks[k];
    PredicateIndex& idx = predicate_arena_[task.slot];
    const std::vector<std::uint32_t>& at = rows[task.slot];
    switch (task.part) {
      case 0: {
        const std::size_t old = idx.triples.size();
        idx.triples.resize(old + at.size());
        Triple* out = idx.triples.data() + old;
        for (const std::uint32_t i : at) {
          *out++ = log_[i];
        }
        break;
      }
      case 1:
        for (const std::uint32_t i : at) {
          idx.objects.list(log_[i].s).push_back(log_[i].o);
        }
        break;
      default:
        for (const std::uint32_t i : at) {
          idx.subjects.list(log_[i].o).push_back(log_[i].s);
        }
        break;
    }
  });
  return added;
}

std::size_t TripleStore::erase_all(std::span<const Triple> ts) {
  // 1. Drop the doomed triples from the duplicate filter; `gone` keeps the
  // ones that were present.
  TripleSet gone;
  std::vector<Triple> doomed;
  for (const Triple& t : ts) {
    const std::size_t hash = TripleHash{}(t);
    if (set_[set_shard(hash)].erase(t, hash)) {
      gone.insert(t, hash);
      doomed.push_back(t);
    }
  }
  if (doomed.empty()) {
    return 0;
  }
  const auto is_gone = [&gone](const Triple& t) { return gone.contains(t); };

  // 2. Stable log compaction.
  std::erase_if(log_, is_gone);

  // 3. Per touched predicate: its triple list, then each touched subject's
  // objects list and each touched object's subjects list, one filter per
  // list.  Sorting the doomed triples groups them by (p, s), then by (p, o).
  const auto by_ps = [](const Triple& a, const Triple& b) {
    return std::tie(a.p, a.s, a.o) < std::tie(b.p, b.s, b.o);
  };
  const auto by_po = [](const Triple& a, const Triple& b) {
    return std::tie(a.p, a.o, a.s) < std::tie(b.p, b.o, b.s);
  };
  std::sort(doomed.begin(), doomed.end(), by_ps);
  bool reorder = false;
  for (auto first = doomed.begin(); first != doomed.end();) {
    const TermId p = first->p;
    const auto last = std::find_if(
        first, doomed.end(), [p](const Triple& t) { return t.p != p; });
    PredicateIndex& idx = predicate_arena_[*predicate_slot_.find(p) - 1];
    reorder = reorder || is_gone(idx.triples.front());
    std::erase_if(idx.triples, is_gone);
    reorder = reorder || idx.triples.empty();
    for (auto it = first; it != last; ++it) {
      if (it == first || it[-1].s != it->s) {
        const TermId s = it->s;
        idx.objects.list(s).retain(
            [&](TermId o) { return !gone.contains({s, p, o}); });
      }
    }
    std::sort(first, last, by_po);
    for (auto it = first; it != last; ++it) {
      if (it == first || it[-1].o != it->o) {
        const TermId o = it->o;
        idx.subjects.list(o).retain(
            [&](TermId s) { return !gone.contains({s, p, o}); });
      }
    }
    first = last;
  }

  // 4. Predicate order: first-seen order over the surviving log, which the
  // erasure changed only if some predicate lost its first triple or all of
  // them.  The scan stops once every live predicate is placed.
  if (reorder) {
    const auto live = static_cast<std::size_t>(
        std::count_if(predicate_arena_.begin(), predicate_arena_.end(),
                      [](const PredicateIndex& idx) {
                        return !idx.triples.empty();
                      }));
    IdMap<std::uint32_t> slots;
    std::deque<PredicateIndex> arena;
    std::vector<TermId> order;
    for (auto it = log_.begin(); order.size() < live; ++it) {
      std::uint32_t& slot = slots[it->p];
      if (slot == 0) {
        arena.push_back(
            std::move(predicate_arena_[*predicate_slot_.find(it->p) - 1]));
        slot = static_cast<std::uint32_t>(arena.size());
        order.push_back(it->p);
      }
    }
    predicate_slot_ = std::move(slots);
    predicate_arena_ = std::move(arena);
    predicates_ = std::move(order);
  }

  // 5. The endpoint postings hold log indices, which just shifted.
  subject_index_.clear();
  object_index_.clear();
  endpoint_built_.store(0, std::memory_order_release);
  return doomed.size();
}

std::size_t TripleStore::count(const TriplePattern& pattern) const {
  std::size_t n = 0;
  match(pattern, [&n](const Triple&) { ++n; });
  return n;
}

void TripleStore::clear() {
  log_.clear();
  for (TripleSet& shard : set_) {
    shard.clear();
  }
  predicate_slot_.clear();
  predicate_arena_.clear();
  predicates_.clear();
  subject_index_.clear();
  object_index_.clear();
  endpoint_built_.store(0, std::memory_order_relaxed);
}

}  // namespace parowl::rdf
