#include "parowl/rdf/triple_store.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>
#include <tuple>

#include "parowl/obs/metrics.hpp"
#include "parowl/util/thread_team.hpp"

namespace parowl::rdf {

namespace {

/// Source of store tags.  Tag 0 is never issued, so a fresh segment
/// reference (owner 0) is writable by no store.
std::uint64_t next_tag() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// A cloned triple list keeps this much headroom, so the batch that cloned
/// it appends without reallocating the copy.
std::size_t with_headroom(std::size_t n) { return n + n / 8 + 16; }

std::size_t count_clone(std::size_t bytes) {
  PAROWL_COUNT("rdf.store.cow_clone_bytes", bytes);
  return bytes;
}

}  // namespace

TripleStore::TripleStore() : tag_(next_tag()) { clear(); }

// A copy copies the log and shares every segment; both stores then take
// fresh tags, so neither writes a shared segment in place.  The source is
// only read (its segment references and the log) and retagged, which is
// safe against concurrent readers of a published store.  The endpoint
// postings are not copied: the copy rebuilds them on its first unbound
// probe.
TripleStore::TripleStore(const TripleStore& other)
    : log_(other.log_),
      set_(other.set_),
      set_shift_(other.set_shift_),
      set_limit_(other.set_limit_),
      predicate_slot_(other.predicate_slot_),
      segments_(other.segments_),
      predicates_(other.predicates_),
      tag_(next_tag()),
      endpoint_builds_(
          other.endpoint_builds_.load(std::memory_order_relaxed)) {
  other.tag_.store(next_tag(), std::memory_order_relaxed);
}

TripleStore& TripleStore::operator=(const TripleStore& other) {
  if (this != &other) {
    *this = TripleStore(other);
  }
  return *this;
}

TripleStore::TripleStore(TripleStore&& other) noexcept : tag_(next_tag()) {
  *this = std::move(other);
}

TripleStore& TripleStore::operator=(TripleStore&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  log_ = std::move(other.log_);
  set_ = std::move(other.set_);
  set_shift_ = other.set_shift_;
  set_limit_ = other.set_limit_;
  predicate_slot_ = std::move(other.predicate_slot_);
  segments_ = std::move(other.segments_);
  predicates_ = std::move(other.predicates_);
  // The segments other owned are now reachable only from here.
  tag_.store(other.tag_.exchange(next_tag(), std::memory_order_relaxed),
             std::memory_order_relaxed);
  cloned_bytes_ = other.cloned_bytes_;
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

std::size_t TripleStore::unshare(Shared<TripleSet>& ref, std::uint64_t tag) {
  std::size_t bytes = 0;
  if (ref.ptr == nullptr) {
    ref.ptr = std::make_shared<TripleSet>();
  } else {
    ref.ptr = std::make_shared<TripleSet>(*ref.ptr);
    bytes = count_clone(ref.ptr->capacity() * sizeof(Triple));
  }
  ref.owner = tag;
  return bytes;
}

std::size_t TripleStore::unshare(Shared<Segment>& ref, std::uint64_t tag) {
  const std::vector<Triple>& old = ref.ptr->triples;
  std::vector<Triple> triples;
  triples.reserve(with_headroom(old.size()));
  triples.assign(old.begin(), old.end());
  return adopt(ref, tag, std::move(triples));
}

std::size_t TripleStore::adopt(Shared<Segment>& ref, std::uint64_t tag,
                               std::vector<Triple> triples) {
  auto seg = std::make_shared<Segment>();
  seg->triples = std::move(triples);
  seg->objects = ref.ptr->objects;
  seg->subjects = ref.ptr->subjects;
  ref = {std::move(seg), tag};
  return count_clone(
      ref.ptr->triples.size() * sizeof(Triple) +
      (ref.ptr->objects.pages.size() + ref.ptr->subjects.pages.size()) *
          sizeof(std::shared_ptr<PostingPage>));
}

std::size_t TripleStore::unshare(std::shared_ptr<PostingPage>& page,
                                 std::uint64_t tag) {
  std::size_t bytes = 0;
  if (page == nullptr) {
    page = std::make_shared<PostingPage>();
  } else {
    page = std::make_shared<PostingPage>(*page);
    bytes = sizeof(PostingPage) + page->lists.size() * sizeof(SmallIdList);
    for (const SmallIdList& list : page->lists) {
      if (list.size() > SmallIdList::kInline) {
        bytes += list.size() * sizeof(std::uint32_t);
      }
    }
    count_clone(bytes);
  }
  page->owner = tag;
  return bytes;
}

void TripleStore::grow_filter() {
  // Shard i splits into the shards [i << split, (i + 1) << split).
  constexpr unsigned split = kShardBits - kSmallShardBits;
  const std::uint64_t tag = tag_.load(std::memory_order_relaxed);
  std::vector<Shared<TripleSet>> grown(std::size_t{1} << kShardBits);
  for (std::size_t i = 0; i < set_.size(); ++i) {
    if (set_[i].ptr == nullptr) {
      continue;
    }
    for (std::size_t j = i << split; j < (i + 1) << split; ++j) {
      grown[j] = {std::make_shared<TripleSet>(), tag};
      grown[j].ptr->reserve(set_[i].ptr->size() >> split);
    }
    set_[i].ptr->for_each([&](const Triple& t) {
      const std::size_t hash = TripleHash{}(t);
      grown[hash >> (64 - kShardBits)].ptr->insert(t, hash);
    });
  }
  set_ = std::move(grown);
  set_shift_ = 64 - kShardBits;
  set_limit_ = std::numeric_limits<std::size_t>::max();
}

std::uint32_t TripleStore::add_predicate(TermId p) {
  segments_.push_back(
      {std::make_shared<Segment>(), tag_.load(std::memory_order_relaxed)});
  predicates_.push_back(p);
  return static_cast<std::uint32_t>(segments_.size());
}

void TripleStore::reset_endpoint_index() {
  subject_index_.clear();
  object_index_.clear();
  endpoint_built_.store(0, std::memory_order_release);
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
  // Re-shard before the batch rather than part-way through it, when the
  // filter has fewer triples to move (none, for a fresh store).
  if (log_.size() + ts.size() > set_limit_) {
    grow_filter();
  }
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
  // The shard count must not change while the members dedup.
  if (log_.size() + ts.size() > set_limit_) {
    grow_filter();
  }
  const std::uint64_t tag = tag_.load(std::memory_order_relaxed);

  // 1. Dedup.  Member m owns the filter shards s with s % members == m and
  // walks the batch in order, so each shard sees its triples in batch
  // order and keeps the first occurrence.  Each member lists the batch
  // indices it admitted, ascending.
  std::vector<std::vector<std::uint32_t>> fresh(members);
  std::vector<std::size_t> cloned(members, 0);
  team.run([&](unsigned m) {
    std::vector<std::uint32_t>& mine = fresh[m];
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const std::size_t hash = TripleHash{}(ts[i]);
      if (set_shard(hash) % members == m &&
          admit(ts[i], hash, tag, cloned[m])) {
        mine.push_back(static_cast<std::uint32_t>(i));
      }
    }
  });
  std::size_t added = 0;
  for (unsigned m = 0; m < members; ++m) {
    added += fresh[m].size();
    cloned_bytes_ += cloned[m];
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
  // new log positions, in log order.  Every touched segment is unshared
  // here, so the three fill tasks of one predicate never race to clone it.
  std::vector<std::vector<std::uint32_t>> rows(segments_.size());
  TermId last_p = kAnyTerm;
  std::vector<std::uint32_t>* last_rows = nullptr;
  for (std::size_t i = before; i < log_.size(); ++i) {
    const TermId p = log_[i].p;
    if (p != last_p) {
      std::uint32_t& pslot = predicate_slot_[p];
      if (pslot == 0) {
        pslot = add_predicate(p);
        rows.emplace_back();
      }
      last_p = p;
      last_rows = &rows[pslot - 1];
    }
    last_rows->push_back(static_cast<std::uint32_t>(i));
  }
  for (std::uint32_t slot = 0; slot < rows.size(); ++slot) {
    if (!rows[slot].empty()) {
      own_segment(slot, tag);
    }
  }

  // 4. Index fill: three independent tasks per touched predicate, the
  // biggest first so the longest task starts earliest.  A posting task
  // clones the pages it writes; pages belong to one task.
  struct Task {
    std::uint32_t slot;
    std::uint32_t part;  // 0 triples, 1 subject->objects, 2 object->subjects
    std::size_t cloned;
  };
  std::vector<Task> tasks;
  for (std::uint32_t slot = 0; slot < rows.size(); ++slot) {
    if (!rows[slot].empty()) {
      for (std::uint32_t part = 0; part < 3; ++part) {
        tasks.push_back(Task{slot, part, 0});
      }
    }
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [&rows](const Task& a, const Task& b) {
                     return rows[a.slot].size() > rows[b.slot].size();
                   });
  team.for_each(tasks.size(), [&](std::size_t k) {
    Task& task = tasks[k];
    Segment& seg = *segments_[task.slot].ptr;
    const std::vector<std::uint32_t>& at = rows[task.slot];
    switch (task.part) {
      case 0: {
        const std::size_t old = seg.triples.size();
        seg.triples.resize(old + at.size());
        Triple* out = seg.triples.data() + old;
        for (const std::uint32_t i : at) {
          *out++ = log_[i];
        }
        break;
      }
      case 1:
        for (const std::uint32_t i : at) {
          seg.objects.list(log_[i].s, tag, task.cloned).push_back(log_[i].o);
        }
        break;
      default:
        for (const std::uint32_t i : at) {
          seg.subjects.list(log_[i].o, tag, task.cloned)
              .push_back(log_[i].s);
        }
        break;
    }
  });
  for (const Task& task : tasks) {
    cloned_bytes_ += task.cloned;
  }
  return added;
}

namespace {

/// Membership prefilter for erase_all: one bit per hashed (predicate,
/// subject) of the doomed triples, sized to about 64 bits per triple, so
/// a surviving triple almost never reaches the exact set probe.
class DoomedKeys {
 public:
  explicit DoomedKeys(std::span<const Triple> doomed) {
    std::size_t bits = 512;
    while (bits < 64 * doomed.size()) {
      bits *= 2;
    }
    words_.assign(bits / 64, 0);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(bits));
    for (const Triple& t : doomed) {
      const std::size_t b = bit(t);
      words_[b / 64] |= std::uint64_t{1} << (b % 64);
    }
  }

  [[nodiscard]] bool maybe(const Triple& t) const {
    const std::size_t b = bit(t);
    return (words_[b / 64] >> (b % 64) & 1u) != 0;
  }

 private:
  [[nodiscard]] std::size_t bit(const Triple& t) const {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(t.p) << 32 | t.s) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(key >> shift_);
  }

  std::vector<std::uint64_t> words_;
  unsigned shift_ = 0;
};

}  // namespace

std::size_t TripleStore::erase_all(std::span<const Triple> ts) {
  const std::uint64_t tag = tag_.load(std::memory_order_relaxed);
  // 1. Drop the doomed triples from the duplicate filter; `gone` keeps the
  // ones that were present.
  TripleSet gone;
  std::vector<Triple> doomed;
  for (const Triple& t : ts) {
    const std::size_t hash = TripleHash{}(t);
    Shared<TripleSet>& shard = set_[set_shard(hash)];
    if (shard.ptr == nullptr || !shard.ptr->contains(t, hash)) {
      continue;
    }
    if (shard.owner != tag) {
      cloned_bytes_ += unshare(shard, tag);
    }
    shard.ptr->erase(t, hash);
    gone.insert(t, hash);
    doomed.push_back(t);
  }
  if (doomed.empty()) {
    return 0;
  }
  const DoomedKeys keys(doomed);
  const auto is_gone = [&](const Triple& t) {
    return keys.maybe(t) && gone.contains(t);
  };

  // 2. Stable log compaction.
  std::erase_if(log_, is_gone);

  // 3. Per touched predicate: its triple list (cloned and filtered in one
  // pass if shared), then each touched subject's objects list and each
  // touched object's subjects list, one filter per list.  Sorting the
  // doomed triples groups them by (p, s), then by (p, o).
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
    Shared<Segment>& ref = segments_[*predicate_slot_.find(p) - 1];
    const std::vector<Triple>& old = ref.ptr->triples;
    reorder = reorder || is_gone(old.front());
    if (ref.owner != tag) {
      std::vector<Triple> kept;
      kept.reserve(with_headroom(old.size()));
      std::copy_if(old.begin(), old.end(), std::back_inserter(kept),
                   [&](const Triple& t) { return !is_gone(t); });
      cloned_bytes_ += adopt(ref, tag, std::move(kept));
    } else {
      std::erase_if(ref.ptr->triples, is_gone);
    }
    Segment& seg = *ref.ptr;
    reorder = reorder || seg.triples.empty();
    for (auto it = first; it != last; ++it) {
      if (it == first || it[-1].s != it->s) {
        const TermId s = it->s;
        seg.objects.list(s, tag, cloned_bytes_).retain([&](TermId o) {
          return !is_gone({s, p, o});
        });
      }
    }
    std::sort(first, last, by_po);
    for (auto it = first; it != last; ++it) {
      if (it == first || it[-1].o != it->o) {
        const TermId o = it->o;
        seg.subjects.list(o, tag, cloned_bytes_).retain([&](TermId s) {
          return !is_gone({s, p, o});
        });
      }
    }
    first = last;
  }

  // 4. Predicate order: first-seen order over the surviving log, which the
  // erasure changed only if some predicate lost its first triple or all of
  // them.  The scan stops once every live predicate is placed.
  if (reorder) {
    const auto live = static_cast<std::size_t>(
        std::count_if(segments_.begin(), segments_.end(),
                      [](const Shared<Segment>& seg) {
                        return !seg.ptr->triples.empty();
                      }));
    IdMap<std::uint32_t> slots;
    std::vector<Shared<Segment>> segments;
    std::vector<TermId> order;
    for (auto it = log_.begin(); order.size() < live; ++it) {
      std::uint32_t& slot = slots[it->p];
      if (slot == 0) {
        segments.push_back(
            std::move(segments_[*predicate_slot_.find(it->p) - 1]));
        slot = static_cast<std::uint32_t>(segments.size());
        order.push_back(it->p);
      }
    }
    predicate_slot_ = std::move(slots);
    segments_ = std::move(segments);
    predicates_ = std::move(order);
  }

  // 5. The endpoint postings hold log indices, which just shifted.
  reset_endpoint_index();
  return doomed.size();
}

std::size_t TripleStore::count(const TriplePattern& pattern) const {
  std::size_t n = 0;
  match(pattern, [&n](const Triple&) { ++n; });
  return n;
}

void TripleStore::clear() {
  log_.clear();
  set_.assign(std::size_t{1} << kSmallShardBits, {});
  set_shift_ = 64 - kSmallShardBits;
  set_limit_ = kGrowAt;
  predicate_slot_.clear();
  segments_.clear();
  predicates_.clear();
  reset_endpoint_index();
}

}  // namespace parowl::rdf
