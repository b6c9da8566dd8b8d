#include "parowl/serve/snapshot.hpp"

#include <cassert>
#include <utility>

namespace parowl::serve {

SnapshotRegistry::SnapshotRegistry(SnapshotPtr initial)
    : current_(std::move(initial)) {
  assert(current_ != nullptr);
}

SnapshotPtr SnapshotRegistry::current() const {
  const std::scoped_lock lock(mutex_);
  return current_;
}

std::uint64_t SnapshotRegistry::version() const {
  const std::scoped_lock lock(mutex_);
  return current_->version;
}

void SnapshotRegistry::publish(SnapshotPtr next) {
  assert(next != nullptr);
  const std::scoped_lock lock(mutex_);
  assert(next->version > current_->version);
  current_ = std::move(next);
}

SnapshotPtr make_initial_snapshot(
    rdf::TripleStore store, std::span<const rdf::Triple> base,
    std::shared_ptr<const reason::EqualityManager> equality) {
  auto snap = std::make_shared<KbSnapshot>();
  snap->version = 1;
  snap->delta_begin = store.size();  // nothing is "new" in the first version
  snap->store = std::move(store);
  if (!base.empty()) {
    snap->base = std::make_shared<const rdf::TripleSet>(base);
  }
  assert(equality == nullptr || equality->frozen());
  snap->equality = std::move(equality);
  return snap;
}

}  // namespace parowl::serve
