#include "labeling/label_set.h"

#include <algorithm>
#include <cassert>

namespace csc {

void LabelSet::Append(LabelEntry entry) {
  assert(entries_.empty() || entries_.back().hub() < entry.hub());
  entries_.push_back(entry);
}

const LabelEntry* LabelSet::Find(Rank hub_rank) const {
  return const_cast<LabelSet*>(this)->MutableFind(hub_rank);
}

LabelEntry* LabelSet::MutableFind(Rank hub_rank) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), hub_rank,
      [](const LabelEntry& e, Rank r) { return e.hub() < r; });
  if (it == entries_.end() || it->hub() != hub_rank) return nullptr;
  return &*it;
}

void LabelSet::InsertOrReplace(LabelEntry entry) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), entry.hub(),
      [](const LabelEntry& e, Rank r) { return e.hub() < r; });
  if (it != entries_.end() && it->hub() == entry.hub()) {
    *it = entry;
  } else {
    entries_.insert(it, entry);
  }
}

bool LabelSet::Remove(Rank hub_rank) {
  LabelEntry* e = MutableFind(hub_rank);
  if (e == nullptr) return false;
  entries_.erase(entries_.begin() + (e - entries_.data()));
  return true;
}

JoinResult JoinLabels(const LabelSet& out_labels, const LabelSet& in_labels) {
  JoinResult result;
  const auto& a = out_labels.entries();
  const auto& b = in_labels.entries();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    Rank ra = a[i].hub();
    Rank rb = b[j].hub();
    if (ra < rb) {
      ++i;
    } else if (rb < ra) {
      ++j;
    } else {
      Dist d = a[i].dist() + b[j].dist();
      Count c = a[i].count() * b[j].count();
      if (d < result.dist) {
        result.dist = d;
        result.count = c;
      } else if (d == result.dist) {
        result.count += c;
      }
      ++i;
      ++j;
    }
  }
  return result;
}

}  // namespace csc
