#include "labeling/inverted_index.h"

#include "labeling/hub_labeling.h"

namespace csc {

namespace {

const LabelSet& SideOf(const HubLabeling& labeling, LabelDirection direction,
                       Vertex v) {
  return direction == LabelDirection::kIn ? labeling.in[v] : labeling.out[v];
}

}  // namespace

void InvertedIndex::Clear() {
  for (auto& bucket : by_hub_) bucket.clear();
}

void InvertedIndex::Add(Rank hub, Vertex vertex) {
  if (hub >= by_hub_.size()) by_hub_.resize(static_cast<size_t>(hub) + 1);
  by_hub_[hub].insert(vertex);
}

void InvertedIndex::Remove(Rank hub, Vertex vertex) {
  if (hub >= by_hub_.size()) return;
  by_hub_[hub].erase(vertex);
}

bool InvertedIndex::Contains(Rank hub, Vertex vertex) const {
  return hub < by_hub_.size() && by_hub_[hub].count(vertex) > 0;
}

const std::unordered_set<Vertex>& InvertedIndex::Vertices(Rank hub) const {
  static const std::unordered_set<Vertex> kEmpty;
  return hub < by_hub_.size() ? by_hub_[hub] : kEmpty;
}

void InvertedIndex::BuildFrom(const HubLabeling& labeling,
                              LabelDirection direction, size_t num_ranks) {
  by_hub_.assign(num_ranks, {});
  for (Vertex v = 0; v < labeling.num_vertices(); ++v) {
    for (const LabelEntry& e : SideOf(labeling, direction, v).entries()) {
      Add(e.hub(), v);
    }
  }
}

bool InvertedIndex::ConsistentWith(const HubLabeling& labeling,
                                   LabelDirection direction) const {
  uint64_t label_entries = 0;
  for (Vertex v = 0; v < labeling.num_vertices(); ++v) {
    for (const LabelEntry& e : SideOf(labeling, direction, v).entries()) {
      if (!Contains(e.hub(), v)) return false;
      ++label_entries;
    }
  }
  // Every label entry is mirrored; equal totals rule out stale extras.
  return TotalEntries() == label_entries;
}

uint64_t InvertedIndex::TotalEntries() const {
  uint64_t total = 0;
  for (const auto& s : by_hub_) total += s.size();
  return total;
}

}  // namespace csc
