#include "core/cycle_index.h"

#include "csc/girth.h"

namespace csc {

GirthInfo CycleIndex::Girth() const {
  return ComputeGirth(num_vertices(),
                      [this](Vertex v) { return CountShortestCycles(v); });
}

bool CycleIndex::SaveTo(std::string&) const { return false; }

bool CycleIndex::LoadFrom(const std::string&) { return false; }

bool CycleIndex::LoadView(const uint8_t* data, size_t size,
                          std::shared_ptr<const void> /*keep_alive*/) {
  // Copying fallback: backends without a zero-copy form still load the
  // mapped payload, they just materialize it.
  return LoadFrom(std::string(reinterpret_cast<const char*>(data), size));
}

bool CycleIndex::SliceLabels(const std::function<bool(Vertex)>&) {
  return false;
}

std::unique_ptr<CycleIndex> CycleIndex::ApplyLabelPatch(const LabelPatch&) {
  // No patchable label storage: the serving tier derives a full snapshot
  // from its shadow instead.
  return nullptr;
}

}  // namespace csc
