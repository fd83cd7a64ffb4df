#include "src/storage/schema.h"

#include <stdexcept>
#include <utility>

#include "src/storage/table_mask.h"

namespace tashkent {

RelationId Schema::Add(RelationMeta meta) {
  // A relation's update-filtering mask bit is its id, so the schema stops
  // where the mask does.
  if (relations_.size() >= TableMask::kBits) {
    throw std::length_error("schema holds at most " + std::to_string(TableMask::kBits) +
                            " relations; cannot add " + meta.name);
  }
  const RelationId id = static_cast<RelationId>(relations_.size());
  meta.id = id;
  auto [it, inserted] = by_name_.emplace(meta.name, id);
  if (!inserted) {
    throw std::invalid_argument("duplicate relation name: " + meta.name);
  }
  relations_.push_back(std::move(meta));
  return id;
}

RelationId Schema::AddTable(std::string name, Bytes size) {
  RelationMeta meta;
  meta.name = std::move(name);
  meta.kind = RelationKind::kTable;
  meta.pages = BytesToPages(size);
  return Add(std::move(meta));
}

RelationId Schema::AddIndex(std::string name, RelationId parent, Bytes size) {
  if (parent >= relations_.size() || relations_[parent].kind != RelationKind::kTable) {
    throw std::invalid_argument("index parent must be an existing table: " + name);
  }
  RelationMeta meta;
  meta.name = std::move(name);
  meta.kind = RelationKind::kIndex;
  meta.parent = parent;
  meta.pages = BytesToPages(size);
  return Add(std::move(meta));
}

RelationId Schema::Find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kInvalidRelation : it->second;
}

Bytes Schema::TotalBytes() const { return PagesToBytes(TotalPages()); }

Pages Schema::TotalPages() const {
  Pages total = 0;
  for (const auto& r : relations_) {
    total += r.pages;
  }
  return total;
}

std::vector<RelationId> Schema::IndicesOf(RelationId table) const {
  std::vector<RelationId> out;
  for (const auto& r : relations_) {
    if (r.kind == RelationKind::kIndex && r.parent == table) {
      out.push_back(r.id);
    }
  }
  return out;
}

}  // namespace tashkent
