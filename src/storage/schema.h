// Database schema catalog: the set of relations with their sizes.
//
// Mirrors the metadata the paper's load balancer pulls from PostgreSQL
// ("SELECT relpages FROM pg_class WHERE relname = ..."), plus lookup helpers
// used by the query plans and the working-set estimator.
#ifndef SRC_STORAGE_SCHEMA_H_
#define SRC_STORAGE_SCHEMA_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/storage/relation.h"

namespace tashkent {

class Schema {
 public:
  Schema() = default;

  // Adds a table and returns its id. Size is given in bytes for readability at
  // call sites (workload builders quote MB); stored in pages. Ids are dense
  // from 0, and a schema holds at most TableMask::kBits (256) relations: Add
  // throws std::length_error past that (a relation's id is its
  // update-filtering mask bit).
  RelationId AddTable(std::string name, Bytes size);

  // Adds an index on `parent` and returns its id.
  RelationId AddIndex(std::string name, RelationId parent, Bytes size);

  const RelationMeta& Get(RelationId id) const { return relations_.at(id); }
  RelationMeta& GetMutable(RelationId id) { return relations_.at(id); }

  // Returns kInvalidRelation when the name is unknown.
  RelationId Find(std::string_view name) const;

  size_t size() const { return relations_.size(); }
  const std::vector<RelationMeta>& relations() const { return relations_; }

  // Total database size: the paper quotes 0.7/1.8/2.9 GB for TPC-W and 2.2 GB
  // for RUBiS.
  Bytes TotalBytes() const;
  Pages TotalPages() const;

  // Indices associated with a table.
  std::vector<RelationId> IndicesOf(RelationId table) const;

 private:
  RelationId Add(RelationMeta meta);

  std::vector<RelationMeta> relations_;
  std::unordered_map<std::string, RelationId> by_name_;
};

}  // namespace tashkent

#endif  // SRC_STORAGE_SCHEMA_H_
