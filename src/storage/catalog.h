// Catalog: named tables, their versions, and the round-robin shards derived
// from each version.
#ifndef PUSHSIP_STORAGE_CATALOG_H_
#define PUSHSIP_STORAGE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace pushsip {

/// A (table, version) snapshot taken atomically under the catalog lock.
/// `version` starts at 1 on registration and increments on every
/// ReplaceTable, so it keys cached derived artifacts (AIP summaries): a
/// summary labeled with the version it was built from can never be
/// mistaken for one over regenerated data.
struct VersionedTable {
  TablePtr table;
  uint64_t version = 0;
};

/// \brief Registry of base tables available to queries.
///
/// Thread-safe: the serving layer shares one catalog across concurrent
/// sessions and may regenerate tables between queries. Tables themselves
/// stay immutable — "mutation" is replacing the TablePtr, which bumps the
/// version while in-flight queries keep scanning their old snapshot.
///
/// Shards are derived artifacts of a table version: GetShards builds the
/// round-robin split of a version once per site count and hands every
/// caller the same immutable shard tables, which stay alive while the
/// catalog still holds that version (or a running query still scans them).
class Catalog {
 public:
  Status RegisterTable(TablePtr table);

  /// Swaps the table registered under `table->name()` for `table`, bumps
  /// its version and drops the shards built from the old version. NotFound
  /// if no table of that name was ever registered.
  Status ReplaceTable(TablePtr table);

  Result<TablePtr> GetTable(const std::string& name) const;

  /// Atomic (table, version) snapshot — the two must be read under one
  /// lock: pairing a new version with an older TablePtr (or vice versa)
  /// would let a cached summary carry a version it was not built from.
  Result<VersionedTable> GetTableWithVersion(const std::string& name) const;

  /// Current version of `name` (0 if absent).
  uint64_t TableVersion(const std::string& name) const;

  bool HasTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Total bytes across all registered tables.
  size_t FootprintBytes() const;

  /// The current version of `name` split round-robin across `num_sites`
  /// (ShardRoundRobin). Built on first request for a (version, num_sites)
  /// pair and shared read-only afterwards. The build runs outside the
  /// catalog lock, so it never blocks GetTable, and single-flight, so
  /// concurrent first callers wait for one build rather than each copying
  /// the table.
  Result<std::vector<TablePtr>> GetShards(const std::string& name,
                                          int num_sites) const;

 private:
  struct ShardSet {
    std::once_flag built;
    std::vector<TablePtr> shards;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, VersionedTable> tables_;
  /// name -> num_sites -> shards of the table's current version. Entries
  /// exist only for current versions: ReplaceTable erases a name's entries
  /// under the same lock that bumps its version.
  mutable std::unordered_map<std::string,
                             std::unordered_map<int, std::shared_ptr<ShardSet>>>
      shard_sets_;
};

}  // namespace pushsip

#endif  // PUSHSIP_STORAGE_CATALOG_H_
