#include "storage/catalog.h"

#include <algorithm>

namespace pushsip {

Status Catalog::RegisterTable(TablePtr table) {
  if (!table) return Status::InvalidArgument("null table");
  const std::string name = table->name();
  std::lock_guard<std::mutex> lock(mu_);
  if (!tables_.emplace(name, VersionedTable{std::move(table), 1}).second) {
    return Status::AlreadyExists("table already registered: " + name);
  }
  return Status::OK();
}

Status Catalog::ReplaceTable(TablePtr table) {
  if (!table) return Status::InvalidArgument("null table");
  const std::string name = table->name();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  it->second.table = std::move(table);
  ++it->second.version;
  shard_sets_.erase(name);
  return Status::OK();
}

Result<TablePtr> Catalog::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return it->second.table;
}

Result<VersionedTable> Catalog::GetTableWithVersion(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return it->second;
}

uint64_t Catalog::TableVersion(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tables_.find(name);
  return it == tables_.end() ? 0 : it->second.version;
}

bool Catalog::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

size_t Catalog::FootprintBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& [_, vt] : tables_) bytes += vt.table->FootprintBytes();
  return bytes;
}

Result<std::vector<TablePtr>> Catalog::GetShards(const std::string& name,
                                                 int num_sites) const {
  if (num_sites < 1) return Status::InvalidArgument("num_sites must be >= 1");
  TablePtr table;
  std::shared_ptr<ShardSet> set;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound("no table named " + name);
    table = it->second.table;
    std::shared_ptr<ShardSet>& slot = shard_sets_[name][num_sites];
    if (slot == nullptr) slot = std::make_shared<ShardSet>();
    set = slot;
  }
  std::call_once(set->built,
                 [&] { set->shards = ShardRoundRobin(*table, num_sites); });
  return set->shards;
}

}  // namespace pushsip
