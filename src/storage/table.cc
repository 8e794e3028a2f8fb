#include "storage/table.h"

namespace pushsip {

namespace {

/// Counts distinct 64-bit hashes. The inputs are splitmix/FNV outputs, so
/// their low bits index an open-addressing table directly; slot value 0
/// marks empty, and a genuine 0 hash is tracked on the side.
class DistinctHashes {
 public:
  void Insert(uint64_t h) {
    if (h == 0) {
      has_zero_ = true;
      return;
    }
    if ((count_ + 1) * 2 > slots_.size()) Grow();
    size_t i = h & mask_;
    while (slots_[i] != 0) {
      if (slots_[i] == h) return;
      i = (i + 1) & mask_;
    }
    slots_[i] = h;
    ++count_;
  }
  int64_t count() const {
    return static_cast<int64_t>(count_) + (has_zero_ ? 1 : 0);
  }

 private:
  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, 0);
    mask_ = slots_.size() - 1;
    for (const uint64_t h : old) {
      if (h == 0) continue;
      size_t i = h & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = h;
    }
  }

  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  size_t count_ = 0;
  bool has_zero_ = false;
};

/// Min/max/NDV of a numeric column stored as `data`. Strict < and > on
/// the first non-null value reproduce Value::Compare's keep-the-first
/// order (NaN and signed zeros included); rows are reported by index so
/// the Values carry the column's logical type (INT64 vs DATE).
template <typename T, typename HashFn>
ColumnStats NumericStats(const Column& column, const T* data, size_t n,
                         HashFn hash) {
  DistinctHashes distinct;
  bool first = true;
  size_t min_row = 0, max_row = 0;
  const bool nullable = !column.null_words().empty();
  for (size_t r = 0; r < n; ++r) {
    if (nullable && column.IsNull(r)) continue;
    const T v = data[r];
    distinct.Insert(hash(v));
    if (first || v < data[min_row]) min_row = r;
    if (first || v > data[max_row]) max_row = r;
    first = false;
  }
  ColumnStats st;
  st.distinct_count = distinct.count();
  if (!first) {
    st.min_value = column.GetValue(min_row);
    st.max_value = column.GetValue(max_row);
  }
  return st;
}

/// Dictionary strings: mark the codes the rows use, then fold min/max and
/// the distinct hashes over those codes only (one pass per entry, not per
/// row). Hashing the entries rather than counting codes keeps the NDV equal
/// to the row-wise one even in a code-addressed dictionary that holds one
/// string under two codes.
ColumnStats StringStats(const Column& column, size_t n) {
  if (column.dict() == nullptr) return {};  // only NULLs so far
  const StringDict& dict = *column.dict();
  std::vector<bool> used(dict.size(), false);
  const uint32_t* codes = column.code_data();
  const bool nullable = !column.null_words().empty();
  for (size_t r = 0; r < n; ++r) {
    if (nullable && column.IsNull(r)) continue;
    used[codes[r]] = true;
  }
  DistinctHashes distinct;
  const std::string* min_s = nullptr;
  const std::string* max_s = nullptr;
  for (uint32_t c = 0; c < dict.size(); ++c) {
    if (!used[c]) continue;
    distinct.Insert(dict.HashOf(c));
    const std::string& s = dict.entry(c);
    if (min_s == nullptr || s.compare(*min_s) < 0) min_s = &s;
    if (max_s == nullptr || s.compare(*max_s) > 0) max_s = &s;
  }
  ColumnStats st;
  st.distinct_count = distinct.count();
  if (min_s != nullptr) {
    st.min_value = Value::String(*min_s);
    st.max_value = Value::String(*max_s);
  }
  return st;
}

/// Mixed-type fallback: Values compared row by row.
ColumnStats VariantStats(const Column& column, size_t n) {
  DistinctHashes distinct;
  ColumnStats st;
  bool first = true;
  for (size_t r = 0; r < n; ++r) {
    if (column.IsNull(r)) continue;
    distinct.Insert(column.HashAt(r));
    const Value v = column.GetValue(r);
    if (first || v.Compare(st.min_value) < 0) st.min_value = v;
    if (first || v.Compare(st.max_value) > 0) st.max_value = v;
    first = false;
  }
  st.distinct_count = distinct.count();
  return st;
}

}  // namespace

void Table::ComputeStats() {
  stats_.assign(schema_.num_fields(), ColumnStats{});
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    const Column& column = cols_[c];
    if (column.is_variant()) {
      stats_[c] = VariantStats(column, num_rows_);
      continue;
    }
    switch (column.type()) {
      case TypeId::kInt64:
      case TypeId::kDate:
        stats_[c] = NumericStats(column, column.i64_data(), num_rows_,
                                 [](int64_t v) { return HashOfInt64(v); });
        break;
      case TypeId::kDouble:
        stats_[c] = NumericStats(column, column.f64_data(), num_rows_,
                                 [](double v) { return HashOfDouble(v); });
        break;
      case TypeId::kString:
        stats_[c] = StringStats(column, num_rows_);
        break;
      case TypeId::kNull:
        break;  // never saw a non-null value: no stats to gather
    }
  }
}

size_t Table::FootprintBytes() const {
  size_t bytes = 0;
  for (const Column& c : cols_) bytes += c.FootprintBytes();
  return bytes;
}

std::vector<TablePtr> ShardRoundRobin(const Table& table, int num_sites) {
  const size_t n = static_cast<size_t>(num_sites);
  std::vector<TablePtr> shards;
  shards.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    auto shard = std::make_shared<Table>(table.name(), table.schema());
    shard->Reserve(table.num_rows() / n + 1);
    shard->SetPrimaryKey(table.primary_key());
    for (const Table::ForeignKey& fk : table.foreign_keys()) {
      shard->AddForeignKey(fk.col, fk.ref_table, fk.ref_col);
    }
    shards.push_back(std::move(shard));
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    shards[r % n]->AppendRowFrom(table, r);
  }
  for (const TablePtr& shard : shards) shard->ComputeStats();
  return shards;
}

}  // namespace pushsip
