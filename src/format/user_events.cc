#include "format/user_events.h"

#include <algorithm>

namespace bullion {

Schema UserEventStore::EventSchema() {
  std::vector<Field> fields;
  fields.push_back({"uid", DataType::Primitive(PhysicalType::kInt64),
                    LogicalType::kPlain, false});
  fields.push_back({"event_ts",
                    DataType::List(DataType::Primitive(PhysicalType::kInt64)),
                    LogicalType::kTimestamp, false});
  fields.push_back({"event_kind",
                    DataType::List(DataType::Primitive(PhysicalType::kInt8)),
                    LogicalType::kPlain, false});
  fields.push_back({"event_item",
                    DataType::List(DataType::Primitive(PhysicalType::kInt64)),
                    LogicalType::kPlain, false});
  fields.push_back({"event_value",
                    DataType::List(DataType::Primitive(PhysicalType::kFloat64)),
                    LogicalType::kPlain, false});
  return Schema(std::move(fields));
}

Status UserEventStore::Write(WritableFile* file,
                             const std::vector<UserHistory>& histories,
                             const UserEventStoreOptions& options) {
  for (size_t i = 1; i < histories.size(); ++i) {
    if (histories[i].uid <= histories[i - 1].uid) {
      return Status::InvalidArgument("histories must be uid-sorted, unique");
    }
  }
  Schema schema = EventSchema();
  WriterOptions wopts = options.writer;
  wopts.rows_per_page = options.rows_per_page;
  TableWriter writer(schema, file, wopts);

  for (size_t start = 0; start < histories.size();
       start += options.users_per_group) {
    size_t end = std::min(histories.size(),
                          start + static_cast<size_t>(options.users_per_group));
    std::vector<ColumnVector> cols;
    for (const LeafColumn& leaf : schema.leaves()) {
      cols.push_back(ColumnVector::ForLeaf(leaf));
    }
    for (size_t u = start; u < end; ++u) {
      const UserHistory& h = histories[u];
      cols[0].AppendInt(h.uid);
      std::vector<int64_t> ts, kind, item;
      std::vector<double> value;
      ts.reserve(h.events.size());
      for (const UserEvent& e : h.events) {
        ts.push_back(e.timestamp);
        kind.push_back(static_cast<int64_t>(e.kind));
        item.push_back(e.item_id);
        value.push_back(e.value);
      }
      cols[1].AppendIntList(ts);
      cols[2].AppendIntList(kind);
      cols[3].AppendIntList(item);
      cols[4].AppendRealList(value);
    }
    BULLION_RETURN_NOT_OK(writer.WriteRowGroup(std::move(cols)));
  }
  return writer.Finish();
}

Result<std::unique_ptr<UserEventStore>> UserEventStore::Open(
    std::unique_ptr<RandomAccessFile> file) {
  BULLION_ASSIGN_OR_RETURN(std::unique_ptr<TableReader> reader,
                           TableReader::Open(std::move(file)));
  return std::unique_ptr<UserEventStore>(
      new UserEventStore(std::move(reader)));
}

Result<UserHistory> UserEventStore::AssembleRow(uint32_t group, uint32_t row,
                                                int64_t uid) const {
  ReadOptions ropts;
  std::vector<ColumnVector> cols;
  BULLION_RETURN_NOT_OK(
      reader_->ReadProjection(group, {1, 2, 3, 4}, ropts, &cols));
  UserHistory h;
  h.uid = uid;
  std::vector<int64_t> ts = cols[0].IntListAt(row);
  std::vector<int64_t> kind = cols[1].IntListAt(row);
  std::vector<int64_t> item = cols[2].IntListAt(row);
  std::vector<double> value = cols[3].RealListAt(row);
  if (ts.size() != kind.size() || ts.size() != item.size() ||
      ts.size() != value.size()) {
    return Status::Corruption("event list columns misaligned");
  }
  h.events.resize(ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    h.events[i] = UserEvent{ts[i],
                            static_cast<UserEvent::Kind>(kind[i]),
                            item[i], value[i]};
  }
  return h;
}

Result<UserHistory> UserEventStore::GetUserHistory(int64_t uid) const {
  ReadOptions ropts;
  // Binary search over row groups: groups are uid-ordered since rows
  // are. Read the (small) uid chunk of the probed group only.
  uint32_t lo = 0, hi = reader_->num_row_groups();
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    ColumnVector uids;
    BULLION_RETURN_NOT_OK(reader_->ReadColumnChunk(mid, 0, ropts, &uids));
    const std::vector<int64_t>& v = uids.int_values();
    if (v.empty()) return Status::Corruption("empty uid chunk");
    if (uid < v.front()) {
      hi = mid;
      continue;
    }
    if (uid > v.back()) {
      lo = mid + 1;
      continue;
    }
    auto it = std::lower_bound(v.begin(), v.end(), uid);
    if (it == v.end() || *it != uid) {
      return Status::NotFound("no such user: " + std::to_string(uid));
    }
    uint32_t row = static_cast<uint32_t>(it - v.begin());
    return AssembleRow(mid, row, uid);
  }
  return Status::NotFound("no such user: " + std::to_string(uid));
}

Status UserEventStore::ScanAll(
    const std::function<void(const UserHistory&)>& fn) const {
  ReadOptions ropts;
  for (uint32_t g = 0; g < reader_->num_row_groups(); ++g) {
    std::vector<ColumnVector> cols;
    BULLION_RETURN_NOT_OK(
        reader_->ReadProjection(g, {0, 1, 2, 3, 4}, ropts, &cols));
    for (size_t r = 0; r < cols[0].num_rows(); ++r) {
      UserHistory h;
      h.uid = cols[0].int_values()[r];
      std::vector<int64_t> ts = cols[1].IntListAt(r);
      std::vector<int64_t> kind = cols[2].IntListAt(r);
      std::vector<int64_t> item = cols[3].IntListAt(r);
      std::vector<double> value = cols[4].RealListAt(r);
      h.events.resize(ts.size());
      for (size_t i = 0; i < ts.size(); ++i) {
        h.events[i] = UserEvent{ts[i],
                                static_cast<UserEvent::Kind>(kind[i]),
                                item[i], value[i]};
      }
      fn(h);
    }
  }
  return Status::OK();
}

}  // namespace bullion
