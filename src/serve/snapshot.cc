#include "serve/snapshot.h"

#include <limits>
#include <numeric>
#include <utility>

#include "ckpt/io.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "eval/protocol.h"

namespace cgkgr {
namespace serve {

namespace {
/// Section name of the snapshot record stream inside the ckpt frame.
const char kSnapshotSection[] = "serve-snapshot";
}  // namespace

Status ValidateSnapshot(const Snapshot& snapshot, const char* caller) {
  if (snapshot.num_users < 0 || snapshot.num_items < 0 ||
      snapshot.scores.size() !=
          static_cast<size_t>(snapshot.num_users * snapshot.num_items) ||
      snapshot.seen.size() != static_cast<size_t>(snapshot.num_users)) {
    return Status::InvalidArgument(StrFormat(
        "%s: inconsistent snapshot (%lld x %lld, %zu scores, %zu seen "
        "lists)",
        caller, static_cast<long long>(snapshot.num_users),
        static_cast<long long>(snapshot.num_items), snapshot.scores.size(),
        snapshot.seen.size()));
  }
  return Status::OK();
}

Status ValidateSeenList(const std::vector<int64_t>& seen, int64_t num_items,
                        const std::string& origin) {
  for (size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] < 0 || seen[i] >= num_items) {
      return Status::InvalidArgument(StrFormat(
          "%s: seen item %lld out of range [0, %lld)", origin.c_str(),
          static_cast<long long>(seen[i]),
          static_cast<long long>(num_items)));
    }
    if (i > 0 && seen[i] < seen[i - 1]) {
      return Status::InvalidArgument(StrFormat(
          "%s: seen list out of order (%lld after %lld)", origin.c_str(),
          static_cast<long long>(seen[i]),
          static_cast<long long>(seen[i - 1])));
    }
  }
  return Status::OK();
}

Snapshot BuildSnapshot(models::RecommenderModel* model,
                       const data::Dataset& dataset) {
  CGKGR_CHECK(model != nullptr);
  Snapshot snapshot;
  snapshot.model_name = model->name();
  snapshot.dataset_name = dataset.name;
  snapshot.num_users = dataset.num_users;
  snapshot.num_items = dataset.num_items;
  snapshot.scores.resize(
      static_cast<size_t>(dataset.num_users * dataset.num_items));
  snapshot.seen = dataset.BuildTrainPositives();

  std::vector<int64_t> all_items(static_cast<size_t>(dataset.num_items));
  std::iota(all_items.begin(), all_items.end(), int64_t{0});
  eval::RowScorer row_scorer(model);
  for (int64_t user = 0; user < dataset.num_users; ++user) {
    row_scorer.Score(user, all_items,
                     snapshot.scores.data() + user * dataset.num_items);
  }
  return snapshot;
}

Status SaveSnapshot(const Snapshot& snapshot, const std::string& path) {
  CGKGR_CHECK(ValidateSnapshot(snapshot, "SaveSnapshot").ok());
  ckpt::Writer writer;
  writer.BeginSection(kSnapshotSection);
  writer.WriteString(snapshot.model_name);
  writer.WriteString(snapshot.dataset_name);
  writer.WriteI64(snapshot.num_users);
  writer.WriteI64(snapshot.num_items);
  writer.WriteFloats(snapshot.scores.data(),
                     static_cast<int64_t>(snapshot.scores.size()));
  for (const auto& items : snapshot.seen) writer.WriteI64s(items);
  return writer.Commit(path);
}

Result<Snapshot> LoadSnapshot(const std::string& path) {
  Result<ckpt::Reader> opened = ckpt::Reader::Open(path);
  if (!opened.ok()) return opened.status();
  ckpt::Reader reader = std::move(opened).value();
  CGKGR_RETURN_NOT_OK(reader.ExpectSection(kSnapshotSection));

  Snapshot snapshot;
  CGKGR_RETURN_NOT_OK(reader.ReadString(&snapshot.model_name));
  CGKGR_RETURN_NOT_OK(reader.ReadString(&snapshot.dataset_name));
  CGKGR_RETURN_NOT_OK(reader.ReadI64(&snapshot.num_users));
  CGKGR_RETURN_NOT_OK(reader.ReadI64(&snapshot.num_items));
  if (snapshot.num_users < 0 || snapshot.num_items < 0) {
    return Status::InvalidArgument(StrFormat(
        "%s: negative snapshot dimensions (%lld x %lld)", path.c_str(),
        static_cast<long long>(snapshot.num_users),
        static_cast<long long>(snapshot.num_items)));
  }
  if (snapshot.num_items != 0 &&
      snapshot.num_users >
          std::numeric_limits<int64_t>::max() / snapshot.num_items) {
    return Status::InvalidArgument(
        path + ": snapshot dimensions overflow the score matrix size");
  }
  const int64_t expected = snapshot.num_users * snapshot.num_items;
  CGKGR_RETURN_NOT_OK(reader.ReadFloats(&snapshot.scores));
  if (snapshot.scores.size() != static_cast<size_t>(expected)) {
    // The dimensions and the score payload disagree: the file was truncated
    // or padded after framing, or written by a buggy producer. Reject with
    // the exact arithmetic rather than serving a misaligned matrix.
    return Status::InvalidArgument(StrFormat(
        "%s: score payload has %zu values, dimensions %lld x %lld require "
        "%lld — truncated or oversized snapshot",
        path.c_str(), snapshot.scores.size(),
        static_cast<long long>(snapshot.num_users),
        static_cast<long long>(snapshot.num_items),
        static_cast<long long>(expected)));
  }
  snapshot.seen.resize(static_cast<size_t>(snapshot.num_users));
  for (auto& items : snapshot.seen) {
    CGKGR_RETURN_NOT_OK(reader.ReadI64s(&items));
    CGKGR_RETURN_NOT_OK(ValidateSeenList(items, snapshot.num_items, path));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        path + ": trailing records after snapshot — oversized payload");
  }
  return snapshot;
}

}  // namespace serve
}  // namespace cgkgr
