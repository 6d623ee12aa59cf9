#ifndef CGKGR_SERVE_REQUEST_H_
#define CGKGR_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cgkgr {
namespace serve {

/// One ranked recommendation.
struct ScoredItem {
  int64_t item = 0;
  float score = 0.0f;

  bool operator==(const ScoredItem&) const = default;
};

/// The unified serving request: every entry point (Engine::Handle,
/// Router::Handle, Frontend::Submit) speaks this one struct. The engine
/// ranks every item the user did not interact with in the train split.
struct Request {
  /// User id in [0, num_users) of the serving snapshot.
  int64_t user = 0;
  /// Number of items requested; must be positive.
  int64_t k = 0;
  /// Tenant to route to. Empty selects the router's first tenant; ignored
  /// when calling an Engine directly.
  std::string tenant;
};

/// Terminal state of a Request.
enum class ResponseStatus : uint8_t {
  kOk = 0,
  /// user/k out of range for the serving snapshot.
  kInvalidArgument = 1,
  /// Request named a tenant the router does not host.
  kUnknownTenant = 2,
  /// Admission queue was full; the request was never enqueued.
  kShedQueueFull = 3,
  /// The frontend was shut down before the request was dispatched.
  kShutdown = 4,
};

/// Stable lowercase name for logs / labels.
const char* ResponseStatusName(ResponseStatus status);

/// The unified serving response. `items` is non-empty only for kOk;
/// `generation` records the snapshot generation that served the request.
struct Response {
  ResponseStatus status = ResponseStatus::kOk;
  std::vector<ScoredItem> items;
  uint64_t generation = 0;

  bool ok() const { return status == ResponseStatus::kOk; }
};

}  // namespace serve
}  // namespace cgkgr

#endif  // CGKGR_SERVE_REQUEST_H_
