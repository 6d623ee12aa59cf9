#include "serve/request.h"

namespace cgkgr {
namespace serve {

const char* ResponseStatusName(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kInvalidArgument:
      return "invalid_argument";
    case ResponseStatus::kUnknownTenant:
      return "unknown_tenant";
    case ResponseStatus::kShedQueueFull:
      return "shed_queue_full";
    case ResponseStatus::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

}  // namespace serve
}  // namespace cgkgr
