#ifndef CGKGR_SERVE_ROUTER_H_
#define CGKGR_SERVE_ROUTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "serve/snapshot.h"

namespace cgkgr {
namespace serve {

/// Hosts several Engine instances (model x version) behind the one
/// Request/Response API. A request's `tenant` field selects the engine;
/// the empty tenant resolves to the first tenant added.
///
/// Per-tenant request counts are published as
/// serve_router_requests_total{tenant=...}; requests naming a tenant the
/// router does not host count in serve_router_unknown_tenant_total.
///
/// Thread safety: Handle/HandleBatch may be called concurrently with each
/// other and with engine reloads. AddTenant is serialized against serving
/// by a reader/writer lock; adding tenants while traffic flows is safe,
/// though typically done at startup.
class Router {
 public:
  Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Creates an Engine serving `snapshot` and hosts it as `tenant`. The
  /// first tenant added serves requests with an empty tenant field. Fails
  /// with AlreadyExists for a duplicate name and propagates Engine::Create
  /// validation errors.
  Status AddTenant(const std::string& tenant,
                   std::shared_ptr<const Snapshot> snapshot,
                   const EngineOptions& options) CGKGR_EXCLUDES(mu_);

  /// HandleBatch of the one request.
  Response Handle(const Request& request) CGKGR_EXCLUDES(mu_);

  /// Routes a batch: requests are grouped per tenant engine, served via
  /// each engine's coalescing HandleBatch, and scattered back in order.
  /// Unknown tenants yield kUnknownTenant.
  std::vector<Response> HandleBatch(const std::vector<Request>& requests)
      CGKGR_EXCLUDES(mu_);

  /// The engine hosted for `tenant` (reload entry point), or nullptr for
  /// unknown names. The pointer stays valid for the router's lifetime —
  /// engines are never removed.
  Engine* GetEngine(const std::string& tenant) const CGKGR_EXCLUDES(mu_);

 private:
  struct Tenant {
    std::unique_ptr<Engine> engine;
    /// serve_router_requests_total{router, tenant}.
    obs::Counter* requests = nullptr;
  };

  /// The tenant a request's `tenant` field names, or null when the router
  /// does not host it. Caller must hold mu_ (reader).
  const Tenant* Resolve(const std::string& name) const
      CGKGR_REQUIRES_SHARED(mu_);

  mutable SharedMutex mu_;
  std::map<std::string, Tenant> tenants_ CGKGR_GUARDED_BY(mu_);
  /// The first tenant added; map nodes never move, so the pointer holds.
  const Tenant* first_ CGKGR_GUARDED_BY(mu_) = nullptr;
  /// Per-router instrument labels ({router="<sequential id>"}), extended
  /// with {tenant=...} for the per-tenant counters.
  const obs::Labels labels_;
  /// Requests naming a tenant this router does not host.
  obs::Counter* unknown_tenant_ = nullptr;
};

}  // namespace serve
}  // namespace cgkgr

#endif  // CGKGR_SERVE_ROUTER_H_
