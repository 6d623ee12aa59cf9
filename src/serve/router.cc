#include "serve/router.h"

#include <atomic>
#include <utility>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace cgkgr {
namespace serve {

namespace {

/// One label set per Router instance: {router="0"}, {router="1"}, ... keeps
/// concurrent routers' counts separable in the shared registry.
obs::Labels NextRouterLabels() {
  static std::atomic<int64_t> next_id{0};
  return {{"router", StrFormat("%lld", static_cast<long long>(next_id.fetch_add(
                                  1, std::memory_order_relaxed)))}};
}

}  // namespace

Router::Router() : labels_(NextRouterLabels()) {
  obs::Labels labels = labels_;
  labels.push_back({"tenant", "<unknown>"});
  unknown_tenant_ = obs::MetricsRegistry::Default().GetCounter(
      "serve_router_unknown_tenant_total", labels);
}

Status Router::AddTenant(const std::string& tenant,
                         std::shared_ptr<const Snapshot> snapshot,
                         const EngineOptions& options) {
  if (tenant.empty()) {
    return Status::InvalidArgument("Router::AddTenant: empty tenant name");
  }
  Result<std::unique_ptr<Engine>> engine =
      Engine::Create(std::move(snapshot), options);
  CGKGR_RETURN_NOT_OK(engine.status());
  obs::Labels labels = labels_;
  labels.push_back({"tenant", tenant});
  obs::Counter* requests = obs::MetricsRegistry::Default().GetCounter(
      "serve_router_requests_total", labels);
  WriterMutexLock lock(&mu_);
  const auto [it, inserted] = tenants_.try_emplace(tenant);
  if (!inserted) {
    return Status::AlreadyExists("Router::AddTenant: tenant \"" + tenant +
                                 "\" already hosted");
  }
  it->second.engine = std::move(engine).value();
  it->second.requests = requests;
  if (first_ == nullptr) first_ = &it->second;
  return Status::OK();
}

const Router::Tenant* Router::Resolve(const std::string& name) const {
  if (name.empty()) return first_;
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : &it->second;
}

Response Router::Handle(const Request& request) {
  return HandleBatch({request}).front();
}

std::vector<Response> Router::HandleBatch(
    const std::vector<Request>& requests) {
  // Resolve everything under one reader lock, grouping request indices per
  // engine so each engine sees one coalescing HandleBatch call.
  std::vector<Response> responses(requests.size());
  std::map<Engine*, std::vector<size_t>> groups;
  {
    ReaderMutexLock lock(&mu_);
    for (size_t i = 0; i < requests.size(); ++i) {
      const Tenant* tenant = Resolve(requests[i].tenant);
      if (tenant == nullptr) {
        unknown_tenant_->Increment();
        responses[i].status = ResponseStatus::kUnknownTenant;
        continue;
      }
      tenant->requests->Increment();
      groups[tenant->engine.get()].push_back(i);
    }
  }
  for (const auto& [engine, indices] : groups) {
    std::vector<Request> sub;
    sub.reserve(indices.size());
    for (const size_t i : indices) sub.push_back(requests[i]);
    std::vector<Response> sub_responses = engine->HandleBatch(sub);
    for (size_t j = 0; j < indices.size(); ++j) {
      responses[indices[j]] = std::move(sub_responses[j]);
    }
  }
  return responses;
}

Engine* Router::GetEngine(const std::string& tenant) const {
  ReaderMutexLock lock(&mu_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.engine.get();
}

}  // namespace serve
}  // namespace cgkgr
