#include "session/session.hpp"

#include <utility>

#include "util/log.hpp"

namespace rapids {

SessionContext::SessionContext(std::string id)
    : id_(id.empty() ? "session" : std::move(id)) {
  provenance_.set_session_id(id_);
  metrics_.set_label("session.id", id_);
}

ThreadPool& SessionContext::acquire_pool(int workers) {
  const int want = workers < 1 ? 1 : workers;
  if (pool_ == nullptr || pool_->workers() != want) {
    pool_.reset();  // join the old pool before spawning the resized one
    pool_ = std::make_unique<ThreadPool>(want);
  }
  return *pool_;
}

SessionScope::SessionScope(const SessionContext& session, int worker)
    : prev_tag_(current_log_tag()), prev_worker_(current_worker()) {
  set_current_log_tag(session.id().c_str());
  set_current_worker(worker);
}

SessionScope::~SessionScope() {
  set_current_worker(prev_worker_);
  set_current_log_tag(prev_tag_);
}

}  // namespace rapids
