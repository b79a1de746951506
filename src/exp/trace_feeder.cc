#include "exp/trace_feeder.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace webdb {

TraceSource::TraceSource(Simulator* sim, const Trace* trace)
    : sim_(sim), trace_(trace) {
  WEBDB_CHECK(sim != nullptr && trace != nullptr);
}

TraceSource::~TraceSource() {
  // The simulator releases an exhausted source by itself.
  if (started_ && !Done()) sim_->DetachArrivals(this);
}

void TraceSource::Start() {
  WEBDB_CHECK_MSG(!started_, "trace source started twice");
  started_ = true;
  sim_->AttachArrivals(this);
}

bool TraceSource::Done() const {
  return next_query_ >= trace_->queries.size() &&
         next_update_ >= trace_->updates.size();
}

SimTime TraceSource::NextArrivalTime() const {
  SimTime t = kSimTimeMax;
  if (next_query_ < trace_->queries.size()) {
    t = std::min(t, trace_->queries[next_query_].arrival);
  }
  if (next_update_ < trace_->updates.size()) {
    t = std::min(t, trace_->updates[next_update_].arrival);
  }
  return t;
}

TraceFeeder::TraceFeeder(WebDatabaseServer* server, const Trace* trace,
                         QcAssigner assigner)
    : TraceSource(server != nullptr ? &server->sim() : nullptr, trace),
      server_(server),
      assigner_(std::move(assigner)) {
  WEBDB_CHECK(assigner_ != nullptr);
}

void TraceFeeder::FireArrivals() {
  SubmitDue(
      [this](const UpdateRecord& u) {
        server_->SubmitUpdate(u.item, u.value, u.exec_time);
      },
      [this](const QueryRecord& q) {
        // The record's items go in as a view; the server copies them into
        // its item arena.
        server_->SubmitQuery(q.type, q.items, assigner_(q), q.exec_time,
                             q.tenant);
      });
}

}  // namespace webdb
