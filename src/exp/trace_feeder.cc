#include "exp/trace_feeder.h"

#include <algorithm>

#include "util/logging.h"

namespace webdb {

TraceFeeder::TraceFeeder(WebDatabaseServer* server, const Trace* trace,
                         QcAssigner assigner)
    : server_(server), trace_(trace), assigner_(std::move(assigner)) {
  WEBDB_CHECK(server != nullptr && trace != nullptr);
  WEBDB_CHECK(assigner_ != nullptr);
}

void TraceFeeder::Start() {
  const SimTime first = NextArrival();
  if (first == kSimTimeMax) return;
  server_->sim().ScheduleAt(first, [this] { Pump(); });
}

bool TraceFeeder::Done() const {
  return next_query_ >= trace_->queries.size() &&
         next_update_ >= trace_->updates.size();
}

SimTime TraceFeeder::NextArrival() const {
  SimTime t = kSimTimeMax;
  if (next_query_ < trace_->queries.size()) {
    t = std::min(t, trace_->queries[next_query_].arrival);
  }
  if (next_update_ < trace_->updates.size()) {
    t = std::min(t, trace_->updates[next_update_].arrival);
  }
  return t;
}

void TraceFeeder::Pump() {
  const SimTime now = server_->Now();
  // Submit everything due now. Updates first on ties: an update and a query
  // arriving in the same microsecond should let the query observe it as
  // pending, which is also the deterministic choice.
  while (next_update_ < trace_->updates.size() &&
         trace_->updates[next_update_].arrival <= now) {
    const UpdateRecord& u = trace_->updates[next_update_++];
    server_->SubmitUpdate(u.item, u.value, u.exec_time);
  }
  while (next_query_ < trace_->queries.size() &&
         trace_->queries[next_query_].arrival <= now) {
    const QueryRecord& q = trace_->queries[next_query_++];
    // The record's items go in as a view; the server copies them into its
    // item arena.
    server_->SubmitQuery(q.type, q.items, assigner_(q), q.exec_time,
                         q.tenant);
  }
  const SimTime next = NextArrival();
  if (next != kSimTimeMax) {
    server_->sim().ScheduleAt(next, [this] { Pump(); });
  }
}

}  // namespace webdb
