// Feeds a trace into a simulation as the simulator's arrival source
// (DESIGN.md §9, "Arrivals off the heap"). The trace's two sorted record
// streams are merged into one arrival order that the simulator runs beside
// its event heap, so an arrival instant takes no event slot, closure or
// heap sift, and the feeder's footprint is constant regardless of trace
// size. TraceFeeder drives one WebDatabaseServer; each query is assigned a
// Quality Contract by the caller-supplied assigner at its arrival instant.

#ifndef WEBDB_EXP_TRACE_FEEDER_H_
#define WEBDB_EXP_TRACE_FEEDER_H_

#include <cstddef>
#include <functional>

#include "qc/quality_contract.h"
#include "server/web_database_server.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace webdb {

// A trace as an arrival source: its update and query streams merged by
// arrival time. Each instant hands out every record due at it, updates
// before queries: an update and a query arriving in the same microsecond
// let the query observe the update as pending, which is also the
// deterministic choice. Subclasses decide where the records go.
class TraceSource : public ArrivalSource {
 public:
  TraceSource(const TraceSource&) = delete;
  TraceSource& operator=(const TraceSource&) = delete;
  // A source destroyed before its stream is exhausted detaches itself.
  ~TraceSource() override;

  // Attaches the source to its simulator from the first arrival on. Call
  // once, before the simulator runs past that arrival.
  void Start();

  bool Done() const;

  // Arrival time of the next unsubmitted record, or kSimTimeMax.
  SimTime NextArrivalTime() const final;

 protected:
  // `sim` and `trace` must outlive the source.
  TraceSource(Simulator* sim, const Trace* trace);

  // Passes every update due at Now() to `submit_update`, then every due
  // query to `submit_query`, each in trace order.
  template <typename UpdateFn, typename QueryFn>
  void SubmitDue(UpdateFn&& submit_update, QueryFn&& submit_query) {
    const SimTime now = sim_->Now();
    while (next_update_ < trace_->updates.size() &&
           trace_->updates[next_update_].arrival <= now) {
      submit_update(trace_->updates[next_update_++]);
    }
    while (next_query_ < trace_->queries.size() &&
           trace_->queries[next_query_].arrival <= now) {
      submit_query(trace_->queries[next_query_++]);
    }
  }

 private:
  Simulator* sim_;
  const Trace* trace_;
  size_t next_query_ = 0;
  size_t next_update_ = 0;
  bool started_ = false;
};

class TraceFeeder final : public TraceSource {
 public:
  using QcAssigner =
      std::function<QualityContract(const QueryRecord& record)>;

  // `server` and `trace` must outlive the feeder.
  TraceFeeder(WebDatabaseServer* server, const Trace* trace,
              QcAssigner assigner);

  void FireArrivals() override;

 private:
  WebDatabaseServer* server_;
  QcAssigner assigner_;
};

}  // namespace webdb

#endif  // WEBDB_EXP_TRACE_FEEDER_H_
