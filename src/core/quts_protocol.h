// Declarative QUTS protocol: the paper's Table 2 as a machine-checkable
// transition table.
//
// The last two QUTS bugs (atom-boundary preemption onto an empty side,
// zero-delay wake-ups) were found by hand-diffing quts_scheduler.cc against
// the paper — protocol drift that type-checks fine and only shows up as a
// shifted profit curve thousands of events later. This header removes the
// hand from that loop: it states, as a pure function, what Table 2 requires
// for EVERY (scheduler state, event) pair, and tests/quts_protocol_test.cc
// exhaustively enumerates the pairs against the real scheduler
// (QutsScheduler at one and two CPUs) through a small driver interface.
//
// The abstract state collapses QUTS to the facts Table 2 branches on:
//
//   side     which queue owns the current atom (Q or U)
//   atom     whether the atom is still running or has expired at the event
//   queues   which of the two queues hold waiting work
//   draw     the side the next ξ draw will pick *if* the event consumes one
//            (ξ < ρ → query; arranged deterministically by the drivers)
//   running  CPU occupancy: idle, or running a query/update. On the
//            single-CPU protocol a running transaction was necessarily
//            dispatched from the current side, so running != idle implies
//            running kind == side (StateValidFor enforces this).
//
// and the events are the scheduler's decision entry points: PopNext
// (idle CPU), ShouldPreempt (busy CPU, after an arrival or at a wake-up)
// and NextDecisionTime (wake-up request). Arrival entry points are pure
// enqueues in Table 2 — they never move the atom clock or the side — and
// the checker verifies that as part of arranging each state.
//
// The test also carries a reference model of the table with injectable
// historical bugs; its regression fixtures prove the checker rejects
// exactly the two hand-fixed defects when reintroduced.

#ifndef WEBDB_CORE_QUTS_PROTOCOL_H_
#define WEBDB_CORE_QUTS_PROTOCOL_H_

#include <string>
#include <vector>

#include "txn/transaction.h"
#include "util/time.h"

namespace webdb {

// --- abstract state --------------------------------------------------------

enum class QutsAtom {
  kInProgress,  // now < atom_expiry: mid-atom, priorities are frozen
  kExpired,     // now >= atom_expiry: boundary decision is due
};

enum class QutsQueues {
  kBothEmpty,
  kQueryOnly,
  kUpdateOnly,
  kBoth,
};

enum class QutsRunning {
  kIdle,
  kQuery,
  kUpdate,
};

struct QutsProtoState {
  TxnKind side = TxnKind::kQuery;
  QutsAtom atom = QutsAtom::kInProgress;
  QutsQueues queues = QutsQueues::kBothEmpty;
  TxnKind draw = TxnKind::kQuery;
  QutsRunning running = QutsRunning::kIdle;
};

enum class QutsProtoEvent {
  kPopNext,           // idle CPU asks for the next transaction
  kShouldPreempt,     // busy CPU asks whether to yield
  kNextDecisionTime,  // server asks when to wake the CPU
};

// --- required actions (Table 2) --------------------------------------------

enum class QutsAction {
  // PopNext outcomes.
  kPopQuery,
  kPopUpdate,
  kPopNone,
  // ShouldPreempt outcomes.
  kKeepRunning,
  kPreempt,
  // NextDecisionTime outcomes.
  kWakeAtAtomExpiry,   // mid-atom: wake exactly at the boundary
  kWakeAfterFullAtom,  // expired atom: earliest useful wake is now + τ
  kWakeImmediate,      // wake at or before now — the zero-delay defect
  kNoWake,             // kSimTimeMax: nothing queued, nothing to switch to
};

std::string ToString(QutsAction action);
std::string ToString(QutsProtoEvent event);
std::string Describe(const QutsProtoState& state);

// True when the pair is reachable on the protocol (see the running/side
// invariant above). The checker skips invalid pairs; everything else MUST
// be checked.
bool StateValidFor(const QutsProtoState& state, QutsProtoEvent event);

// The transition table: the action Table 2 requires in `state` when `event`
// fires. Pure; total over valid pairs.
QutsAction RequiredAction(const QutsProtoState& state, QutsProtoEvent event);

// Convenience enumerations for exhaustive sweeps.
const std::vector<QutsProtoState>& AllQutsProtoStates();
constexpr QutsProtoEvent kAllQutsProtoEvents[] = {
    QutsProtoEvent::kPopNext,
    QutsProtoEvent::kShouldPreempt,
    QutsProtoEvent::kNextDecisionTime,
};

// --- checker ---------------------------------------------------------------

// Adapter that puts a concrete scheduler into an abstract state and fires
// one event against it. Arrange() always builds a fresh scheduler, so one
// driver instance serves the whole sweep.
class QutsProtocolDriver {
 public:
  virtual ~QutsProtocolDriver() = default;
  virtual void Arrange(const QutsProtoState& state) = 0;
  virtual QutsAction Fire(QutsProtoEvent event) = 0;
};

struct QutsProtoViolation {
  QutsProtoState state;
  QutsProtoEvent event;
  QutsAction required;
  QutsAction observed;

  std::string Describe() const;
};

// Enumerates every valid (state, event) pair, arranges `driver` into the
// state, fires the event and collects the pairs where the observed action
// differs from RequiredAction. Empty result == the implementation matches
// Table 2 on the whole state space.
std::vector<QutsProtoViolation> CheckQutsProtocol(QutsProtocolDriver& driver);

// Maps a NextDecisionTime() return value to its wake action, for drivers:
// kSimTimeMax → kNoWake, wake <= now → kWakeImmediate, now + τ →
// kWakeAfterFullAtom, anything else (a genuine future boundary) →
// kWakeAtAtomExpiry.
QutsAction ClassifyWake(SimTime wake, SimTime now, SimDuration atom_time);

}  // namespace webdb

#endif  // WEBDB_CORE_QUTS_PROTOCOL_H_
