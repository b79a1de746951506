#include "core/quts_protocol.h"

#include "util/logging.h"
#include "util/time.h"

namespace webdb {

namespace {

TxnKind Other(TxnKind kind) {
  return kind == TxnKind::kQuery ? TxnKind::kUpdate : TxnKind::kQuery;
}

bool HasQueued(QutsQueues queues, TxnKind kind) {
  switch (queues) {
    case QutsQueues::kBothEmpty:
      return false;
    case QutsQueues::kQueryOnly:
      return kind == TxnKind::kQuery;
    case QutsQueues::kUpdateOnly:
      return kind == TxnKind::kUpdate;
    case QutsQueues::kBoth:
      return true;
  }
  return false;
}

TxnKind RunningKind(QutsRunning running) {
  WEBDB_CHECK(running != QutsRunning::kIdle);
  return running == QutsRunning::kQuery ? TxnKind::kQuery : TxnKind::kUpdate;
}

}  // namespace

std::string ToString(QutsAction action) {
  switch (action) {
    case QutsAction::kPopQuery:
      return "pop-query";
    case QutsAction::kPopUpdate:
      return "pop-update";
    case QutsAction::kPopNone:
      return "pop-none";
    case QutsAction::kKeepRunning:
      return "keep-running";
    case QutsAction::kPreempt:
      return "preempt";
    case QutsAction::kWakeAtAtomExpiry:
      return "wake-at-atom-expiry";
    case QutsAction::kWakeAfterFullAtom:
      return "wake-after-full-atom";
    case QutsAction::kWakeImmediate:
      return "wake-immediate";
    case QutsAction::kNoWake:
      return "no-wake";
  }
  return "?";
}

std::string ToString(QutsProtoEvent event) {
  switch (event) {
    case QutsProtoEvent::kPopNext:
      return "PopNext";
    case QutsProtoEvent::kShouldPreempt:
      return "ShouldPreempt";
    case QutsProtoEvent::kNextDecisionTime:
      return "NextDecisionTime";
  }
  return "?";
}

std::string Describe(const QutsProtoState& state) {
  std::string out = "side=";
  out += state.side == TxnKind::kQuery ? "Q" : "U";
  out += " atom=";
  out += state.atom == QutsAtom::kInProgress ? "in-progress" : "expired";
  out += " queues=";
  switch (state.queues) {
    case QutsQueues::kBothEmpty:
      out += "none";
      break;
    case QutsQueues::kQueryOnly:
      out += "Q";
      break;
    case QutsQueues::kUpdateOnly:
      out += "U";
      break;
    case QutsQueues::kBoth:
      out += "QU";
      break;
  }
  out += " draw=";
  out += state.draw == TxnKind::kQuery ? "Q" : "U";
  out += " running=";
  switch (state.running) {
    case QutsRunning::kIdle:
      out += "idle";
      break;
    case QutsRunning::kQuery:
      out += "Q";
      break;
    case QutsRunning::kUpdate:
      out += "U";
      break;
  }
  return out;
}

std::string QutsProtoViolation::Describe() const {
  std::string out = "[";
  out += webdb::Describe(state);
  out += "] ";
  out += ToString(event);
  out += ": required ";
  out += ToString(required);
  out += ", observed ";
  out += ToString(observed);
  return out;
}

bool StateValidFor(const QutsProtoState& state, QutsProtoEvent event) {
  // A running transaction was dispatched from (or kept ownership of) the
  // current atom's side: PopNext commits the side it pops from and the
  // keep-running branch of ShouldPreempt re-commits the running side, so
  // running != idle implies running kind == side on the single-CPU
  // protocol. States that break the invariant are unreachable and are not
  // part of the table.
  if (state.running != QutsRunning::kIdle &&
      RunningKind(state.running) != state.side) {
    return false;
  }
  switch (event) {
    case QutsProtoEvent::kPopNext:
      // The server only asks an idle CPU for work.
      return state.running == QutsRunning::kIdle;
    case QutsProtoEvent::kShouldPreempt:
      // Preemption is only a question while something runs.
      return state.running != QutsRunning::kIdle;
    case QutsProtoEvent::kNextDecisionTime:
      return true;
  }
  return false;
}

QutsAction RequiredAction(const QutsProtoState& state, QutsProtoEvent event) {
  WEBDB_CHECK(StateValidFor(state, event));
  switch (event) {
    case QutsProtoEvent::kPopNext: {
      // Table 2, idle-CPU dispatch: past the atom boundary the side is
      // redrawn (ξ < ρ → query side); mid-atom it stands. Either way an
      // empty picked queue is an immediate state change to the other side
      // ("...or the current running queue is empty"); only two empty
      // queues leave the CPU idle.
      TxnKind side = state.atom == QutsAtom::kExpired ? state.draw : state.side;
      if (!HasQueued(state.queues, side)) {
        if (!HasQueued(state.queues, Other(side))) return QutsAction::kPopNone;
        side = Other(side);
      }
      return side == TxnKind::kQuery ? QutsAction::kPopQuery
                                     : QutsAction::kPopUpdate;
    }
    case QutsProtoEvent::kShouldPreempt: {
      // Mid-atom the slice is inviolate — bounding the switching frequency
      // is the whole point of τ.
      if (state.atom == QutsAtom::kInProgress) return QutsAction::kKeepRunning;
      // Atom boundary with a running transaction: one draw per atom. The
      // running transaction counts as work on its side, so the CPU yields
      // only when the draw picks the *other* side AND that side has queued
      // work — a draw for an empty side falls straight back to the only
      // non-empty "queue", the one whose transaction is running
      // (over-serving the drawn side beyond ρ was historical defect 1).
      const TxnKind drawn = state.draw;
      if (drawn != RunningKind(state.running) &&
          HasQueued(state.queues, drawn)) {
        return QutsAction::kPreempt;
      }
      return QutsAction::kKeepRunning;
    }
    case QutsProtoEvent::kNextDecisionTime: {
      // A wake-up is only useful when queued work could take the CPU at the
      // boundary.
      if (state.queues == QutsQueues::kBothEmpty) return QutsAction::kNoWake;
      // Mid-atom: wake exactly at the boundary. Expired atom: the boundary
      // decision belongs to the next scheduling event; the earliest useful
      // timer is a full atom out (a wake at `now` is a zero-delay event
      // that spins without progress — historical defect 2).
      return state.atom == QutsAtom::kInProgress
                 ? QutsAction::kWakeAtAtomExpiry
                 : QutsAction::kWakeAfterFullAtom;
    }
  }
  WEBDB_CHECK(false);
  return QutsAction::kPopNone;
}

const std::vector<QutsProtoState>& AllQutsProtoStates() {
  static const std::vector<QutsProtoState> states = [] {
    std::vector<QutsProtoState> all;
    for (TxnKind side : {TxnKind::kQuery, TxnKind::kUpdate}) {
      for (QutsAtom atom : {QutsAtom::kInProgress, QutsAtom::kExpired}) {
        for (QutsQueues queues :
             {QutsQueues::kBothEmpty, QutsQueues::kQueryOnly,
              QutsQueues::kUpdateOnly, QutsQueues::kBoth}) {
          for (TxnKind draw : {TxnKind::kQuery, TxnKind::kUpdate}) {
            for (QutsRunning running :
                 {QutsRunning::kIdle, QutsRunning::kQuery,
                  QutsRunning::kUpdate}) {
              all.push_back(QutsProtoState{side, atom, queues, draw, running});
            }
          }
        }
      }
    }
    return all;
  }();
  return states;
}

std::vector<QutsProtoViolation> CheckQutsProtocol(QutsProtocolDriver& driver) {
  std::vector<QutsProtoViolation> violations;
  for (const QutsProtoState& state : AllQutsProtoStates()) {
    for (QutsProtoEvent event : kAllQutsProtoEvents) {
      if (!StateValidFor(state, event)) continue;
      driver.Arrange(state);
      const QutsAction observed = driver.Fire(event);
      const QutsAction required = RequiredAction(state, event);
      if (observed != required) {
        violations.push_back(QutsProtoViolation{state, event, required,
                                                observed});
      }
    }
  }
  return violations;
}

QutsAction ClassifyWake(SimTime wake, SimTime now, SimDuration atom_time) {
  if (wake == kSimTimeMax) return QutsAction::kNoWake;
  if (wake <= now) return QutsAction::kWakeImmediate;
  if (wake == now + atom_time) return QutsAction::kWakeAfterFullAtom;
  return QutsAction::kWakeAtAtomExpiry;
}

}  // namespace webdb
