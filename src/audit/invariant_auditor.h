// Runtime invariant auditor: deep consistency checks for the
// simulator/scheduler core, plus the FNV-1a end-state hashing that pins
// whole-run outcomes in the regression tests.
//
// The auditor has two activation levels (DESIGN.md §8):
//
//   * The audit *functions* (LockManager::AuditConsistency,
//     WebDatabaseServer::AuditInvariants, ...) are always compiled and can
//     be called from any build — tests invoke them directly.
//   * The automatic *hooks* on the hot paths (simulator pop loop, dispatch
//     loop, update registration) fire only when the tree is configured with
//     -DWEBDB_AUDIT=ON, which defines WEBDB_AUDIT globally and turns
//     audit::kEnabled into true. A disabled build pays nothing: every hook
//     sits behind `if constexpr (audit::kEnabled)`.
//
// A violated invariant aborts via audit::Fail with the invariant name —
// same policy as WEBDB_CHECK, because a broken conservation law means every
// number downstream is garbage.
//
// Counters are relaxed atomics: parallel sweeps (exp/sweep_runner.h) run
// one server per worker thread, and the per-invariant tallies are global.

#ifndef WEBDB_AUDIT_INVARIANT_AUDITOR_H_
#define WEBDB_AUDIT_INVARIANT_AUDITOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace webdb {
namespace audit {

#ifdef WEBDB_AUDIT
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

// The invariant catalogue. Every deep check accounts to one of these, so
// tests can assert that a scenario actually exercised the auditor.
enum class Invariant {
  kSimTimeMonotonic = 0,    // event pops never move the clock backwards
  kLockTableConsistent,     // every grant is held by an in-flight txn whose
                            // lock set has the item; no S+X on one item
  kConflictFree,            // 2PL-HP: acquisitions only after resolution
  kDualQueueConservation,   // admitted txn is exactly one lifecycle state
  kRegisterNewestWins,      // pending register entry is the newest arrival
  kLedgerConservation,      // profit ledger totals match obs registry
  kEventArenaConsistent,    // simulator slot arena / heap bookkeeping agrees
  kTxnQueueConsistent,      // TxnQueue live_ matches the non-stale heap count
  kAdmissionConservation,   // arrived = admitted + rejected + shed, per
                            // tenant; DBF demand nodes match tracked entries
  kFusionGroup,             // fused members <-> live groups: disjoint
                            // membership, live lock-free members, leader
                            // still in flight; no member settles before its
                            // group's scan completes
  kFusionCache,             // every cache hit maps to exactly one committed
                            // scan, is settled against that scan's commit
                            // time, and was served within TTL; live entries
                            // never outlive an update to a cached symbol
  kRendezvousGroup,         // cross-shard groups: exist only under
                            // rendezvous; members are exact look-alikes of
                            // the leader or covered single-item lookups
  kCount,                   // sentinel
};

const char* InvariantName(Invariant invariant);

// Number of times `invariant` has been audited (process-wide, all builds).
uint64_t ChecksPerformed(Invariant invariant);
uint64_t TotalChecksPerformed();
// Test isolation helper; not for library code.
void ResetCounters();

// Records one audited instance of `invariant`.
void Count(Invariant invariant);

// Aborts with the invariant name and location. Marked noreturn so audit
// call sites read like assertions.
[[noreturn]] void Fail(Invariant invariant, const char* file, int line,
                       const std::string& detail);

// Checks `cond`, accounting the check to `invariant` and aborting with
// `detail` on violation. For use inside always-compiled audit functions;
// hot-path hooks additionally gate on audit::kEnabled.
#define WEBDB_AUDIT_THAT(invariant, cond, detail)                       \
  do {                                                                  \
    ::webdb::audit::Count(invariant);                                   \
    if (!(cond)) {                                                      \
      ::webdb::audit::Fail(invariant, __FILE__, __LINE__, detail);      \
    }                                                                   \
  } while (0)

// --- FNV-1a end-state hashing ----------------------------------------------
// 64-bit Fowler–Noll–Vo 1a. Used to reduce a whole run's end state (every
// transaction outcome, every data item, every lifecycle counter) to one
// number that the regression suite pins. Only integer state is mixed via
// MixU64; raw double bit patterns go through MixDouble and are reserved for
// values that are moved, never computed (so the hash stays stable across
// libm/compiler differences).
class Fnv1aHasher {
 public:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kPrime = 0x100000001b3ULL;

  void MixByte(uint8_t byte) {
    hash_ ^= byte;
    hash_ *= kPrime;
  }
  void MixBytes(const void* data, size_t size);
  void MixU64(uint64_t value);
  void MixI64(int64_t value) { MixU64(static_cast<uint64_t>(value)); }
  // Bit-pattern mix; canonicalizes -0.0 to +0.0.
  void MixDouble(double value);

  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = kOffsetBasis;
};

}  // namespace audit
}  // namespace webdb

#endif  // WEBDB_AUDIT_INVARIANT_AUDITOR_H_
